import numpy as np
import pytest

from gbfrft import learn, timevertex
from gbfrft.errors import ConstantSeries, NonFinite, ShapeMismatch
from gbfrft.learn import METHODS, TrainConfig, _train_loop as train_loop
from gbfrft.matio import write_matrix
from gbfrft.timevertex import TimeVertexDataset, ingest_timevertex, run_timevertex


def toy_dataset(n=8, t=10, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 10, size=(n, 2))
    base = np.sin(np.linspace(0, 4, t))[None, :] * rng.uniform(1, 3, size=(n, 1))
    values = base + rng.normal(scale=0.2, size=(n, t)) + rng.uniform(-5, 5, size=(n, 1))
    return TimeVertexDataset(coords=coords, values=values)


def test_standardization_per_node():
    ds = toy_dataset()
    z = ds.standardized
    assert np.allclose(z.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=1), 1.0, atol=1e-12)  # population std
    assert np.allclose(ds.destandardize(z), ds.values, atol=1e-10)


def test_constant_series_is_rejected():
    coords = np.zeros((2, 2))
    values = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ConstantSeries) as exc:
        TimeVertexDataset(coords=coords, values=values)
    assert "0" in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_series_or_coordinate_is_rejected_and_named(bad):
    # nan < STD_FLOOR is False, so a NaN series would pass the variance check
    ds = toy_dataset()
    values, coords = ds.values.copy(), ds.coords.copy()
    values[3, 2] = bad
    with pytest.raises(NonFinite, match=r"series \[3\] have non-finite values"):
        TimeVertexDataset(coords=ds.coords, values=values)
    coords[5, 1] = bad
    with pytest.raises(NonFinite, match=r"series \[5\] have non-finite coordinates"):
        TimeVertexDataset(coords=coords, values=ds.values)


def test_dataset_shape_checks():
    with pytest.raises(ShapeMismatch):
        TimeVertexDataset(coords=np.zeros((3, 2)), values=np.zeros((2, 4)))
    with pytest.raises(ShapeMismatch):
        TimeVertexDataset(coords=np.zeros((2, 2)), values=np.zeros(4))


def test_spatial_graph_is_knn_on_coords():
    ds = toy_dataset()
    g = ds.spatial_graph(3)
    assert g.n == ds.n
    deg = (g.adjacency != 0).sum(axis=0)
    assert np.all(deg >= 3)


def test_run_timevertex_rows_and_shared_noise():
    ds = toy_dataset()
    cfg = TrainConfig(lr_orders=0.1, epochs=6, init_orders=(0.5, 0.5))
    rows = run_timevertex(ds, 3, (0.6, 1.2), methods=("2d-gfrft", "jfrft"),
                          cfg=cfg, seed=0)
    assert len(rows) == 4
    assert [r["method"] for r in rows] == ["2d-gfrft", "jfrft", "2d-gfrft", "jfrft"]
    for r in rows:
        assert r["k"] == 3
        assert 0.0 < r["mse"] < 2.0  # per-entry scale
        assert r["lam"] is None
    again = run_timevertex(ds, 3, (0.6, 1.2), methods=("2d-gfrft", "jfrft"),
                           cfg=cfg, seed=0)
    assert rows == again


def test_run_timevertex_hybrid_reports_lambda():
    ds = toy_dataset(n=6, t=6)
    cfg = TrainConfig(lr_orders=0.1, epochs=4, init_orders=(0.5, 0.5))
    rows = run_timevertex(ds, 2, (0.8,), methods=("hybrid",), cfg=cfg, seed=1,
                          lambda_grid=(0.0, 1.0))
    assert rows[0]["lam"] in (0.0, 1.0)


def test_run_timevertex_rejects_unknown_method():
    ds = toy_dataset(n=5, t=5)
    with pytest.raises(ValueError):
        run_timevertex(ds, 2, (1.0,), methods=("spectral-cnn",))


def test_ingest_round_trip(tmp_path):
    ds = toy_dataset()
    vals = str(tmp_path / "v.csv")
    coords = str(tmp_path / "c.csv")
    write_matrix(vals, ds.values)
    write_matrix(coords, ds.coords)
    back = ingest_timevertex(vals, coords)
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.coords, ds.coords)


def test_one_descent_per_run_equals_fits_per_method_and_variance(monkeypatch):
    ds = toy_dataset(n=7, t=6, seed=3)
    cfg = TrainConfig(lr_orders=0.1, epochs=15, init_orders=(0.5, 0.5))
    variances = (0.6, 0.9, 1.2)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return train_loop(*args, **kwargs)

    monkeypatch.setattr(learn, "_train_loop", counting)
    rows = run_timevertex(ds, 3, variances, cfg=cfg, seed=4)
    assert len(calls) == 1
    cells = [(si, v, m) for si, v in enumerate(variances) for m in METHODS]
    assert [(r["sigma2"], r["method"]) for r in rows] == [(v, m) for _, v, m in cells]
    for row, (si, v, m) in zip(rows, cells):
        single = run_timevertex(ds, 3, (v,), methods=(m,), cfg=cfg, seed=4 + si)[0]
        assert row["lam"] == single["lam"]
        assert np.allclose([row["mse"], row["alpha1"], row["alpha2"]],
                           [single["mse"], single["alpha1"], single["alpha2"]], rtol=1e-12, atol=0)
    assert run_timevertex(ds, 3, (), cfg=cfg) == []
    assert run_timevertex(ds, 3, variances, methods=(), cfg=cfg) == []


def test_bad_noise_variances_are_rejected_before_any_work(monkeypatch):
    ds = toy_dataset(n=6, t=6)
    with monkeypatch.context() as m:
        for name in ("make_knn_graph", "path_graph", "fit"):
            m.setattr(timevertex, name, None)   # any work would raise TypeError
        m.setattr(np.random, "default_rng", None)
        for variances in ((-1.0,), (0.5, np.nan), (np.inf,), (0.5, -0.1)):
            with pytest.raises(ValueError, match="variances"):
                run_timevertex(ds, 2, variances)
    # a zero variance is noise-free data, not an error
    cfg = TrainConfig(lr_orders=0.1, epochs=2)
    assert len(run_timevertex(ds, 2, (0.0,), methods=("2d-gbfrft",), cfg=cfg)) == 1
