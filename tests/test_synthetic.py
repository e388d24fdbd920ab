import numpy as np
import pytest

from gbfrft.graphs import cartesian_product, make_named_graph
from gbfrft.learn import TrainConfig
from gbfrft.synthetic import (
    METHODS,
    SyntheticSpec,
    TOPOLOGIES,
    autocorrelation_matrix,
    build_factors,
    build_observation_model,
    run_synthetic,
    sample_gaussian,
)
from gbfrft.wiener import ObservationModel, draw_observations, grid_search, psd_clip


def test_autocorrelation_of_the_square_cycle():
    """P2 x P2 is a 4-cycle: C = 2I + pattern, lambda_max = 4, power = 2."""
    p2 = make_named_graph("path", 2)
    pg = cartesian_product(p2, p2)
    C, rxx, power = autocorrelation_matrix(pg)
    pattern = np.asarray(pg.adjacency)
    assert np.array_equal(C, 2.0 * np.eye(4) + pattern)
    assert abs(power - 2.0) < 1e-12
    assert np.allclose(rxx, C / 4.0, atol=1e-12)
    assert abs(np.trace(rxx) - power) < 1e-12


def test_autocorrelation_pattern_ignores_weights_and_direction():
    g1 = make_named_graph("path", 3, directed=False, weighted=True, seed=5)
    g2 = make_named_graph("cycle", 4, weighted=True, seed=6)
    pg = cartesian_product(g1, g2)
    C, _, _ = autocorrelation_matrix(pg)
    offdiag = C - 2.0 * np.eye(12)
    vals = np.unique(offdiag)
    assert set(vals.tolist()) <= {0.0, 1.0}
    assert np.array_equal(C, C.T)


def test_sample_gaussian_matches_requested_covariance():
    rxx = np.array([[2.0, 0.8], [0.8, 1.0]])
    draws = sample_gaussian(rxx, seed=0, trials=20000)
    emp = draws.T @ draws / draws.shape[0]
    assert np.abs(emp - rxx).max() < 0.1


def test_build_observation_model_is_psd_and_sized():
    g1 = make_named_graph("path", 4)
    g2 = make_named_graph("cycle", 8)
    model = build_observation_model(g1, g2, 1.5)
    assert model.n == 32
    w = np.linalg.eigvalsh(model.rxx)
    assert w.min() > -1e-12
    assert np.allclose(model.rnn, 1.5 * np.eye(32), atol=1e-15)


def dense_copy(model):
    """The same statistics as a dense model."""
    return ObservationModel(n1=model.n1, n2=model.n2, rxx=model.rxx, rnn=model.rnn)


def test_factored_covariance_is_the_clipped_product_autocorrelation():
    for topology in TOPOLOGIES:
        for variant in ("UU", "UW", "DU"):
            g1, g2 = build_factors(SyntheticSpec(topology=topology), variant)
            model = build_observation_model(g1, g2, 0.7)
            assert model.factored.w.min() >= 0.0
            _, rxx, power = autocorrelation_matrix(cartesian_product(g1, g2))
            assert np.abs(model.rxx - psd_clip(rxx)).max() <= 1e-12, (topology, variant)
            assert abs(model.trace_rxx - np.trace(psd_clip(rxx))) <= 1e-12 * power


def test_factored_grid_rows_equal_dense_rows():
    for topology in TOPOLOGIES:
        for variant in ("UU", "UW"):
            g1, g2 = build_factors(SyntheticSpec(topology=topology), variant)
            for sigma2 in (0.5, 2.0):
                model = build_observation_model(g1, g2, sigma2)
                dense = dense_copy(model)
                del model.rxx, model.rnn   # formed for the dense copy only
                for equal_orders in (False, True):
                    best, rows = grid_search(model, g1, g2, equal_orders=equal_orders, keep_grid=True)
                    ref, ref_rows = grid_search(dense, g1, g2, equal_orders=equal_orders, keep_grid=True)
                    assert len(rows) == len(ref_rows)
                    for r, d in zip(rows, ref_rows):
                        assert (r["alpha1"], r["alpha2"]) == (d["alpha1"], d["alpha2"])
                        assert abs(r["mse"] - d["mse"]) <= 1e-12 * d["mse"], (topology, variant, r, d)
                    assert np.abs(best.h - ref.h).max() <= 1e-12 * np.abs(ref.h).max()
                # the search formed no N x N array
                assert "rxx" not in vars(model) and "rnn" not in vars(model)


def test_factored_draws_equal_dense_principal_root_draws():
    # cycle4 x cycle4 has eigenvalues 2 + 0 - 2 = 0, which come out as
    # roundoff and are zeroed the same way in both forms
    pairs = [(("path", 3), ("cycle", 4), 0.8), (("cycle", 4), ("cycle", 4), 1.0),
             (("complete", 5), ("star", 5), 0.0), (("path", 2), ("path", 2), 1.0)]
    for (k1, n1), (k2, n2), sigma2 in pairs:
        model = build_observation_model(make_named_graph(k1, n1), make_named_graph(k2, n2), sigma2)
        for (Y, X), (Yd, Xd) in zip(draw_observations(model, 4, seed=5),
                                    draw_observations(dense_copy(model), 4, seed=5)):
            assert np.abs(X - Xd).max() <= 1e-12, (k1, k2)
            assert np.abs(Y - Yd).max() <= 1e-12, (k1, k2)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(topology="grid-grid")
    with pytest.raises(ValueError):
        SyntheticSpec(variants=("XX",))
    with pytest.raises(ValueError):
        SyntheticSpec(trials=0)


def test_build_factors_applies_variant_flags():
    spec = SyntheticSpec(topology="path-cycle", seed=3)
    g1, g2 = build_factors(spec, "UW")
    assert not g1.directed and g1.weighted
    assert g1.label == "path4" and g2.label == "cycle8"
    d1, d2 = build_factors(spec, "DU")
    assert d1.directed and not d1.weighted


def test_run_synthetic_grid_rows():
    spec = SyntheticSpec(topology="path-cycle", variants=("UU",),
                         variances=(0.5, 1.0), seed=0, grid_step=0.5)
    rows = run_synthetic(spec, "grid-gbfrft")
    assert len(rows) == 2
    for row, sigma2 in zip(rows, (0.5, 1.0)):
        assert row["method"] == "grid-gbfrft"
        assert row["topology"] == "path-cycle"
        assert row["variant"] == "UU"
        assert row["sigma2"] == sigma2
        assert row["mse"] > 0.0
    assert rows[0]["mse"] < rows[1]["mse"]  # less noise, easier problem


def test_run_synthetic_rejects_unknown_method():
    spec = SyntheticSpec()
    with pytest.raises(ValueError):
        run_synthetic(spec, "grid-search")


def test_equal_order_grid_never_beats_free_grid():
    for topology in TOPOLOGIES:
        spec = SyntheticSpec(topology=topology, variants=("UU",),
                             variances=(1.0,), seed=0, grid_step=0.25)
        tied = run_synthetic(spec, "grid-gfrft")[0]
        free = run_synthetic(spec, "grid-gbfrft")[0]
        assert free["mse"] <= tied["mse"] + 1e-12
        assert tied["alpha1"] == tied["alpha2"]


def test_descent_rows_use_shared_seeded_data():
    cfg = TrainConfig(lr_orders=0.05, epochs=10, init_orders=(0.5, 0.5))
    spec = SyntheticSpec(topology="path-cycle", variants=("UU",), variances=(1.0,),
                         seed=0, train=cfg)
    a = run_synthetic(spec, "gd-gbfrft")
    b = run_synthetic(spec, "gd-gbfrft")
    assert a == b  # fully deterministic
    tied = run_synthetic(spec, "gd-gfrft")[0]
    assert tied["alpha1"] == tied["alpha2"]


def test_weighted_variant_runs_end_to_end():
    spec = SyntheticSpec(topology="path-cycle", variants=("UW",), variances=(1.0,),
                         seed=1, grid_step=0.5)
    rows = run_synthetic(spec, "grid-gbfrft")
    assert len(rows) == 1 and np.isfinite(rows[0]["mse"])


def test_a_synth_sweep_decomposes_each_distinct_factor_once(cold_basis_cache, eig_calls):
    cfg = TrainConfig(lr_orders=0.03, epochs=3, init_orders="uniform[-1,1]")

    def sweep():
        return [row for topology in TOPOLOGIES for method in METHODS
                for row in run_synthetic(SyntheticSpec(topology=topology, variants=("UU", "UW"),
                                                       grid_step=0.5, train=cfg), method)]

    rows = sweep()
    # ten distinct factor graphs (path4 is in two topologies), each decomposed
    # twice: its adjacency, then F_G
    assert len(eig_calls) == 20
    assert sweep() == rows and len(eig_calls) == 20
