import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gbfrft import transforms
from gbfrft.errors import DivergedLoss, ShapeMismatch
from gbfrft.graphs import Graph, make_knn_graph, make_named_graph
from gbfrft.learn import (
    METHODS,
    TrainConfig,
    _train_loop,
    apply_filter,
    fit,
    gradients,
    loss,
    train,
    train_hybrid,
    train_jfrft,
)
from gbfrft.spectral import SpectralBasis
from gbfrft.transforms import jfrft, path_graph, transform_2d


def small_problem(seed=0, n1=3, n2=4, a1=0.35, a2=0.75):
    rng = np.random.default_rng(seed)
    g1 = make_named_graph("path", n1, weighted=True, seed=seed)
    g2 = make_named_graph("cycle", n2, weighted=True, seed=seed + 1)
    t = transform_2d(g1, g2, a1, a2)
    X = rng.normal(size=(n1, n2))
    Y = X + 0.3 * rng.normal(size=(n1, n2))
    h = (rng.normal(size=n1 * n2) + 1j * rng.normal(size=n1 * n2)) * 0.2 + 1.0
    return g1, g2, t, h, [(Y, X)]


def directed_weighted(n, seed):
    """Dense digraph with weights in both directions: its adjacency has a
    non-unitary eigenbasis."""
    adj = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(adj, 0.0)
    return Graph(n=n, adjacency=adj, directed=True, weighted=True)


def directed_problem(seed=0, n1=4, n2=3, a1=0.35, a2=0.75, batch=3):
    """shift-power on two directed weighted graphs, a batch of ``batch``."""
    rng = np.random.default_rng(seed)
    g1, g2 = directed_weighted(n1, seed), directed_weighted(n2, seed + 1)
    t = transform_2d(g1, g2, a1, a2, "shift-power")
    assert not t.op1.basis.unitary
    pairs = [(rng.normal(size=(n1, n2)), rng.normal(size=(n1, n2))) for _ in range(batch)]
    h = (rng.normal(size=n1 * n2) + 1j * rng.normal(size=n1 * n2)) * 0.2 + 1.0
    return g1, g2, t, h, pairs


def test_apply_filter_matches_vec_form():
    _, _, t, h, batch = small_problem()
    Y = batch[0][0]
    xhat = apply_filter(t, h, Y)
    F = t.vec_operator("forward")
    Fi = t.vec_operator("inverse")
    vec = Fi @ (h * (F @ Y.flatten(order="F")))
    assert np.allclose(xhat.flatten(order="F"), vec, atol=1e-10)


def test_loss_is_mean_total_squared_error():
    _, _, t, h, batch = small_problem()
    Y, X = batch[0]
    R = apply_filter(t, h, Y) - X
    direct = float(np.sum(np.abs(R) ** 2))
    assert abs(loss(t, h, batch) - direct) < 1e-12
    assert abs(loss(t, h, batch * 3) - direct) < 1e-12  # mean over copies


def test_loss_validates_batch():
    _, _, t, h, _ = small_problem()
    with pytest.raises(ValueError):
        loss(t, h, [])
    with pytest.raises(ShapeMismatch):
        loss(t, h, [(np.zeros((4, 3)), np.zeros((4, 3)))])
    with pytest.raises(ShapeMismatch):
        loss(t, np.ones(5), [(np.zeros((3, 4)), np.zeros((3, 4)))])


def finite_difference_orders(g1, g2, a1, a2, h, batch, eps=1e-6, convention="transform-power"):
    f = lambda b1, b2: loss(transform_2d(g1, g2, b1, b2, convention), h, batch)  # noqa: E731
    d1 = (f(a1 + eps, a2) - f(a1 - eps, a2)) / (2 * eps)
    d2 = (f(a1, a2 + eps) - f(a1, a2 - eps)) / (2 * eps)
    return d1, d2


def check_order_gradients(make, convention):
    for seed in range(4):
        g1, g2, t, h, batch = make(seed=seed)
        da1, da2, _ = gradients(t, h, batch)
        f1, f2 = finite_difference_orders(g1, g2, 0.35, 0.75, h, batch, convention=convention)
        assert abs(da1 - f1) / max(1.0, abs(f1)) < 1e-6
        assert abs(da2 - f2) / max(1.0, abs(f2)) < 1e-6


def check_filter_gradient(make):
    """g_h = 2 dL/d conj(h): real part from the real perturbation, imaginary
    part from the imaginary perturbation."""
    g1, g2, t, h, batch = make(seed=5)
    _, _, gh = gradients(t, h, batch)
    eps = 1e-7
    for m in (0, 5, 11):
        e = np.zeros_like(h)
        e[m] = eps
        d_re = (loss(t, h + e, batch) - loss(t, h - e, batch)) / (2 * eps)
        d_im = (loss(t, h + 1j * e, batch) - loss(t, h - 1j * e, batch)) / (2 * eps)
        assert abs(gh[m].real - d_re) < 1e-5
        assert abs(gh[m].imag - d_im) < 1e-5


def test_order_gradients_match_finite_differences():
    check_order_gradients(small_problem, "transform-power")


def test_filter_gradient_matches_wirtinger_finite_differences():
    check_filter_gradient(small_problem)


def test_gradients_match_finite_differences_on_a_non_unitary_basis():
    # shift-power on directed weighted graphs, a batch of three samples
    check_order_gradients(directed_problem, "shift-power")
    check_filter_gradient(directed_problem)


def test_filter_gradient_closed_form_at_identity_orders():
    # at orders (0, 0) the transform is the identity, so
    # g_h = 2 conj(y) * (h*y - x) entrywise
    rng = np.random.default_rng(6)
    g1 = make_named_graph("path", 2)
    g2 = make_named_graph("path", 3)
    t = transform_2d(g1, g2, 0.0, 0.0)
    Y = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    X = rng.normal(size=(2, 3))
    h = rng.normal(size=6) + 1j * rng.normal(size=6)
    _, _, gh = gradients(t, h, [(Y, X)])
    y = Y.flatten(order="F")
    x = X.flatten(order="F")
    assert np.allclose(gh, 2.0 * np.conj(y) * (h * y - x), atol=1e-12)


def test_gradients_average_over_batch():
    g1, g2, t, h, batch = small_problem(seed=7)
    rng = np.random.default_rng(8)
    batch2 = batch + [(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))]
    da1_a, da2_a, gh_a = gradients(t, h, [batch2[0]])
    da1_b, da2_b, gh_b = gradients(t, h, [batch2[1]])
    da1, da2, gh = gradients(t, h, batch2)
    assert abs(da1 - (da1_a + da1_b) / 2) < 1e-12
    assert abs(da2 - (da2_a + da2_b) / 2) < 1e-12
    assert np.allclose(gh, (gh_a + gh_b) / 2, atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_orders=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(init_filter="zeros")
    cfg = TrainConfig(lr_orders=0.2)
    assert cfg.filter_rate == 0.2
    assert TrainConfig(lr_orders=0.2, lr_filter=0.05).filter_rate == 0.05


def test_uniform_init_is_seeded_and_tied_when_asked():
    cfg = TrainConfig(init_orders="uniform[-1,1]", seed=3)
    from gbfrft.learn import _initial_orders
    rng = np.random.default_rng(3)
    a1, a2 = _initial_orders(cfg, rng)
    assert -1 <= a1 <= 1 and -1 <= a2 <= 1 and a1 != a2
    tied = TrainConfig(init_orders="uniform[-1,1]", seed=3, tie_orders=True)
    b1, b2 = _initial_orders(tied, np.random.default_rng(3))
    assert b1 == b2 == a1
    with pytest.raises(ValueError):
        _initial_orders(TrainConfig(init_orders="gauss[0,1]"), rng)


def test_training_drives_noiseless_identity_loss_to_zero():
    rng = np.random.default_rng(9)
    g1 = make_named_graph("path", 3)
    g2 = make_named_graph("cycle", 4)
    X = rng.normal(size=(3, 4))
    cfg = TrainConfig(lr_orders=0.03, epochs=200, init_orders=(0.5, 0.5), seed=0)
    design, trace = train([(X, X)], g1, g2, cfg)
    assert design.mse <= 1e-6 * np.sum(X ** 2)
    assert trace.loss[trace.best_epoch] == design.mse
    assert design.mse == min(trace.loss)


def test_trace_records_every_epoch_and_best_so_far():
    g1, g2, _, _, batch = small_problem(seed=10)
    cfg = TrainConfig(lr_orders=0.05, epochs=25, seed=1)
    design, trace = train(batch, g1, g2, cfg)
    assert len(trace.loss) == len(trace.alpha1) == len(trace.alpha2) == 25
    best = trace.best_so_far()
    assert best[-1] == design.mse
    assert all(b <= l + 1e-15 for b, l in zip(best, trace.loss))
    rows = trace.rows()
    assert rows[0]["epoch"] == 0 and len(rows) == 25


def test_tie_orders_keeps_a_single_shared_order():
    g1, g2, _, _, batch = small_problem(seed=11)
    cfg = TrainConfig(lr_orders=0.05, epochs=15, init_orders=(0.4, 0.9),
                      tie_orders=True, seed=2)
    design, trace = train(batch, g1, g2, cfg)
    assert trace.alpha1 == trace.alpha2
    assert design.alpha1 == design.alpha2


def test_sgd_and_adam_take_different_paths():
    g1, g2, _, _, batch = small_problem(seed=12)
    a = train(batch, g1, g2, TrainConfig(lr_orders=0.05, epochs=10, seed=3))[1]
    s = train(batch, g1, g2, TrainConfig(lr_orders=0.05, epochs=10, seed=3,
                                         optimizer="sgd"))[1]
    assert a.alpha1[2] != s.alpha1[2]


def test_real_filter_stays_real():
    g1, g2, _, _, batch = small_problem(seed=13)
    cfg = TrainConfig(lr_orders=0.05, epochs=10, seed=4, real_filter=True)
    design, _ = train(batch, g1, g2, cfg)
    assert design.h.dtype == np.float64


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_loss_is_reported():
    g1, g2, _, _, batch = small_problem(seed=14)
    cfg = TrainConfig(lr_orders=1e6, epochs=60, seed=5, optimizer="sgd")
    with pytest.raises(DivergedLoss):
        train(batch, g1, g2, cfg)


def test_train_jfrft_tracks_vertex_then_time_orders():
    rng = np.random.default_rng(15)
    g = make_named_graph("cycle", 4)
    batch = [(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))]
    cfg = TrainConfig(lr_orders=0.05, epochs=8, init_orders=(0.3, 0.8), seed=6)
    design, trace = train_jfrft(batch, g, 5, cfg)
    assert trace.alpha1[0] == 0.3 and trace.alpha2[0] == 0.8
    t = jfrft(g, 5, alpha=design.alpha2, beta=design.alpha1)
    assert abs(loss(t, design.h, batch) - design.mse) < 1e-12


def test_hybrid_endpoints_reproduce_the_pure_trainers():
    rng = np.random.default_rng(16)
    g = make_named_graph("path", 3)
    T = 4
    batch = [(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))]
    cfg = TrainConfig(lr_orders=0.05, epochs=12, init_orders=(0.5, 0.5), seed=7)

    d_joint, _ = train_jfrft(batch, g, T, cfg)
    d_lam1, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(1.0,))
    assert d_lam1.lam == 1.0
    assert d_lam1.mse == d_joint.mse
    assert (d_lam1.alpha1, d_lam1.alpha2) == (d_joint.alpha1, d_joint.alpha2)

    d_sep, _ = train(batch, g, path_graph(T), cfg)
    d_lam0, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(0.0,))
    assert d_lam0.lam == 0.0
    assert d_lam0.mse == d_sep.mse


def test_hybrid_search_never_loses_to_its_endpoints():
    rng = np.random.default_rng(17)
    g = make_named_graph("path", 3)
    T = 4
    batch = [(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))]
    cfg = TrainConfig(lr_orders=0.05, epochs=10, init_orders=(0.5, 0.5), seed=8)
    d_all, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(0.0, 0.5, 1.0))
    d_lam0, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(0.0,))
    d_lam1, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(1.0,))
    assert d_all.mse <= d_lam0.mse + 1e-12
    assert d_all.mse <= d_lam1.mse + 1e-12


def test_model_source_draws_the_requested_batch():
    from gbfrft.wiener import ObservationModel
    rng = np.random.default_rng(18)
    B = rng.normal(size=(6, 6))
    model = ObservationModel(n1=2, n2=3, rxx=B @ B.T + np.eye(6), rnn=0.5 * np.eye(6))
    g1 = make_named_graph("path", 2)
    g2 = make_named_graph("path", 3)
    cfg = TrainConfig(lr_orders=0.05, epochs=5, seed=9, batch_size=3)
    design, trace = train(model, g1, g2, cfg)
    assert len(trace.loss) == 5
    assert design.h.shape == (6,)


def test_descent_keeps_no_memory_per_visited_order():
    # every epoch visits new orders; once training returns, nothing of
    # them may stay behind on the shared spatial and DFT bases
    rng = np.random.default_rng(0)
    g = make_knn_graph(rng.normal(size=(6, 2)), 2)
    T = 12
    X = rng.normal(size=(6, T))
    batch = [(X + 0.5 * rng.normal(size=X.shape), X)]
    lambdas = (0.0, 0.3, 0.6, 1.0)
    train_hybrid(batch, g, T, TrainConfig(epochs=1), lambda_grid=lambdas)  # builds the bases
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_hybrid(batch, g, T, TrainConfig(epochs=100), lambda_grid=lambdas)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.1e6, f"{retained} bytes retained"


def fit_method(method, g, T, cfg, **kw):
    """One trainer call for a method of ``METHODS``, as the drivers make it."""
    if method == "2d-gfrft":
        return train(kw.pop("source", None), g, path_graph(T), replace(cfg, tie_orders=True), **kw)
    if method == "2d-gbfrft":
        return train(kw.pop("source", None), g, path_graph(T), cfg, **kw)
    if method == "jfrft":
        return train_jfrft(kw.pop("source", None), g, T, cfg, **kw)
    return train_hybrid(kw.pop("source", None), g, T, cfg, lambda_grid=(0.0, 0.5, 1.0), **kw)


@pytest.mark.parametrize("method", METHODS)
def test_stacked_problems_equal_separate_fits(method):
    rng = np.random.default_rng(20)
    g = make_knn_graph(rng.normal(size=(5, 2)), 2)
    T = 4
    sources = []
    for _ in range(4):
        X = rng.normal(size=(5, T))
        sources.append([(X + 0.4 * rng.normal(size=X.shape), X)])
    cfg = TrainConfig(lr_orders=0.05, epochs=25, init_orders=(0.6, 0.4), seed=3)
    stacked = fit_method(method, g, T, cfg, sources=sources)
    assert len(stacked) == len(sources)
    for source, (design, trace) in zip(sources, stacked):
        single, single_trace = fit_method(method, g, T, cfg, source=source)
        assert np.allclose(design.h, single.h, rtol=0, atol=1e-10)
        assert np.allclose([design.alpha1, design.alpha2, design.mse],
                           [single.alpha1, single.alpha2, single.mse], rtol=1e-10, atol=1e-12)
        assert design.lam == single.lam
        assert trace.best_epoch == single_trace.best_epoch
        assert np.allclose(trace.loss, single_trace.loss, rtol=1e-10, atol=0)
        assert np.allclose(trace.alpha1, single_trace.alpha1, rtol=0, atol=1e-10)


def test_trainers_take_one_source_or_a_list():
    g1, g2, _, _, batch = small_problem(seed=21)
    cfg = TrainConfig(epochs=2)
    with pytest.raises(ValueError):
        train(batch, g1, g2, cfg, sources=[batch])
    with pytest.raises(ValueError):
        train(None, g1, g2, cfg)
    with pytest.raises(ValueError):
        train(None, g1, g2, cfg, sources=[])
    with pytest.raises(ValueError):
        train_hybrid(batch, g1, 4, cfg, lambda_grid=())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_diverging_stacked_problem_raises():
    g1, g2, _, _, batch = small_problem(seed=22)
    Y, X = batch[0]
    cfg = TrainConfig(lr_orders=0.05, epochs=40, seed=5, optimizer="sgd")
    train(None, g1, g2, cfg, sources=[batch, batch])  # the tame ones converge
    with pytest.raises(DivergedLoss, match="in problem 1"):
        train(None, g1, g2, cfg, sources=[batch, [(100.0 * Y, X)], batch])


def test_problems_on_different_spatial_bases_are_rejected():
    g1, g2, _, _, batch = small_problem(seed=23)
    other = make_named_graph("cycle", 3)
    problems = [(batch, lambda a, b: transform_2d(g1, g2, a, b)),
                (batch, lambda a, b: transform_2d(other, g2, a, b))]
    with pytest.raises(ValueError, match="spectral basis"):
        _train_loop(problems, TrainConfig(epochs=2))


class CountingMatrix(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingMatrix.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, CountingMatrix) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def counting_basis(basis: SpectralBasis) -> SpectralBasis:
    counted = SpectralBasis(V=basis.V.view(CountingMatrix), lam=basis.lam,
                            V_inv=basis.V_inv.view(CountingMatrix), unitary=basis.unitary)
    counted.V_h = basis.V_h.view(CountingMatrix)
    counted.V_inv_h = basis.V_inv_h.view(CountingMatrix)
    return counted


@pytest.mark.parametrize("method", ["2d-gbfrft", "hybrid"])
def test_one_epoch_multiplies_by_the_spatial_basis_a_fixed_number_of_times(method, monkeypatch):
    rng = np.random.default_rng(24)
    g = make_knn_graph(rng.normal(size=(6, 2)), 2)
    T = 3
    monkeypatch.setitem(transforms._GRAPH_BASES.setdefault(g, {}), "transform-power",
                        counting_basis(transforms.graph_basis(g)))

    def products(epochs, problems, batch):
        sources = [[(rng.normal(size=(6, T)), rng.normal(size=(6, T))) for _ in range(batch)]
                   for _ in range(problems)]
        CountingMatrix.products = 0
        fit_method(method, g, T, TrainConfig(epochs=epochs), sources=sources)
        return CountingMatrix.products

    per_epoch = {(P, B): products(3, P, B) - products(1, P, B) for P, B in ((1, 1), (4, 3))}
    assert per_epoch[(1, 1)] == per_epoch[(4, 3)]
    assert 0 < per_epoch[(1, 1)] / 2 <= 6


def test_one_fit_stacks_every_method_tied_and_untied():
    rng = np.random.default_rng(25)
    g = make_knn_graph(rng.normal(size=(5, 2)), 2)
    T = 4
    sources = []
    for _ in range(2):
        X = rng.normal(size=(5, T))
        sources.append([(X + 0.4 * rng.normal(size=X.shape), X)])
    cfg = TrainConfig(lr_orders=0.05, epochs=25, init_orders=(0.6, 0.4), seed=3)
    jobs = [(m, s) for s in sources for m in METHODS]
    stacked = fit(jobs, g, path_graph(T), cfg, lambda_grid=(0.0, 0.5, 1.0))
    assert len(stacked) == len(jobs)
    for (method, source), (design, trace) in zip(jobs, stacked):
        single, single_trace = fit_method(method, g, T, cfg, source=source)
        assert np.allclose(design.h, single.h, rtol=0, atol=1e-10)
        assert np.allclose([design.alpha1, design.alpha2, design.mse],
                           [single.alpha1, single.alpha2, single.mse], rtol=1e-10, atol=1e-12)
        assert design.lam == single.lam
        assert trace.best_epoch == single_trace.best_epoch
        assert np.allclose(trace.alpha2, single_trace.alpha2, rtol=0, atol=1e-10)
        assert (trace.alpha1 == trace.alpha2) == (method == "2d-gfrft")


@pytest.mark.parametrize("method", METHODS)
def test_first_step_leaves_the_orders_where_they_start(method):
    # at the identity start h = 1 the order gradient is 0 in exact
    # arithmetic, so the first step must not move the orders
    rng = np.random.default_rng(26)
    g = make_knn_graph(rng.normal(size=(7, 2)), 3)
    X = 50.0 * rng.normal(size=(7, 6))
    source = [(X + 20.0 * rng.normal(size=X.shape), X)]
    cfg = TrainConfig(lr_orders=0.05, epochs=3, init_orders=(0.7, 0.4), seed=1)
    _, trace = fit_method(method, g, 6, cfg, source=source)
    assert trace.alpha1[1] == trace.alpha1[0] and trace.alpha2[1] == trace.alpha2[0]
    assert trace.alpha1[2] != trace.alpha1[1]
