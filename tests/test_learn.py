import gc
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from gbfrft import learn, spectral, transforms
from gbfrft.errors import DivergedLoss, ShapeMismatch
from gbfrft.deblur import default_config, patch_graph
from gbfrft.graphs import Graph, make_knn_graph, make_named_graph
from gbfrft.learn import (
    METHOD_TABLE,
    METHODS,
    TrainConfig,
    _Stack,
    apply_filter,
    fit,
    gradients,
    loss,
    train,
    train_hybrid,
    train_jfrft,
)
from gbfrft.spectral import FACTORED_MIN_N, SpectralBasis
from gbfrft.transforms import (
    DenseOperator,
    ProductTransform,
    all_unitary,
    blend_basis,
    blend_parts,
    gfrft2d,
    hybrid_transform,
    jfrft,
    path_graph,
    transform_2d,
)


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


def finite_difference_orders(build, a1, a2, h, batch, eps=1e-6):
    f = lambda b1, b2: loss(build(b1, b2), h, batch)  # noqa: E731
    d1 = (f(a1 + eps, a2) - f(a1 - eps, a2)) / (2 * eps)
    d2 = (f(a1, a2 + eps) - f(a1, a2 - eps)) / (2 * eps)
    return d1, d2


def check_order_gradients(make, convention):
    """Every method, the blend at lambda = 0.5; a tied method moves both
    factors with its one order, so its finite difference is da1 + da2."""
    for method in METHODS:
        m = METHOD_TABLE[method]
        for seed in range(4):
            g1, g2, _, h, batch = make(seed=seed)
            build = partial(m.build, g1, g2, lam=0.5, convention=convention)
            da1, da2, _ = gradients(build(0.35, 0.75), h, batch)
            f1, f2 = finite_difference_orders(build, 0.35, 0.75, h, batch)
            if m.tied:
                da1, da2 = da1 + da2, 0.0
            assert abs(da1 - f1) / max(1.0, abs(f1)) < 1e-6, method
            assert abs(da2 - f2) / max(1.0, abs(f2)) < 1e-6, method


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


def forward_mode_order_gradients(t, h, batch) -> np.ndarray:
    """(dL/dalpha1, dL/dalpha2) in forward mode on dense factors: the
    derivative of the estimate along each order, paired with the residual."""
    o1, o2 = t.op1, t.op2
    M1, M1i, dM1, dM1i = o1.matrix, o1.inverse, o1.derivative, o1.inverse_derivative
    M2, M2i, dM2, dM2i = o2.matrix, o2.inverse, o2.derivative, o2.inverse_derivative
    H = h.reshape(t.n1, t.n2, order="F")
    d = np.zeros(2)
    for Y, X in batch:
        Z = H * (M1 @ Y @ M2.T)
        R = M1i @ Z @ M2i.T - X
        dX1 = dM1i @ Z @ M2i.T + M1i @ (H * (dM1 @ Y @ M2.T)) @ M2i.T
        dX2 = M1i @ Z @ dM2i.T + M1i @ (H * (M1 @ Y @ dM2.T)) @ M2i.T
        d += 2.0 * np.array([np.vdot(R, dX1).real, np.vdot(R, dX2).real])
    return d / len(batch)


def method_stack(basis, batches, methods, g2, residual=False):
    """A _Stack of one problem per method on ``basis``, blends at lambda = 0.5,
    on the pass ``fit`` would take, or on the residual pass when asked: a
    second factor with no basis, as a dense blend has, is not unitary."""
    lam = np.array([0.5 if METHOD_TABLE[m].searches_lambda else METHOD_TABLE[m].weight for m in methods])
    seconds = [None if residual else blend_basis(g2, w) for w in lam]
    return _Stack(basis, batches, partial(blend_parts, g2, lam=lam, convention="transform-power"), seconds)


def test_reverse_mode_order_gradients_equal_forward_mode_on_a_mixed_stack():
    rng = np.random.default_rng(27)
    g, T = make_knn_graph(rng.normal(size=(6, 2)), 2), 5
    g2 = path_graph(T)
    jobs = [(method, 0.3 + 0.1 * p, 0.9 - 0.15 * p) for p, method in enumerate(METHODS * 2)]
    ts = [METHOD_TABLE[m].build(g, g2, a1, a2, lam=0.5) for m, a1, a2 in jobs]
    batches = [[(rng.normal(size=(6, T)), rng.normal(size=(6, T))) for _ in range(1 + p % 3)]
               for p in range(len(jobs))]
    h = 1.0 + 0.3 * (rng.normal(size=(len(jobs), 6 * T)) + 1j * rng.normal(size=(len(jobs), 6 * T)))
    stack = method_stack(transforms.graph_basis(g), batches, [m for m, _, _ in jobs], g2)
    _, d_orders, _ = stack.value_and_grad(np.array([t.orders for t in ts]), h)
    assert ts[0].orders[0] == ts[0].orders[1]   # the tied method
    for t, hp, batch, row in zip(ts, h, batches, d_orders):
        ref = forward_mode_order_gradients(t, hp, batch)
        assert np.all(np.abs(row - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref))), (t.kind, row, ref)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_orders=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    cfg = TrainConfig(lr_orders=0.2)
    assert cfg.filter_rate == 0.2
    assert TrainConfig(lr_orders=0.2, lr_filter=0.05).filter_rate == 0.05


@pytest.mark.parametrize("bad", [
    {"lr_orders": float("nan")}, {"lr_orders": float("inf")}, {"lr_orders": -0.1},
    {"lr_filter": float("nan")}, {"lr_filter": float("inf")}, {"lr_filter": 0.0},
    {"init_orders": "uniform[0,nan]"}, {"init_orders": "uniform[0,inf]"}, {"init_orders": "uniform[1]"},
    {"init_orders": "uniform[1,0]"}, {"init_orders": "uniform[0,1,2]"}, {"init_orders": "uniform[a,1]"},
    {"init_orders": (0.5, float("nan"))}, {"init_orders": (0.5,)}, {"init_orders": (0.1, 0.2, 0.3)},
])
def test_train_config_rejects_bad_rates_and_initial_orders(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)
    with pytest.raises(ValueError):
        replace(TrainConfig(), **bad)


def test_uniform_init_is_seeded_and_tied_when_asked():
    cfg = TrainConfig(init_orders="uniform[-1,1]", seed=3)
    from gbfrft.learn import _initial_orders
    rng = np.random.default_rng(3)
    a1, a2 = _initial_orders(cfg, rng)
    assert -1 <= a1 <= 1 and -1 <= a2 <= 1 and a1 != a2
    # a tied method starts both orders at the first draw
    g1, g2, _, _, batch = small_problem(seed=3)
    fits = fit([("2d-gfrft", batch), ("2d-gbfrft", batch)], g1, g2, replace(cfg, epochs=1))
    assert [(t.alpha1[0], t.alpha2[0]) for _, t in fits] == [(a1, a1), (a1, a2)]
    with pytest.raises(ValueError):
        _initial_orders(TrainConfig(init_orders="gauss[0,1]"), rng)
    assert _initial_orders(TrainConfig(init_orders=" uniform[0.3, 0.3] "), rng) == (0.3, 0.3)


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


def test_2d_gfrft_keeps_a_single_shared_order():
    g1, g2, _, _, batch = small_problem(seed=11)
    cfg = TrainConfig(lr_orders=0.05, epochs=15, init_orders=(0.4, 0.9), seed=2)
    design, trace = fit([("2d-gfrft", batch)], g1, g2, cfg)[0]
    assert trace.alpha1 == trace.alpha2
    assert design.alpha1 == design.alpha2


def test_sgd_and_adam_take_different_paths():
    g1, g2, _, _, batch = small_problem(seed=12)
    a = train(batch, g1, g2, TrainConfig(lr_orders=0.05, epochs=10, seed=3))[1]
    s = train(batch, g1, g2, TrainConfig(lr_orders=0.05, epochs=10, seed=3,
                                         optimizer="sgd"))[1]
    assert a.alpha1[2] != s.alpha1[2]


def reference_descent(stack, tied, cfg, start):
    """The descent written out plainly: textbook bias-corrected Adam with
    |g|^2 second moments (beta = 0.9, 0.999, eps = 1e-8), or plain SGD, on
    each parameter, driving the stack's own pass. One (alpha1, alpha2, loss)
    row list and one best (loss, epoch, orders, h) per problem."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    orders = np.array([(start[0], start[0]) if t else start for t in tied], dtype=np.float64)
    h = np.ones((len(tied), stack.n1 * stack.n2), dtype=np.float64 if cfg.real_filter else np.complex128)
    params = [orders, h]
    rates = [cfg.lr_orders, cfg.filter_rate]
    moments = [[0.0, 0.0], [0.0, 0.0]]
    rows = [[] for _ in tied]
    best = [(np.inf, -1, None, None) for _ in tied]
    for epoch in range(cfg.epochs):
        values, d_orders, gh = stack.value_and_grad(params[0], params[1])
        for p in range(len(tied)):
            rows[p].append((float(params[0][p, 0]), float(params[0][p, 1]), float(values[p])))
            if values[p] < best[p][0]:
                best[p] = (float(values[p]), epoch, params[0][p].copy(), params[1][p].copy())
        if epoch == 0:
            d_orders = np.zeros_like(d_orders)
        for p, t in enumerate(tied):
            if t:
                d_orders[p] = d_orders[p, 0] + d_orders[p, 1]
        grads = [d_orders, gh.real if cfg.real_filter else gh]
        for k in range(2):
            g = grads[k]
            if cfg.optimizer == "sgd":
                params[k] = params[k] - rates[k] * g
                continue
            m, v = moments[k]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * np.abs(g) ** 2
            moments[k] = [m, v]
            mhat = m / (1.0 - b1 ** (epoch + 1))
            vhat = v / (1.0 - b2 ** (epoch + 1))
            params[k] = params[k] - rates[k] * mhat / (np.sqrt(vhat) + eps)
    return rows, best


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("real_filter", [False, True])
def test_fit_equals_the_textbook_update_bit_for_bit(optimizer, real_filter):
    g1, g2, _, _, first = small_problem(seed=30)
    _, _, _, _, second = small_problem(seed=31)
    second = second + small_problem(seed=32)[4]
    cfg = TrainConfig(lr_orders=0.05, lr_filter=0.02, epochs=6, init_orders=(0.3, 0.8),
                      optimizer=optimizer, real_filter=real_filter)
    fits = fit([("2d-gfrft", first), ("2d-gbfrft", second)], g1, g2, cfg)
    stack = method_stack(transforms.graph_basis(g1), [first, second], ["2d-gfrft", "2d-gbfrft"], g2)
    rows, best = reference_descent(stack, [True, False], cfg, (0.3, 0.8))
    for (design, trace), p_rows, (mse, epoch, orders, h) in zip(fits, rows, best):
        assert trace.rows() == [{"epoch": k, "alpha1": a, "alpha2": b, "loss": v}
                                for k, (a, b, v) in enumerate(p_rows)]
        assert trace.best_epoch == epoch
        assert (design.alpha1, design.alpha2, design.mse) == (orders[0], orders[1], mse)
        assert design.h.dtype == h.dtype and np.array_equal(design.h, h)
    assert fits[0][1].alpha1 == fits[0][1].alpha2 and fits[1][1].alpha1 != fits[1][1].alpha2


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


PUBLIC_BUILDERS = {
    "2d-gfrft": lambda g, T, d: gfrft2d(g, path_graph(T), d.alpha1),
    "2d-gbfrft": lambda g, T, d: transform_2d(g, path_graph(T), d.alpha1, d.alpha2),
    "jfrft": lambda g, T, d: jfrft(g, T, alpha=d.alpha2, beta=d.alpha1),
    "hybrid": lambda g, T, d: hybrid_transform(g, path_graph(T), T, alpha=d.alpha1, beta=d.alpha2,
                                               lam=d.lam),
}


@pytest.mark.parametrize("method", METHODS)
def test_fitted_loss_is_the_loss_of_the_public_transform(method):
    # the descent works on dense second-factor parts; the public builders
    # hold spectral operators, and their loss at the fitted orders must agree
    rng = np.random.default_rng(15)
    g = make_named_graph("cycle", 4)
    batch = [(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))]
    cfg = TrainConfig(lr_orders=0.05, epochs=8, init_orders=(0.3, 0.8), seed=6)
    [(design, _)] = fit([(method, batch)], g, path_graph(5), cfg, lambda_grid=(0.0, 0.4, 1.0))
    t = PUBLIC_BUILDERS[method](g, 5, design)
    assert abs(loss(t, design.h, batch) - design.mse) < 1e-12


def test_a_fit_builds_no_transform_per_epoch(monkeypatch):
    built = []
    init = ProductTransform.__init__
    monkeypatch.setattr(ProductTransform, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    rng = np.random.default_rng(18)
    g = make_named_graph("cycle", 4)
    batch = [(rng.normal(size=(4, 5)), rng.normal(size=(4, 5)))]
    counts = []
    for epochs in (1, 4):
        built.clear()
        fit([(m, batch) for m in METHODS], g, path_graph(5), TrainConfig(epochs=epochs),
            lambda_grid=(0.0, 0.5, 1.0))
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_gradients_need_a_fractional_first_factor():
    _, _, t, h, batch = small_problem()
    dense = ProductTransform(op1=DenseOperator(0.35, t.op1.matrix, t.op1.inverse, t.op1.derivative,
                                               t.op1.inverse_derivative),
                             op2=t.op2, kind="gbfrft2d", orders=t.orders)
    with pytest.raises(TypeError):
        gradients(dense, h, batch)


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


def fit_method(method, g, T, cfg, sources):
    """One (design, trace) per source, all fit to ``method`` in one stacked descent."""
    return fit([(method, source) for source in sources], g, path_graph(T), cfg,
               lambda_grid=(0.0, 0.5, 1.0))


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
    stacked = fit_method(method, g, T, cfg, sources)
    assert len(stacked) == len(sources)
    for source, (design, trace) in zip(sources, stacked):
        [(single, single_trace)] = fit_method(method, g, T, cfg, [source])
        assert np.allclose(design.h, single.h, rtol=0, atol=1e-10)
        assert np.allclose([design.alpha1, design.alpha2, design.mse],
                           [single.alpha1, single.alpha2, single.mse], rtol=1e-10, atol=1e-12)
        assert design.lam == single.lam
        assert trace.best_epoch == single_trace.best_epoch
        assert np.allclose(trace.loss, single_trace.loss, rtol=1e-10, atol=0)
        assert np.allclose(trace.alpha1, single_trace.alpha1, rtol=0, atol=1e-10)


def test_fit_needs_jobs_samples_and_lambdas():
    g1, g2, _, _, batch = small_problem(seed=21)
    cfg = TrainConfig(epochs=2)
    with pytest.raises(ValueError):
        fit([], g1, g2, cfg)
    with pytest.raises(ValueError):
        train([], g1, g2, cfg)
    with pytest.raises(ValueError):
        fit([("2d-gbfrft", batch), ("2d-gbfrft", [])], g1, g2, cfg)
    with pytest.raises(ValueError):
        fit([("2d-gbfrft", batch)], g1, g2, cfg, lambda_grid=())
    with pytest.raises(ValueError):
        train_hybrid(batch, g1, 4, cfg, lambda_grid=())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_diverging_stacked_problem_raises():
    g1, g2, _, _, batch = small_problem(seed=22)
    Y, X = batch[0]
    cfg = TrainConfig(lr_orders=0.05, epochs=40, seed=5, optimizer="sgd")
    fit([("2d-gbfrft", batch)] * 2, g1, g2, cfg)  # the tame ones converge
    with pytest.raises(DivergedLoss, match="in problem 1"):
        fit([("2d-gbfrft", b) for b in (batch, [(100.0 * Y, X)], batch)], g1, g2, cfg)


class CountingMatrix(np.ndarray):
    """An array that counts the matrix products it takes part in, and the
    complex columns it multiplies from the left: a complex column goes
    through a real factor as two real ones, so a real column counts half,
    and a product by k of an n x n matrix's columns counts k / n of one."""

    products = 0
    columns = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingMatrix.products += 1
            left, right = inputs
            if isinstance(left, CountingMatrix):
                width = left.shape[-1] / left.shape[-2]
                CountingMatrix.columns += right.shape[-1] * width * (1.0 if np.iscomplexobj(right) else 0.5)
        plain = [x.view(np.ndarray) if isinstance(x, CountingMatrix) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def counting_basis(basis: SpectralBasis) -> SpectralBasis:
    counted = SpectralBasis(V=basis.V.view(CountingMatrix), lam=basis.lam,
                            V_inv=basis.V_inv.view(CountingMatrix), unitary=basis.unitary)
    counted.V_h = basis.V_h.view(CountingMatrix)
    counted.V_inv_h = basis.V_inv_h.view(CountingMatrix)
    return counted


def products_per_epoch(method, g, counted, rng, monkeypatch, complex_data=False):
    """(products, columns) with CountingMatrix parts of the basis per epoch,
    for one problem of one sample and for four problems of three samples
    each, on real samples or on complex ones."""
    n, T = g.n, 3
    monkeypatch.setattr(transforms, "_BASES", transforms._BasisCache())
    with monkeypatch.context() as m:   # make ``counted`` the cached basis of g
        m.setattr(transforms, "eig_general", lambda M: counted)
        assert transforms.graph_basis(g) is counted

    def sample():
        return rng.normal(size=(n, T)) + (1j * rng.normal(size=(n, T)) if complex_data else 0.0)

    def counts(epochs, problems, batch):
        sources = [[(sample(), sample()) for _ in range(batch)] for _ in range(problems)]
        CountingMatrix.products = CountingMatrix.columns = 0
        fit_method(method, g, T, TrainConfig(epochs=epochs), sources)
        return np.array([CountingMatrix.products, CountingMatrix.columns])

    return {(P, B): tuple((counts(3, P, B) - counts(1, P, B)) / 2) for P, B in ((1, 1), (4, 3))}


def check_blocks(method, per_epoch, products, blocks, T=3):
    """An epoch takes ``products`` products with the basis, on ``blocks``
    column blocks per sample. A unitary transform takes its loss in the
    transform domain: [M1 Y | dM1 Y | M1 X | dM1 X] through V, one product.
    The residual pass on a unitary basis takes [M1 Y | dM1 Y] through V, then
    one block each through V_inv and V_inv^H: the residual stays in
    eigen-coordinates. A non-unitary basis adds a block each through V and
    V^H for the vertex-domain residual. The order gradients come off the
    adjoint, so no derivative block follows the primal."""
    lambdas = 3 if METHOD_TABLE[method].searches_lambda else 1   # fit_method's lambda grid
    for (P, B), per_epoch_counts in per_epoch.items():
        assert per_epoch_counts == (products, blocks * P * B * lambdas * T)


# (products, blocks) per epoch: the 2d-gbfrft transform is unitary, the
# hybrid's lambda grid holds a blend strictly inside (0, 1)
DENSE_BASIS_COUNTS = {"2d-gbfrft": (1, 4), "hybrid": (3, 4)}


@pytest.mark.parametrize("method", ["2d-gbfrft", "hybrid"])
def test_one_epoch_multiplies_by_the_spatial_basis_a_fixed_number_of_times(method, monkeypatch):
    rng = np.random.default_rng(24)
    g = make_knn_graph(rng.normal(size=(6, 2)), 2)
    basis = transforms.graph_basis(g)
    assert basis.unitary
    per_epoch = products_per_epoch(method, g, counting_basis(basis), rng, monkeypatch)
    check_blocks(method, per_epoch, *DENSE_BASIS_COUNTS[method])


def real_factor_products(method, monkeypatch, complex_data, patch=20):
    # deblur's patch graphs are big enough for products through the real
    # factor Z. The 400-vertex one has no real eigenvalue of F_G, so every
    # power of F_G is a real matrix; the 256-vertex one has two, 1 and -1
    g = patch_graph(patch)
    basis = transforms.graph_basis(g)
    assert basis.Z is not None and basis.n >= FACTORED_MIN_N
    assert len(basis.mix.single) == {20: 0, 16: 2}[patch]
    return products_per_epoch(method, g, replace(basis, Z=basis.Z.view(CountingMatrix)),
                              np.random.default_rng(24), monkeypatch, complex_data)


@pytest.mark.parametrize("method", ["2d-gbfrft", "hybrid"])
def test_one_epoch_multiplies_by_the_real_factor_a_fixed_number_of_times(method, monkeypatch):
    # real samples make every block through V real after the pair mixing, so
    # Z takes their real columns only and each counts half: the four of the
    # transform-domain product and [M1 Y | dM1 Y] of the residual pass
    per_epoch = real_factor_products(method, monkeypatch, complex_data=False)
    check_blocks(method, per_epoch, *{"2d-gbfrft": (1, 2), "hybrid": (3, 3)}[method])


@pytest.mark.parametrize("method", ["2d-gbfrft", "hybrid"])
def test_complex_samples_keep_every_real_factor_product_complex(method, monkeypatch):
    per_epoch = real_factor_products(method, monkeypatch, complex_data=True)
    check_blocks(method, per_epoch, *DENSE_BASIS_COUNTS[method])


def test_only_the_complex_rows_of_a_mixed_block_take_complex_products(monkeypatch):
    # of the 256 eigenvalues of F_G on patch_graph(16), only -1 has complex
    # powers, so one row of the mixed block of real samples is complex. Z
    # takes the real part, and that row's one column of Z the imaginary part
    per_epoch = real_factor_products("2d-gbfrft", monkeypatch, complex_data=False, patch=16)
    check_blocks("2d-gbfrft", per_epoch, products=2, blocks=2 * (1 + 1 / 256))


@pytest.mark.parametrize("method", ["2d-gbfrft", "hybrid"])
def test_one_epoch_multiplies_by_a_non_unitary_basis_five_times(method, monkeypatch):
    g, _, t, _, _ = directed_problem()
    per_epoch = products_per_epoch(method, g, counting_basis(t.op1.basis),
                                   np.random.default_rng(24), monkeypatch)
    check_blocks(method, per_epoch, products=5, blocks=6)


def two_problem_pass(basis, method, T=3, residual=False):
    """value_and_grad of two ``method`` problems of two samples each on
    ``basis``, on the residual pass when asked."""
    rng = np.random.default_rng(26)
    batches = [[(rng.normal(size=(basis.n, T)), rng.normal(size=(basis.n, T))) for _ in range(2)]
               for _ in range(2)]
    h = 1.0 + 0.2 * (rng.normal(size=(2, basis.n * T)) + 1j * rng.normal(size=(2, basis.n * T)))
    tied = METHOD_TABLE[method].tied
    orders = np.array([[0.4 + 0.2 * p, 0.4 + 0.2 * p if tied else 0.7] for p in range(2)])
    return method_stack(basis, batches, [method] * 2, path_graph(T), residual).value_and_grad(orders, h)


def assert_same_pass(got, want):
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


@pytest.mark.parametrize("method", METHODS)
def test_real_factor_products_equal_dense_products(method):
    g = patch_graph(16)
    basis = transforms.graph_basis(g)
    assert basis.Z is not None and basis.n >= FACTORED_MIN_N
    dense = replace(basis, Z=None, mix=None)
    assert_same_pass(two_problem_pass(basis, method), two_problem_pass(dense, method))


def unitary_graph_basis(graph):
    rng = np.random.default_rng(28)
    g = patch_graph(16) if graph == "patch" else make_knn_graph(rng.normal(size=(6, 2)), 2)
    basis = transforms.graph_basis(g)
    assert basis.unitary and (basis.n >= FACTORED_MIN_N) == (graph == "patch")
    return basis


@pytest.mark.parametrize("graph", ["knn", "patch"])
@pytest.mark.parametrize("method", METHODS)
def test_eigen_coordinate_residual_equals_the_vertex_domain_residual(method, graph):
    # unitary=False takes the residual through V and back through V^H; on a
    # unitary basis (V_inv = V^H) that is exact, so both branches agree
    basis = unitary_graph_basis(graph)
    vertex = replace(basis, unitary=False)
    assert_same_pass(two_problem_pass(basis, method, residual=True), two_problem_pass(vertex, method))


@pytest.mark.parametrize("graph", ["knn", "patch"])
@pytest.mark.parametrize("method", [m for m in METHODS if not METHOD_TABLE[m].searches_lambda])
def test_transform_domain_pass_equals_the_residual_pass(method, graph):
    # a unitary transform keeps norms, so the loss and its gradients are the
    # same taken on h * F y - F x as on the residual F^{-1}(h * F y) - x
    basis = unitary_graph_basis(graph)
    assert all_unitary(basis, [blend_basis(path_graph(3), METHOD_TABLE[method].weight)])
    assert_same_pass(two_problem_pass(basis, method), two_problem_pass(basis, method, residual=True))


def test_a_full_fit_takes_the_same_path_through_either_residual_branch(monkeypatch):
    g, T = patch_graph(16), 3
    rng = np.random.default_rng(29)
    sources = []
    for _ in range(2):
        X = rng.normal(size=(g.n, T))
        sources.append([(X + 0.4 * rng.normal(size=X.shape), X)])
    jobs = [(m, s) for s in sources for m in METHODS]
    cfg = TrainConfig(lr_orders=7e-3, epochs=120, init_orders=(0.8, 0.8))   # deblur's defaults

    def designs(lambdas):
        return [d for d, _ in fit(jobs, g, path_graph(T), cfg, lambda_grid=lambdas)]

    def assert_same_designs(got, want):
        for e, v in zip(got, want, strict=True):
            assert np.allclose([e.alpha1, e.alpha2, e.mse], [v.alpha1, v.alpha2, v.mse], rtol=1e-9, atol=0)
            assert np.linalg.norm(e.h - v.h) <= 1e-9 * np.linalg.norm(v.h)
            assert e.lam == v.lam

    basis = transforms.graph_basis(g)
    assert basis.unitary
    # lambdas 0 and 1 keep every transform unitary: the transform-domain pass
    assert all_unitary(basis, [blend_basis(path_graph(T), w) for w in (0.0, 1.0)])
    spectral = designs((0.0, 1.0))
    eigen = designs((0.0, 0.5, 1.0))   # a blend inside (0, 1): the eigen-coordinate residual
    monkeypatch.setattr(learn, "all_unitary", lambda first, seconds: False)
    assert_same_designs(spectral, designs((0.0, 1.0)))
    vertex = replace(basis, unitary=False)
    monkeypatch.setattr(learn, "graph_basis",
                        lambda h, convention: vertex if h is g else transforms.graph_basis(h, convention))
    assert_same_designs(eigen, designs((0.0, 0.5, 1.0)))


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
        [(single, single_trace)] = fit_method(method, g, T, cfg, [source])
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
    [(_, trace)] = fit_method(method, g, 6, cfg, [source])
    assert trace.alpha1[1] == trace.alpha1[0] and trace.alpha2[1] == trace.alpha2[0]
    assert trace.alpha1[2] != trace.alpha1[1]


def test_a_transform_domain_epoch_builds_no_inverse_powers(monkeypatch):
    # the pass reads M1, dM1, M2 and dM2 only: neither factor's inverse
    # powers are built, at the first factor or through blend_parts
    asked = []
    power_parts = spectral.power_parts

    def recording(basis, alpha, inverse=True):
        asked.append(inverse)
        return power_parts(basis, alpha, inverse)

    monkeypatch.setattr(spectral, "power_parts", recording)
    monkeypatch.setattr(learn, "power_parts", recording)
    rng = np.random.default_rng(30)
    g = make_knn_graph(rng.normal(size=(6, 2)), 2)
    batch = [(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))]
    fit([(m, batch) for m in ("2d-gbfrft", "jfrft")], g, path_graph(3), TrainConfig(epochs=3))
    assert len(asked) == 3 * 3 and not any(asked)   # M1, and M2 at each endpoint


def passes_taken(monkeypatch):
    """Record whether each stack that reaches the descent loop is real."""
    taken, loop = [], learn._train_loop
    monkeypatch.setattr(learn, "_train_loop", lambda stack, *a: taken.append(stack.real) or loop(stack, *a))
    return taken


def test_a_real_stack_fits_as_the_complex_path_does(monkeypatch):
    # deblur's configuration on two smooth 20x20 patches of 3 frames: every
    # power is a real matrix, so the fit runs in float64; the same basis
    # without its real factor forces the complex transform-domain pass
    g, T = patch_graph(20), 3
    rng = np.random.default_rng(31)
    sources = []
    for _ in range(2):
        X = np.cumsum(rng.normal(size=(g.n, T)), axis=0)
        sources.append([(X + 0.5 * rng.normal(size=X.shape), X)])
    jobs = [("2d-gbfrft", s) for s in sources]
    taken = passes_taken(monkeypatch)
    real = fit(jobs, g, path_graph(T), default_config())
    basis = transforms.graph_basis(g)
    complex_basis = replace(basis, Z=None, mix=None)
    monkeypatch.setattr(learn, "graph_basis",
                        lambda h, convention: complex_basis if h is g else transforms.graph_basis(h, convention))
    reference = fit(jobs, g, path_graph(T), default_config())
    assert taken == [True, False]
    for (e, _), (v, _) in zip(real, reference, strict=True):
        assert e.h.dtype == v.h.dtype == np.complex128
        assert np.allclose([e.alpha1, e.alpha2, e.mse], [v.alpha1, v.alpha2, v.mse], rtol=1e-9, atol=0)
        assert np.linalg.norm(e.h - v.h) <= 1e-9 * np.linalg.norm(v.h)
