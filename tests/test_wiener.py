import warnings

import numpy as np
import pytest

from gbfrft.errors import (
    IllConditionedSystem,
    NonFinite,
    NonHermitianStatistics,
    ShapeMismatch,
    SizeCapExceeded,
)
from gbfrft.graphs import Graph, make_named_graph
from gbfrft.transforms import transform_2d
from gbfrft.wiener import (
    ObservationModel,
    _grid_values,
    assemble_normal_equations,
    assemble_normal_equations_naive,
    basis_matrices,
    draw_observations,
    expected_mse,
    grid_search,
    psd_clip,
    solve_filter,
)


def single_vertex():
    return Graph(n=1, adjacency=np.zeros((1, 1)))


def two_by_two_model(sigma2=0.5, seed=0, with_g=False, with_cross=False):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(4, 4))
    rxx = B @ B.T + np.eye(4)
    model = dict(n1=2, n2=2, rxx=rxx, rnn=sigma2 * np.eye(4))
    if with_g:
        model["g1"] = rng.normal(size=(2, 2))
        model["g2"] = rng.normal(size=(2, 2))
    if with_cross:
        model["rxn"] = 0.1 * rng.normal(size=(4, 4))
    return ObservationModel(**model)


def test_scalar_filter_matches_closed_form():
    """One vertex per factor: h = sx2/(sx2+sn2), mse = sx2*sn2/(sx2+sn2)."""
    g = single_vertex()
    for sx2, sn2 in [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)]:
        model = ObservationModel(n1=1, n2=1, rxx=[[sx2]], rnn=[[sn2]])
        t = transform_2d(g, g, 0.7, 0.3)
        T, q = assemble_normal_equations(model, t)
        h = solve_filter(T, q)
        assert abs(h[0] - sx2 / (sx2 + sn2)) < 1e-12
        assert abs(expected_mse(model, t, h) - sx2 * sn2 / (sx2 + sn2)) < 1e-12


def test_noiseless_model_recovers_identity_filter():
    g1 = make_named_graph("path", 3)
    g2 = make_named_graph("cycle", 4)
    rng = np.random.default_rng(1)
    B = rng.normal(size=(12, 12))
    model = ObservationModel(n1=3, n2=4, rxx=B @ B.T + np.eye(12), rnn=np.zeros((12, 12)))
    t = transform_2d(g1, g2, 0.4, 0.9)
    T, q = assemble_normal_equations(model, t)
    h = solve_filter(T, q)
    assert np.allclose(h, 1.0, atol=1e-9)
    assert expected_mse(model, t, h) < 1e-10


def test_basis_matrices_sum_to_identity():
    t = transform_2d(make_named_graph("path", 2), make_named_graph("path", 3), 0.3, 0.6)
    W = basis_matrices(t)
    total = sum(W)
    assert np.allclose(total, np.eye(6), atol=1e-10)
    assert len(W) == 6
    with pytest.raises(IndexError):
        W[6]


def test_basis_matrices_respect_size_cap():
    t = transform_2d(make_named_graph("path", 4), make_named_graph("path", 4), 0.5, 0.5)
    with pytest.raises(SizeCapExceeded):
        basis_matrices(t, cap=8)
    t22 = transform_2d(make_named_graph("path", 2), make_named_graph("path", 2), 0.5, 0.5)
    with pytest.raises(SizeCapExceeded):
        assemble_normal_equations(two_by_two_model(), t22, cap=2)


def test_fast_assembly_equals_literal_traces():
    t = transform_2d(make_named_graph("path", 2), make_named_graph("path", 2), 0.35, 0.85)
    for kwargs in [dict(), dict(with_g=True), dict(with_g=True, with_cross=True)]:
        model = two_by_two_model(**kwargs)
        T1, q1 = assemble_normal_equations(model, t)
        T2, q2 = assemble_normal_equations_naive(model, t)
        assert np.abs(T1 - T2).max() < 1e-10
        assert np.abs(q1 - q2).max() < 1e-10


def directed_weighted(n, seed):
    """Dense digraph with weights in both directions, so diagonalizable."""
    adj = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(adj, 0.0)
    return Graph(n=n, adjacency=adj, directed=True, weighted=True)


def random_model(n1, n2, seed):
    """Complex Hermitian PSD statistics with g1, g2 and rxn all set."""
    rng = np.random.default_rng(seed)
    n = n1 * n2

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    B, C = cplx(n, n), cplx(n, n)
    return ObservationModel(n1=n1, n2=n2, rxx=B @ B.conj().T + np.eye(n),
                            rnn=C @ C.conj().T / n, g1=cplx(n1, n1), g2=cplx(n2, n2),
                            rxn=0.1 * cplx(n, n))


@pytest.mark.parametrize("convention", ["transform-power", "shift-power"])
@pytest.mark.parametrize("n1,n2", [(3, 5), (4, 2)])
def test_fast_assembly_equals_literal_traces_on_directed_rectangular_grids(n1, n2, convention):
    # unequal N1, N2 and non-unitary factors: swapping the two modes shows
    g1, g2 = directed_weighted(n1, seed=n1), directed_weighted(n2, seed=n2)
    t = transform_2d(g1, g2, 0.35, 0.7, convention)
    model = random_model(n1, n2, seed=n1 + 10 * n2)
    for m in [model, ObservationModel(n1=n1, n2=n2, rxx=model.rxx, rnn=model.rnn)]:
        T1, q1 = assemble_normal_equations(m, t)
        T2, q2 = assemble_normal_equations_naive(m, t)
        assert np.abs(T1 - T2).max() < 1e-10
        assert np.abs(q1 - q2).max() < 1e-10


def test_normal_equations_mse_matches_direct_estimator_error():
    """h^H T h - 2 Re(h^H q) + tr(Rxx) must equal the algebraic expansion of
    E||sum h_m W_m y - x||^2 for arbitrary h."""
    model = two_by_two_model(with_g=True, with_cross=True)
    t = transform_2d(make_named_graph("path", 2), make_named_graph("path", 2), 0.2, 0.6)
    rng = np.random.default_rng(2)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    F = t.vec_operator("forward")
    Fi = t.vec_operator("inverse")
    H = Fi @ np.diag(h) @ F
    My = model.y_covariance()
    Mxy = model.xy_covariance()
    direct = np.real(np.trace(H @ My @ H.conj().T) - 2 * np.real(np.trace(H @ Mxy.conj().T))
                     + np.trace(model.rxx))
    assert abs(expected_mse(model, t, h) - direct) < 1e-8


def test_model_validation():
    with pytest.raises(NonHermitianStatistics):
        ObservationModel(n1=1, n2=2, rxx=[[1.0, 0.5], [0.0, 1.0]], rnn=np.eye(2))
    with pytest.raises(NonHermitianStatistics):
        ObservationModel(n1=1, n2=2, rxx=np.diag([1.0, -1.0]), rnn=np.eye(2))
    with pytest.raises(ShapeMismatch):
        ObservationModel(n1=2, n2=2, rxx=np.eye(3), rnn=np.eye(3))


def test_psd_clip_repairs_indefinite_matrices():
    A = np.diag([1.0, -0.5])
    out = psd_clip(A)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    w = np.linalg.eigvalsh(psd_clip(np.random.default_rng(3).normal(size=(5, 5))))
    assert w.min() > -1e-12


def test_solve_filter_warns_and_recovers_on_singular_system():
    T = np.diag([1.0, 0.0])
    q = np.array([2.0, 0.0])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        h = solve_filter(T, q)
    # LAPACK's own LinAlgWarning for the exact singularity is not passed on
    assert [w.category for w in rec] == [IllConditionedSystem]
    assert np.allclose(h, [2.0, 0.0], atol=1e-10)


def test_solve_filter_falls_back_above_the_condition_limit():
    # invertible, but its condition number 1e14 exceeds SOLVE_CONDITION_LIMIT
    T = np.diag([1.0, 1e-14])
    q = np.array([2.0, 1e-14])
    with pytest.warns(IllConditionedSystem):
        h = solve_filter(T, q)
    assert np.allclose(h, np.linalg.lstsq(T, q, rcond=None)[0], atol=1e-12)


def test_solve_filter_solves_well_conditioned_non_hermitian_systems_silently():
    rng = np.random.default_rng(8)
    T = 6 * np.eye(6) + rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    q = rng.normal(size=6) + 1j * rng.normal(size=6)
    assert np.abs(T - T.conj().T).max() > 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = solve_filter(T, q)
    assert np.abs(h - np.linalg.solve(T, q)).max() < 1e-12


def test_solve_filter_rejects_non_finite_systems():
    with pytest.raises(NonFinite):
        solve_filter(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(NonFinite):
        solve_filter(np.eye(2), np.array([1.0, np.inf]))


def test_grid_values_land_on_exact_decimals():
    vals = _grid_values((0.0, 1.0), 0.1)
    assert vals == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert _grid_values((0.0, 1.0), 0.3) == [0.0, 0.3, 0.6, 0.9, 1.0]
    assert _grid_values((0.5, 0.5), 0.1) == [0.5]
    with pytest.raises(ValueError):
        _grid_values((1.0, 0.0), 0.1)
    with pytest.raises(ValueError):
        _grid_values((0.0, 1.0), 0.0)


def test_grid_search_picks_minimum_and_reports_rows():
    model = two_by_two_model()
    g = make_named_graph("path", 2)
    best, rows = grid_search(model, g, g, (0.0, 1.0), (0.0, 1.0), 0.5, keep_grid=True)
    assert len(rows) == 9
    assert best.mse == min(r["mse"] for r in rows)
    by_point = {(r["alpha1"], r["alpha2"]): r["mse"] for r in rows}
    assert by_point[(best.alpha1, best.alpha2)] == best.mse


def test_grid_search_tie_break_prefers_smaller_orders():
    # a pure identity-noise model scores every order pair identically
    model = ObservationModel(n1=1, n2=2, rxx=np.eye(2), rnn=np.eye(2))
    g1 = single_vertex()
    g2 = make_named_graph("path", 2)
    best = grid_search(model, g1, g2, (0.0, 1.0), (0.0, 1.0), 0.5)
    assert (best.alpha1, best.alpha2) == (0.0, 0.0)


def test_grid_search_equal_orders_stays_on_diagonal():
    model = two_by_two_model()
    g = make_named_graph("path", 2)
    best, rows = grid_search(model, g, g, (0.0, 1.0), (0.0, 1.0), 0.25,
                             equal_orders=True, keep_grid=True)
    assert len(rows) == 5
    assert all(r["alpha1"] == r["alpha2"] for r in rows)
    assert best.alpha1 == best.alpha2


def test_unconstrained_grid_never_loses_to_diagonal():
    model = two_by_two_model(seed=5)
    g = make_named_graph("path", 2)
    tied = grid_search(model, g, g, (0.0, 1.0), (0.0, 1.0), 0.25, equal_orders=True)
    free = grid_search(model, g, g, (0.0, 1.0), (0.0, 1.0), 0.25)
    assert free.mse <= tied.mse + 1e-12


def test_draw_observations_are_seeded_and_shaped():
    model = two_by_two_model(with_g=True)
    a = draw_observations(model, 3, seed=11)
    b = draw_observations(model, 3, seed=11)
    c = draw_observations(model, 3, seed=12)
    assert len(a) == 3
    for (Ya, Xa), (Yb, Xb) in zip(a, b):
        assert Ya.shape == (2, 2) and Xa.shape == (2, 2)
        assert np.array_equal(Ya, Yb) and np.array_equal(Xa, Xb)
    assert not np.array_equal(a[0][0], c[0][0])


def test_draw_observations_match_model_statistics():
    model = two_by_two_model(sigma2=1.0, seed=7)
    pairs = draw_observations(model, 6000, seed=0)
    xs = np.stack([X.flatten(order="F") for _, X in pairs])
    ys = np.stack([Y.flatten(order="F") for Y, _ in pairs])
    emp_rxx = xs.T @ xs / len(pairs)
    emp_ryy = ys.T @ ys / len(pairs)
    assert np.abs(emp_rxx - model.rxx).max() < 0.35
    assert np.abs(emp_ryy - model.y_covariance().real).max() < 0.4
