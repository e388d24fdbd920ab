import tracemalloc
import warnings

import numpy as np
import pytest

from gbfrft import wiener

from gbfrft.errors import (
    IllConditionedSystem,
    NonFinite,
    NonHermitianStatistics,
    ShapeMismatch,
    SingularPower,
    SizeCapExceeded,
)
from gbfrft.graphs import Graph, make_named_graph
from gbfrft.synthetic import build_observation_model, sample_gaussian
from gbfrft.transforms import ProductTransform, graph_basis, transform_2d
from gbfrft.wiener import (
    DEFAULT_SIZE_CAP,
    MAX_GRID_VALUES,
    FactoredStatistics,
    ObservationModel,
    assemble_normal_equations,
    assemble_normal_equations_naive,
    basis_matrices,
    draw_observations,
    expected_mse,
    grid_search,
    grid_values,
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


def test_model_checks_statistics_without_complex_or_diagonal_eigensolves(monkeypatch):
    # the model holds its statistics as complex arrays; a diagonal matrix's
    # eigenvalues are its diagonal, and one with no imaginary part takes a
    # real solve
    eigvalsh = np.linalg.eigvalsh
    seen = []

    def recording(a, *args, **kwargs):
        a = np.asarray(a)
        seen.append((a.dtype, np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))))
        return eigvalsh(a, *args, **kwargs)

    # the synthetic model is factored; its dense arrays make a dense model
    synth = build_observation_model(make_named_graph("path", 4), make_named_graph("cycle", 3), 0.7)
    rxx, rnn = synth.rxx, synth.rnn
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    ObservationModel(n1=4, n2=3, rxx=rxx, rnn=rnn)
    assert seen
    assert not any(np.issubdtype(dtype, np.complexfloating) for dtype, _ in seen), seen
    assert not any(diagonal for _, diagonal in seen), seen
    monkeypatch.undo()

    with pytest.raises(NonHermitianStatistics, match="negative eigenvalue"):
        ObservationModel(n1=1, n2=2, rxx=[[1.0, 2.0], [2.0, 1.0]], rnn=np.eye(2))
    with pytest.raises(NonHermitianStatistics, match="negative eigenvalue"):
        ObservationModel(n1=1, n2=2, rxx=np.eye(2), rnn=np.diag([1.0, -0.5]))
    with pytest.raises(NonHermitianStatistics, match="negative eigenvalue"):
        ObservationModel(n1=1, n2=2, rxx=[[1.0, 2.0j], [-2.0j, 1.0]], rnn=np.eye(2))
    ObservationModel(n1=1, n2=2, rxx=[[2.0, 1.0j], [-1.0j, 2.0]], rnn=np.diag([0.5, 0.0]))


def test_psd_clip_repairs_indefinite_matrices():
    A = np.diag([1.0, -0.5])
    out = psd_clip(A)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    w = np.linalg.eigvalsh(psd_clip(np.random.default_rng(3).normal(size=(5, 5))))
    assert w.min() > -1e-12


def test_psd_clip_keeps_a_small_imaginary_part():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    R = 1e-9 * B @ B.conj().T
    assert np.linalg.norm(psd_clip(R) - R) <= 1e-12 * np.linalg.norm(R)
    # input with no imaginary part gives a real result
    assert np.isrealobj(psd_clip(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)))


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
    vals = grid_values((0.0, 1.0), 0.1)
    assert vals == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert grid_values((0.0, 1.0), 0.3) == [0.0, 0.3, 0.6, 0.9, 1.0]
    assert grid_values((0.5, 0.5), 0.1) == [0.5]
    with pytest.raises(ValueError):
        grid_values((1.0, 0.0), 0.1)
    with pytest.raises(ValueError):
        grid_values((0.0, 1.0), 0.0)


@pytest.mark.parametrize("rng,step,name", [
    ((0.0, 1.0), np.nan, "step"), ((0.0, 1.0), np.inf, "step"), ((np.nan, 1.0), 0.1, "lower bound"),
    ((0.0, np.inf), 0.1, "upper bound"), ((0.0, 1.0), 1e-300, "10000 values"),
    ((0.0, 1e300), 0.1, "10000 values")])
def test_grid_values_reject_non_finite_and_oversized_grids_at_once(rng, step, name):
    # a grid of about 1e300 values would be built until memory runs out
    g = make_named_graph("path", 2)
    model = ObservationModel(n1=2, n2=2, rxx=np.eye(4), rnn=np.eye(4))
    with pytest.raises(ValueError, match=name):
        grid_values(rng, step)
    with pytest.raises(ValueError, match=name):
        grid_search(model, g, g, rng, (0.0, 1.0), step)


def test_grid_values_cap_is_per_axis_and_results_are_fresh_lists():
    assert len(grid_values((0.0, MAX_GRID_VALUES - 1.0), 1.0)) == MAX_GRID_VALUES
    with pytest.raises(ValueError, match="values"):
        grid_values((0.0, MAX_GRID_VALUES - 0.5), 1.0)   # the endpoint makes one more
    a = grid_values((0.0, 1.0), 0.5)
    a.append(2.0)
    assert grid_values((0.0, 1.0), 0.5) == [0.0, 0.5, 1.0]


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



def lu_reference(model, g1, g2, a1, a2, convention="transform-power"):
    """(h, mse) at one order pair from the full normal equations, by LU."""
    t = transform_2d(g1, g2, a1, a2, convention)
    T, q = assemble_normal_equations(model, t)
    h = solve_filter(T, q)
    return h, expected_mse(model, t, h)


def count_solves(monkeypatch):
    calls = []

    def counting(T, q):
        calls.append(T.shape)
        return solve_filter(T, q)

    monkeypatch.setattr(wiener, "solve_filter", counting)
    return calls


def model_variants(n1, n2, seed):
    """Identity degradation, then g1/g2, then g1/g2 with rxn."""
    full = random_model(n1, n2, seed)
    return [ObservationModel(n1=n1, n2=n2, rxx=full.rxx, rnn=full.rnn),
            ObservationModel(n1=n1, n2=n2, rxx=full.rxx, rnn=full.rnn, g1=full.g1, g2=full.g2),
            full]


@pytest.mark.parametrize("n1,n2", [(3, 5), (4, 2)])
def test_unitary_grid_points_skip_lu_and_match_the_full_equations(n1, n2, monkeypatch):
    # undirected factors under transform-power: both powers unitary, T diagonal
    g1, g2 = make_named_graph("path", n1), make_named_graph("cycle", n2)
    models = model_variants(n1, n2, seed=n1 + 10 * n2) + [build_observation_model(g1, g2, 0.8)]
    for k, model in enumerate(models):
        calls = count_solves(monkeypatch)
        best, rows = grid_search(model, g1, g2, step=0.5, keep_grid=True)
        assert calls == []
        for r in rows:
            _, e = lu_reference(model, g1, g2, r["alpha1"], r["alpha2"])
            assert abs(r["mse"] - e) <= 1e-12 * e, (k, r)
        h, e = lu_reference(model, g1, g2, best.alpha1, best.alpha2)
        assert np.abs(best.h - h).max() <= 1e-12 * np.abs(h).max()
        assert abs(best.mse - e) <= 1e-12 * e


@pytest.mark.parametrize("directed,convention", [
    (True, "transform-power"), (True, "shift-power"), (False, "shift-power")])
def test_non_unitary_grid_points_keep_the_lu_path(directed, convention, monkeypatch):
    # an undirected graph under shift-power has a unitary eigenbasis but a
    # real, non-unimodular spectrum, so its powers are not unitary
    if directed:
        g1, g2 = directed_weighted(3, seed=3), directed_weighted(5, seed=5)
    else:
        g1, g2 = make_named_graph("path", 4), make_named_graph("cycle", 5)
    model = random_model(g1.n, g2.n, seed=7)
    calls = count_solves(monkeypatch)
    best, rows = grid_search(model, g1, g2, step=0.5, convention=convention, keep_grid=True)
    assert len(calls) == len(rows) == 9
    for r in rows:
        _, e = lu_reference(model, g1, g2, r["alpha1"], r["alpha2"], convention)
        assert abs(r["mse"] - e) <= 1e-12 * e


def test_diagonal_path_falls_back_like_lstsq_on_rank_deficient_statistics():
    # noiseless, and no signal on the first vertex of g1: at alpha1 = 0 the
    # diagonal of T has exact zeros up to roundoff
    g1, g2 = make_named_graph("path", 3), make_named_graph("cycle", 4)
    v = np.random.default_rng(4).uniform(0.5, 2.0, size=(4, 3))
    v[:, 0] = 0.0
    model = ObservationModel(n1=3, n2=4, rxx=np.diag(v.reshape(-1)), rnn=np.zeros((12, 12)))
    with pytest.warns(IllConditionedSystem):
        _, rows = grid_search(model, g1, g2, step=0.5, keep_grid=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedSystem)
        for r in rows:
            _, e = lu_reference(model, g1, g2, r["alpha1"], r["alpha2"])
            assert abs(r["mse"] - e) <= 1e-10
        for a1, a2 in [(0.0, 0.0), (0.0, 0.5), (0.5, 1.0)]:
            best = grid_search(model, g1, g2, (a1, a1), (a2, a2), step=0.5)
            h, e = lu_reference(model, g1, g2, a1, a2)
            assert np.abs(best.h - h).max() <= 1e-10
            assert abs(best.mse - e) <= 1e-10


def test_diagonal_path_rejects_non_finite_statistics_and_filters():
    g1, g2 = make_named_graph("path", 2), make_named_graph("cycle", 3)
    for name in ("rnn", "rxx"):
        model = ObservationModel(n1=2, n2=3, rxx=np.eye(6), rnn=np.eye(6))
        getattr(model, name)[1, 1] = np.nan
        with pytest.raises(NonFinite):
            grid_search(model, g1, g2, step=0.5)
    # well conditioned, but q / d overflows
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
        wiener._solve_diagonal(np.full((1, 4), 1e-310 + 0j), np.ones((1, 4), dtype=complex), 4.0)

def test_unitary_grid_contracts_factor_1_once_per_alpha1(monkeypatch):
    g1, g2 = make_named_graph("path", 3), make_named_graph("cycle", 5)
    model = random_model(3, 5, seed=2)
    calls = []
    first_half = wiener._sandwich_diag_m1

    def counting(M1, X, n2):
        calls.append(X.shape)
        return first_half(M1, X, n2)

    monkeypatch.setattr(wiener, "_sandwich_diag_m1", counting)
    _, rows = grid_search(model, g1, g2, step=0.25, keep_grid=True)
    assert len(rows) == 25
    # one first half of My and one of Mxy per distinct alpha1
    assert len(calls) == 10
    calls.clear()
    _, rows = grid_search(model, g1, g2, step=0.25, equal_orders=True, keep_grid=True)
    assert len(rows) == 5
    assert len(calls) == 10


def test_unitary_grid_rows_equal_one_point_searches():
    # a point's design must not depend on the row it is batched with, and a
    # stale first half, kept past its alpha1, would change later rows
    g1, g2 = make_named_graph("path", 3), make_named_graph("cycle", 5)
    big1, big2 = make_named_graph("path", 16), make_named_graph("cycle", 32)
    cases = [(g1, g2, model) for model in model_variants(3, 5, seed=9)]
    cases += [(a, b, build_observation_model(a, b, 0.8)) for a, b in ((g1, g2), (big1, big2))]
    for k, (a, b, model) in enumerate(cases):
        assert (model.factored is not None) == (k >= 3)
        _, rows = grid_search(model, a, b, (0.0, 0.5), (0.0, 1.0), 0.25, keep_grid=True)
        assert len(rows) == 15
        for r in rows:
            a1, a2 = r["alpha1"], r["alpha2"]
            _, one = grid_search(model, a, b, (a1, a1), (a2, a2), 0.25, keep_grid=True)
            assert one == [r], (k, r)


@pytest.mark.parametrize("zero_axis", [0, 1])
def test_diagonal_fallback_inside_a_row_warns_once_per_ill_conditioned_point(zero_axis):
    # noiseless factored statistics with a zero row (or column) of w: at
    # alpha1 = 0 (or alpha2 = 0) the diagonal of T has exact zeros, so a row
    # holds only such points (or one of them among well-conditioned ones)
    g1, g2 = make_named_graph("path", 3), make_named_graph("cycle", 4)
    w = np.random.default_rng(6).uniform(0.5, 2.0, size=(3, 4))
    w[(0, slice(None)) if zero_axis == 0 else (slice(None), 0)] = 0.0
    model = ObservationModel(n1=3, n2=4, factored=FactoredStatistics(np.eye(3), np.eye(4), w, 0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, rows = grid_search(model, g1, g2, step=0.5, keep_grid=True)
    assert [c.category for c in caught] == [IllConditionedSystem] * 3
    for r in rows:
        a1, a2 = r["alpha1"], r["alpha2"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, one = grid_search(model, g1, g2, (a1, a1), (a2, a2), 0.5, keep_grid=True)
        ill = (a1, a2)[zero_axis] == 0.0
        assert [c.category for c in caught] == [IllConditionedSystem] * ill, r
        assert one == [r]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedSystem)
            _, e = lu_reference(model, g1, g2, a1, a2)
        assert abs(r["mse"] - e) <= 1e-10


@pytest.mark.parametrize("convention,lu", [("transform-power", False), ("shift-power", True)])
def test_a_grid_search_builds_no_transform_and_each_power_once(convention, lu, monkeypatch):
    # an undirected pair: unitary powers under transform-power, the LU path under shift-power
    g1, g2 = make_named_graph("path", 4), make_named_graph("cycle", 5)
    model = random_model(4, 5, seed=3)
    built, powers = [], []
    init, parts = ProductTransform.__init__, wiener.power_parts
    monkeypatch.setattr(ProductTransform, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    monkeypatch.setattr(wiener, "power_parts",
                        lambda b, a, inverse: powers.append((id(b), a.tolist(), inverse))
                        or parts(b, a, inverse))
    solves = count_solves(monkeypatch)
    b1, b2 = (id(graph_basis(g, convention)) for g in (g1, g2))
    grid1, grid2 = [0.25, 0.5, 0.75, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0]
    for equal_orders, orders2 in ((False, grid2), (True, grid1)):
        powers.clear()
        _, rows = grid_search(model, g1, g2, (0.25, 1.0), (0.0, 1.0), 0.25, equal_orders=equal_orders,
                              convention=convention, keep_grid=True)
        assert len(rows) == (len(grid1) if equal_orders else len(grid1) * len(grid2))
        # one call per axis covering each of its orders once; the inverse
        # powers only on the LU path
        assert powers == [(b1, grid1, lu), (b2, orders2, lu)]
    assert built == []
    assert len(solves) == (len(grid1) * (len(grid2) + 1) if lu else 0)


def test_a_grid_that_a_zero_eigenvalue_cannot_take_names_its_range():
    # under shift-power the 4-cycle's adjacency has the eigenvalue 0, so its
    # orders must be positive; the 4-path's has no zero eigenvalue
    path, cycle = make_named_graph("path", 4), make_named_graph("cycle", 4)
    model = random_model(4, 4, seed=3)
    cases = [((path, cycle, (0.5, 1.0), (0.0, 1.0), False), "factor 2 .* range2 .* lower bound 0$"),
             ((cycle, path, (-0.5, 1.0), (0.0, 1.0), False), "factor 1 .* range1 .* lower bound -0.5$"),
             # tied orders take both axes from range1
             ((path, cycle, (0.0, 1.0), (0.5, 1.0), True), "factor 2 .* range1 .* lower bound 0$")]
    for (g1, g2, range1, range2, tied), message in cases:
        with pytest.raises(SingularPower, match=message):
            grid_search(model, g1, g2, range1, range2, 0.5, equal_orders=tied, convention="shift-power")


def rotating_eigh(monkeypatch):
    """Make np.linalg.eigh rotate its eigenvectors inside every repeated
    eigenvalue, as another LAPACK build may; returns the rotated clusters."""
    eigh = np.linalg.eigh
    rng = np.random.default_rng(21)
    rotated = []

    def rotating(a, *args, **kwargs):
        w, V = eigh(a, *args, **kwargs)
        V = V.copy()
        tol = 1e-9 * max(1.0, np.abs(w).max())
        start = 0
        for stop in range(1, w.size + 1):
            if stop < w.size and w[stop] - w[start] <= tol:
                continue
            k = stop - start
            if k > 1:
                Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
                if np.iscomplexobj(V):
                    Q = Q * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=k))
                V[:, start:stop] = V[:, start:stop] @ Q
                rotated.append(k)
            start = stop
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", rotating)
    return rotated


def test_draws_depend_on_the_covariance_not_its_eigenbasis(monkeypatch):
    g1, g2 = make_named_graph("path", 3), make_named_graph("cycle", 4)
    real = build_observation_model(g1, g2, 0.8)
    # complex Hermitian statistics with repeated eigenvalues, one of them 0
    U, _ = np.linalg.qr(random_model(3, 4, seed=3).rxx)
    rxx = (U * np.repeat([0.0, 0.5, 1.0, 2.0], 3)) @ U.conj().T
    models = [real, ObservationModel(n1=3, n2=4, rxx=rxx, rnn=real.rnn, g1=g1.adjacency)]
    rxx8 = build_observation_model(make_named_graph("path", 4), make_named_graph("cycle", 8),
                                   1.0).rxx.real
    before = [draw_observations(m, 3, seed=5) for m in models]
    before.append(sample_gaussian(rxx8, seed=5, trials=3))
    rotated = rotating_eigh(monkeypatch)
    after = [draw_observations(m, 3, seed=5) for m in models]
    after.append(sample_gaussian(rxx8, seed=5, trials=3))
    assert len(rotated) >= 6
    for pairs_b, pairs_a in zip(before[:2], after[:2]):
        for (Yb, Xb), (Ya, Xa) in zip(pairs_b, pairs_a):
            assert np.abs(Xa - Xb).max() <= 1e-12
            assert np.abs(Ya - Yb).max() <= 1e-12
    assert np.abs(after[2] - before[2]).max() <= 1e-12


def test_complex_covariance_draws_have_that_covariance():
    rng = np.random.default_rng(0)
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    R = B @ B.conj().T
    x = wiener.gaussian_samples(R, np.random.default_rng(1), 200000)
    assert np.abs(x.T @ x.conj() / len(x) - R).max() <= 0.1


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


def test_factored_model_validation():
    u1, u2, w = np.eye(2), np.eye(3), np.ones((2, 3))
    ObservationModel(n1=2, n2=3, factored=FactoredStatistics(u1, u2, w, 0.0))
    with pytest.raises(NonHermitianStatistics, match="negative eigenvalue"):
        ObservationModel(n1=2, n2=3, factored=FactoredStatistics(u1, u2, w - 2.0, 1.0))
    with pytest.raises(NonHermitianStatistics, match="negative eigenvalue"):
        ObservationModel(n1=2, n2=3, factored=FactoredStatistics(u1, u2, w, -0.5))
    with pytest.raises(ShapeMismatch):
        ObservationModel(n1=2, n2=3, factored=FactoredStatistics(u1, u2, w.T, 1.0))
    with pytest.raises(NonFinite):
        ObservationModel(n1=2, n2=3, factored=FactoredStatistics(u1, u2, w, np.nan))
    with pytest.raises(ValueError):
        ObservationModel(n1=2, n2=3, rxx=np.eye(6), factored=FactoredStatistics(u1, u2, w, 1.0))


def test_size_cap_guards_only_searches_that_form_n_by_n_arrays():
    g1, g2 = make_named_graph("path", 33), make_named_graph("cycle", 32)
    assert g1.n * g2.n > DEFAULT_SIZE_CAP
    eye = np.eye(g1.n * g2.n)
    with pytest.raises(SizeCapExceeded):
        grid_search(ObservationModel(n1=33, n2=32, rxx=eye, rnn=eye), g1, g2, step=1.0)
    grid_search(build_observation_model(g1, g2, 1.0), g1, g2, step=1.0)
    # a factored model on the LU path forms the dense statistics
    g1, g2 = make_named_graph("path", 4), make_named_graph("cycle", 5)
    with pytest.raises(SizeCapExceeded):
        grid_search(build_observation_model(g1, g2, 1.0), g1, g2, step=1.0,
                    convention="shift-power", cap=8)


def test_factored_search_memory_follows_one_row_not_the_grid():
    g1, g2 = make_named_graph("path", 64), make_named_graph("cycle", 64)
    model = build_observation_model(g1, g2, 1.0)
    peaks = []
    for range1 in ((0.0, 0.2), (0.0, 1.0)):
        grid_search(model, g1, g2, range1, step=0.1)
        tracemalloc.start()
        try:
            _, rows = grid_search(model, g1, g2, range1, step=0.1, keep_grid=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(rows) == 11 * (3 if range1[1] == 0.2 else 11)
    # 11 rows against 3, each of the same length
    assert peaks[1] <= 1.25 * peaks[0]


def test_factored_search_at_n_4096_stays_below_one_n_by_n_array():
    g1, g2 = make_named_graph("path", 64), make_named_graph("cycle", 64)
    graph_basis(g1), graph_basis(g2)
    n = g1.n * g2.n
    tracemalloc.start()
    try:
        model = build_observation_model(g1, g2, 1.0)
        best, rows = grid_search(model, g1, g2, step=0.25, keep_grid=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    assert len(rows) == 25 and "rxx" not in vars(model)
    # at orders (1, 1) the transform is the eigenbasis of Rxx, where the
    # diagonal filter reaches the linear MMSE
    w = model.factored.w
    assert (best.alpha1, best.alpha2) == (1.0, 1.0)
    assert abs(best.mse - np.sum(w / (w + 1.0))) <= 1e-9 * best.mse


def count_diagonal_solves(monkeypatch):
    """The (points, N) shapes of the stacks ``_solve_diagonal`` is given."""
    calls = []
    solve = wiener._solve_diagonal

    def counting(d, q, trace_rxx):
        calls.append(d.shape)
        return solve(d, q, trace_rxx)

    monkeypatch.setattr(wiener, "_solve_diagonal", counting)
    return calls


def chunked_search(monkeypatch, rows_per_chunk, model, g1, g2, range1=(0.0, 1.0), range2=(0.0, 1.0),
                   step=0.1, equal_orders=False):
    """A search whose factored path designs ``rows_per_chunk`` grid rows per
    stacked solve: (best, rows, IllConditionedSystem messages in order)."""
    k = 1 if equal_orders else len(grid_values(range2, step))
    monkeypatch.setattr(wiener, "CHUNK_ELEMENTS", rows_per_chunk * k * model.n)
    solves = count_diagonal_solves(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best, rows = grid_search(model, g1, g2, range1, range2, step, equal_orders, keep_grid=True)
    assert len(solves) == -(-len(grid_values(range1, step)) // rows_per_chunk)
    assert {c.category for c in caught} <= {IllConditionedSystem}
    return best, rows, [str(c.message) for c in caught]


@pytest.mark.parametrize("case", [
    {"step": 0.25}, {"step": 0.1}, {"step": 0.1, "equal_orders": True},
    {"range1": (0.5, 0.5), "range2": (0.5, 0.5)}, {"range1": (-1, 1), "range2": (1, 2), "step": 0.5},
    "noiseless"])
def test_chunked_factored_search_matches_one_row_at_a_time(case, monkeypatch):
    # one row per chunk, an uneven split (3 + 3 + 3 + 2 rows of an 11-row
    # grid) and the whole grid must give the same bits
    if case == "noiseless":
        g1, g2, case = make_named_graph("path", 4), make_named_graph("cycle", 5), {"step": 0.25}
        model = build_observation_model(g1, g2, 0.0)
    else:
        g1, g2 = make_named_graph("path", 16), make_named_graph("cycle", 32)
        model = build_observation_model(g1, g2, 0.8)
    runs = [chunked_search(monkeypatch, r, model, g1, g2, **case) for r in (1, 3, 10**4)]
    best, rows, messages = runs[0]
    for other, other_rows, other_messages in runs[1:]:
        assert other_rows == rows
        assert (other.alpha1, other.alpha2, other.mse) == (best.alpha1, best.alpha2, best.mse)
        assert other.h.tobytes() == best.h.tobytes()
        assert other_messages == messages
    if model.factored.noise == 0.0:
        # two points tie at an mse of exactly 0, in different rows, and one
        # falls back to least squares: the first in row-major order wins
        assert [r["mse"] for r in rows].count(0.0) == 2 and len(messages) == 1
        assert (best.alpha1, best.alpha2) == (0.25, 0.25)


@pytest.mark.parametrize("n1,n2,step,solves", [(16, 32, 0.25, 1), (64, 64, 0.1, 11)])
def test_factored_search_stacks_rows_up_to_its_element_budget(n1, n2, step, solves, monkeypatch):
    # the benchmark's 25-point search at N = 512 is one stacked solve; at
    # N = 4096 an 11-point row alone is over the budget, so each row is one
    g1, g2 = make_named_graph("path", n1), make_named_graph("cycle", n2)
    model = build_observation_model(g1, g2, 1.0)
    calls = count_diagonal_solves(monkeypatch)
    _, rows = grid_search(model, g1, g2, step=step, keep_grid=True)
    assert len(calls) == solves
    assert sum(shape[0] for shape in calls) == len(rows)
