import gc
import weakref

import numpy as np
import pytest

from gbfrft import transforms
from gbfrft.deblur import patch_graph
from gbfrft.errors import NonFinite, ShapeMismatch, SingularBlend
from gbfrft.graphs import Graph, make_named_graph
from gbfrft.spectral import FactorOperator, FractionalOperator, eig_general, fractional_power
from gbfrft.transforms import (
    METHOD_TABLE,
    DenseOperator,
    all_real,
    apply,
    blend_parts,
    dfrft,
    dft_basis,
    dft_matrix,
    gfrft,
    gfrft2d,
    graph_basis,
    hybrid_transform,
    jfrft,
    path_graph,
    transform_2d,
)


def test_dft_matrix_is_unitary_and_order_one():
    for T in (2, 3, 4, 8):
        W = dft_matrix(T)
        assert np.allclose(W @ W.conj().T, np.eye(T), atol=1e-12)
    op = dfrft(4, 1.0)
    assert np.allclose(op.matrix, dft_matrix(4), atol=1e-10)
    assert np.allclose(dfrft(4, 0.0).matrix, np.eye(4), atol=1e-12)


def test_dfrft_unitary_at_any_order():
    rng = np.random.default_rng(0)
    for trial in range(6):
        T = int(rng.integers(2, 9))
        a = float(rng.uniform(-2, 2))
        M = dfrft(T, a).matrix
        assert np.linalg.norm(M @ M.conj().T - np.eye(T)) < 1e-10


def test_dfrft_additive_in_order():
    for T in (3, 5, 8):
        M = dfrft(T, 0.3).matrix @ dfrft(T, 0.6).matrix
        assert np.allclose(M, dfrft(T, 0.9).matrix, atol=1e-10)


def test_dfrft_period_four():
    # the DFT has order 4, so its fractional flow is 4-periodic
    for T in (4, 6):
        assert np.allclose(dfrft(T, 4.0).matrix, np.eye(T), atol=1e-9)
        assert np.allclose(dfrft(T, 2.5).matrix,
                           dfrft(T, 2.0).matrix @ dfrft(T, 0.5).matrix, atol=1e-9)


def test_gfrft_transform_power_hits_gft_at_order_one():
    g = make_named_graph("cycle", 6)
    basis = graph_basis(g, "transform-power")
    adj_basis = graph_basis(g, "shift-power")
    F = gfrft(g, 1.0).matrix
    assert np.allclose(F, adj_basis.V_inv, atol=1e-10)
    assert np.allclose(gfrft(g, 0.0).matrix, np.eye(6), atol=1e-12)
    assert basis is graph_basis(g, "transform-power")  # cached per graph


def test_gfrft_unitary_for_undirected_graphs():
    rng = np.random.default_rng(1)
    for trial in range(5):
        g = make_named_graph("cycle", int(rng.integers(3, 9)), weighted=True, seed=trial)
        a = float(rng.uniform(-2, 2))
        M = gfrft(g, a).matrix
        assert np.linalg.norm(M @ M.conj().T - np.eye(g.n)) < 1e-10


def test_gfrft_shift_power_hits_adjacency_at_order_one():
    g = make_named_graph("path", 2)
    assert np.allclose(gfrft(g, 1.0, "shift-power").matrix, g.adjacency, atol=1e-12)
    half = gfrft(g, 0.5, "shift-power").matrix
    assert np.allclose(half @ half, g.adjacency, atol=1e-12)


def test_convention_is_validated():
    g = make_named_graph("path", 3)
    with pytest.raises(ValueError):
        gfrft(g, 0.5, "spin-power")


def test_product_forward_matches_dense_sandwich():
    rng = np.random.default_rng(2)
    g1 = make_named_graph("path", 4, weighted=True, seed=1)
    g2 = make_named_graph("cycle", 5, weighted=True, seed=2)
    t = transform_2d(g1, g2, 0.4, 0.7)
    X = rng.normal(size=(4, 5))
    Y = apply(t, X, "forward")
    assert np.allclose(Y, t.op1.matrix @ X @ t.op2.matrix.T, atol=1e-10)
    back = apply(t, Y, "inverse")
    assert np.allclose(back, X, atol=1e-9)


def test_vec_operator_is_kron_of_factors():
    g1 = make_named_graph("path", 3)
    g2 = make_named_graph("cycle", 4)
    t = transform_2d(g1, g2, 0.3, 0.8)
    F = t.vec_operator("forward")
    assert np.allclose(F, np.kron(t.op2.matrix, t.op1.matrix), atol=1e-12)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(3, 4))
    lhs = apply(t, X).flatten(order="F")
    assert np.allclose(F @ X.flatten(order="F"), lhs, atol=1e-10)
    Finv = t.vec_operator("inverse")
    assert np.allclose(Finv @ F, np.eye(12), atol=1e-9)


def test_apply_validates_signal_shape_and_direction():
    t = transform_2d(make_named_graph("path", 3), make_named_graph("path", 4), 0.5, 0.5)
    with pytest.raises(ShapeMismatch):
        apply(t, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        apply(t, np.zeros((3, 4)), "sideways")


def test_gfrft2d_ties_the_orders():
    g1 = make_named_graph("path", 3)
    g2 = make_named_graph("cycle", 4)
    t = gfrft2d(g1, g2, 0.6)
    assert t.kind == "gfrft2d"
    assert t.orders == (0.6, 0.6)
    t2 = transform_2d(g1, g2, 0.6, 0.6)
    assert np.allclose(t.vec_operator(), t2.vec_operator(), atol=1e-12)


def test_jfrft_pairs_graph_rows_with_time_columns():
    g = make_named_graph("cycle", 5)
    t = jfrft(g, 6, alpha=0.7, beta=0.2)
    assert (t.n1, t.n2) == (5, 6)
    assert t.orders == (0.2, 0.7)
    assert np.allclose(t.op1.matrix, gfrft(g, 0.2).matrix, atol=1e-12)
    assert np.allclose(t.op2.matrix, dfrft(6, 0.7).matrix, atol=1e-12)


def test_hybrid_endpoints_reuse_exact_operators():
    g = make_named_graph("path", 4)
    T = 5
    t1 = hybrid_transform(g, path_graph(T), T, alpha=0.3, beta=0.8, lam=1.0)
    assert np.array_equal(t1.op2.matrix, dfrft(T, 0.8).matrix)
    t0 = hybrid_transform(g, path_graph(T), T, alpha=0.3, beta=0.8, lam=0.0)
    assert np.allclose(t0.op2.matrix, gfrft(path_graph(T), 0.8).matrix, atol=1e-12)


def test_hybrid_interior_blend_and_inverse():
    g = make_named_graph("path", 4)
    T = 5
    t = hybrid_transform(g, path_graph(T), T, alpha=0.3, beta=0.8, lam=0.4)
    assert t.lam == 0.4
    B = t.op2.matrix
    expected = 0.4 * dfrft(T, 0.8).matrix + 0.6 * gfrft(path_graph(T), 0.8).matrix
    assert np.allclose(B, expected, atol=1e-12)
    assert np.allclose(t.op2.inverse @ B, np.eye(T), atol=1e-10)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(4, 5))
    assert np.allclose(apply(t, apply(t, X), "inverse"), X, atol=1e-9)


def test_hybrid_blend_derivative_matches_finite_differences():
    g = make_named_graph("path", 3)
    T = 4
    eps = 1e-6
    t = hybrid_transform(g, path_graph(T), T, alpha=0.5, beta=0.6, lam=0.3)
    tp = hybrid_transform(g, path_graph(T), T, alpha=0.5, beta=0.6 + eps, lam=0.3)
    tm = hybrid_transform(g, path_graph(T), T, alpha=0.5, beta=0.6 - eps, lam=0.3)
    fd = (tp.op2.matrix - tm.op2.matrix) / (2 * eps)
    assert np.linalg.norm(t.op2.derivative - fd) / np.linalg.norm(fd) < 1e-8
    fdi = (tp.op2.inverse - tm.op2.inverse) / (2 * eps)
    assert np.linalg.norm(t.op2.inverse_derivative - fdi) / np.linalg.norm(fdi) < 1e-8


def test_hybrid_rejects_a_singular_blend():
    # at T = 2 and beta = 1 the two factors cancel in one row at lambda = 0.5
    # (2-norm condition about 1e16)
    g = make_named_graph("path", 3)
    with pytest.raises(SingularBlend):
        hybrid_transform(g, path_graph(2), 2, alpha=0.5, beta=1.0, lam=0.5)
    t = hybrid_transform(g, path_graph(2), 2, alpha=0.5, beta=1.0, lam=0.3)
    assert np.allclose(t.op2.inverse @ t.op2.matrix, np.eye(2), atol=1e-12)


def test_hybrid_validates_inputs():
    g = make_named_graph("path", 3)
    with pytest.raises(ValueError):
        hybrid_transform(g, path_graph(4), 4, alpha=0.5, beta=0.5, lam=1.5)
    with pytest.raises(NonFinite):
        hybrid_transform(g, path_graph(4), 4, alpha=np.nan, beta=0.5, lam=0.5)
    with pytest.raises(ShapeMismatch):
        hybrid_transform(g, path_graph(5), 4, alpha=0.5, beta=0.5, lam=0.5)


def test_transform_caches_are_shared_across_calls():
    g = make_named_graph("cycle", 7, seed=0)
    assert gfrft(g, 0.25).basis is gfrft(g, 0.75).basis
    assert dfrft(9, 0.5).basis is dfrft(9, 0.7).basis


def test_graph_basis_caches_only_the_convention_asked_for(cold_basis_cache):
    # the adjacency basis behind F_G = V_A^{-1} is not kept with it
    g = make_named_graph("path", 6, weighted=True, seed=1)
    graph_basis(g)
    assert [key[0] for key in transforms._BASES.entries] == ["transform-power"]
    shift, fresh = graph_basis(g, "shift-power"), eig_general(g.adjacency)
    for part in ("V", "lam", "V_inv"):
        assert np.array_equal(getattr(shift, part), getattr(fresh, part))


def test_graphs_of_equal_content_share_one_basis(cold_basis_cache, eig_calls):
    a, b = (make_named_graph("path", 6, weighted=True, seed=1) for _ in range(2))
    other = make_named_graph("path", 6, weighted=True, seed=2)
    basis = graph_basis(a)
    del a   # a basis outlives the graph that first asked for it
    assert graph_basis(b) is basis and len(eig_calls) == 2
    assert graph_basis(other) is not basis
    assert graph_basis(b, "shift-power") is not basis
    assert transforms.basis_cache_stats() == {
        "entries": 3, "bytes": transforms._BASES.nbytes, "hits": 1, "misses": 3}


def test_a_digest_collision_still_gives_each_graph_its_own_basis(monkeypatch, cold_basis_cache):
    monkeypatch.setattr(Graph, "digest", b"same for every graph")
    g1, g2 = (make_named_graph("path", 5, weighted=True, seed=s) for s in (1, 2))
    for g in (g1, g2, g1):
        basis, fresh = graph_basis(g), eig_general(eig_general(g.adjacency).V_inv)
        for part in ("V", "lam", "V_inv"):
            assert np.array_equal(getattr(basis, part), getattr(fresh, part))
    assert graph_basis(g1) is not graph_basis(g2)


def test_basis_cache_keeps_its_bound_and_evicted_bases_die_without_the_cycle_collector(
        monkeypatch, cold_basis_cache):
    # nothing that a transform holds may point back at the basis, or an
    # evicted basis would live on until the cycle collector runs
    graphs = [make_named_graph("cycle", 8, weighted=True, seed=s) for s in range(6)]
    graph_basis(graphs[0])
    bound = 3 * transforms.basis_cache_stats()["bytes"]   # three bases of one size
    monkeypatch.setattr(transforms, "BASIS_CACHE_BYTES", bound)
    gc.disable()
    try:
        t = transform_2d(graphs[0], graphs[1], 0.3, 0.6)
        t.op1.matrix  # dense parts are cached on the operator
        ref = weakref.ref(t.op1.basis)
        del t
        for g in graphs[2:]:
            graph_basis(g)
            stats = transforms.basis_cache_stats()
            assert 0 < stats["bytes"] <= bound and stats["entries"] < len(graphs)
        assert ref() is None
    finally:
        gc.enable()


def test_blended_operator_shares_the_operator_protocol():
    g = make_named_graph("path", 3)
    T = 4
    op = hybrid_transform(g, path_graph(T), T, alpha=0.5, beta=0.6, lam=0.3).op2
    assert isinstance(op, FactorOperator)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(T, 2)) + 1j * rng.normal(size=(T, 2))
    for kind, M in [("fwd", op.matrix), ("inv", op.inverse),
                    ("dfwd", op.derivative), ("dinv", op.inverse_derivative)]:
        assert np.array_equal(op.lmul(X, kind), M @ X)
        assert np.array_equal(op.rmul_t(X.T, kind), (M @ X).T)
    with pytest.raises(ShapeMismatch):
        op.lmul(np.zeros((T + 1, 2)))
    with pytest.raises(ValueError):
        op.lmul(X, "adjoint")


# (family, lam, public constructor at orders (0.3, 0.7) on g1 and a second factor g2 of T vertices)
CONSTRUCTORS = [
    ("2d-gfrft", None, lambda g1, g2, T, lam: gfrft2d(g1, g2, 0.3)),
    ("2d-gbfrft", None, lambda g1, g2, T, lam: transform_2d(g1, g2, 0.3, 0.7)),
    ("jfrft", None, lambda g1, g2, T, lam: jfrft(g1, T, alpha=0.7, beta=0.3)),
] + [("hybrid", lam, lambda g1, g2, T, lam: hybrid_transform(g1, g2, T, alpha=0.3, beta=0.7, lam=lam))
     for lam in (0.0, 0.4, 1.0)]


@pytest.mark.parametrize("method,lam,construct", CONSTRUCTORS)
def test_each_public_constructor_is_its_familys_build(method, lam, construct):
    g1, T = make_named_graph("path", 3), 5
    g2 = make_named_graph("cycle", T) if method.startswith("2d") else path_graph(T)
    t = construct(g1, g2, T, lam)
    ref = METHOD_TABLE[method].build(g1, g2, 0.3, 0.7, lam)
    assert (t.kind, t.orders, t.lam) == (ref.kind, ref.orders, ref.lam)
    # only an interior blend is dense; every other second factor stays a lazy power
    assert type(t.op2) is type(ref.op2) is (DenseOperator if lam == 0.4 else FractionalOperator)
    for op, ref_op in ((t.op1, ref.op1), (t.op2, ref.op2)):
        for part in ("matrix", "inverse", "derivative", "inverse_derivative"):
            assert np.array_equal(getattr(op, part), getattr(ref_op, part)), part


def test_real_powers_marks_the_bases_whose_powers_are_real_matrices():
    # F_G of patch_graph(20) has only conjugate pairs and that of path_graph(3)
    # the eigenvalues 1 and exp(+-2j pi/3); patch_graph(16) has the eigenvalue
    # -1, the DFT basis no real factor, and a directed graph's F_G is not normal
    rng = np.random.default_rng(10)
    adj = rng.uniform(0.1, 1.0, size=(4, 4))
    np.fill_diagonal(adj, 0.0)
    directed = Graph(n=4, adjacency=adj, directed=True, weighted=True)
    real = [graph_basis(patch_graph(20)), graph_basis(path_graph(3))]
    other = [graph_basis(patch_graph(16)), dft_basis(3), graph_basis(directed)]
    assert [b.real_powers for b in real + other] == [True, True, False, False, False]
    for b in real:
        for a in (0.3, 0.8, 1.6, -0.7):
            M = fractional_power(b, a).matrix
            assert np.abs(M.imag).max() <= 1e-13 * np.abs(M).max(), a
    assert all_real(real[0], [real[1], real[1]])
    assert not all_real(real[0], [real[1], None]) and not all_real(real[0], [other[1]])


def test_blend_parts_without_the_inverses_gives_the_forward_parts():
    g2, beta = path_graph(4), np.array([0.3, 0.6, 0.9])
    lam = np.array([0.0, 0.4, 1.0])
    every = blend_parts(g2, beta, lam)
    assert np.array_equal(blend_parts(g2, beta, lam, inverse=False), every[[0, 2]])
