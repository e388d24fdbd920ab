from functools import cache

import numpy as np
import pytest
import scipy.linalg

from gbfrft.deblur import patch_graph
from gbfrft.errors import DefectiveMatrix, NonFinite, ShapeMismatch, SingularPower
from gbfrft.graphs import make_knn_graph, make_named_graph
from gbfrft.spectral import (
    CONDITION_LIMIT,
    RECONSTRUCTION_RTOL,
    SpectralBasis,
    eig_general,
    fractional_power,
    guarded_inverse,
    power_parts,
)


def rot90():
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def test_eigenvalues_sorted_real_desc_then_imag_desc():
    c4 = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        c4[i, j] = c4[j, i] = 1.0
    b = eig_general(c4)
    assert np.allclose(b.lam, [2.0, 0.0, 0.0, -2.0], atol=1e-12)

    b = eig_general(rot90())  # eigenvalues +-j, same real part
    assert np.allclose(b.lam, [1j, -1j], atol=1e-12)


def test_hermitian_path_gives_orthonormal_basis():
    rng = np.random.default_rng(0)
    for trial in range(5):
        A = rng.normal(size=(6, 6))
        A = A + A.T
        b = eig_general(A)
        assert b.unitary
        assert np.allclose(b.V.conj().T @ b.V, np.eye(6), atol=1e-12)
        assert np.allclose(b.reconstruct(), A, atol=1e-10)


def test_normal_path_gives_orthonormal_basis():
    b = eig_general(rot90())
    assert b.unitary
    assert np.allclose(b.V.conj().T @ b.V, np.eye(2), atol=1e-12)
    assert np.allclose(b.reconstruct(), rot90(), atol=1e-12)


def test_general_path_reconstructs():
    rng = np.random.default_rng(1)
    for trial in range(5):
        A = rng.normal(size=(5, 5))
        b = eig_general(A)
        assert not b.unitary
        assert np.allclose(b.reconstruct(), A, atol=1e-9 * max(1, np.linalg.norm(A)))


def test_defective_matrix_is_rejected():
    with pytest.raises(DefectiveMatrix):
        eig_general(np.array([[0.0, 1.0], [0.0, 0.0]]))  # nilpotent Jordan block


def test_near_defective_matrix_is_rejected():
    # a Jordan block split by eps has eigenvectors at an angle of about eps,
    # so cond_2(V) is about 2 / eps; the guard rejects what cond_2 would
    for eps, rejected in ((1e-6, False), (1e-10, False), (1e-12, True), (1e-14, True)):
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0 + eps, 0.0], [0.0, 0.5, 2.0]])
        assert (np.linalg.cond(np.linalg.eig(M)[1]) > CONDITION_LIMIT) == rejected
        if rejected:
            with pytest.raises(DefectiveMatrix, match="numerically singular"):
                eig_general(M)
        else:
            assert np.allclose(eig_general(M).reconstruct(), M, atol=1e-9)


def test_guarded_inverse_bounds_the_condition_of_one_matrix_or_a_stack():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    B_inv, cond = guarded_inverse(B)
    assert cond.shape == (3,)
    for b, b_inv, c in zip(B, B_inv, cond):
        one_inv, one_cond = guarded_inverse(b)
        assert np.array_equal(one_inv, b_inv) and one_cond == c
        assert np.isclose(c, 4 * np.linalg.cond(b, 1), rtol=1e-12)
        assert c >= np.linalg.cond(b)
    singular, cond = guarded_inverse(np.stack([np.eye(2), np.zeros((2, 2))]))
    assert np.all(np.isnan(singular)) and np.all(np.isnan(cond))


def test_eig_general_input_checks():
    with pytest.raises(ShapeMismatch):
        eig_general(np.zeros((2, 3)))
    with pytest.raises(NonFinite):
        eig_general(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_near_real_eigenvalues_snap_to_principal_branch():
    """-1 must power as exp(a*j*pi) even when rounding leaves a tiny
    imaginary residue, so A^0.5 of the 2-path is fixed."""
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = eig_general(A)
    assert np.array_equal(b.lam.imag, [0.0, 0.0])
    op = fractional_power(b, 0.5)
    expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    assert np.allclose(op.matrix, expected, atol=1e-12)
    assert np.allclose(np.sort_complex(np.linalg.eigvals(op.matrix)),
                       np.sort_complex(np.array([1.0, 1j])), atol=1e-12)


def test_zero_and_unit_orders_are_exactly_structural():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5))
    A = A + A.T
    b = eig_general(A)
    assert np.allclose(fractional_power(b, 0.0).matrix, np.eye(5), atol=1e-12)
    assert np.allclose(fractional_power(b, 1.0).matrix, A, atol=1e-10)


def test_power_additivity():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    A = A + A.T + 5.0 * np.eye(4)  # positive spectrum, additivity is exact
    b = eig_general(A)
    for a1, a2 in [(0.3, 0.4), (0.5, -0.2), (1.2, 0.8)]:
        lhs = fractional_power(b, a1).matrix @ fractional_power(b, a2).matrix
        rhs = fractional_power(b, a1 + a2).matrix
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_inverse_part_inverts():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 4))
    b = eig_general(A)
    op = fractional_power(b, 0.7)
    assert np.allclose(op.matrix @ op.inverse, np.eye(4), atol=1e-9)


def test_zero_eigenvalue_conventions():
    A = np.diag([2.0, 0.0])
    b = eig_general(A)
    op = fractional_power(b, 0.5)
    assert np.allclose(op.matrix, np.diag([np.sqrt(2.0), 0.0]), atol=1e-15)
    # pseudoinverse convention: the zero mode stays zero in the inverse
    assert np.allclose(op.inverse, np.diag([2.0 ** -0.5, 0.0]), atol=1e-15)
    # 0 * log 0 = 0 in the derivative
    assert op.dpow_fwd[np.abs(b.lam) == 0].tolist() == [0.0]
    with pytest.raises(SingularPower):
        fractional_power(b, 0.0)
    with pytest.raises(SingularPower):
        fractional_power(b, -1.0)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(5, 5))
    A = A + A.T + 6.0 * np.eye(5)
    b = eig_general(A)
    # the non-normal basis of test_factored_application_matches_dense
    non_normal = eig_general(np.random.default_rng(6).normal(size=(5, 5)))
    eps = 1e-6
    for alpha in (0.3, 0.9, 1.7):
        d = fractional_power(b, alpha).derivative
        fd = (fractional_power(b, alpha + eps).matrix
              - fractional_power(b, alpha - eps).matrix) / (2 * eps)
        assert np.linalg.norm(d - fd) / np.linalg.norm(d) < 1e-8
        # d(lam^-a)/da, which the vertex-domain descent reads
        for basis in (b, non_normal):
            di = power_parts(basis, alpha)[3]
            fdi = (power_parts(basis, alpha + eps)[1] - power_parts(basis, alpha - eps)[1]) / (2 * eps)
            assert np.linalg.norm(di - fdi) / np.linalg.norm(di) < 1e-8


def test_operators_at_one_order_are_equal_and_share_the_basis():
    b = eig_general(np.diag([3.0, 1.0]))
    first, again = fractional_power(b, 0.25), fractional_power(b, 0.25)
    assert first.basis is again.basis is b
    assert np.array_equal(first.matrix, again.matrix)
    assert np.array_equal(first.derivative, again.derivative)


def test_factored_application_matches_dense():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5))
    b = eig_general(A)
    op = fractional_power(b, 0.6)
    X = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    for inverse, M in [(False, op.matrix), (True, op.inverse)]:
        assert np.allclose(op.lmul(X, inverse), M @ X, atol=1e-10)


def test_lmul_rejects_wrong_height():
    b = eig_general(np.diag([2.0, 1.0]))
    op = fractional_power(b, 0.5)
    with pytest.raises(ShapeMismatch):
        op.lmul(np.zeros((3, 2)))


def test_unitary_input_stays_unitary_under_fractional_powers():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    b = eig_general(Q)
    for alpha in (0.1, 0.5, 1.3, 2.7):
        M = fractional_power(b, alpha).matrix
        assert np.linalg.norm(M @ M.conj().T - np.eye(6)) < 1e-12 * 36


def test_non_finite_order_rejected():
    b = eig_general(np.diag([2.0, 1.0]))
    with pytest.raises(NonFinite):
        fractional_power(b, np.inf)


def complex_schur_reference(M) -> SpectralBasis:
    """The complex Schur basis of a normal matrix, with near-real eigenvalues
    snapped onto the real axis as eig_general does; unsorted, as fractional
    powers do not depend on the order."""
    T, Z = scipy.linalg.schur(np.asarray(M, dtype=np.complex128), output="complex")
    lam = np.diag(T)
    lam = np.where(np.abs(lam.imag) <= 1e-12, lam.real + 0j, lam)
    return SpectralBasis(V=Z, lam=lam, V_inv=Z.conj().T, unitary=True)


def real_orthogonal_inputs():
    rng = np.random.default_rng(8)
    out = {"rot90": rot90(), "directed cycle": np.roll(np.eye(9), 1, axis=0)}
    for n in (5, 8, 13):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        for M in (Q, Q * np.r_[-1.0, np.ones(n - 1)]):   # both determinant signs
            out[f"qr{n} det {np.linalg.det(M):+.0f}"] = M
    for g in (make_named_graph("path", 16), make_named_graph("cycle", 32), patch_graph(20)):
        out[f"F_G of {g.label}"] = eig_general(g.adjacency).V_inv
    return out


@pytest.mark.parametrize("name, M", list(real_orthogonal_inputs().items()))
def test_real_orthogonal_input_takes_the_real_schur_path(name, M):
    b = eig_general(M)
    n = b.n
    assert b.Z is not None and np.isrealobj(b.Z)
    assert np.abs(b.Z.T @ b.Z - np.eye(n)).max() < 1e-12
    assert np.abs(b.V.conj().T @ b.V - np.eye(n)).max() < 1e-12
    assert np.linalg.norm(b.reconstruct() - M) / max(1.0, np.linalg.norm(M)) <= RECONSTRUCTION_RTOL
    # V = Z U, with U the pair mixing: a pair's side-by-side columns (x, y)
    # of Z, read as one complex column, are x + j y, which gives it
    # (x + j y) / sqrt(2) at plus and (x - j y) / sqrt(2) at minus; the
    # singles follow, each its column of Z
    nq = len(b.mix.plus)
    x, y = b.Z[:, 0:2 * nq:2], b.Z[:, 1:2 * nq:2]
    assert np.array_equal(b.Z[:, :2 * nq].copy().view(np.complex128), x + 1j * y)
    assert np.array_equal(b.V[:, b.mix.single], b.Z[:, 2 * nq:])
    assert np.abs(b.V[:, b.mix.plus] - (x + 1j * y) * np.sqrt(0.5)).max() < 1e-15
    assert np.abs(b.V[:, b.mix.minus] - (x - 1j * y) * np.sqrt(0.5)).max() < 1e-15
    assert np.array_equal(b.V_inv, b.V.conj().T)
    ref = complex_schur_reference(M)
    for alpha in (0.3, 0.5, 0.8, 1.0, 1.7, -0.4):
        got, want = fractional_power(b, alpha).matrix, fractional_power(ref, alpha).matrix
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), alpha


def test_roundoff_block_of_path16_splits_into_two_real_eigenvalues():
    F = eig_general(make_named_graph("path", 16).adjacency).V_inv.real
    T, _ = scipy.linalg.schur(F, output="real")
    j = np.flatnonzero(np.diag(T, -1))
    # the form this test is for: a [[-1, ~0], [~0, -1]] block, a double
    # eigenvalue -1 with roundoff off-diagonals, whose eigenvectors are real
    assert any(abs(T[i, i] + 1) < 1e-12 and max(abs(T[i, i + 1]), abs(T[i + 1, i])) < 1e-12 for i in j)
    b = eig_general(F)
    minus_one = np.abs(b.lam + 1.0) < 1e-9
    assert np.count_nonzero(minus_one) == 2
    assert np.all(b.lam[minus_one].imag == 0.0) and np.all(b.V[:, minus_one].imag == 0.0)


def test_adjacency_keeps_the_complex_eigh_basis():
    """A real eigh would give F_G = V_A^{-1} other signs or another basis of
    a degenerate eigenspace, and so change every output."""
    A = make_named_graph("cycle", 32).adjacency
    w, V = np.linalg.eigh(A.astype(np.complex128))
    b = eig_general(A)
    assert b.Z is None
    assert np.array_equal(b.V, V[:, np.argsort(-w, kind="stable")])


@cache
def rule_bases():
    """Bases with a real factor Z, with and without a negative real
    eigenvalue, of 16 to 400 vertices, and two without one."""
    knn = make_knn_graph(np.random.default_rng(9).normal(size=(24, 2)), 4)
    graphs = {"patch 16": patch_graph(16), "patch 20": patch_graph(20), "knn 24": knn,
              "path 16": make_named_graph("path", 16)}
    out = {f"F_G of {k}": eig_general(eig_general(g.adjacency).V_inv) for k, g in graphs.items()}
    out["DFT 7"] = eig_general(np.fft.fft(np.eye(7), norm="ortho"))
    out["general 6"] = eig_general(np.random.default_rng(10).normal(size=(6, 6)))
    return out


@pytest.mark.parametrize("name", list(rule_bases()))
def test_every_power_applies_through_the_one_rule(name):
    """M(p) X from X's coordinates, coordinate axis last, equals the dense
    V diag(p) V_inv X for every output of power_parts, on real and complex
    operands, and so does the adjoint M(p)^H X = M(conj p) X on an
    orthonormal basis. A power of F_G is real where no eigenvalue is
    negative: patch 16 has the one -1, and path 16 a double -1."""
    b = rule_bases()[name]
    negatives = {"F_G of patch 16": 1, "F_G of patch 20": 0, "F_G of knn 24": 0, "F_G of path 16": 2}
    assert (b.Z is not None) == (name in negatives)
    if b.Z is not None:
        assert len(b.negative) == negatives[name] and b.real_powers == (not negatives[name])
    rng = np.random.default_rng(11)
    parts = power_parts(b, np.array([0.3, 1.7]))
    for X in (rng.normal(size=(b.n, 3, 2)), rng.normal(size=(b.n, 5)) + 1j * rng.normal(size=(b.n, 5))):
        W = b.coordinates(np.moveaxis(X, 0, -1))
        assert W.shape == X.shape[1:] + (b.n,)
        for p in (q for part in parts for q in part):
            cases = [(p, b.dense(p))] + ([(p.conj(), b.dense(p).conj().T)] if b.unitary else [])
            for weights, M in cases:
                got = b.power_product(weights[b.rows], W)
                want = np.moveaxis(np.tensordot(M, X, axes=1), 0, -1)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
                assert np.isrealobj(got) == (b.real_powers and np.isrealobj(X))


@pytest.mark.parametrize("name", [k for k, b in rule_bases().items() if b.Z is not None and b.real_powers])
def test_dense_on_a_real_power_basis_equals_the_complex_product(name):
    """dense forms a power of a real_powers basis in Z's real coordinates,
    by the pair rule; it is the complex V diag(d) V_inv to roundoff, for
    every output of power_parts, one at a time and stacked."""
    b = rule_bases()[name]
    d = np.stack(power_parts(b, np.array([0.3, 0.8, 1.7, -0.4])))   # (4, 4, n)
    want = (b.V * d[..., None, :]) @ b.V_inv
    got = b.dense(d)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(b.dense(d[2, 1]), got[2, 1])
    out = np.empty_like(got)
    b.dense(d, out)
    assert np.array_equal(out, got)


@pytest.mark.parametrize("graph", ["patch 16", "sensors 24"])
@pytest.mark.parametrize("complex_samples", [False, True])
def test_the_negative_columns_add_their_imaginary_part_to_the_stacked_product(graph, complex_samples):
    """On F_G with an eigenvalue -1 (patch_graph(16), and the k-NN sensor
    graph of the time-vertex benchmark) a power is complex on those
    columns alone. The product as a descent stack takes it, sample-major
    with its scratch, equals the dense V diag(p) V_inv X."""
    g = patch_graph(16) if graph == "patch 16" else make_knn_graph(
        np.random.default_rng(0).uniform(0.0, 1.0, (24, 2)), 3)
    b = eig_general(eig_general(g.adjacency).V_inv)
    assert b.negative.size and not b.real_powers
    rng = np.random.default_rng(13)
    X = rng.normal(size=(b.n, 3, 2, 1, 4)) + (1j * rng.normal(size=(b.n, 3, 2, 1, 4)) if complex_samples else 0.0)
    W = b.coordinates(np.moveaxis(X, 0, -1))   # (S, K, 1, n2, n)
    parts = np.stack(power_parts(b, np.array([0.3, 0.8, 1.4]), inverse=False), axis=1)   # (S, 2, n)
    work = np.empty((2, 3, 2, 2, 4, b.n), W.dtype)
    got = b.power_product(parts[..., b.rows][:, None, :, None], W, out=work)
    assert np.iscomplexobj(got) and got.shape == (3, 2, 2, 4, b.n)
    for s in range(3):
        for k in range(2):
            M = b.dense(parts[s, k])
            want = np.einsum("ij,jab->abi", M, X[:, s, :, 0])
            assert np.abs(got[s, :, k] - want).max() <= 1e-13 * np.abs(want).max()
            assert np.abs(want.imag).max() > 1e-6 * np.abs(want).max()


def test_stacked_powers_broadcast_against_the_coordinates():
    # each stacked power's product is the product with that power alone,
    # bit for bit, also where the stack's scratch holds the turned pairs
    b = eig_general(eig_general(patch_graph(16).adjacency).V_inv)
    W = b.coordinates(np.moveaxis(np.random.default_rng(12).normal(size=(b.n, 3, 2)), 0, -1))
    q = np.stack(power_parts(b, np.array([0.4, 0.9]), inverse=False))[..., b.rows]   # (2, 2, n - pairs)
    got = b.power_product(q[:, :, None, None, :], W, out=np.empty((2, 2, 2, 3, 2, b.n)))
    assert got.shape == (2, 2, 3, 2, b.n)
    for i in range(2):
        for k in range(2):
            assert np.array_equal(got[i, k], b.power_product(q[i, k], W))


def _basis_bytes(b: SpectralBasis) -> list[tuple]:
    parts = [b.V, b.lam, b.V_inv] + ([] if b.Z is None else [b.Z, *b.mix])
    return [(p.dtype.str, p.shape, p.tobytes()) for p in parts]


@pytest.mark.parametrize("case", ["adjacency", "F_G of path 16", "F_G of cycle 32", "digraph"])
def test_a_real_matrix_gives_the_same_basis_in_any_dtype(case):
    """The structure tests and checks run in the input's own arithmetic, and
    each eigensolver gets the array it always got, so a float64, an integer
    and a zero-imaginary complex128 copy (imaginary parts +0 or -0) all give
    the complex128 input's basis byte for byte: the eigh, real Schur and
    general eig paths."""
    if case == "adjacency":
        M = patch_graph(8).adjacency
    elif case == "digraph":
        M = make_named_graph("complete", 7, directed=True, seed=3).adjacency
    else:
        kind, n = case.split()[-2:]
        M = eig_general(make_named_graph(kind, int(n)).adjacency).V_inv.real.copy()
    want = _basis_bytes(eig_general(M.astype(np.complex128)))
    copies = [M.astype(np.float64), np.asfortranarray(M), np.conj(M.astype(np.complex128))]
    if np.array_equal(M, M.astype(int)):
        copies.append(M.astype(int))
    for copy in copies:
        assert _basis_bytes(eig_general(copy)) == want
    b = eig_general(M)
    assert b.Z is not None if case.startswith("F_G") else b.unitary == (case == "adjacency")
