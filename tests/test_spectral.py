import numpy as np
import pytest
import scipy.linalg

from gbfrft.deblur import patch_graph
from gbfrft.errors import DefectiveMatrix, NonFinite, ShapeMismatch, SingularPower
from gbfrft.graphs import make_named_graph
from gbfrft.spectral import (
    BASIS_PARTS,
    CONDITION_LIMIT,
    FACTORED_MIN_N,
    RECONSTRUCTION_RTOL,
    SpectralBasis,
    eig_general,
    fractional_power,
    guarded_inverse,
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
    eps = 1e-6
    for alpha in (0.3, 0.9, 1.7):
        d = fractional_power(b, alpha).derivative
        fd = (fractional_power(b, alpha + eps).matrix
              - fractional_power(b, alpha - eps).matrix) / (2 * eps)
        assert np.linalg.norm(d - fd) / np.linalg.norm(d) < 1e-8
        di = fractional_power(b, alpha).inverse_derivative
        fdi = (fractional_power(b, alpha + eps).inverse
               - fractional_power(b, alpha - eps).inverse) / (2 * eps)
        assert np.linalg.norm(di - fdi) / np.linalg.norm(di) < 1e-8


def test_operators_at_one_order_are_equal_and_share_the_basis():
    b = eig_general(np.diag([3.0, 1.0]))
    first, again = fractional_power(b, 0.25), fractional_power(b, 0.25)
    assert first.basis is again.basis is b
    assert np.array_equal(first.matrix, again.matrix)
    assert np.array_equal(first.inverse_derivative, again.inverse_derivative)


def test_factored_application_matches_dense():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5))
    b = eig_general(A)
    op = fractional_power(b, 0.6)
    X = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    for kind, M in [("fwd", op.matrix), ("inv", op.inverse),
                    ("dfwd", op.derivative), ("dinv", op.inverse_derivative)]:
        assert np.allclose(op.lmul(X, kind), M @ X, atol=1e-10)
        assert np.allclose(op.rmul_t(X.T, kind), X.T @ M.T, atol=1e-10)


def test_lmul_rejects_wrong_height():
    b = eig_general(np.diag([2.0, 1.0]))
    op = fractional_power(b, 0.5)
    with pytest.raises(ShapeMismatch):
        op.lmul(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        op.rmul_t(np.zeros((3, 2)), "adjoint")


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
    # V = Z U, with U the pair mixing: at most two nonzeros per row and column
    U = b.mix.apply(np.eye(n))
    assert np.abs(b.Z @ U - b.V).max() < 1e-14
    assert np.abs(U.conj().T - b.mix.apply_h(np.eye(n))).max() < 1e-15
    assert np.count_nonzero(U, axis=0).max() <= 2 and np.count_nonzero(U, axis=1).max() <= 2
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


def test_factored_products_match_the_dense_basis():
    b = eig_general(eig_general(patch_graph(16).adjacency).V_inv)
    assert b.n >= FACTORED_MIN_N and b.Z is not None
    rng = np.random.default_rng(9)
    for X in (rng.normal(size=(b.n, 3, 2)), rng.normal(size=(b.n, 5)) + 1j * rng.normal(size=(b.n, 5))):
        for part in BASIS_PARTS:
            want = np.tensordot(getattr(b, part), X, axes=1)
            assert np.abs(b.lmul(X, part) - want).max() <= 1e-13 * np.abs(want).max(), part
    with pytest.raises(ValueError):
        b.lmul(X, "Z")
