import numpy as np
import pytest

from gbfrft.errors import DefectiveMatrix, NonFinite, ShapeMismatch, SingularPower
from gbfrft.spectral import SpectralBasis, eig_general, fractional_power


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
        assert np.allclose(op.lmul_h(X, kind), M.conj().T @ X, atol=1e-10)
        assert np.allclose(op.rmul_t(X.T, kind), X.T @ M.T, atol=1e-10)
        assert np.allclose(op.rmul_conj(X.T, kind), X.T @ M.conj(), atol=1e-10)


def test_lmul_rejects_wrong_height():
    b = eig_general(np.diag([2.0, 1.0]))
    op = fractional_power(b, 0.5)
    with pytest.raises(ShapeMismatch):
        op.lmul(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        op.rmul_conj(np.zeros((3, 2)), "adjoint")


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
