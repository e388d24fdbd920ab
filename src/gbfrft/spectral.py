"""Eigendecompositions and fractional matrix powers.

A diagonalizable matrix M = V diag(lam) V^{-1} is raised to a real order a
through its spectrum,

    M^a = V diag(lam**a) V^{-1},      lam**a = exp(a * Log lam),

with the principal branch of the logarithm (Log(-r) = ln r + j*pi for
r > 0). The derivative with respect to the order is available in closed
form,

    d/da M^a = V diag(lam**a * Log lam) V^{-1},

which equals G @ M^a for the fixed generator G = V diag(Log lam) V^{-1};
the convention 0 * Log 0 = 0 is used on zero eigenvalues.

Hermitian inputs go through LAPACK ``eigh``; normal inputs (e.g. unitary
Fourier matrices) go through a complex Schur decomposition so the returned
eigenbasis is orthonormal and fractional powers of unitary matrices stay
unitary. Everything else uses a general eigensolve with an explicit
conditioning guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DefectiveMatrix, NonFinite, ShapeMismatch, SingularPower

RECONSTRUCTION_RTOL = 1e-9
STRUCTURE_RTOL = 1e-10     # Hermitian / normal detection
CONDITION_LIMIT = 1e12
REAL_AXIS_SNAP = 1e-12     # |Im| below this collapses onto the real axis
ZERO_EIGENVALUE_RTOL = 1e-12
ORDER_KEY_DECIMALS = 12    # rounding of the eigenvalue sort keys


@dataclass(eq=False)
class SpectralBasis:
    """Eigendecomposition M = V diag(lam) V_inv, eigenvalues sorted by
    (real part descending, imaginary part descending)."""

    V: np.ndarray
    lam: np.ndarray
    V_inv: np.ndarray
    unitary: bool = False

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @cached_property
    def V_h(self) -> np.ndarray:
        return np.ascontiguousarray(self.V.conj().T)

    @cached_property
    def V_inv_h(self) -> np.ndarray:
        return np.ascontiguousarray(self.V_inv.conj().T)

    @cached_property
    def zero(self) -> np.ndarray:
        """Mask of the eigenvalues treated as zero, relative to the largest."""
        biggest = float(np.max(np.abs(self.lam))) if self.lam.size else 0.0
        return np.abs(self.lam) <= ZERO_EIGENVALUE_RTOL * max(1.0, biggest)

    @cached_property
    def log_lam(self) -> np.ndarray:
        """Principal Log lam, with 0 on the zero eigenvalues."""
        out = np.zeros_like(self.lam)
        nz = ~self.zero
        out[nz] = np.log(self.lam[nz])
        return out

    def reconstruct(self) -> np.ndarray:
        return (self.V * self.lam) @ self.V_inv


def _snap_to_real_axis(lam: np.ndarray) -> np.ndarray:
    # deterministic branch selection: near-real eigenvalues become exactly
    # real with +0.0 imaginary part, so Log(-r) = ln r + j*pi
    near = np.abs(lam.imag) <= REAL_AXIS_SNAP
    out = lam.copy()
    out[near] = out[near].real + 0.0j
    return out


def _canonical_order(lam: np.ndarray) -> np.ndarray:
    # sort by (real desc, imag desc) on keys rounded relative to scale, so
    # ties broken by rounding noise still fall through to the imaginary part
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    scale = max(1.0, scale)
    re = np.round(lam.real / scale, ORDER_KEY_DECIMALS)
    im = np.round(lam.imag / scale, ORDER_KEY_DECIMALS)
    return np.lexsort((-im, -re))


def eig_general(M) -> SpectralBasis:
    """Diagonalize a square matrix with a canonical eigenvalue order.

    Raises DefectiveMatrix when the eigenvector matrix is numerically
    singular (condition number above 1e12) or when the decomposition fails
    to reconstruct the input to a 1e-9 relative Frobenius tolerance.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {M.shape}")
    M = M.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix entries must be finite")
    scale = float(np.linalg.norm(M))
    tol = STRUCTURE_RTOL * max(1.0, scale)

    if np.linalg.norm(M - M.conj().T) <= tol:
        w, V = np.linalg.eigh(M)
        order = np.argsort(-w, kind="stable")
        lam = w[order].astype(np.complex128)
        V = V[:, order]
        basis = SpectralBasis(V=V, lam=lam, V_inv=V.conj().T.copy(), unitary=True)
    elif np.linalg.norm(M @ M.conj().T - M.conj().T @ M) <= STRUCTURE_RTOL * max(1.0, scale * scale):
        T, Z = scipy.linalg.schur(M, output="complex")
        lam = np.diag(T).copy()
        order = _canonical_order(lam)
        lam = _snap_to_real_axis(lam[order])
        Z = Z[:, order]
        basis = SpectralBasis(V=Z, lam=lam, V_inv=Z.conj().T.copy(), unitary=True)
    else:
        w, V = np.linalg.eig(M)
        if np.linalg.cond(V) > CONDITION_LIMIT:
            raise DefectiveMatrix("eigenvector matrix is numerically singular")
        order = _canonical_order(w)
        lam = _snap_to_real_axis(w[order])
        V = V[:, order]
        basis = SpectralBasis(V=V, lam=lam, V_inv=np.linalg.inv(V), unitary=False)

    err = np.linalg.norm(basis.reconstruct() - M) / max(1.0, scale)
    if err > RECONSTRUCTION_RTOL:
        raise DefectiveMatrix(f"eigendecomposition reconstruction error {err:.3e}")
    return basis


class FactorOperator:
    """The operator protocol of one transform factor.

    An operator has four parts, selected by ``kind``: ``fwd`` (M), ``inv``
    (M^{-1}), ``dfwd`` (dM/da) and ``dinv`` (dM^{-1}/da). A subclass gives the
    size ``n``, names the attribute holding each part in ``_PARTS`` and says
    in ``_apply`` how one part acts on a block of columns.
    """

    _PARTS: dict[str, str]

    def _apply(self, part: np.ndarray, X: np.ndarray, adjoint: bool) -> np.ndarray:
        raise NotImplementedError

    def _checked(self, X, kind: str) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X)
        if X.shape[0] != self.n:
            raise ShapeMismatch(f"operand has {X.shape[0]} rows, operator needs {self.n}")
        name = self._PARTS.get(kind)
        if name is None:
            raise ValueError(f"kind must be one of {tuple(self._PARTS)}, got {kind!r}")
        return getattr(self, name), X

    def lmul(self, X, kind: str = "fwd") -> np.ndarray:
        """M @ X for the selected operator part."""
        return self._apply(*self._checked(X, kind), adjoint=False)

    def lmul_h(self, X, kind: str = "fwd") -> np.ndarray:
        """M^H @ X for the selected operator part."""
        return self._apply(*self._checked(X, kind), adjoint=True)

    def rmul_t(self, X, kind: str = "fwd") -> np.ndarray:
        """X @ M.T for the selected operator part."""
        return self.lmul(np.asarray(X).T, kind).T

    def rmul_conj(self, X, kind: str = "fwd") -> np.ndarray:
        """X @ conj(M) for the selected operator part."""
        return self.lmul_h(np.asarray(X).T, kind).T


@dataclass(eq=False)
class FractionalOperator(FactorOperator):
    """A fractional power F = V diag(lam**order) V_inv held in factored form.

    ``matrix``/``inverse``/``derivative``/``inverse_derivative`` materialize
    the dense operators lazily; ``lmul``/``rmul_t`` apply them to signals at
    O(n^2 * cols) cost without densifying anything new.
    """

    order: float
    basis: SpectralBasis
    pow_fwd: np.ndarray
    pow_inv: np.ndarray
    dpow_fwd: np.ndarray
    dpow_inv: np.ndarray

    _PARTS = {"fwd": "pow_fwd", "inv": "pow_inv", "dfwd": "dpow_fwd", "dinv": "dpow_inv"}

    @property
    def n(self) -> int:
        return self.basis.n

    def _apply(self, d, X, adjoint):
        b = self.basis
        if adjoint:
            d, right, left = d.conj(), b.V_h, b.V_inv_h
        else:
            right, left = b.V_inv, b.V
        Y = right @ X
        Y = d[:, None] * Y if Y.ndim == 2 else d * Y
        return left @ Y

    @cached_property
    def matrix(self) -> np.ndarray:
        return (self.basis.V * self.pow_fwd) @ self.basis.V_inv

    @cached_property
    def inverse(self) -> np.ndarray:
        return (self.basis.V * self.pow_inv) @ self.basis.V_inv

    @cached_property
    def derivative(self) -> np.ndarray:
        return (self.basis.V * self.dpow_fwd) @ self.basis.V_inv

    @cached_property
    def inverse_derivative(self) -> np.ndarray:
        return (self.basis.V * self.dpow_inv) @ self.basis.V_inv


def fractional_power(basis: SpectralBasis, alpha: float) -> FractionalOperator:
    """Fractional power of the decomposed matrix at real order ``alpha``.

    Zero eigenvalues require alpha > 0 (SingularPower otherwise); they map
    to 0 in the forward power and, by pseudoinverse convention, to 0 in the
    ``inverse`` part as well. Each call returns a new operator; only the
    basis is shared, so the operator and its dense parts live as long as the
    transform that holds it.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise NonFinite("order must be finite")

    zero, log_lam = basis.zero, basis.log_lam
    if alpha <= 0.0 and np.any(zero):
        raise SingularPower(f"zero eigenvalue with order {alpha} <= 0")

    pow_fwd = np.exp(alpha * log_lam)
    pow_inv = np.exp(-alpha * log_lam)
    pow_fwd[zero] = 0.0
    pow_inv[zero] = 0.0

    return FractionalOperator(
        order=alpha,
        basis=basis,
        pow_fwd=pow_fwd,
        pow_inv=pow_inv,
        dpow_fwd=pow_fwd * log_lam,
        dpow_inv=-pow_inv * log_lam,
    )
