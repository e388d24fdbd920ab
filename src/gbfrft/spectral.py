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

The input alone picks the eigensolver:

* Hermitian input (an undirected adjacency) goes through the complex LAPACK
  ``eigh``. A real ``eigh`` would return eigenvectors with other signs, or
  another basis inside a degenerate eigenspace, and so another graph
  Fourier matrix F_G = V_A^{-1} and other outputs downstream.
* Real normal input that is not symmetric (the real orthogonal F_G of an
  undirected graph) goes through the real Schur form M = Z T Z^T. T is
  block diagonal: a 1x1 block is a real eigenvalue, and a standardized
  2x2 block [[a, b], [c, a]] (b c < 0) is the pair a +- j sqrt(-b c), with
  the orthonormal eigenvectors (e_1 +- j sign(b) e_2) / sqrt(2). A block
  whose pair would snap onto the real axis holds a double real eigenvalue
  with roundoff off-diagonals and is read as two 1x1 blocks. The basis
  keeps V = Z U, with U this block mixing, so :meth:`SpectralBasis.lmul`
  multiplies by Z in real arithmetic.
* Other normal input (the DFT) goes through a complex Schur decomposition.

Each of these bases is orthonormal, so fractional powers of unitary
matrices stay unitary. Everything else uses a general eigensolve with an
explicit conditioning guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DefectiveMatrix, NonFinite, ShapeMismatch, SingularPower

RECONSTRUCTION_RTOL = 1e-9
STRUCTURE_RTOL = 1e-10     # Hermitian / normal detection
CONDITION_LIMIT = 1e12
REAL_AXIS_SNAP = 1e-12     # |Im| below this collapses onto the real axis
ZERO_EIGENVALUE_RTOL = 1e-12
ORDER_KEY_DECIMALS = 12    # rounding of the eigenvalue sort keys
BASIS_PARTS = ("V", "V_inv", "V_h", "V_inv_h")
# Smallest basis whose products go through its real factor. The real GEMM
# saves O(n^2) per column and the pair mixing costs O(n) per column. On 2
# cores with OpenBLAS (one thread) the factored products were faster at
# every width from 50 to 3000 columns from n = 256 up, and up to 1.7x
# slower below it (n = 32 at 50 columns, n = 128 at 3000 columns).
FACTORED_MIN_N = 256
_HALF_SQRT = np.sqrt(0.5)


class PairMixing(NamedTuple):
    """The unitary U of V = Z U, for a real factor Z whose columns are ordered
    [real eigenvectors | first columns x_p of the pairs | second columns
    y_p]. Column i of Z is the eigenvector at sorted position ``single[i]``;
    pair p has the eigenvectors (x_p + j y_p) / sqrt(2) at sorted position
    ``plus[p]`` and (x_p - j y_p) / sqrt(2) at ``minus[p]``."""

    single: np.ndarray
    plus: np.ndarray
    minus: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """U @ X for a 2-D X."""
        ns, nq = len(self.single), len(self.plus)
        X = X.astype(np.complex128, copy=False)
        out = np.empty(X.shape, dtype=np.complex128)
        first, second = out[ns:ns + nq], out[ns + nq:]
        # mode="clip" avoids the buffered copy that take makes into out= otherwise
        np.take(X, self.single, axis=0, out=out[:ns], mode="clip")
        np.take(X, self.plus, axis=0, out=first, mode="clip")
        np.take(X, self.minus, axis=0, out=second, mode="clip")
        diff = first - second
        first += second
        first *= _HALF_SQRT
        np.multiply(diff, 1j * _HALF_SQRT, out=second)
        return out

    def apply_h(self, Y: np.ndarray) -> np.ndarray:
        """U^H @ Y for a 2-D Y, which a complex Y gives up as scratch space."""
        ns, nq = len(self.single), len(self.plus)
        Y = Y.astype(np.complex128, copy=False)
        first, second = Y[ns:ns + nq], Y[ns + nq:]
        first *= _HALF_SQRT
        second *= 1j * _HALF_SQRT
        out = np.empty(Y.shape, dtype=np.complex128)
        out[self.single] = Y[:ns]
        out[self.plus] = first - second
        first += second
        out[self.minus] = first
        return out


def _real_lmul(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """R @ X for a real R: a complex X multiplies as one real GEMM on its
    float64 view, with no complex copy of R."""
    if not np.iscomplexobj(X):
        return R @ X
    X = np.ascontiguousarray(X, dtype=np.complex128)
    return (R @ X.view(np.float64)).view(np.complex128)


@dataclass(eq=False)
class SpectralBasis:
    """Eigendecomposition M = V diag(lam) V_inv, eigenvalues sorted by
    (real part descending, imaginary part descending).

    A basis from the real Schur path also keeps the real orthogonal factor
    ``Z`` and the block mixing ``mix`` = U of V = Z U (see the module
    docstring); V and V_inv are kept dense for the other consumers.
    """

    V: np.ndarray
    lam: np.ndarray
    V_inv: np.ndarray
    unitary: bool = False
    Z: np.ndarray | None = None
    mix: PairMixing | None = None

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
    def unitary_powers(self) -> bool:
        """Every fractional power is unitary: V is unitary and every
        eigenvalue lies on the unit circle (to STRUCTURE_RTOL). A unitary V
        alone is not enough: a symmetric adjacency has real eigenvalues."""
        return self.unitary and bool(np.all(np.abs(np.abs(self.lam) - 1.0) <= STRUCTURE_RTOL))

    @cached_property
    def real_powers(self) -> bool:
        """Every fractional power is a real matrix, Z R Z^T with R real: the
        basis has the real factor Z and no eigenvalue on the negative real
        axis, so each pair's powers stay conjugate (Higham, *Functions of
        Matrices*, 2008). A negative real eigenvalue has the complex powers
        of Log(-r) = ln r + j*pi."""
        return self.Z is not None and not np.any((self.lam.real < 0.0) & (self.lam.imag == 0.0))

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

    def lmul(self, A: np.ndarray, part: str = "V") -> np.ndarray:
        """``part`` @ A along the first axis of A, all other axes as columns,
        for ``part`` one of V, V_inv, V_h and V_inv_h. With a real factor Z
        (V is then unitary, so V_h = V_inv and V_inv_h = V) the product is
        one real GEMM by Z and one pass of the pair mixing. When only some
        rows of the mixed block U A have an imaginary part (real A under a
        real matrix function, the descent's first product: none, or the
        rows of negative real eigenvalues, whose powers are complex), Z
        multiplies the real part and only those rows' columns of Z the
        imaginary part; the result is complex."""
        if part not in BASIS_PARTS:
            raise ValueError(f"part must be one of {BASIS_PARTS}, got {part!r}")
        A2 = A.reshape(A.shape[0], -1)
        if self.Z is None or self.n < FACTORED_MIN_N:
            out = getattr(self, part) @ A2
        elif part in ("V", "V_inv_h"):
            mixed = self.mix.apply(A2)
            rows = np.flatnonzero(mixed.imag.any(axis=1))
            if len(rows) == self.n:
                out = _real_lmul(self.Z, mixed)
            else:
                out = (self.Z @ mixed.real).astype(np.complex128)
                if len(rows):
                    out.imag = self.Z[:, rows] @ mixed.imag[rows]
        else:
            out = self.mix.apply_h(_real_lmul(self.Z.T, A2))
        return out.reshape(A.shape)


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


def _real_schur_basis(M: np.ndarray) -> SpectralBasis:
    """Orthonormal eigenbasis V = Z U of a real normal matrix from its real
    Schur form (module docstring); U is read off the 2x2 blocks in O(n)."""
    T, Z = scipy.linalg.schur(M, output="real")
    n = T.shape[0]
    i = np.flatnonzero(np.diag(T, -1))   # first row of each 2x2 block
    b, c = T[i, i + 1], T[i + 1, i]
    s = np.sqrt(np.maximum(-b * c, 0.0))
    pair = s > REAL_AXIS_SNAP
    i, s, sign = i[pair], s[pair], np.sign(b[pair])
    single = np.setdiff1d(np.arange(n), np.concatenate([i, i + 1]))
    a = np.diag(T)
    # the PairMixing column layout; the sign of b turns the eigenvector
    # (e_i + j sign(b) e_{i+1}) / sqrt(2) into (x + j y) / sqrt(2)
    Z = np.concatenate([Z[:, single], Z[:, i], Z[:, i + 1] * sign], axis=1)
    lam = np.concatenate([a[single], a[i] + 1j * s, a[i] - 1j * s])
    order = _canonical_order(lam)
    position = np.argsort(order)
    ns, nq = len(single), len(i)
    mix = PairMixing(single=position[:ns], plus=position[ns:ns + nq], minus=position[ns + nq:])
    V_inv = mix.apply_h(Z.T.copy())   # U^H Z^T
    # V in Fortran order, as the other paths return it: small dense
    # products by V run faster in that order
    return SpectralBasis(V=V_inv.conj().T, lam=_snap_to_real_axis(lam[order]), V_inv=V_inv,
                         unitary=True, Z=Z, mix=mix)


def guarded_inverse(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of a square matrix, or of each in a stack, and n times its
    1-norm condition number, a bound on the 2-norm one. An exactly singular
    stack gives NaN for both, so ``not cond <= CONDITION_LIMIT`` rejects it."""
    try:
        B_inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        B_inv = np.full_like(B, np.nan)
    cond = B.shape[-1] * np.linalg.norm(B, 1, axis=(-2, -1)) * np.linalg.norm(B_inv, 1, axis=(-2, -1))
    return B_inv, cond


def eig_general(M) -> SpectralBasis:
    """Diagonalize a square matrix with a canonical eigenvalue order.

    Raises DefectiveMatrix when the eigenvector matrix is numerically
    singular (n times its 1-norm condition number, a bound on the 2-norm
    one, above 1e12) or when the decomposition fails to reconstruct the
    input to a 1e-9 relative Frobenius tolerance.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {M.shape}")
    M = M.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix entries must be finite")
    real = not np.any(M.imag)
    N = np.ascontiguousarray(M.real) if real else M   # the normality test runs in real arithmetic
    scale = float(np.linalg.norm(M))
    tol = STRUCTURE_RTOL * max(1.0, scale)

    if np.linalg.norm(M - M.conj().T) <= tol:
        w, V = np.linalg.eigh(M)
        order = np.argsort(-w, kind="stable")
        lam = w[order].astype(np.complex128)
        V = V[:, order]
        basis = SpectralBasis(V=V, lam=lam, V_inv=V.conj().T.copy(), unitary=True)
    elif np.linalg.norm(N @ N.conj().T - N.conj().T @ N) <= STRUCTURE_RTOL * max(1.0, scale * scale):
        if real:
            basis = _real_schur_basis(N)
        else:
            T, Z = scipy.linalg.schur(M, output="complex")
            lam = np.diag(T).copy()
            order = _canonical_order(lam)
            lam = _snap_to_real_axis(lam[order])
            Z = Z[:, order]
            basis = SpectralBasis(V=Z, lam=lam, V_inv=Z.conj().T.copy(), unitary=True)
    else:
        w, V = np.linalg.eig(M)
        order = _canonical_order(w)
        lam = _snap_to_real_axis(w[order])
        V = V[:, order]
        V_inv, cond = guarded_inverse(V)
        if not cond <= CONDITION_LIMIT:
            raise DefectiveMatrix("eigenvector matrix is numerically singular")
        basis = SpectralBasis(V=V, lam=lam, V_inv=V_inv, unitary=False)

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

    def _apply(self, part: np.ndarray, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lmul(self, X, kind: str = "fwd") -> np.ndarray:
        """M @ X for the selected operator part."""
        X = np.asarray(X)
        if X.shape[0] != self.n:
            raise ShapeMismatch(f"operand has {X.shape[0]} rows, operator needs {self.n}")
        name = self._PARTS.get(kind)
        if name is None:
            raise ValueError(f"kind must be one of {tuple(self._PARTS)}, got {kind!r}")
        return self._apply(getattr(self, name), X)

    def rmul_t(self, X, kind: str = "fwd") -> np.ndarray:
        """X @ M.T for the selected operator part."""
        return self.lmul(np.asarray(X).T, kind).T


@dataclass(eq=False)
class FractionalOperator(FactorOperator):
    """A fractional power F = V diag(lam**order) V_inv held in factored form.

    ``matrix``/``inverse``/``derivative``/``inverse_derivative`` materialize
    the dense operators lazily; ``lmul``/``rmul_t`` apply them to signals
    through :meth:`SpectralBasis.lmul` without densifying anything new.
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

    def _apply(self, d, X):
        b = self.basis
        Y = b.lmul(X, "V_inv")
        return b.lmul(d[:, None] * Y if Y.ndim == 2 else d * Y, "V")

    def _dense(self, d: np.ndarray) -> np.ndarray:
        return (self.basis.V * d) @ self.basis.V_inv

    matrix = cached_property(lambda self: self._dense(self.pow_fwd))
    inverse = cached_property(lambda self: self._dense(self.pow_inv))
    derivative = cached_property(lambda self: self._dense(self.dpow_fwd))
    inverse_derivative = cached_property(lambda self: self._dense(self.dpow_inv))


def power_parts(basis: SpectralBasis, alpha, inverse: bool = True):
    """lam**alpha, lam**-alpha and their order derivatives on the eigenvalues
    of ``basis``: four (n,) arrays for a float alpha, (k, n) for a 1-D array
    of k orders; with ``inverse=False`` only lam**alpha and its derivative.
    Zero eigenvalues need alpha > 0 (SingularPower otherwise) and map to 0
    in both powers, the inverse by pseudoinverse convention."""
    # a float order keeps to scalar arithmetic: fractional_power runs per grid point
    vector = isinstance(alpha, np.ndarray)
    orders = alpha.tolist() if vector else [alpha]
    if not all(map(math.isfinite, orders)):
        raise NonFinite("order must be finite")
    zero, log_lam = basis.zero, basis.log_lam
    if min(orders, default=1.0) <= 0.0 and zero.any():
        raise SingularPower(f"zero eigenvalue with order {min(orders)} <= 0")

    a = alpha[:, None] if vector else alpha
    pow_fwd = np.exp(a * log_lam)
    pow_fwd.T[zero] = 0.0   # the eigenvalue axis is the last one
    if not inverse:
        return pow_fwd, pow_fwd * log_lam
    pow_inv = np.exp(-a * log_lam)
    pow_inv.T[zero] = 0.0
    return pow_fwd, pow_inv, pow_fwd * log_lam, -pow_inv * log_lam


def dense_powers(basis: SpectralBasis, alphas: np.ndarray, inverse: bool = True) -> np.ndarray:
    """The dense M^a, M^{-a}, dM^a/da and dM^{-a}/da at the k orders of the
    1-D array ``alphas``, shape (4, k, n, n); with ``inverse=False`` only
    M^a and dM^a/da, (2, k, n, n)."""
    return (basis.V * np.stack(power_parts(basis, alphas, inverse))[..., None, :]) @ basis.V_inv


def fractional_power(basis: SpectralBasis, alpha: float) -> FractionalOperator:
    """Fractional power of the decomposed matrix at real order ``alpha``
    (zero eigenvalues as in :func:`power_parts`). Each call returns a new
    operator; only the basis is shared, so the operator and its dense parts
    live as long as the transform that holds it."""
    alpha = float(alpha)
    pow_fwd, pow_inv, dpow_fwd, dpow_inv = power_parts(basis, alpha)
    return FractionalOperator(order=alpha, basis=basis, pow_fwd=pow_fwd, pow_inv=pow_inv,
                              dpow_fwd=dpow_fwd, dpow_inv=dpow_inv)
