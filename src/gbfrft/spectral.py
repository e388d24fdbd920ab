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
  keeps Z, and :meth:`SpectralBasis.power_product` applies every power in
  Z's coordinates: a pair's two coordinates (x, y) of Z^T X, read as one
  complex number, are multiplied by its power at ``minus``, a real
  eigenvalue scales its coordinate, and one real GEMM by Z follows. Only
  the columns of a negative real eigenvalue, whose powers are complex
  (Log(-r) = ln r + j*pi), add an imaginary part.
* Other normal input (the DFT) goes through a complex Schur decomposition.

Each of these bases is orthonormal, so fractional powers of unitary
matrices stay unitary. Everything else uses a general eigensolve with an
explicit conditioning guard.

The structure tests that pick the solver, and the reconstruction check
after it, run in the input's own arithmetic: real input (float64, or
complex with no imaginary part) is tested in float64 with no complex copy,
and a Hermitian basis with real eigenvectors is checked by the real product
(V_r * lam) V_r^T. Each solver still gets the array it always got: a
complex128 copy for ``eigh`` and ``eig``, the real matrix for the real
Schur form and the complex input for the complex one, so the basis does
not depend on the input's dtype.
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
_HALF_SQRT = np.sqrt(0.5)


class PairMixing(NamedTuple):
    """Where the eigenvalues of a real factor Z sit, for Z's columns ordered
    [x_0, y_0, x_1, y_1, ... | real eigenvectors]. Pair p has the
    eigenvectors (x_p + j y_p) / sqrt(2) at sorted position ``plus[p]`` and
    (x_p - j y_p) / sqrt(2) at ``minus[p]``; column 2P + i of Z, for P pairs,
    is the eigenvector at ``single[i]``. So V = Z U for the unitary block
    mixing U these positions define."""

    single: np.ndarray
    plus: np.ndarray
    minus: np.ndarray


def _rmul_t(X: np.ndarray, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X @ M^T for a 2-D X, into a contiguous ``out`` if given. A complex X
    on a real M is (M X^T)^T, one real GEMM on the float64 view of a
    contiguous X^T, with no complex copy of M."""
    if not np.iscomplexobj(M) and np.iscomplexobj(X):
        XT = np.ascontiguousarray(X.T, dtype=np.complex128)
        return (M @ XT.view(np.float64)).view(np.complex128).T
    return np.matmul(X, M.T, out=None if out is None else out.reshape(len(X), -1))


@dataclass(eq=False)
class SpectralBasis:
    """Eigendecomposition M = V diag(lam) V_inv, eigenvalues sorted by
    (real part descending, imaginary part descending).

    A basis from the real Schur path also keeps the real orthogonal factor
    ``Z`` and the eigenvalue positions ``mix`` of its columns (see the
    module docstring), and its products go through Z; its V and V_inv serve
    :meth:`dense` on complex powers and the graph Fourier matrix F_G = V_inv.
    After it is built, a basis caches only flags and vectors over its n
    eigenvalues.
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
    def unitary_powers(self) -> bool:
        """Every fractional power is unitary: V is unitary and every
        eigenvalue lies on the unit circle (to STRUCTURE_RTOL). A unitary V
        alone is not enough: a symmetric adjacency has real eigenvalues."""
        return self.unitary and bool(np.all(np.abs(np.abs(self.lam) - 1.0) <= STRUCTURE_RTOL))

    @cached_property
    def negative(self) -> np.ndarray:
        """Z's columns whose eigenvalue lies on the negative real axis: the
        singles whose powers are complex, as Log(-r) = ln r + j*pi."""
        return 2 * len(self.mix.plus) + np.flatnonzero(self.lam[self.mix.single].real < 0.0)

    @cached_property
    def real_powers(self) -> bool:
        """Every fractional power is a real matrix, Z R Z^T with R real: the
        basis has the real factor Z and no eigenvalue on the negative real
        axis, so each pair's powers stay conjugate (Higham, *Functions of
        Matrices*, 2008)."""
        return self.Z is not None and not self.negative.size

    @property
    def dtype(self) -> np.dtype:
        """The dtype of :meth:`dense`: float64 with ``real_powers``, else complex128."""
        return np.dtype(np.float64 if self.real_powers else np.complex128)

    @cached_property
    def rows(self) -> np.ndarray:
        """The sorted position of the eigenvalue whose power weighs each
        coordinate in :meth:`power_product`: on Z's columns a pair's one
        complex coordinate reads its ``minus`` member, then each single its
        own; on any other basis every coordinate its own."""
        if self.Z is None:
            return np.arange(self.n)
        return np.concatenate([self.mix.minus, self.mix.single])

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

    def dense(self, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The dense V diag(d) V_inv, or one per row of a stack of eigenvalue
        weights d (..., n), into ``out`` if given. With ``real_powers`` (d
        conjugate on each pair) it is the float64 :meth:`power_product` of
        conj(d) on Z, the identity's coordinates: M(conj d)^T = M(d)."""
        if self.real_powers:
            return self.power_product(d[..., None, self.rows].conj(), self.Z, (None, out))
        return np.matmul(self.V * d[..., None, :], self.V_inv, out=out)

    def reconstruct(self) -> np.ndarray:
        return self.dense(self.lam)

    def coordinates(self, X: np.ndarray) -> np.ndarray:
        """The coordinates that a power scales, of the vectors along X's last
        axis, in :meth:`power_product`'s layout: (..., n) in, a contiguous
        (..., n) out, X Z on a basis with a real factor (one real GEMM, also
        for complex X) and X V_inv^T on any other."""
        W = _rmul_t(X.reshape(-1, self.n), self.V_inv if self.Z is None else self.Z.T)
        return np.ascontiguousarray(W.reshape(X.shape))

    def power_product(self, q: np.ndarray, W: np.ndarray, out=None) -> np.ndarray:
        """M(p) X = V diag(p) V_inv X from the :meth:`coordinates` W of X,
        (..., n), with q = p[..., rows] for p on the sorted eigenvalues, q
        broadcast against W; the result has that shape, coordinate axis last.

        On a basis with a real factor, p must be conjugate on each pair, as
        every output of :func:`power_parts` and its conjugate (the adjoint's
        weights) are. A pair's coordinates (x, y), viewed as c = x + j y,
        turn to conj(p) c, with conj(p) its power at ``minus``; a single's
        is scaled by Re p. With B these coordinates and ``neg`` the
        ``negative`` columns, M(p) X = Z B + j Z[:, neg] (Im(q) W)[neg]: one
        complex multiply and one real GEMM by Z, real for real X on
        ``real_powers``. Complex X takes the rule on its real and imaginary
        parts. On any other basis it is V (q W). ``out``, two or three arrays
        (or None) of the broadcast shape, is scratch for B and the real GEMM,
        and for the complex result with ``neg`` columns."""
        n = self.n
        B, C, D = (None, None, None) if out is None else (*out, None)[:3]
        if self.Z is None:
            B = np.multiply(q, W, out=B)
            return _rmul_t(B.reshape(-1, n), self.V, C).reshape(B.shape)
        if np.iscomplexobj(W):
            R = self.power_product(q[..., None, :], np.stack([W.real, W.imag], axis=-2))
            return R[..., 0, :] + 1j * R[..., 1, :]
        nq = len(self.mix.plus)
        if B is None:
            B = np.empty(np.broadcast_shapes(q.shape[:-1], W.shape[:-1]) + (n,))
        np.multiply(q[..., :nq], W[..., :2 * nq].view(np.complex128), out=B[..., :2 * nq].view(np.complex128))
        np.multiply(q[..., nq:].real, W[..., 2 * nq:], out=B[..., 2 * nq:])
        out = _rmul_t(B.reshape(-1, n), self.Z, C).reshape(B.shape)
        neg = self.negative
        if neg.size:   # its real GEMM reuses B, which the first GEMM has consumed
            G = _rmul_t((q[..., neg - nq].imag * W[..., neg]).reshape(-1, len(neg)), self.Z[:, neg], B)
            out = np.add(out, np.multiply(1j, G.reshape(out.shape), out=D), out=D)
        return out


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
    b, c, a = T[i, i + 1], T[i + 1, i], np.diag(T).copy()
    del T
    s = np.sqrt(np.maximum(-b * c, 0.0))
    pair = s > REAL_AXIS_SNAP
    i, s, sign = i[pair], s[pair], np.sign(b[pair])
    single = np.setdiff1d(np.arange(n), np.concatenate([i, i + 1]))
    # the PairMixing column layout; the sign of b turns the eigenvector
    # (e_i + j sign(b) e_{i+1}) / sqrt(2) into (x + j y) / sqrt(2)
    Z = np.concatenate([np.stack([Z[:, i], Z[:, i + 1] * sign], axis=2).reshape(n, -1), Z[:, single]], axis=1)
    lam = np.concatenate([a[single], a[i] + 1j * s, a[i] - 1j * s])
    order = _canonical_order(lam)
    position = np.argsort(order)
    ns, nq = len(single), len(i)
    mix = PairMixing(single=position[:ns], plus=position[ns:ns + nq], minus=position[ns + nq:])
    # V_inv = U^H Z^T: a pair's rows (x^T -+ j y^T) / sqrt(2) at plus and minus
    ZT = Z.T.astype(np.complex128, order="C")
    x, y = ZT[0:2 * nq:2], ZT[1:2 * nq:2]
    x *= _HALF_SQRT
    y *= 1j * _HALF_SQRT
    V_inv = np.empty(ZT.shape, dtype=np.complex128)
    V_inv[mix.single] = ZT[2 * nq:]
    V_inv[mix.plus] = x - y
    x += y
    V_inv[mix.minus] = x
    del ZT, x, y
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


def _normality_defect(N: np.ndarray, NH: np.ndarray) -> float:
    """||N N^H - N^H N||_F, with one product's buffer taking the difference."""
    C = N @ NH
    C -= NH @ N
    return float(np.linalg.norm(C))


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
    M = M.astype(np.float64 if M.dtype.kind in "biuf" else np.complex128, copy=False)
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix entries must be finite")
    # the structure tests and checks run in real arithmetic on real entries
    N = np.ascontiguousarray(M.real) if M.dtype == np.complex128 and not np.any(M.imag) else M
    real = N.dtype == np.float64
    scale = float(np.linalg.norm(N))
    tol = STRUCTURE_RTOL * max(1.0, scale)
    NH = N.conj().T   # a view of a real N
    real_V = None

    if np.linalg.norm(N - NH) <= tol:
        w, V = np.linalg.eigh(M.astype(np.complex128, copy=False))
        order = np.argsort(-w, kind="stable")
        w, V = w[order], V[:, order]
        basis = SpectralBasis(V=V, lam=w.astype(np.complex128), V_inv=np.conj(V.T, order="C"), unitary=True)
        # zheevd returns real vectors for a real symmetric input; the check is
        # then a real product, a quarter of the complex one's flops
        real_V = V.real.copy() if real and not np.any(V.imag) else None
    elif _normality_defect(N, NH) <= STRUCTURE_RTOL * max(1.0, scale * scale):
        if real:
            basis = _real_schur_basis(N)
        else:
            T, Z = scipy.linalg.schur(M, output="complex")
            lam = np.diag(T).copy()
            del T
            order = _canonical_order(lam)
            lam = _snap_to_real_axis(lam[order])
            Z = Z[:, order]
            basis = SpectralBasis(V=Z, lam=lam, V_inv=np.conj(Z.T, order="C"), unitary=True)
    else:
        w, V = np.linalg.eig(M.astype(np.complex128, copy=False))
        order = _canonical_order(w)
        lam = _snap_to_real_axis(w[order])
        V = V[:, order]
        V_inv, cond = guarded_inverse(V)
        if not cond <= CONDITION_LIMIT:
            raise DefectiveMatrix("eigenvector matrix is numerically singular")
        basis = SpectralBasis(V=V, lam=lam, V_inv=V_inv, unitary=False)

    R = basis.reconstruct() if real_V is None else (real_V * w) @ real_V.T
    R -= N
    err = np.linalg.norm(R) / max(1.0, scale)
    if err > RECONSTRUCTION_RTOL:
        raise DefectiveMatrix(f"eigendecomposition reconstruction error {err:.3e}")
    return basis


@dataclass(eq=False)
class FractionalOperator:
    """A fractional power F = V diag(lam**order) V_inv held in factored form.

    ``matrix``/``inverse``/``derivative`` materialize the dense parts
    lazily; ``lmul`` applies M or M^{-1} to signals through
    :meth:`SpectralBasis.power_product` without densifying anything new.
    """

    order: float
    basis: SpectralBasis
    pow_fwd: np.ndarray
    pow_inv: np.ndarray
    dpow_fwd: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.n

    def lmul(self, X, inverse: bool = False) -> np.ndarray:
        """M @ X, or M^{-1} @ X with ``inverse``; complex128, also where the
        power is a real matrix."""
        X = np.asarray(X)
        if X.shape[0] != self.n:
            raise ShapeMismatch(f"operand has {X.shape[0]} rows, operator needs {self.n}")
        d = self.pow_inv if inverse else self.pow_fwd
        out = self.basis.power_product(d[self.basis.rows], self.basis.coordinates(np.moveaxis(X, 0, -1)))
        return np.moveaxis(out, -1, 0).astype(np.complex128, copy=False)

    matrix = cached_property(lambda self: self.basis.dense(self.pow_fwd))
    inverse = cached_property(lambda self: self.basis.dense(self.pow_inv))
    derivative = cached_property(lambda self: self.basis.dense(self.dpow_fwd))


def power_parts(basis: SpectralBasis, alpha, inverse: bool = True, at=slice(None)):
    """lam**alpha, lam**-alpha and their order derivatives on the eigenvalues
    ``at`` of ``basis`` (all by default): four (m,) arrays for a float alpha,
    (k, m) for a 1-D array of k orders; with ``inverse=False`` only lam**alpha
    and its derivative. Zero eigenvalues need alpha > 0 (SingularPower
    otherwise) and map to 0 in both powers, the inverse by pseudoinverse."""
    # a float order keeps to scalar arithmetic: fractional_power runs once per transform
    vector = isinstance(alpha, np.ndarray)
    orders = alpha.tolist() if vector else [alpha]
    if not all(map(math.isfinite, orders)):
        raise NonFinite("order must be finite")
    zero, log_lam = basis.zero[at], basis.log_lam[at]
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


def dense_powers(basis: SpectralBasis, alphas: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The dense M^a, M^{-a} and dM^a/da at the k orders of ``alphas``, (3, k,
    n, n) of ``basis.dtype``, into ``out`` if given. With unitary powers the
    inverse is the adjoint (M^a)^H, and no inverse power is computed."""
    out = np.empty((3, len(alphas), basis.n, basis.n), basis.dtype) if out is None else out
    if not basis.unitary_powers:
        return basis.dense(np.stack(power_parts(basis, alphas)[:3]), out)
    basis.dense(np.stack(power_parts(basis, alphas, inverse=False)), out[1:])   # M, dM
    out[0] = out[1]
    np.conj(out[0].swapaxes(-1, -2), out=out[1])
    return out


def fractional_power(basis: SpectralBasis, alpha: float) -> FractionalOperator:
    """Fractional power of the decomposed matrix at real order ``alpha``
    (zero eigenvalues as in :func:`power_parts`). Each call returns a new
    operator; only the basis is shared, so the operator and its dense parts
    live as long as the transform that holds it."""
    alpha = float(alpha)
    pow_fwd, pow_inv, dpow_fwd, _ = power_parts(basis, alpha)
    return FractionalOperator(order=alpha, basis=basis, pow_fwd=pow_fwd, pow_inv=pow_inv, dpow_fwd=dpow_fwd)
