"""MSE-optimal diagonal filtering in a two-factor fractional domain.

The estimator is xhat = sum_m h_m W_m y with rank-one basis matrices

    W_m = wtil_m @ w_m.T,

where w_m.T is row m of the forward vec-operator F and wtil_m is column m
of its inverse, so that sum_m h_m W_m = F^{-1} diag(h) F. The optimal
coefficients solve the normal equations T h = q with

    T[m, n] = E[(W_m y)^H (W_n y)] = Tr(W_m^H W_n E[y y^H])
    q[m]    = E[(W_m y)^H x]       = Tr(W_m^H E[x y^H])

under the observation model y = G x + n, G = kron(G2.T, G1). The fast
assembly exploits the rank-one structure:

    T = (Fi^H Fi) * (F E[y y^H] F^H).T        (elementwise product)
    q = diag(Fi^H E[x y^H] F^H)

and the separability F = kron(M2, M1): every product with F or G is two
factor multiplies on the (N2, N1, K) view of an N x K operand (mode
products), Fi^H Fi = kron(M2inv^H M2inv, M1inv^H M1inv), and the diagonal
q contracts the factors of Fi against an (N2, N1, N2, N1) view. Assembly
thus costs O((N1+N2) N^2) and never forms a dense N x N Kronecker operator; a
literal trace-by-trace assembly is kept for cross-checking on small
problems. The normal equations are solved by an LU factorization whose
1-norm condition estimate decides whether to fall back to least squares.
The reachable mean squared error for any h is
E = h^H T h - 2 Re(h^H q) + Tr(Rxx).

When both factor powers are unitary, as the 2D-GBFRFT of two undirected
graphs under ``transform-power`` is, Fi = F^H. Then Fi^H Fi = I, T is
diagonal with T[m, m] = A[m, m], A = F E[y y^H] F^H, q = diag(F E[x y^H] F^H)
and h = q / diag(A). ``grid_search`` takes this path for a whole search
when both factor bases have ``SpectralBasis.unitary_powers`` (a unitary
eigenbasis and a unimodular spectrum; a symmetric adjacency under
``shift-power`` has real eigenvalues, so it keeps the LU path). Each
diagonal is a sandwich of factor contractions, with no N x N product: the
M1 half costs O(N1 N^2) and depends on alpha1 alone, and the M2 half costs
O(N N2^2) per point. The search designs a row of the grid, one alpha1 with
every alpha2 it meets, at a time: it computes the M1 half once per row, the
M2 halves of the row's k points as one batched product, and solves the k
diagonal systems as one (k, N) stack. The rcond of a diagonal T is
min|T_mm| / max|T_mm|, guarded like the LU estimate, and the fallback,
taken only on the points that need it, is what ``lstsq`` gives for a
diagonal matrix.

An ``ObservationModel`` may instead hold factored statistics: a signal
stationary on the product graph, Rxx = kron(U2, U1) diag(vec W) kron(U2, U1)^T
with W >= 0, and white noise of variance s2 (the synthetic model is one).
The diagonal path then reads the factors directly: with B_k = |M_k U_k|^2
elementwise and r_k the row sums of |M_k|^2,

    q = diag(F Rxx F^H) = vec(B1 W B2^T),   diag A = q + s2 vec(r1 r2^T),

and Tr(Rxx) = sum(W). B1 W is computed once per row of the grid and B2
once per alpha2, so a point costs O(N N2) and no N x N array is formed.
This path designs whole rows in chunks: max(1, CHUNK_ELEMENTS // (k N))
rows of k points each go through one set of batched products and one
stacked solve, so a chunk's arrays hold at most max(CHUNK_ELEMENTS, k N)
numbers each, whatever the size of the grid. ``DEFAULT_SIZE_CAP`` guards
only the code that forms one: the dense diagonal path, the LU path (which
forms a factored model's dense statistics), the assembly functions and
``basis_matrices``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    IllConditionedSystem,
    NonFinite,
    NonHermitianStatistics,
    ShapeMismatch,
    SingularPower,
    SizeCapExceeded,
)
from .graphs import Graph
from .spectral import power_parts
from .transforms import ProductTransform, graph_basis

# Not called here: the benchmark's layer tracer (bench/layertrace.py) wraps these names.
from .transforms import transform_2d  # noqa: F401

DEFAULT_SIZE_CAP = 1024
MAX_GRID_VALUES = 10**4    # per axis of an order grid
# numbers in one (points, N) array of a factored grid search, which designs
# as many whole rows of the grid at once as fit (at least one): a 25-point
# grid at N = 512 fits, a 5-point row at N = 4096 does not
CHUNK_ELEMENTS = 2**15
HERMITIAN_RTOL = 1e-9
PSD_RTOL = 1e-9
SOLVE_CONDITION_LIMIT = 1e12


def _as_square(a, n: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (n, n):
        raise ShapeMismatch(f"{name} must be {n}x{n}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} entries must be finite")
    return a


def _check_hermitian_psd(a: np.ndarray, name: str):
    scale = max(1.0, float(np.linalg.norm(a)))
    if np.linalg.norm(a - a.conj().T) > HERMITIAN_RTOL * scale:
        raise NonHermitianStatistics(f"{name} is not Hermitian")
    # a diagonal matrix's eigenvalues are its diagonal, exactly, and a matrix
    # with no imaginary part has the same eigenvalues in real arithmetic
    if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        w = np.diagonal(a).real
    elif not np.any(a.imag):
        w = np.linalg.eigvalsh((a.real + a.real.T) / 2.0)
    else:
        w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    floor = -PSD_RTOL * max(1.0, float(np.real(np.trace(a))) / a.shape[0])
    if w.min() < floor:
        raise NonHermitianStatistics(f"{name} has negative eigenvalue {w.min():.3e}")


# Products with kron(M2, M1) as two factor multiplies (mode products):
# index i1 + N1*i2 of a column-stacked N1 x N2 signal is entry (i2, i1) of
# its C-order (N2, N1) view, so M2 acts on one mode and M1 on the other.

def _kron_lmul(M2: np.ndarray, M1: np.ndarray, X: np.ndarray) -> np.ndarray:
    """kron(M2, M1) @ X for X with N1*N2 rows."""
    n1, n2 = M1.shape[0], M2.shape[0]
    Y = (M2 @ X.reshape(n2, -1)).reshape(n2, n1, -1)
    return (M1 @ Y).reshape(n1 * n2, -1)


def _kron_rmul_h(X: np.ndarray, M2: np.ndarray, M1: np.ndarray) -> np.ndarray:
    """X @ kron(M2, M1)^H for X with N1*N2 columns."""
    k, n1, n2 = X.shape[0], M1.shape[0], M2.shape[0]
    Y = (X.reshape(-1, n1) @ M1.conj().T).reshape(k, n2, n1)
    return (M2.conj() @ Y).reshape(k, n1 * n2)


def _kron_sandwich(M2: np.ndarray, M1: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K @ X @ K^H for K = kron(M2, M1)."""
    return _kron_rmul_h(_kron_lmul(M2, M1, X), M2, M1)


# diag(K @ X @ K^H) for K = kron(M2, M1), without forming K @ X, in two
# halves: in the (N2, N1, N2, N1) view of X, entry (m2, m1) of the diagonal is
# sum M2[m2, i2] M1[m1, i1] X[i2, i1, j2, j1] conj(M2[m2, j2] M1[m1, j1]).
# The first half contracts M1 and depends on X and M1 only, so a search can
# keep it while only M2 changes.

def _sandwich_diag_m1(M1: np.ndarray, X: np.ndarray, n2: int) -> np.ndarray:
    """(N2, N1, N2) first half: sum M1[m1, i1] X[i2, i1, j2, j1] conj(M1[m1, j1])."""
    n1 = M1.shape[0]
    Y = (M1 @ X.reshape(n2, n1, -1)).reshape(n2, n1, n2, n1)
    return np.einsum("amcd,md->amc", Y, M1.conj())


def _sandwich_diag_m2(M2: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The (k, N) diagonals from the first half Y, one for each matrix of
    the (k, N2, N2) stack M2: contract M2 on both sides."""
    n2, n1 = Y.shape[0], Y.shape[1]
    Y = (M2 @ Y.reshape(n2, -1)).reshape(-1, n2, n1, n2)
    return np.einsum("kbmc,kbc->kbm", Y, M2.conj()).reshape(-1, n1 * n2)


# The same diagonals for factored statistics (white noise of variance s2, no
# degradation): with Rxx = kron(U2, U1) diag(vec W) kron(U2, U1)^T,
# diag(F Rxx F^H) = vec(B1 W B2^T) for B_k = |M_k U_k|^2 elementwise, and
# diag(F F^H) = vec(r1 r2^T) for r_k the row sums of |M_k|^2.

def _power_weights(M: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|M U|^2, the row sums of |M|^2) for each factor power of the stack M."""
    B = np.abs(M @ U)
    return np.square(B, out=B), np.sum(np.abs(M) ** 2, axis=-1)


def psd_clip(a) -> np.ndarray:
    """Nearest-PSD repair: symmetrize and clip negative eigenvalues to zero.
    Input with no imaginary part takes a real ``eigh`` and gives a real
    result; any other input a complex one."""
    a = np.asarray(a)
    a = a.real.astype(np.float64) if not np.any(a.imag) else a.astype(np.complex128)
    a = (a + a.conj().T) / 2.0
    w, V = np.linalg.eigh(a)
    return (V * np.clip(w, 0.0, None)) @ V.conj().T


class FactoredStatistics(NamedTuple):
    """Statistics stationary on a product graph, in its eigenbasis.

    The signal covariance is kron(U2, U1) diag(vec W) kron(U2, U1)^T for
    real orthogonal ``u1`` (N1 x N1) and ``u2`` (N2 x N2) and an (N1, N2)
    array ``w`` >= 0 of its eigenvalues; the noise is white with variance
    ``noise``. Entry (i1, i2) of ``w`` belongs to the eigenvector
    kron(u2[:, i2], u1[:, i1]), index i1 + N1*i2 of the column-stacked grid.
    """

    u1: np.ndarray
    u2: np.ndarray
    w: np.ndarray
    noise: float


def _check_factored(f: FactoredStatistics, n1: int, n2: int) -> FactoredStatistics:
    u1, u2, w = (np.asarray(a) for a in f[:3])
    noise = float(f.noise)
    for a, shape, name in ((u1, (n1, n1), "u1"), (u2, (n2, n2), "u2"), (w, (n1, n2), "w")):
        if a.shape != shape:
            raise ShapeMismatch(f"{name} must be {shape}, got {a.shape}")
        if np.iscomplexobj(a):
            raise ValueError(f"{name} must be real")
        if not np.all(np.isfinite(a)):
            raise NonFinite(f"{name} entries must be finite")
    if not np.isfinite(noise):
        raise NonFinite("noise variance must be finite")
    # the eigenvalues are w and the noise variance themselves, so the PSD
    # check of a dense model becomes elementwise
    floor = -PSD_RTOL * max(1.0, float(w.sum()) / (n1 * n2))
    if w.min() < floor:
        raise NonHermitianStatistics(f"rxx has negative eigenvalue {w.min():.3e}")
    if noise < -PSD_RTOL * max(1.0, noise):
        raise NonHermitianStatistics(f"rnn has negative eigenvalue {noise:.3e}")
    return FactoredStatistics(u1.astype(np.float64), u2.astype(np.float64), w.astype(np.float64), noise)


class ObservationModel:
    """Second-order statistics for y = G1 X G2 + N on an N1 x N2 grid.

    ``rxx``/``rnn`` are the (N1*N2)-point covariances of the column-stacked
    signal and noise; ``rxn`` is the signal-noise cross-covariance (zero when
    omitted). ``g1``/``g2`` default to identities.

    A model given ``factored`` statistics instead of ``rxx``/``rnn`` has
    identity degradation and no cross-covariance. Its PSD check is
    elementwise on W, and ``rxx``/``rnn`` are formed only when first read.
    """

    def __init__(self, n1: int, n2: int, rxx=None, rnn=None, g1=None, g2=None, rxn=None,
                 factored: FactoredStatistics | None = None):
        self.n1, self.n2 = n1, n2
        n = n1 * n2
        self.factored = None
        if factored is not None:
            if any(a is not None for a in (rxx, rnn, g1, g2, rxn)):
                raise ValueError("a factored model takes no dense statistics, "
                                 "degradation or cross-covariance")
            self.factored = _check_factored(factored, n1, n2)
            self.g1 = self.g2 = self.rxn = None
            return
        self.rxx = _as_square(rxx, n, "rxx")
        self.rnn = _as_square(rnn, n, "rnn")
        _check_hermitian_psd(self.rxx, "rxx")
        _check_hermitian_psd(self.rnn, "rnn")
        self.g1 = None if g1 is None else _as_square(g1, n1, "g1")
        self.g2 = None if g2 is None else _as_square(g2, n2, "g2")
        self.rxn = None if rxn is None else _as_square(rxn, n, "rxn")
        if self.rxn is not None and not np.any(self.rxn):
            self.rxn = None

    # a dense model sets these attributes in __init__, which the cached
    # properties then never compute
    @cached_property
    def rxx(self) -> np.ndarray:
        """The signal covariance, an N x N array."""
        u1, u2, w, _ = self.factored
        return _kron_sandwich(u2, u1, np.diag(w.ravel(order="F"))).astype(np.complex128)

    @cached_property
    def rnn(self) -> np.ndarray:
        """The noise covariance, an N x N array."""
        return self.factored.noise * np.eye(self.n, dtype=np.complex128)

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    @property
    def trace_rxx(self) -> float:
        """Tr(Rxx), the expected signal energy."""
        if self.factored is not None:
            return float(self.factored.w.sum())
        return float(np.real(np.trace(self.rxx)))

    def gmat(self) -> np.ndarray | None:
        """Vec-form degradation operator kron(G2.T, G1), or None for identity."""
        factors = self._g_factors()
        return None if factors is None else np.kron(*factors)

    def _g_factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(G2.T, G1), the factors of G = kron(G2.T, G1), or None for identity."""
        if self.g1 is None and self.g2 is None:
            return None
        g1 = self.g1 if self.g1 is not None else np.eye(self.n1)
        g2 = self.g2 if self.g2 is not None else np.eye(self.n2)
        return g2.T, g1

    def y_covariance(self) -> np.ndarray:
        """E[y y^H] under the model."""
        factors = self._g_factors()
        My = self.rxx if factors is None else _kron_sandwich(*factors, self.rxx)
        My = My + self.rnn
        if self.rxn is not None:
            cross = self.rxn if factors is None else _kron_lmul(*factors, self.rxn)
            My = My + cross + cross.conj().T
        return My

    def xy_covariance(self) -> np.ndarray:
        """E[x y^H] under the model."""
        factors = self._g_factors()
        Mxy = self.rxx if factors is None else _kron_rmul_h(self.rxx, *factors)
        if self.rxn is not None:
            Mxy = Mxy + self.rxn
        return Mxy


@dataclass(frozen=True)
class FilterDesign:
    """A designed diagonal filter with the orders it was built at."""

    alpha1: float
    alpha2: float
    h: np.ndarray
    mse: float
    lam: float | None = None


class _BasisMatrices:
    """Lazy sequence of the rank-one W_m matrices of a product transform."""

    def __init__(self, F: np.ndarray, Fi: np.ndarray):
        self._F = F
        self._Fi = Fi

    def __len__(self) -> int:
        return self._F.shape[0]

    def __getitem__(self, m: int) -> np.ndarray:
        if not -len(self) <= m < len(self):
            raise IndexError(m)
        m = m % len(self)
        return np.outer(self._Fi[:, m], self._F[m, :])

    def __iter__(self):
        for m in range(len(self)):
            yield self[m]


def basis_matrices(t: ProductTransform, cap: int = DEFAULT_SIZE_CAP):
    """The W_m basis of the estimator; sums to the identity over all m."""
    _check_cap(t.n1 * t.n2, cap)
    return _BasisMatrices(t.vec_operator("forward"), t.vec_operator("inverse"))


def assemble_normal_equations(
    model: ObservationModel,
    t: ProductTransform,
    cap: int = DEFAULT_SIZE_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (T, q) through the rank-one Hadamard identities, applying
    F = kron(M2, M1) and Fi = kron(M2inv, M1inv) by factor multiplies."""
    _check_sizes(model, t.n1, t.n2)
    _check_cap(model.n, cap)
    return _assemble(t.op1.matrix, t.op2.matrix, t.op1.inverse, t.op2.inverse,
                     model.y_covariance(), model.xy_covariance())


def _check_sizes(model, n1, n2):
    if n1 != model.n1 or n2 != model.n2:
        raise ShapeMismatch("transform and model grid sizes differ")


def _check_cap(n: int, cap: int):
    """The size cap guards every code path that forms an N x N array."""
    if n > cap:
        raise SizeCapExceeded(f"N1*N2 = {n} exceeds cap {cap}")


def _assemble(M1, M2, M1i, M2i, My, Mxy):
    # My = E[y y^H] and Mxy = E[x y^H] do not depend on the orders, so a
    # search computes them once and passes them to every point
    n1, n2 = M1.shape[0], M2.shape[0]
    A = _kron_sandwich(M2, M1, My)
    P1, P2 = M1i.conj().T @ M1i, M2i.conj().T @ M2i
    # T = P * A.T, formed as (P.T * A).T so that A is read in memory order;
    # in place, as one more N^2 temporary per point made the allocator fault
    # in about 4.7 MB of fresh pages at every point at N = 512
    A *= np.kron(P2.T, P1.T)
    T = A.T
    # q[m] = sum_i conj(Fi[i, m]) Z[i, m] with Z = Mxy F^H; in the
    # (N2, N1, N2, N1) view of Z, Fi[i, m] = M2inv[i2, m2] M1inv[i1, m1]
    Z = _kron_rmul_h(Mxy, M2, M1)
    q = np.einsum("ab,cd,acbd->bd", M2i.conj(), M1i.conj(),
                  Z.reshape(n2, n1, n2, n1)).reshape(n1 * n2)
    return T, q


def assemble_normal_equations_naive(
    model: ObservationModel,
    t: ProductTransform,
    cap: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference assembly evaluating every trace literally (small N only)."""
    n = model.n
    _check_cap(n, cap)
    W = list(basis_matrices(t, cap=cap))
    G = model.gmat()
    G = np.eye(n, dtype=np.complex128) if G is None else G
    Gh = G.conj().T
    rxx, rnn, rxn = model.rxx, model.rnn, model.rxn
    rnx = None if rxn is None else rxn.conj().T
    T = np.zeros((n, n), dtype=np.complex128)
    q = np.zeros(n, dtype=np.complex128)
    for m in range(n):
        Wm_h = W[m].conj().T
        for k in range(n):
            prod = Wm_h @ W[k]
            term = np.trace(Gh @ prod @ G @ rxx) + np.trace(prod @ rnn)
            if rxn is not None:
                term = term + np.trace(Gh @ prod @ rnx) + np.trace(prod @ G @ rxn)
            T[m, k] = term
        q[m] = np.trace(Gh @ Wm_h @ rxx)
        if rxn is not None:
            q[m] = q[m] + np.trace(Wm_h @ rxn)
    return T, q


def solve_filter(T: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve T h = q by LU; falls back to a minimum-norm least-squares
    solution (with an IllConditionedSystem warning) when T is near-singular.

    Near-singular means that LAPACK's estimate of the 1-norm condition
    number, 1/rcond from ``gecon`` on the LU factors, exceeds
    SOLVE_CONDITION_LIMIT, or that rcond is 0. The 1-norm condition number
    lies within a factor N of the 2-norm one. Non-finite input raises
    NonFinite.
    """
    T = np.asarray(T, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    if T.shape[0] != T.shape[1] or q.shape != (T.shape[0],):
        raise ShapeMismatch(f"incompatible shapes {T.shape} and {q.shape}")
    _check_finite_system(T, q)
    with warnings.catch_warnings():
        # an exactly singular T is reported below, as IllConditionedSystem
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(T, check_finite=False)
    gecon = get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(T, 1), norm="1")
    if _well_conditioned(rcond):
        h = lu_solve((lu, piv), q, check_finite=False)
    else:
        h = np.linalg.lstsq(T, q, rcond=None)[0]
    return _finite_filter(h)


def _solve_diagonal(d: np.ndarray, q: np.ndarray, trace_rxx: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve diag(d_i) h_i = q_i for each row i of the (k, N) stacks d and q
    under solve_filter's contract; returns the (k, N) filters and their k
    expected MSEs.

    The 1-norm rcond of a diagonal matrix is min|d| / max|d|. The fallback,
    taken only on the rows that need it, is what ``lstsq`` gives for a
    diagonal matrix: its singular values are |d|, and h_m = 0 where
    |d_m| <= eps * N * max|d|.
    """
    _check_finite_system(d, q)
    mag = np.abs(d)
    top, low = mag.max(axis=1), mag.min(axis=1)
    del mag   # the fallback takes |d| again; a chunk holds few (k, N) arrays
    # a row of zeros has rcond nan, which the guard reads as 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rcond = low / top
        h = q / d
    ok = _well_conditioned(rcond)
    if not ok.all():
        h[~ok[:, None] & (np.abs(d) <= np.finfo(np.float64).eps * d.shape[1] * top[:, None])] = 0.0
    _finite_filter(h)
    # E = h^H diag(d) h - 2 Re(h^H q) + Tr(Rxx), row by row
    mse = np.real(np.vecdot(h, d * h)) - 2.0 * np.real(np.vecdot(h, q)) + trace_rxx
    return h, np.maximum(mse, 0.0)


def _check_finite_system(T, q):
    if not (np.isfinite(T).all() and np.isfinite(q).all()):
        raise NonFinite("normal equations must be finite")


def _well_conditioned(rcond):
    """The conditioning guard of both solvers, for one rcond or an array of
    them: False, with one IllConditionedSystem warning for each, where
    1/rcond exceeds SOLVE_CONDITION_LIMIT or rcond is not positive."""
    rcond = np.asarray(rcond, dtype=np.float64)
    # any rcond below the smallest normal float fails, so clamping there
    # avoids an overflow without changing a decision
    ok = 1.0 / np.maximum(rcond, np.finfo(np.float64).tiny) <= SOLVE_CONDITION_LIMIT
    for r in rcond[~ok].tolist():
        cond = 1.0 / r if r > 0 else np.inf
        warnings.warn(f"normal equations condition estimate {cond:.3e}; using least squares",
                      IllConditionedSystem)
    return ok


def _finite_filter(h: np.ndarray) -> np.ndarray:
    if not np.isfinite(h).all():
        raise NonFinite("filter solution is not finite")
    return h


def _mse_from_normal_eqs(T: np.ndarray, q: np.ndarray, h: np.ndarray, trace_rxx: float) -> float:
    val = np.real(h.conj() @ (T @ h) - 2.0 * np.real(h.conj() @ q) + trace_rxx)
    return float(max(val, 0.0))


def expected_mse(model: ObservationModel, t: ProductTransform, h,
                 cap: int = DEFAULT_SIZE_CAP) -> float:
    """Model-based E||xhat - x||^2 for the filter ``h`` (non-negative)."""
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (model.n,):
        raise ShapeMismatch(f"h must have length {model.n}, got {h.shape}")
    T, q = assemble_normal_equations(model, t, cap=cap)
    return _mse_from_normal_eqs(T, q, h, model.trace_rxx)


def grid_values(rng: tuple[float, float], step: float) -> list[float]:
    """The grid lo, lo + step, ... over ``rng``, always ending at hi.

    Values come from exact rational arithmetic, so 0.1 steps land on the
    decimals they print as and the inclusive endpoint is hit exactly. A
    non-finite bound or step, an empty range and a grid of more than
    MAX_GRID_VALUES values raise ValueError before any value is made. Each
    grid is computed once; every call returns a new list.
    """
    return list(_grid(float(rng[0]), float(rng[1]), float(step)))


@lru_cache(maxsize=64)
def _grid(lo: float, hi: float, step: float) -> tuple[float, ...]:
    for name, v in (("lower bound", lo), ("upper bound", hi), ("step", step)):
        if not math.isfinite(v):
            raise ValueError(f"grid {name} must be finite, got {v}")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid range {(lo, hi)} with step {step}")
    fa, fb, fs = Fraction(str(lo)), Fraction(str(hi)), Fraction(str(step))
    count = int((fb - fa) / fs)
    ends_short = fa + count * fs < fb
    if count + 1 + ends_short > MAX_GRID_VALUES:
        raise ValueError(f"grid over {(lo, hi)} with step {step} has more than "
                         f"{MAX_GRID_VALUES} values")
    return tuple(float(fa + k * fs) for k in range(count + 1)) + ((hi,) if ends_short else ())


def _axis_powers(factor: int, basis, grid: list[float], name: str, inverse: bool) -> np.ndarray:
    """The dense powers M^a of factor ``factor``'s basis at every order of
    ``grid``, set by the range argument ``name``, from one batched product:
    (1, k, n, n), or (2, k, n, n) with the inverse powers M^-a second."""
    try:
        parts = power_parts(basis, np.array(grid), inverse)
    except SingularPower as e:
        raise SingularPower(f"factor {factor} has a zero eigenvalue, so {name} must start above 0, "
                            f"got lower bound {grid[0]:g}") from e
    return basis.dense(np.stack(parts[:2] if inverse else parts[:1]))


def grid_search(
    model: ObservationModel,
    g1: Graph,
    g2: Graph,
    range1: tuple[float, float] = (0.0, 1.0),
    range2: tuple[float, float] = (0.0, 1.0),
    step: float = 0.1,
    equal_orders: bool = False,
    convention: str = "transform-power",
    cap: int = DEFAULT_SIZE_CAP,
    keep_grid: bool = False,
):
    """Exhaustive order search (inclusive endpoints), picking the minimum
    expected MSE; ties go to the smaller (alpha1, alpha2) pair.

    With ``equal_orders`` the search is restricted to alpha1 == alpha2 over
    ``range1``. The search builds no transform: each axis takes its dense
    powers at all of its grid orders from one batched product. A row of the
    grid is one alpha1 with every alpha2 it meets (just alpha1 itself under
    ``equal_orders``). If both factor bases have unitary powers, a row's
    points are designed from the diagonal normal equations (see the module
    docstring) in one stacked solve, else point by point by LU, one row at a
    time. The diagonal path reads a model's factored statistics directly and
    then forms no N x N array, so ``cap`` does not apply to it; it designs
    as many whole rows in one stacked solve as fit CHUNK_ELEMENTS numbers in
    a (points, N) array, and at least one. A range that
    starts at or below 0 on a factor with a zero eigenvalue raises
    SingularPower naming it. Returns the winning FilterDesign, plus the
    per-point rows when ``keep_grid`` is set.
    """
    grid1 = grid_values(range1, step)
    grid2 = grid1 if equal_orders else grid_values(range2, step)
    b1, b2 = graph_basis(g1, convention), graph_basis(g2, convention)
    _check_sizes(model, b1.n, b2.n)
    axes = ((1, b1, grid1, "range1"), (2, b2, grid2, "range1" if equal_orders else "range2"))
    diagonal = b1.unitary_powers and b2.unitary_powers
    factored = model.factored if diagonal else None
    if factored is None:
        P1, P2 = (_axis_powers(*axis, not diagonal) for axis in axes)
        _check_cap(model.n, cap)
        My, Mxy = model.y_covariance(), model.xy_covariance()
    else:
        # only the weights of the powers are kept
        u1, u2, w, noise = factored
        (B1, r1), (B2, r2) = (_power_weights(_axis_powers(*axis, False)[0], u) for axis, u in zip(axes, (u1, u2)))
    n, trace_rxx = model.n, model.trace_rxx
    k = 1 if equal_orders else len(grid2)
    # whole rows of the grid, as many as fit CHUNK_ELEMENTS numbers in a
    # stacked (points, N) array on the factored path, else one
    chunk = max(1, CHUNK_ELEMENTS // (k * n)) if factored is not None else 1
    best, rows = None, []
    for lo in range(0, len(grid1), chunk):
        rs = slice(lo, lo + chunk)
        points = [(i, i if equal_orders else j) for i in range(len(grid1))[rs] for j in range(k)]
        if not diagonal:
            hs, mses = [], []
            for i, j in points:
                T, q = _assemble(P1[0, i], P2[0, j], P1[1, i], P2[1, j], My, Mxy)
                hs.append(solve_filter(T, q))
                mses.append(_mse_from_normal_eqs(T, q, hs[-1], trace_rxx))
        else:
            # Fi = F^H, so diag T = diag(F My F^H) and q = diag(F Mxy F^H)
            if factored is None:
                js = rs if equal_orders else slice(None)
                d, q = (_sandwich_diag_m2(P2[0, js], _sandwich_diag_m1(P1[0, lo], X, model.n2))
                        for X in (My, Mxy))
            else:
                # each row's B1 W against the B2 of its points: (rows, k, N2, N1)
                B2s, r2s = (B2[rs, None], r2[rs, None]) if equal_orders else (B2[None], r2[None])
                q = (B2s @ np.swapaxes(B1[rs] @ w, 1, 2)[:, None]).reshape(-1, n)
                # q + s2 r2 (x) r1, in place: a chunk holds few (points, N) arrays
                d = (r2s[..., None] * r1[rs, None, None, :]).reshape(-1, n)
                d *= noise
                d += q
            hs, mses = _solve_diagonal(d, q, trace_rxx)
        mses = np.asarray(mses, dtype=np.float64)
        rows += [{"alpha1": grid1[i], "alpha2": grid2[j], "mse": e}
                 for (i, j), e in zip(points, mses.tolist())]
        # the first minimum in row-major order, so ties go to the smaller pair
        m = int(np.argmin(mses))
        if best is None or mses[m] < best.mse:
            # a copy, so the design keeps no chunk stack alive
            i, j = points[m]
            best = FilterDesign(alpha1=grid1[i], alpha2=grid2[j], h=hs[m].copy(), mse=float(mses[m]))
    return (best, rows) if keep_grid else best


def gaussian_samples(R, rng: np.random.Generator, trials: int) -> np.ndarray:
    """(trials, N) zero-mean Gaussian draws with covariance E[x x^H] = psd_clip(R).

    The draws are S z for S the principal square root V diag(sqrt w) V^H of
    psd_clip(R), with z standard normal for a real R (S is real up to
    roundoff, which is dropped) and (z1 + j z2) / sqrt(2) for a complex one.
    That root is unique for a PSD matrix, so the draws depend on R alone and
    not on the eigenbasis ``eigh`` returns (its signs, or its basis inside a
    repeated eigenvalue). Eigenvalues at or below N eps max(w) are roundoff
    and count as zero.
    """
    R = np.asarray(R)
    n = R.shape[0]
    w, V = np.linalg.eigh((R + R.conj().T) / 2.0)
    root = (V * _root_eigenvalues(w, n)) @ V.conj().T
    if not np.any(R.imag):
        return (root.real @ rng.standard_normal((n, trials))).T
    z = rng.standard_normal((n, trials)) + 1j * rng.standard_normal((n, trials))
    return (root @ z).T / np.sqrt(2.0)


def _root_eigenvalues(w: np.ndarray, n: int) -> np.ndarray:
    """sqrt(w), with eigenvalues at or below n eps max(w) counted as zero."""
    return np.sqrt(np.where(w > n * np.finfo(np.float64).eps * max(w.max(), 0.0), w, 0.0))


def _unstack(v: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """(trials, N1, N2) matrices from (trials, N1*N2) column-stacked rows."""
    return v.reshape(-1, n2, n1).transpose(0, 2, 1)


def draw_observations(model: ObservationModel, trials: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sample (Y, X) matrix pairs from the model, one per trial.

    Signal and noise are drawn independently; a nonzero ``rxn`` influences
    the normal equations but not these draws. For factored statistics the
    signal is the principal root in factor form, U1 (sqrt(W) * (U1^T Z U2)) U2^T
    for each standard normal matrix Z, and the noise sqrt(s2) Z': the draws
    of ``gaussian_samples`` on the dense statistics, from the same stream,
    without an N x N array.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n1, n2 = model.n1, model.n2
    if model.factored is None:
        xs = _unstack(gaussian_samples(model.rxx, rng, trials), n1, n2)
        ns = _unstack(gaussian_samples(model.rnn, rng, trials), n1, n2)
    else:
        u1, u2, w, noise = model.factored
        Z = _unstack(rng.standard_normal((model.n, trials)).T, n1, n2)
        xs = u1 @ (_root_eigenvalues(w, model.n) * (u1.T @ Z @ u2)) @ u2.T
        ns = np.sqrt(noise) * _unstack(rng.standard_normal((model.n, trials)).T, n1, n2)
    out = []
    for X, N in zip(xs, ns):
        Y = X
        if model.g1 is not None:
            Y = model.g1 @ Y
        if model.g2 is not None:
            Y = Y @ model.g2
        Y = Y + N
        if np.iscomplexobj(Y) and np.all(Y.imag == 0.0):
            Y = Y.real
        out.append((Y, X))
    return out
