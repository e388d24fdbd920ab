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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    IllConditionedSystem,
    NonFinite,
    NonHermitianStatistics,
    ShapeMismatch,
    SizeCapExceeded,
)
from .graphs import Graph
from .transforms import ProductTransform, transform_2d

DEFAULT_SIZE_CAP = 1024
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


def psd_clip(a) -> np.ndarray:
    """Nearest-PSD repair: symmetrize and clip negative eigenvalues to zero."""
    a = np.asarray(a, dtype=np.complex128)
    a = (a + a.conj().T) / 2.0
    w, V = np.linalg.eigh(a)
    out = (V * np.clip(w, 0.0, None)) @ V.conj().T
    return out.real if np.allclose(out.imag, 0.0) else out


@dataclass(eq=False)
class ObservationModel:
    """Second-order statistics for y = G1 X G2 + N on an N1 x N2 grid.

    ``rxx``/``rnn`` are the (N1*N2)-point covariances of the column-stacked
    signal and noise; ``rxn`` is the signal-noise cross-covariance (zero when
    omitted). ``g1``/``g2`` default to identities.
    """

    n1: int
    n2: int
    rxx: np.ndarray
    rnn: np.ndarray
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None
    rxn: np.ndarray | None = None

    def __post_init__(self):
        n = self.n1 * self.n2
        self.rxx = _as_square(self.rxx, n, "rxx")
        self.rnn = _as_square(self.rnn, n, "rnn")
        _check_hermitian_psd(self.rxx, "rxx")
        _check_hermitian_psd(self.rnn, "rnn")
        if self.g1 is not None:
            self.g1 = _as_square(self.g1, self.n1, "g1")
        if self.g2 is not None:
            self.g2 = _as_square(self.g2, self.n2, "g2")
        if self.rxn is not None:
            self.rxn = _as_square(self.rxn, n, "rxn")
            if not np.any(self.rxn):
                self.rxn = None

    @property
    def n(self) -> int:
        return self.n1 * self.n2

    def gmat(self) -> np.ndarray | None:
        """Vec-form degradation operator kron(G2.T, G1), or None for identity."""
        if self.g1 is None and self.g2 is None:
            return None
        g1 = self.g1 if self.g1 is not None else np.eye(self.n1)
        g2 = self.g2 if self.g2 is not None else np.eye(self.n2)
        return np.kron(g2.T, g1)

    def _g_factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(G2.T, G1), the factors of G = kron(G2.T, G1), or None for identity.

        Kept apart from gmat(), the dense form the literal assembly checks
        against."""
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
    n = t.n1 * t.n2
    if n > cap:
        raise SizeCapExceeded(f"N1*N2 = {n} exceeds cap {cap}")
    return _BasisMatrices(t.vec_operator("forward"), t.vec_operator("inverse"))


def assemble_normal_equations(
    model: ObservationModel,
    t: ProductTransform,
    cap: int = DEFAULT_SIZE_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (T, q) through the rank-one Hadamard identities, applying
    F = kron(M2, M1) and Fi = kron(M2inv, M1inv) by factor multiplies."""
    return _assemble(model, t, cap, model.y_covariance(), model.xy_covariance())


def _assemble(model, t, cap, My, Mxy):
    # My = E[y y^H] and Mxy = E[x y^H] do not depend on the orders, so a
    # search computes them once and passes them to every point
    n = model.n
    if t.n1 != model.n1 or t.n2 != model.n2:
        raise ShapeMismatch("transform and model grid sizes differ")
    if n > cap:
        raise SizeCapExceeded(f"N1*N2 = {n} exceeds cap {cap}")
    M1, M2 = t.op1.matrix, t.op2.matrix
    M1i, M2i = t.op1.inverse, t.op2.inverse
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
                  Z.reshape(t.n2, t.n1, t.n2, t.n1)).reshape(n)
    return T, q


def assemble_normal_equations_naive(
    model: ObservationModel,
    t: ProductTransform,
    cap: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference assembly evaluating every trace literally (small N only)."""
    n = model.n
    if n > cap:
        raise SizeCapExceeded(f"N1*N2 = {n} exceeds cap {cap}")
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
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(q))):
        raise NonFinite("normal equations must be finite")
    with warnings.catch_warnings():
        # an exactly singular T is reported below, as IllConditionedSystem
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(T, check_finite=False)
    gecon = get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(T, 1), norm="1")
    if rcond > 0 and 1.0 / rcond <= SOLVE_CONDITION_LIMIT:
        h = lu_solve((lu, piv), q, check_finite=False)
    else:
        cond = 1.0 / rcond if rcond > 0 else np.inf
        warnings.warn(f"normal equations condition estimate {cond:.3e}; using least squares",
                      IllConditionedSystem)
        h = np.linalg.lstsq(T, q, rcond=None)[0]
    if not np.all(np.isfinite(h)):
        raise NonFinite("filter solution is not finite")
    return h


def _mse_from_normal_eqs(T: np.ndarray, q: np.ndarray, h: np.ndarray, trace_rxx: float) -> float:
    val = np.real(h.conj() @ T @ h - 2.0 * np.real(h.conj() @ q) + trace_rxx)
    return float(max(val, 0.0))


def expected_mse(model: ObservationModel, t: ProductTransform, h,
                 cap: int = DEFAULT_SIZE_CAP) -> float:
    """Model-based E||xhat - x||^2 for the filter ``h`` (non-negative)."""
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (model.n,):
        raise ShapeMismatch(f"h must have length {model.n}, got {h.shape}")
    T, q = assemble_normal_equations(model, t, cap=cap)
    return _mse_from_normal_eqs(T, q, h, float(np.real(np.trace(model.rxx))))


def grid_values(rng: tuple[float, float], step: float) -> list[float]:
    """The grid lo, lo + step, ... over ``rng``, always ending at hi.

    Values come from exact rational arithmetic, so 0.1 steps land on the
    decimals they print as and the inclusive endpoint is hit exactly.
    """
    a, b = float(rng[0]), float(rng[1])
    if step <= 0 or b < a:
        raise ValueError(f"bad grid range {rng} with step {step}")
    fa, fb, fs = Fraction(str(a)), Fraction(str(b)), Fraction(str(step))
    count = int((fb - fa) / fs)
    vals = [float(fa + k * fs) for k in range(count + 1)]
    if fa + count * fs < fb:
        vals.append(b)
    return vals


_grid_values = grid_values  # the name tests/test_wiener.py imports


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
    ``range1``. Returns the winning FilterDesign, plus the per-point rows
    when ``keep_grid`` is set.
    """
    grid1 = grid_values(range1, step)
    if equal_orders:
        points = [(a, a) for a in grid1]
    else:
        grid2 = grid_values(range2, step)
        points = [(a1, a2) for a1 in grid1 for a2 in grid2]
    trace_rxx = float(np.real(np.trace(model.rxx)))
    My, Mxy = model.y_covariance(), model.xy_covariance()
    best = None
    rows = []
    for a1, a2 in points:
        t = transform_2d(g1, g2, a1, a2, convention)
        T, q = _assemble(model, t, cap, My, Mxy)
        h = solve_filter(T, q)
        e = _mse_from_normal_eqs(T, q, h, trace_rxx)
        rows.append({"alpha1": a1, "alpha2": a2, "mse": e})
        if best is None or (e, a1, a2) < (best.mse, best.alpha1, best.alpha2):
            best = FilterDesign(alpha1=a1, alpha2=a2, h=h, mse=e)
    return (best, rows) if keep_grid else best


def _gaussian_matrix_samples(R: np.ndarray, rng: np.random.Generator, trials: int) -> np.ndarray:
    """(trials, N) real Gaussian draws with covariance psd_clip(R)."""
    R = (np.asarray(R, dtype=np.complex128) + np.asarray(R).conj().T) / 2.0
    w, V = np.linalg.eigh(R)
    root = V.real * np.sqrt(np.clip(w, 0.0, None))
    z = rng.standard_normal((R.shape[0], trials))
    return (root @ z).T


def draw_observations(model: ObservationModel, trials: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sample (Y, X) matrix pairs from the model, one per trial.

    Signal and noise are drawn independently; a nonzero ``rxn`` influences
    the normal equations but not these draws.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    xs = _gaussian_matrix_samples(model.rxx, rng, trials)
    ns = _gaussian_matrix_samples(model.rnn, rng, trials)
    out = []
    for k in range(trials):
        X = xs[k].reshape(model.n1, model.n2, order="F")
        N = ns[k].reshape(model.n1, model.n2, order="F")
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
