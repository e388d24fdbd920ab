"""Joint gradient descent on the fractional orders and the diagonal filter.

For a batch of (Y, X) observation/target pairs on an N1 x N2 grid the loss
is the mean total squared error of the filtered estimate,

    L = mean_b || M1inv (H * (M1 Y_b M2.T)) M2inv.T - X_b ||_F^2,

where H is the filter vector reshaped column-major onto the grid, i.e. the
vec-form estimate F^{-1} diag(h) F y with F = kron(M2, M1). Order gradients
use the closed-form operator derivatives; the filter gradient follows the
conjugate (Wirtinger) convention,

    g_h = 2 * dL/d conj(h) = 2 * conj(u) * (F^{-H} r),   u = F y,

so that h <- h - lr * g_h descends the real-valued loss (its real and
imaginary parts are the plain partial derivatives). Training evaluates the
loss before each update and returns the best iterate seen.

The loss and all three gradients come from one fused forward/backward pass.
With M1 = V diag(p) V_inv held on its eigenbasis, Yh = V_inv Y is computed
once per fit. When every transform of a stack is unitary (the first basis
and every second factor have unitary powers: undirected graphs under
``transform-power`` and the DFT, but not a blend strictly inside (0, 1);
see ``transforms.all_unitary``), F^{-1} = F^H and Parseval moves the loss
into the transform domain,

    L = mean_b || H * (M1 Y_b M2^T) - M1 X_b M2^T ||_F^2,

with Xh = V^H X also computed once per fit. One basis product,
V [p Yh | dp Yh | p Xh | dp Xh] = [M1 Y | dM1 Y | M1 X | dM1 X], feeds the
loss and every gradient: with U_Y = M1 Y M2^T, U_X = M1 X M2^T,
E = H * U_Y - U_X and <A, B> = Re tr(A^H B), means over each problem's
samples,

    g_h = 2 mean conj(U_Y) * E,
    dL/dalpha1 = 2 mean <E, H * (dM1 Y M2^T) - dM1 X M2^T>,
    dL/dalpha2 = 2 mean <E, H * (M1 Y dM2^T) - M1 X dM2^T>,

and an epoch multiplies four blocks by the basis in one product. That
product is copied once into a sample-major layout, (S, K, n2, n1) for S
samples and K blocks: each block is the transpose of an n1 x n2 signal, so
a product by a second factor is a batched M2 @ A, and the filter h and g_h
are read and written by reshape alone.

A unitary stack is *real* when its samples are real and every basis has
real powers (``transforms.all_real``: the real Schur factor Z and no
eigenvalue on the negative real axis, as for F_G of ``patch_graph(20)`` or
of a path of three vertices). Each power of M1 = Z R Z^T is then a real
matrix: on Z's columns a real eigenvalue scales by its power p, and the
pair (x + jy, x - jy)/sqrt(2) with powers p and conj(p) turns its two
columns (x, y) by [[Re p, Im p], [-Im p, Re p]]. With W = Z^T [Y | X] and
its pair-swapped copy W' (rows [singles | x | y] -> [0 | y | -x]), both
kept once per fit,

    R W = Re(p) W + Im(p) W',

for p and for dp on Z's rows, and one real GEMM by Z gives
[M1 Y | dM1 Y | M1 X | dM1 X]. M2 and dM2 are real too, so the filter
descends in float64; :func:`fit` returns it as complex128 unless
``TrainConfig.real_filter`` is set.

A stack with a non-unitary problem takes the residual in the original
domain. Its forward pass takes A = V [p Yh | dp Yh] = [M1 Y | dM1 Y],
U = A M2^T and W0 = V_inv (H * U0); pi are the powers of M1inv. On a
unitary basis (V_inv = V^H) the residual stays in eigen-coordinates,
Rh = V^H R = (pi W0) M2inv^T - Xh, so the loss is its mean squared norm and
the backward pass takes Q = Rh conj(M2inv) and back = V_inv^H (conj(pi) Q)
= F^{-H} r. That gives g_h = 2 mean conj(u) * back and, in reverse mode,
both order gradients:

    dL/dalpha1 = 2 mean(<Q, dpi * W0> + <back, H * (dM1 Y M2^T)>),
    dL/dalpha2 = 2 mean(<Rh conj(dM2inv), pi W0> + <back, H * (M1 Y dM2^T)>),

for four blocks in three products. A non-unitary basis (that of a directed
graph, in general) takes the residual in the vertex domain,
R = V (pi W0) M2inv^T - X, and projects its adjoint with
Q = V^H (R conj(M2inv)); the same formulas hold with R and V (pi W0) in
place of Rh and pi W0, for six blocks in five products.

Other basis products go through :meth:`SpectralBasis.lmul`: on a large
basis with a real Schur factor (undirected graphs under
``transform-power``) each is one real GEMM by that factor plus an O(n)
pair mixing per column. The descent takes orders, not transforms. Problems
whose first factors share one basis descend stacked: the patches of a
deblur run, and every method, noise variance and lambda of a time-vertex
run. Each epoch gets every problem's powers of M1 from one vectorized
``exp``, and every problem's dense second-factor parts at its second order
from one :func:`~gbfrft.transforms.blend_parts` call, at the blend weight
its family in ``transforms.METHOD_TABLE`` gives it: M2 and dM2 for the
transform-domain pass, with M2inv and dM2inv for the residual one, which
alone also takes the powers of M1inv. Each product by a second factor is
one batched matmul over the samples; the adjoint ones use the conjugates.
Each problem keeps its own orders, filter, Adam moments (fixed
``ADAM_BETAS`` and ``ADAM_EPS``), trace and best iterate as rows of stacked
arrays, and :func:`fit` stacks any mix of (method, samples) jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import DivergedLoss, ShapeMismatch
from .graphs import Graph
from .spectral import FractionalOperator, SpectralBasis, dense_powers, power_parts
from .transforms import (
    METHOD_TABLE,
    METHODS,
    ProductTransform,
    all_real,
    all_unitary,
    apply,
    blend_basis,
    blend_parts,
    graph_basis,
    path_graph,
)
from .wiener import FilterDesign, grid_values

# Not called here: the benchmark's layer tracer (bench/layertrace.py) wraps these names.
from .transforms import hybrid_transform, jfrft, transform_2d  # noqa: F401

OPTIMIZERS = ("adam", "sgd")
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
DEFAULT_LAMBDA_GRID = tuple(grid_values((0.0, 1.0), 0.1))


@dataclass
class TrainConfig:
    """Hyper-parameters for the descent loops.

    ``init_orders`` is either a pair of finite floats or the string
    ``"uniform[a,b]"``, finite a <= b, for a seeded draw; both learning rates
    must be finite and positive. Every filter starts at h = 1. Adam runs with
    the fixed ``ADAM_BETAS`` and ``ADAM_EPS``. Whether the two orders are
    tied is the method's, not the config's: the equal-order baseline is the
    ``2d-gfrft`` method of METHOD_TABLE.
    """

    lr_orders: float = 0.03
    lr_filter: float | None = None
    epochs: int = 200
    init_orders: tuple[float, float] | str = (0.5, 0.5)
    optimizer: str = "adam"
    seed: int = 0
    real_filter: bool = False

    def __post_init__(self):
        for name in ("lr_orders", "lr_filter"):
            rate = getattr(self, name)
            if rate is not None and not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"{name} must be finite and positive, got {rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        # parse init_orders once; _initial_orders only draws
        spec = self.init_orders
        self._uniform = isinstance(spec, str)
        if self._uniform:
            s = spec.strip()
            if not (s.startswith("uniform[") and s.endswith("]")):
                raise ValueError(f"unrecognized init_orders {spec!r}")
            spec = s[len("uniform["):-1].split(",")
        try:
            a, b = (float(v) for v in spec)
        except (TypeError, ValueError):
            a = b = math.nan
        if not (math.isfinite(a) and math.isfinite(b) and (a <= b or not self._uniform)):
            raise ValueError("init_orders must be two finite orders or uniform[a,b] with finite a <= b, "
                             f"got {self.init_orders!r}")
        self._orders = (a, b)

    @property
    def filter_rate(self) -> float:
        return self.lr_orders if self.lr_filter is None else self.lr_filter


@dataclass
class TrainTrace:
    """Per-epoch record of the orders and the loss (pre-update)."""

    alpha1: list = field(default_factory=list)
    alpha2: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    best_epoch: int = -1

    def best_so_far(self) -> np.ndarray:
        return np.minimum.accumulate(np.asarray(self.loss))

    def rows(self) -> list[dict]:
        return [
            {"epoch": k, "alpha1": self.alpha1[k], "alpha2": self.alpha2[k], "loss": self.loss[k]}
            for k in range(len(self.loss))
        ]


def _filter_grid(t: ProductTransform, h: np.ndarray) -> np.ndarray:
    if h.shape != (t.n1 * t.n2,):
        raise ShapeMismatch(f"h must have length {t.n1 * t.n2}, got {h.shape}")
    return h.reshape(t.n1, t.n2, order="F")


def _check_batch(shape: tuple[int, int], batch):
    if not batch:
        raise ValueError("batch must contain at least one (Y, X) pair")
    for Y, X in batch:
        if np.shape(Y) != shape or np.shape(X) != shape:
            raise ShapeMismatch(
                f"batch entries must be {shape[0]}x{shape[1]}, got {np.shape(Y)} and {np.shape(X)}")


def apply_filter(t: ProductTransform, h, Y) -> np.ndarray:
    """The estimate F^{-1} diag(h) F y in factor form."""
    return apply(t, _filter_grid(t, np.asarray(h)) * apply(t, Y), "inverse")


def loss(t: ProductTransform, h, batch) -> float:
    """Mean total squared error of the filtered estimates over the batch."""
    h = np.asarray(h)
    _check_batch((t.n1, t.n2), batch)
    total = 0.0
    for Y, X in batch:
        R = apply_filter(t, h, Y) - np.asarray(X)
        total += float(np.vdot(R, R).real)
    return total / len(batch)


def gradients(t: ProductTransform, h, batch) -> tuple[float, float, np.ndarray]:
    """(dL/dalpha1, dL/dalpha2, g_h) averaged over the batch, from the fused
    pass that :func:`fit` would take for this transform.

    g_h is the length-N1*N2 conjugate gradient (column-major vec order).
    """
    if not isinstance(t.op1, FractionalOperator):
        raise TypeError("descent needs a fractional power as the first factor")
    h = np.asarray(h, dtype=np.complex128)
    _filter_grid(t, h)  # ShapeMismatch for a wrong-length h
    _check_batch((t.n1, t.n2), batch)
    o2 = t.op2
    if isinstance(o2, FractionalOperator):
        # the second factor at any order, as fit's spectral endpoints give it
        basis2, second = o2.basis, partial(dense_powers, o2.basis)
    else:
        # a dense blend has no basis: its parts at its own order are all there is
        parts = np.stack([o2.matrix, o2.inverse, o2.derivative, o2.inverse_derivative])[:, None]
        basis2, second = None, lambda a2, inverse: parts
    stack = _Stack(t.op1.basis, [batch], second, [basis2])
    _, d_orders, gh = stack.value_and_grad(np.array([[t.op1.order, o2.order]]), h[None])
    return float(d_orders[0, 0]), float(d_orders[0, 1]), gh[0]


def _re_inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re <A_s, B_s> per sample s of two (n1, S, n2) stacks."""
    return np.einsum("isj,isj->s", A.conj(), B).real


def _rmul(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A[:, :, s] @ M[s] for each sample s of an (n1, K, S, n2) stack, batched."""
    n1, K, S, n2 = A.shape
    out = A.transpose(2, 0, 1, 3).reshape(S, n1 * K, n2) @ M
    return out.reshape(S, n1, K, n2).transpose(1, 2, 0, 3)


class _Stack:
    """P descent problems whose first factors share one spectral basis.

    Every problem's samples are laid side by side on a sample axis of
    length S, so each factor-1 multiply of the pass is one product with V,
    V_inv or their adjoints for all problems and samples at once; each
    problem's own powers of the eigenvalues scale its rows. ``second`` maps
    the P second orders to every problem's dense M2, M2inv, dM2 and dM2inv,
    (4, P, n2, n2), or to M2 and dM2 alone with ``inverse=False``.
    ``seconds`` holds the second factors' bases (None for a dense blend).

    The stack picks its pass once, here, from the bases and the samples
    (module docstring). Unitary transforms (``transforms.all_unitary``)
    take the transform-domain pass. Its block [Y | X] of samples is held in
    eigen-coordinates, V^H [Y | X], or, on a *real* stack (real samples,
    and ``transforms.all_real``), as Z^T [Y | X] with a pair-swapped copy
    whose rows [singles | x | y] hold [0 | y | -x]. After the one basis
    product the blocks are copied once into the sample-major layout
    (S, K, n2, n1), K = 2 x 2 for (Y, X) x (M1, dM1): each is the transpose of an n1 x n2 signal, a product
    by a second factor is a batched M2 @ A, and a filter h is read and
    its gradient written by reshape alone. Other stacks take the residual
    pass on (n1, K, S, n2) stacks, and keep Yh = V_inv Y and the target:
    Xh = V^H X on a unitary basis, else X itself.
    """

    def __init__(self, basis: SpectralBasis, batches, second, seconds):
        self.basis = basis
        self.second = second
        self.counts = np.array([len(b) for b in batches])
        self.starts = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        self.owner = np.repeat(np.arange(len(batches)), self.counts)
        Y = np.stack([np.asarray(Y) for b in batches for Y, _ in b], axis=1)
        X = np.stack([np.asarray(X) for b in batches for _, X in b], axis=1)
        self.n1, _, self.n2 = Y.shape
        self.unitary = all_unitary(basis, seconds)
        self.real = (self.unitary and all_real(basis, seconds)
                     and not (np.iscomplexobj(Y) or np.iscomplexobj(X)))
        # the samples by block (Y, X) and sample, each transposed, (2, 1, S, n2, n1),
        # in the rows the orders scale: eigen-coordinates, or Z's columns
        if self.real:
            W = basis.Z.T @ np.stack([Y, X], axis=1).reshape(self.n1, -1)
            W = np.ascontiguousarray(W.reshape(self.n1, 2, 1, -1, self.n2).transpose(1, 2, 3, 4, 0))
            ns, nq = len(basis.mix.single), len(basis.mix.plus)
            swapped = np.zeros_like(W)
            swapped[..., ns:ns + nq] = W[..., ns + nq:]
            swapped[..., ns + nq:] = -W[..., ns:ns + nq]
            self.blocks = W, swapped
            self.rows = np.concatenate([basis.mix.single, basis.mix.plus, basis.mix.plus])
        elif self.unitary:
            W = basis.lmul(np.stack([Y, X], axis=1), "V_inv")
            self.blocks = np.ascontiguousarray(np.moveaxis(W, 0, -1)[:, None])
        else:
            self.Yh = basis.lmul(Y, "V_inv")  # V_inv Y does not depend on the orders
            # V_inv = V^H on a unitary basis, so this target is Xh = V^H X there
            self.target = basis.lmul(X, "V_inv") if basis.unitary else X

    def _mean(self, per_sample: np.ndarray, axis: int = 0) -> np.ndarray:
        """Per-problem means of per-sample values along ``axis``."""
        if len(self.owner) == len(self.counts):
            return per_sample   # one sample each; reduceat would copy it slowly
        shape = [1] * per_sample.ndim
        shape[axis] = -1
        return np.add.reduceat(per_sample, self.starts, axis=axis) / self.counts.reshape(shape)

    def value_and_grad(self, orders: np.ndarray, h: np.ndarray):
        """Loss, order gradients (P, 2) and filter gradients (P, N1*N2) of
        every problem, at the orders (P, 2) and filters ``h`` (P, N1*N2)."""
        P = len(orders)
        # each problem's powers of M1 (and of M1inv for the residual), (P, n1)
        powers = power_parts(self.basis, orders[:, 0], inverse=not self.unitary)
        parts = self.second(orders[:, 1], inverse=not self.unitary)[:, self.owner]
        H = h.reshape(P, self.n2, self.n1)[self.owner]   # each sample's filter, transposed
        if not self.unitary:
            value, d_orders, gh = self._residual_pass(powers, parts, H)
        elif self.real:
            value, d_orders, gh = self._transform_pass(self._real_product(powers), parts.real, H)
        else:
            pw = np.stack(powers)[:, self.owner, None, :]    # (2, S, 1, n1)
            A = self.basis.lmul(np.moveaxis(pw * self.blocks, -1, 0), "V")
            value, d_orders, gh = self._transform_pass(A, parts, H)
        return value, d_orders, gh.reshape(P, -1)

    def _real_product(self, powers) -> np.ndarray:
        """Z R [Z^T Y | Z^T X] for R the rotation of M1 and of dM1: each pair
        of Z's columns turns by [[Re p, Im p], [-Im p, Re p]], a single
        scales by p. One real GEMM by Z."""
        W, swapped = self.blocks
        pw = np.stack(powers)[:, self.owner[:, None], self.rows][:, :, None]   # (2, S, 1, n1)
        B = pw.real.copy() * W   # contiguous factors: a strided one costs more than the copy
        B += pw.imag.copy() * swapped
        return (self.basis.Z @ B.reshape(-1, self.n1).T).reshape((self.n1,) + B.shape[:-1])

    def _transform_pass(self, A, parts, H):
        """The pass on the loss in the transform domain, from the one basis
        product A = [M1 Y | dM1 Y | M1 X | dM1 X], (n1, 2, 2, S, n2)."""
        A = np.ascontiguousarray(A.transpose(3, 1, 2, 4, 0))   # sample-major (S, 2, 2, n2, n1)
        M2, dM2 = parts
        # per block Y, X: U = M1 . M2^T, dM1 . M2^T and M1 . dM2^T, transposed
        U = np.empty(A.shape[:2] + (3,) + A.shape[3:], np.result_type(A, M2))
        np.matmul(M2[:, None, None], A, out=U[:, :, :2])
        np.matmul(dM2[:, None], A[:, :, 0], out=U[:, :, 2])
        # E = H * U_Y - U_X and its derivatives along both orders
        G = H[:, None] * U[:, 0] - U[:, 1]
        E = G[:, 0]
        means = self._mean(np.einsum("sij,skij->sk", E.conj(), G).real)   # <E, E>, <E, dE>
        gh = 2.0 * self._mean(np.conj(U[:, 0, 0]) * E)
        return means[:, 0], 2.0 * means[:, 1:], gh

    def _residual_pass(self, powers, M2, H):
        """The pass on the residual: in eigen-coordinates on a unitary basis,
        else in the vertex domain."""
        b = self.basis
        pf, pi, dpf, dpi = (p[self.owner].T[:, None, :, None] for p in powers)
        fwd_t, inv_t, dfwd_t, _ = M2.swapaxes(-1, -2)
        Yh = self.Yh[:, None]
        H = np.ascontiguousarray(H.transpose(2, 0, 1))

        A = b.lmul(np.concatenate([pf * Yh, dpf * Yh], axis=1), "V")   # M1 Y, dM1 Y
        U = _rmul(A, fwd_t)                                             # M1 Y M2^T, dM1 Y M2^T
        dU2 = _rmul(A[:, :1], dfwd_t)[:, 0]                             # M1 Y dM2^T
        W0 = b.lmul(H * U[:, 0], "V_inv")
        # the residual stays in eigen-coordinates on a unitary basis, where
        # V^H V = I; otherwise it is taken in the vertex domain
        C0 = pi[:, 0] * W0 if b.unitary else b.lmul(pi[:, 0] * W0, "V")
        R = _rmul(C0[:, None], inv_t)[:, 0] - self.target
        # F^{-H} r = M1inv^H R conj(M2inv), with M1inv^H = V_inv^H diag(conj pi) V^H
        S = _rmul(R[:, None], M2[1].conj())
        dS = _rmul(R[:, None], M2[3].conj())[:, 0]                      # R conj(dM2inv)
        Q = S if b.unitary else b.lmul(S, "V_h")
        back = b.lmul(pi.conj() * Q, "V_inv_h")[:, 0]

        # both order derivatives of the estimate, paired with r through the adjoint
        Hb = H.conj() * back
        d_orders = 2.0 * np.stack([
            self._mean(_re_inner(Q[:, 0], dpi[:, 0] * W0) + _re_inner(Hb, U[:, 1])),
            self._mean(_re_inner(dS, C0) + _re_inner(Hb, dU2))], axis=1)
        gh = 2.0 * self._mean(np.conj(U[:, 0]) * back, axis=1)
        return self._mean(_re_inner(R, R)), d_orders, gh.transpose(1, 2, 0)


def _adam_step(x, g, m, v, step: int, rate: float):
    """One bias-corrected Adam step at ``step`` (1-based) with |g|^2 second
    moments, so complex parameters take real ones; the updated (x, m, v).
    The moments start as the scalar 0.0."""
    b1, b2 = ADAM_BETAS
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * np.abs(g) ** 2
    mhat = m / (1.0 - b1 ** step)
    vhat = v / (1.0 - b2 ** step)
    return x - rate * mhat / (np.sqrt(vhat) + ADAM_EPS), m, v


def _initial_orders(cfg: TrainConfig, rng: np.random.Generator) -> tuple[float, float]:
    a, b = cfg._orders
    if cfg._uniform:
        return float(rng.uniform(a, b)), float(rng.uniform(a, b))
    return a, b


def _train_loop(stack: _Stack, cfg: TrainConfig, tied) -> list[tuple[FilterDesign, TrainTrace]]:
    """Descend on every problem of the stack at once, one fused pass per
    epoch; each problem keeps its own orders (a row of a (P, 2) array),
    filter, Adam moments, trace and best iterate, so the result equals P
    separate descents. A ``tied`` problem (one flag each) starts at (o1, o1)
    and gives both columns the summed gradient, so they stay equal bit for
    bit. The record holds every epoch's (alpha1, alpha2, loss) per problem."""
    rng = np.random.default_rng(cfg.seed)
    o1, o2 = _initial_orders(cfg, rng)
    P = len(tied)
    tied = np.asarray(tied, bool)[:, None]
    # a real stack's filter gradients are real: its filters descend in float64
    dtype = np.float64 if cfg.real_filter or stack.real else np.complex128
    orders = np.where(tied, o1, np.array([[o1, o2]]))
    h = np.ones((P, stack.n1 * stack.n2), dtype=dtype)

    m_orders = v_orders = m_h = v_h = 0.0
    record = np.empty((cfg.epochs, P, 3))
    best_epoch = np.full(P, -1)
    best_loss = np.full(P, np.inf)
    best_h = h.copy()

    for epoch in range(cfg.epochs):
        values, d_orders, gh = stack.value_and_grad(orders, h)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            where = f" in problem {bad[0]}" if P > 1 else ""
            raise DivergedLoss(f"loss became {values[bad[0]]} at epoch {epoch}{where}")
        record[epoch, :, :2] = orders
        record[epoch, :, 2] = values
        better = values < best_loss
        best_loss[better] = values[better]
        best_epoch[better] = epoch
        best_h[better] = h[better]

        if epoch == 0:
            # h = 1 makes the estimate y at every order, so the exact order
            # gradient is 0; Adam would turn its roundoff into order moves
            d_orders[:] = 0.0
        if cfg.real_filter:
            gh = gh.real
        g_orders = np.where(tied, d_orders.sum(axis=1, keepdims=True), d_orders)
        if cfg.optimizer == "adam":
            orders, m_orders, v_orders = _adam_step(orders, g_orders, m_orders, v_orders, epoch + 1, cfg.lr_orders)
            h, m_h, v_h = _adam_step(h, gh, m_h, v_h, epoch + 1, cfg.filter_rate)
        else:
            orders, h = orders - cfg.lr_orders * g_orders, h - cfg.filter_rate * gh

    best = record[best_epoch, np.arange(P)].tolist()
    best_h = best_h.astype(np.float64 if cfg.real_filter else np.complex128, copy=False)
    return [(FilterDesign(alpha1=a, alpha2=b, h=best_h[p].copy(), mse=value),
             TrainTrace(*record[:, p].T.tolist(), best_epoch=int(best_epoch[p])))
            for p, (a, b, value) in enumerate(best)]


def fit(
    jobs,
    g1: Graph,
    g2: Graph,
    cfg: TrainConfig,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    convention: str = "transform-power",
) -> list[tuple[FilterDesign, TrainTrace]]:
    """Fit every ``(method, samples)`` job in one stacked descent; one
    (design, trace) per job, each its own separate fit up to roundoff.

    This is the one way into the descent. ``samples`` is a sequence of
    (Y, X) pairs; callers that sample a model draw their own. A job's
    orders are tied exactly when its method is (``2d-gfrft``). A method
    that searches lambda fits every value of ``lambda_grid`` from the same
    start and keeps the first best one: a later value must strictly improve
    the loss.
    """
    lams = [float(lam) for lam in lambda_grid]
    if not lams:
        raise ValueError("lambda_grid must hold at least one value")
    if not jobs:
        raise ValueError("need at least one training pair")
    batches, tied, owners, weights = [], [], [], []
    for j, (name, samples) in enumerate(jobs):
        if name not in METHOD_TABLE:
            raise ValueError(f"method must be one of {METHODS}, got {name!r}")
        m = METHOD_TABLE[name]
        samples = list(samples)
        _check_batch((g1.n, g2.n), samples)
        for lam in lams if m.searches_lambda else [None]:
            batches.append(samples)
            tied.append(m.tied)
            owners.append((j, lam))
            weights.append(m.weight if lam is None else lam)
    # every problem's second factor, at its own blend weight, in one call
    second = partial(blend_parts, g2, lam=np.array(weights), convention=convention)
    seconds = [blend_basis(g2, w, convention) for w in set(weights)]
    stack = _Stack(graph_basis(g1, convention), batches, second, seconds)
    results = [None] * len(jobs)
    for (j, lam), (design, trace) in zip(owners, _train_loop(stack, cfg, tied)):
        if results[j] is None or design.mse < results[j][0].mse:
            results[j] = (replace(design, lam=lam), trace)
    return results


def train(samples, g1: Graph, g2: Graph, cfg: TrainConfig, convention: str = "transform-power"):
    """Fit ``2d-gbfrft`` to one sequence of (Y, X) pairs; one (design, trace)."""
    return fit([("2d-gbfrft", samples)], g1, g2, cfg, convention=convention)[0]


def train_jfrft(samples, g: Graph, T: int, cfg: TrainConfig, convention: str = "transform-power"):
    """Descend on the joint transform; alpha1 tracks the vertex-side order,
    alpha2 the time-side order."""
    return fit([("jfrft", samples)], g, path_graph(T), cfg, convention=convention)[0]


def train_hybrid(samples, g_spatial: Graph, T: int, cfg: TrainConfig, lambda_grid=DEFAULT_LAMBDA_GRID,
                 convention: str = "transform-power"):
    """Search over the temporal blend weight, a fresh descent per value.

    Every lambda restarts from the same seeded initialization; the first
    lambda seeds the incumbent and later ones must strictly improve the best
    achieved loss to replace it. All lambdas descend together in one
    stacked descent.
    """
    return fit([("hybrid", samples)], g_spatial, path_graph(T), cfg, lambda_grid=lambda_grid,
               convention=convention)[0]
