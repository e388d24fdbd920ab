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
With M1 = V diag(p) V_inv held on its eigenbasis, the coordinates of Y that
its powers scale (:meth:`~gbfrft.spectral.SpectralBasis.coordinates`) are
computed once per fit, and one basis product
(:meth:`~gbfrft.spectral.SpectralBasis.power_product`), [M1 Y | dM1 Y],
starts every epoch. Per sample, with <A, B> = Re tr(A^H B), means over
each problem's samples and

    U = M1 Y M2^T,   R = (H * U) M2inv^T,

the pass forms a residual E and its adjoint B, with F = B conj(M2inv), and
ends the same way for every first factor:

    L = mean ||E||^2,   g_h = 2 mean conj(U) * F,
    dL/dalpha1 = 2 mean (<F, H * (dM1 Y M2^T)> - e1),
    dL/dalpha2 = 2 mean (<F, H * (M1 Y dM2^T)> - <F, R dM2^T>),

the last from dM2inv = -M2inv dM2 M2inv, so no dM2inv is needed. Only E, B
and the alpha1 error term e1 depend on the first factor.

When it has unitary powers (``SpectralBasis.unitary_powers``: an undirected
graph under ``transform-power``, the first factor of every method of
``transforms.METHOD_TABLE``), M1inv = M1^H keeps norms, so the loss is
taken in M1's domain whatever the second factor is: E = B = R - M1 X and
e1 = <E, dM1 X>. For a unitary M2 (M2inv = M2^H), ||E|| =
||H * U - M1 X M2^T|| is Parseval's loss in the transform domain. With
the coordinates of X also computed once per fit, the one basis product is
[M1 Y | dM1 Y | M1 X | dM1 X] and feeds the loss and every gradient.

Any other first factor (``shift-power``, the transform of a non-normal
digraph) takes the residual in the vertex domain, with pi the powers of
M1inv = V diag(pi) V_inv and X itself kept once per fit:

    W = V_inv R,   E = V (pi W) - X,   Q = V^H E,   B = V_inv^H (conj(pi) Q),

so B = M1inv^H E, and e1 = -<Q, dpi * W>: six blocks in five basis
products. W and E are the basis's ``coordinates`` and ``power_product``,
Q and B those of the basis of M1^H = V_inv^H diag(conj lam) V^H, which
the stack builds once (the basis itself when V is unitary).

Either way the first product lands in a sample-major layout, (S, K, n2,
n1) for S samples and K blocks: each block is the transpose of an n1 x n2
signal, so each product by a second factor is a batched M2 @ A, and the
filter h and g_h are read and written by reshape alone.

On a first basis with a real Schur factor Z (F_G of an undirected graph
under ``transform-power``) the coordinates are W = Z^T [Y | X], float64
for real samples, each pair's two (x, y) side by side: viewed as
complex128, c = x + jy. The pair (x + jy, x - jy)/sqrt(2) with powers p
and conj(p) turns c to conj(p) c, one complex multiply by the power at its
``minus`` position (for dp alike), which
:func:`~gbfrft.spectral.power_parts` computes there directly; a real
eigenvalue scales its coordinate. One real GEMM by Z of the result's
float64 view gives [M1 Y | dM1 Y | M1 X | dM1 X]. Where the basis has real
powers (no eigenvalue on the negative real axis, as for F_G of
``patch_graph(20)``) that product of real samples is real, whatever the
second factor is. The pass reads realness from its arrays' dtypes: the
dense powers of a basis with real powers are float64 (as for a path of
three vertices), and each filter starts as float64 ones and takes the
dtype of its first gradient; :func:`fit` returns it as complex128 unless
``TrainConfig.real_filter`` is set.

No product takes a part of a basis by name, so the shared, cached basis
gains nothing in a fit but vectors of its eigenvalues. The descent takes
orders, not transforms. Problems whose first factors share one basis
descend stacked: the patches of a deblur run, and every method, noise
variance and lambda of a time-vertex run. Each epoch gets every
problem's powers of M1 from one vectorized ``exp``, one per distinct
eigenvalue (with those of M1inv in the vertex domain only), and
every problem's dense M2, M2inv and dM2 at its second order from one call
of a :func:`~gbfrft.transforms.blend_plan`, made once per fit at the blend
weights its families in ``transforms.METHOD_TABLE`` give. Each product by
a second factor is one batched matmul over the samples; the adjoint ones
use the conjugates. Each problem keeps its own orders, filter, Adam
moments (fixed ``ADAM_BETAS`` and ``ADAM_EPS``), trace and best iterate as
rows of arrays allocated once, and :func:`fit` stacks any mix of (method,
samples) jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergedLoss, ShapeMismatch
from .graphs import Graph
from .spectral import FractionalOperator, SpectralBasis, power_parts
from .transforms import (
    METHOD_TABLE,
    METHODS,
    ProductTransform,
    apply,
    blend_plan,
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
        if not isinstance(self.epochs, (int, np.integer)) or self.epochs < 1:
            raise ValueError(f"epochs must be an integer of at least 1, got {self.epochs!r}")
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
    pass that :func:`fit` would take for this transform: its first factor's
    basis and its second factor's dense parts, which are those of fit's
    :func:`~gbfrft.transforms.blend_plan` at its weight.

    g_h is the length-N1*N2 conjugate gradient (column-major vec order).
    """
    if not isinstance(t.op1, FractionalOperator):
        raise TypeError("descent needs a fractional power as the first factor")
    h = np.asarray(h, dtype=np.complex128)
    _filter_grid(t, h)  # ShapeMismatch for a wrong-length h
    _check_batch((t.n1, t.n2), batch)
    o2 = t.op2
    parts = np.stack([o2.matrix, o2.inverse, o2.derivative])[:, None]
    stack = _Stack(t.op1.basis, [batch], lambda a2: parts)
    _, d_orders, gh = stack.value_and_grad(np.array([[t.op1.order, o2.order]]), h[None])
    return float(d_orders[0, 0]), float(d_orders[0, 1]), gh[0]


class _Stack:
    """P descent problems whose first factors share one spectral basis.

    Every problem's samples are laid side by side on a sample axis of
    length S, so each factor-1 multiply of the pass is one ``coordinates``
    or ``power_product`` of a basis for all problems and samples at once;
    each problem's own powers of the eigenvalues scale its rows. ``second``
    maps the P second orders to every problem's dense M2, M2inv and dM2,
    (3, P, n2, n2), float64 where they are real matrices.

    There is one pass (module docstring); the first basis alone picks its
    residual, once, here. With ``unitary_powers`` the residual is taken in
    M1's domain on the block [Y | X] of samples; any other first factor
    takes it in the vertex domain on Y, and holds X and the ``adjoint``
    basis of M1^H too. Either way the block is held in the coordinates
    that the powers scale, Z^T [Y | X] on a basis with a real factor Z,
    V_inv [Y | X] on any other, sample-major: (S, K, 1, n2, n1). Each
    epoch's first product is the basis's one power product, real for real
    samples on a basis with real powers, into the stack's scratch, in the
    layout (S, K, 2, n2, n1), K = 2 x 2 for (Y, X) x (M1, dM1), or 1 x 2 in
    the vertex domain, where the residual's four more products, by the
    basis and its adjoint, keep it too. The pass's full-size temporaries
    (U, R, dR, F) are arrays the stack holds, so warm epochs allocate
    none of them. With one sample per problem nothing is gathered.
    """

    def __init__(self, basis: SpectralBasis, batches, second):
        self.unitary = basis.unitary_powers
        if not self.unitary and basis.Z is not None:
            basis = replace(basis, Z=None, mix=None)   # the vertex domain multiplies through V and V_inv
        self.basis = basis
        self.second = second
        self.counts = np.array([len(b) for b in batches])
        self.starts = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        self.owner = np.repeat(np.arange(len(batches)), self.counts)
        self.one_each = len(self.owner) == len(batches)
        # the samples, each transposed, (S, n2, n1)
        Y = np.stack([np.asarray(Y).T for b in batches for Y, _ in b])
        X = np.stack([np.asarray(X).T for b in batches for _, X in b])
        _, self.n2, self.n1 = Y.shape
        # their coordinates, sample-major, (S, K, 1, n2, n1); the vertex domain
        # keeps X itself and the basis of M1^H (module docstring)
        self.W = W = basis.coordinates(np.stack([Y, X] if self.unitary else [Y], axis=1)[:, :, None])
        if not self.unitary:
            self.X = X
            self.adjoint = basis if basis.unitary else SpectralBasis(
                V=basis.V_inv.conj().T, lam=basis.lam.conj(), V_inv=basis.V.conj().T)
        # each problem's powers of M1 and dM1 on the coordinates, one exp
        # per distinct eigenvalue, and scratch for the first product
        self.q = np.empty((len(batches), 2, len(basis.rows)), np.complex128)
        shape = W.shape[:2] + (2,) + W.shape[3:]
        self.work = (*np.empty((2,) + shape, W.dtype),
                     np.empty(shape, np.complex128) if basis.Z is not None and basis.negative.size else None)
        self.scratch = {}

    def _scratch(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """The stack's array ``name`` for a full-size temporary of the pass,
        made on first use and again only when its dtype changes (a filter
        becomes complex after the first epoch), so warm epochs allocate none."""
        buf = self.scratch.get(name)
        if buf is None or buf.dtype != dtype:
            buf = self.scratch[name] = np.empty(shape, dtype)
        return buf

    def _samples(self, per_problem: np.ndarray, axis: int = 0) -> np.ndarray:
        """Each sample's row of per-problem values along ``axis``."""
        return per_problem if self.one_each else np.take(per_problem, self.owner, axis)

    def _mean(self, per_sample: np.ndarray) -> np.ndarray:
        """Per-problem means of per-sample values along the first axis."""
        if self.one_each:
            return per_sample   # reduceat would copy it slowly
        shape = (-1,) + (1,) * (per_sample.ndim - 1)
        return np.add.reduceat(per_sample, self.starts, axis=0) / self.counts.reshape(shape)

    def value_and_grad(self, orders: np.ndarray, h: np.ndarray):
        """Loss, order gradients (P, 2) and filter gradients (P, N1*N2) of
        every problem, at the orders (P, 2) and filters ``h`` (P, N1*N2)."""
        P = len(orders)
        # each problem's powers of M1, and of M1inv in the vertex domain
        powers = power_parts(self.basis, orders[:, 0], inverse=not self.unitary, at=self.basis.rows)
        powers, inverse = (powers, None) if self.unitary else (powers[::2], powers[1::2])
        self.q[:, 0], self.q[:, 1] = powers
        parts = self._samples(self.second(orders[:, 1]), axis=1)
        H = self._samples(h.reshape(P, self.n2, self.n1))   # each sample's filter, transposed
        # the one basis product, each problem's powers on its own samples:
        # [M1 Y | dM1 Y | M1 X | dM1 X], (S, K, 2, n2, n1)
        A = self.basis.power_product(self._samples(self.q)[:, None, :, None], self.W, out=self.work)
        value, d_orders, gh = self._pass(A, parts, H, inverse)
        return value, d_orders, gh.reshape(P, -1)

    def _pass(self, A, parts, H, inverse):
        """The fused pass from the one basis product A = [M1 Y | dM1 Y | M1 X |
        dM1 X], (S, K, 2, n2, n1); K = 1, no X blocks, in the vertex domain,
        where ``inverse`` holds the powers of M1inv and their derivatives.
        Signals are held transposed: a product on the right by B^T is B @ on
        the left."""
        M2, M2inv, dM2 = parts.astype(np.result_type(A, parts), copy=False)   # one cast, not one per product
        # U = M1 Y M2^T and its derivatives dM1 Y M2^T and M1 Y dM2^T
        U = self._scratch("U", A.shape[:1] + (3,) + A.shape[3:], np.result_type(A, M2))
        np.matmul(M2[:, None], A[:, 0], out=U[:, :2])
        np.matmul(dM2, A[:, 0, 0], out=U[:, 2])
        shape = U[:, 0].shape
        HU = np.multiply(H, U[:, 0], out=self._scratch("HU", shape, np.result_type(H, U)))
        R = np.matmul(M2inv, HU, out=self._scratch("R", shape, np.result_type(M2inv, HU)))   # (H * U) M2inv^T
        dR = np.matmul(dM2, R, out=self._scratch("dR", shape, np.result_type(dM2, R)))      # R dM2^T
        if inverse is None:
            # M1's domain: E = R - M1 X is its own adjoint B, e1 = <E, dM1 X>
            E = B = np.subtract(R, A[:, 1, 0], out=R)
            e1 = _inner(E, A[:, 1, 1])
        else:
            # the vertex domain: E = M1inv R - X, B = M1inv^H E, e1 = -<Q, dpi * W>
            pi, dpi = (self._samples(p)[:, None, :] for p in inverse)
            W = self.basis.coordinates(R)
            E = self.basis.power_product(pi, W) - self.X
            Q = self.adjoint.coordinates(E)
            B = self.adjoint.power_product(pi.conj(), Q)
            e1 = -_inner(Q, dpi * W)
        M2inv_H = np.conj(M2inv, out=self._scratch("M2inv_H", M2inv.shape, M2inv.dtype)).swapaxes(-1, -2)
        F = np.matmul(M2inv_H, B, out=self._scratch("F", shape, np.result_type(M2inv, B)))   # B conj(M2inv)
        # <E, E>, e1 and <F, R dM2^T>, then both order derivatives; <F, H * dU> = <F conj(H), dU>
        per_sample = np.stack([_inner(E, E), e1, _inner(F, dR)], axis=1)
        # F conj(H) as F * H.conj(): numpy multiplies a large temporary H.conj()
        # in place with the operands swapped, and the order of a complex
        # product's operands can move its last bit
        FH = F * H.conj() if np.iscomplexobj(H) else np.multiply(
            F, H, out=self._scratch("FH", shape, np.result_type(F, H)))
        per_sample[:, 1:] = _inner(FH[:, None], U[:, 1:]) - per_sample[:, 1:]
        means = self._mean(per_sample)
        gh = self._mean(np.multiply(np.conjugate(U[:, 0], out=U[:, 0]), F, out=F))
        gh *= 2.0
        return means[:, 0], 2.0 * means[:, 1:], gh


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a, b> = Re tr(a^H b) of each signal, the last two axes."""
    return np.vecdot(a.reshape(a.shape[:-2] + (-1,)), b.reshape(b.shape[:-2] + (-1,))).real


def _adam_state(x: np.ndarray):
    """The moments m and v of Adam on x, zeros, and scratch like each."""
    return np.zeros_like(x), np.zeros(x.shape), np.empty_like(x), np.empty(x.shape)


def _adam_step(x, g, state, step: int, rate: float):
    """One bias-corrected Adam step at ``step`` (1-based) with |g|^2 second
    moments, so complex parameters take real ones: x and the moments m and
    v of its :func:`_adam_state` are updated in place, in the textbook's
    order of operations, through that state's scratch t and r."""
    b1, b2 = ADAM_BETAS
    m, v, t, r = state
    m *= b1
    m += np.multiply(1.0 - b1, g, out=t)
    v *= b2
    np.square(np.abs(g, out=r) if np.iscomplexobj(g) else g, out=r)   # |g|^2 = g^2 for real g
    v += np.multiply(1.0 - b2, r, out=r)
    np.divide(v, 1.0 - b2 ** step, out=r)
    np.sqrt(r, out=r)
    r += ADAM_EPS
    np.divide(m, 1.0 - b1 ** step, out=t)
    t *= rate   # rate * (m / c1): a product of two factors is the same either way round
    t /= r
    x -= t


def _initial_orders(cfg: TrainConfig, rng: np.random.Generator) -> tuple[float, float]:
    a, b = cfg._orders
    if cfg._uniform:
        return float(rng.uniform(a, b)), float(rng.uniform(a, b))
    return a, b


def _train_loop(stack: _Stack, cfg: TrainConfig, tied, where) -> list[tuple[FilterDesign, TrainTrace]]:
    """Descend on every problem of the stack at once, one fused pass per
    epoch; each problem keeps its own orders (a row of a (P, 2) array),
    filter, Adam moments, trace and best iterate, so the result equals P
    separate descents. A ``tied`` problem (one flag each) starts at (o1, o1)
    and gives both columns the summed gradient, so they stay equal bit for
    bit. ``where`` names each problem in a DivergedLoss message. The record
    holds every epoch's (alpha1, alpha2, loss) per problem."""
    rng = np.random.default_rng(cfg.seed)
    o1, o2 = _initial_orders(cfg, rng)
    P = len(tied)
    tied = np.flatnonzero(tied)
    orders = np.tile([o1, o2], (P, 1))
    orders[tied, 1] = o1
    h = np.ones((P, stack.n1 * stack.n2))

    adam_orders = _adam_state(orders)
    record = np.empty((cfg.epochs, P, 3))
    best_epoch = np.full(P, -1)
    best_loss = np.full(P, np.inf)

    for epoch in range(cfg.epochs):
        values, d_orders, gh = stack.value_and_grad(orders, h)
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))[0]
            raise DivergedLoss(f"loss became {values[bad]} at epoch {epoch}{where[bad]}")
        gh = gh.real if cfg.real_filter else gh
        if epoch == 0:
            # each filter takes its gradient's dtype: float64 on an all-real pass
            h = h.astype(gh.dtype, copy=False)
            best_h = h.copy()
            adam_h = _adam_state(h)
        record[epoch, :, :2] = orders
        record[epoch, :, 2] = values
        better = values < best_loss
        np.copyto(best_loss, values, where=better)
        np.copyto(best_epoch, epoch, where=better)
        np.copyto(best_h, h, where=better[:, None])

        if epoch == 0:
            # h = 1 makes the estimate y at every order, so the exact order
            # gradient is 0; Adam would turn its roundoff into order moves
            d_orders[:] = 0.0
        d_orders[tied] = d_orders[tied].sum(axis=1, keepdims=True)
        if cfg.optimizer == "adam":
            _adam_step(orders, d_orders, adam_orders, epoch + 1, cfg.lr_orders)
            _adam_step(h, gh, adam_h, epoch + 1, cfg.filter_rate)
        else:
            orders, h = orders - cfg.lr_orders * d_orders, h - cfg.filter_rate * gh

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
    the loss. A DivergedLoss names the job, and the lambda of one that
    searches it.
    """
    lams = [float(lam) for lam in lambda_grid]
    if not lams:
        raise ValueError("lambda_grid must hold at least one value")
    outside = [lam for lam in lams if not 0.0 <= lam <= 1.0]
    if outside:
        raise ValueError(f"lambda_grid values must be finite and lie in [0, 1], got {outside}")
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
    second = blend_plan(g2, np.array(weights), convention)
    stack = _Stack(graph_basis(g1, convention), batches, second)
    where = [(f" in job {j}" if len(jobs) > 1 else "") + ("" if lam is None else f" at lambda {lam}")
             for j, lam in owners]
    results = [None] * len(jobs)
    for (j, lam), (design, trace) in zip(owners, _train_loop(stack, cfg, tied, where)):
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
