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
With M1 = V diag(p) V_inv held on its eigenbasis, V_inv Y is computed once
per fit, and each epoch multiplies by the basis five times: V on
[p Yh | dp Yh], V_inv on [Z | H dU1 | H dU2], V on the three inverse-side
blocks, then V^H and V_inv^H for the adjoint behind g_h. The second factor
acts through its FactorOperator, so blended and DFT factors work unchanged.
Problems whose first factors share one basis descend stacked: the patches
of a deblur run, and every method, noise variance and lambda of a
time-vertex run. Their samples are column blocks of the same five products,
each scaled by its own problem's powers, and each problem keeps its own
orders, filter, Adam moments, trace and best iterate. A single fit is the
one-problem case of the same loop. Each method is one entry of
METHOD_TABLE, and :func:`fit` stacks any mix of (method, source) jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergedLoss, ShapeMismatch
from .graphs import Graph
from .spectral import FractionalOperator, SpectralBasis
from .transforms import ProductTransform, hybrid_transform, jfrft, path_graph, transform_2d
from .wiener import FilterDesign, ObservationModel, draw_observations, grid_values

OPTIMIZERS = ("adam", "sgd")
DEFAULT_LAMBDA_GRID = tuple(grid_values((0.0, 1.0), 0.1))


class Method(NamedTuple):
    """A transform family: ``build(g1, g2, a1, a2, lam, convention)`` makes its
    transform at the descent orders (a1, a2), with g2 the second factor (a
    temporal path, of length g2.n, for jfrft and hybrid). A ``tied`` method
    descends on one shared order; one that ``searches_lambda`` fits one
    problem per blend weight of the lambda grid and keeps the best."""

    build: Callable[..., ProductTransform]
    tied: bool = False
    searches_lambda: bool = False


# The builders look transform_2d, jfrft and hybrid_transform up in this
# module when called, where the benchmark's layer tracer wraps them.
METHOD_TABLE = {
    "2d-gfrft": Method(lambda g1, g2, a1, a2, lam, convention="transform-power":
                       transform_2d(g1, g2, a1, a1, convention), tied=True),
    "2d-gbfrft": Method(lambda g1, g2, a1, a2, lam, convention="transform-power":
                        transform_2d(g1, g2, a1, a2, convention)),
    # a1 is the vertex-side order, a2 the time-side one
    "jfrft": Method(lambda g1, g2, a1, a2, lam, convention="transform-power":
                    jfrft(g1, g2.n, alpha=a2, beta=a1, convention=convention)),
    "hybrid": Method(lambda g1, g2, a1, a2, lam, convention="transform-power":
                     hybrid_transform(g1, g2, g2.n, alpha=a1, beta=a2, lam=lam,
                                      convention=convention), searches_lambda=True),
}
METHODS = tuple(METHOD_TABLE)  # what the deblur and time-vertex drivers fit


@dataclass
class TrainConfig:
    """Hyper-parameters for the descent loops.

    ``init_orders`` is either a pair of floats or the string
    ``"uniform[a,b]"`` for a seeded draw. ``tie_orders`` forces a single
    shared order for both factors (the equal-order baseline).
    """

    lr_orders: float = 0.03
    lr_filter: float | None = None
    epochs: int = 200
    init_orders: tuple[float, float] | str = (0.5, 0.5)
    init_filter: str = "identity"
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    batch_size: int = 1
    real_filter: bool = False
    tie_orders: bool = False

    def __post_init__(self):
        if self.lr_orders <= 0:
            raise ValueError("lr_orders must be positive")
        if self.lr_filter is not None and self.lr_filter <= 0:
            raise ValueError("lr_filter must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.init_filter != "identity":
            raise ValueError("only identity filter initialization is supported")

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


def _check_batch(t: ProductTransform, batch):
    if not batch:
        raise ValueError("batch must contain at least one (Y, X) pair")
    for Y, X in batch:
        if np.shape(Y) != (t.n1, t.n2) or np.shape(X) != (t.n1, t.n2):
            raise ShapeMismatch(
                f"batch entries must be {t.n1}x{t.n2}, got {np.shape(Y)} and {np.shape(X)}")


def apply_filter(t: ProductTransform, h, Y) -> np.ndarray:
    """The estimate F^{-1} diag(h) F y in factor form."""
    h = np.asarray(h)
    Hm = _filter_grid(t, h)
    U = t.op2.rmul_t(t.op1.lmul(np.asarray(Y), "fwd"), "fwd")
    return t.op2.rmul_t(t.op1.lmul(Hm * U, "inv"), "inv")


def loss(t: ProductTransform, h, batch) -> float:
    """Mean total squared error of the filtered estimates over the batch."""
    h = np.asarray(h)
    _check_batch(t, batch)
    total = 0.0
    for Y, X in batch:
        R = apply_filter(t, h, Y) - np.asarray(X)
        total += float(np.vdot(R, R).real)
    return total / len(batch)


def gradients(t: ProductTransform, h, batch) -> tuple[float, float, np.ndarray]:
    """(dL/dalpha1, dL/dalpha2, g_h) averaged over the batch, from the fused pass.

    g_h is the length-N1*N2 conjugate gradient (column-major vec order).
    """
    h = np.asarray(h, dtype=np.complex128)
    _filter_grid(t, h)  # ShapeMismatch for a wrong-length h
    _, d_orders, gh = _Stack([t], [batch]).value_and_grad([t], h[None])
    return float(d_orders[0, 0]), float(d_orders[0, 1]), gh[0]


def _lmul(M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """M @ A along the first axis of A, all other axes as columns."""
    return (M @ A.reshape(A.shape[0], -1)).reshape(A.shape)


def _re_inner(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re <A_s, B_s> per sample s of two (n1, S, n2) stacks."""
    return np.einsum("isj,isj->s", A.conj(), B).real


class _Stack:
    """P descent problems whose first factors share one spectral basis.

    Every problem's samples are laid side by side on a sample axis of
    length S, so each factor-1 multiply of the pass is one product with V,
    V_inv or their adjoints for all problems and samples at once; each
    problem's own powers of the eigenvalues scale its columns. Arrays are
    (n1, K, S, n2) for K stacked blocks. The factor-2 operators differ per
    problem and are applied per problem, through the FactorOperator
    protocol.
    """

    def __init__(self, ts, batches):
        t0 = ts[0]
        self.basis = _shared_basis(ts)
        for batch in batches:
            _check_batch(t0, batch)
        self.counts = np.array([len(b) for b in batches])
        self.starts = np.concatenate(([0], np.cumsum(self.counts)[:-1]))
        self.owner = np.repeat(np.arange(len(batches)), self.counts)
        Y = np.stack([np.asarray(Y) for b in batches for Y, _ in b], axis=1)
        self.X = np.stack([np.asarray(X) for b in batches for _, X in b], axis=1)
        self.Yh = _lmul(self.basis.V_inv, Y)  # V_inv Y does not depend on the orders

    def _powers(self, ts, name: str) -> np.ndarray:
        """One eigenvalue-power vector of every sample's problem, (n1, 1, S, 1)."""
        d = np.stack([getattr(t.op1, name) for t in ts], axis=1)
        return d[:, None, self.owner, None]

    def _op2(self, ts, A: np.ndarray, kind: str, adjoint: bool = False) -> np.ndarray:
        """A @ M2.T (A @ conj(M2) with ``adjoint``) per problem, on the right."""
        out = np.empty(A.shape, dtype=np.complex128)
        n2 = A.shape[-1]
        for t, lo, count in zip(ts, self.starts, self.counts):
            block = A[:, :, lo:lo + count]
            f = t.op2.rmul_conj if adjoint else t.op2.rmul_t
            out[:, :, lo:lo + count] = f(block.reshape(-1, n2), kind).reshape(block.shape)
        return out

    def _mean(self, per_sample: np.ndarray, axis: int = 0) -> np.ndarray:
        """Per-problem means of per-sample values along ``axis``."""
        shape = [1] * per_sample.ndim
        shape[axis] = -1
        return np.add.reduceat(per_sample, self.starts, axis=axis) / self.counts.reshape(shape)

    def value_and_grad(self, ts, h: np.ndarray):
        """Loss, order gradients (P, 2) and filter gradients (P, N1*N2) of
        every problem, at the transforms ``ts`` and filters ``h`` (P, N1*N2)."""
        if _shared_basis(ts) is not self.basis:
            raise ValueError("stacked problems changed their spatial basis")
        b = self.basis
        n1, _, n2 = self.Yh.shape
        P = len(ts)
        pf, pi = self._powers(ts, "pow_fwd"), self._powers(ts, "pow_inv")
        dpf, dpi = self._powers(ts, "dpow_fwd"), self._powers(ts, "dpow_inv")
        H = h.reshape(P, n2, n1).transpose(2, 0, 1)[:, None, self.owner]
        Yh = self.Yh[:, None]

        A = _lmul(b.V, np.concatenate([pf * Yh, dpf * Yh], axis=1))          # M1 Y, dM1 Y
        U = np.concatenate([self._op2(ts, A, "fwd"), self._op2(ts, A[:, :1], "dfwd")], axis=1)
        W = _lmul(b.V_inv, H * U)                                              # V_inv [Z, H dU1, H dU2]
        C = _lmul(b.V, np.concatenate(
            [pi * W[:, :1], dpi * W[:, :1] + pi * W[:, 1:2], pi * W[:, 2:]], axis=1))
        E = self._op2(ts, C, "inv")
        R = E[:, 0] - self.X
        dX1 = E[:, 1]
        dX2 = E[:, 2] + self._op2(ts, C[:, :1], "dinv")[:, 0]
        # F^{-H} r = M1inv^H R conj(M2inv), with M1inv^H = V_inv^H diag(conj pi) V^H
        S = self._op2(ts, R[:, None], "inv", adjoint=True)
        back = _lmul(b.V_inv_h, pi.conj() * _lmul(b.V_h, S))[:, 0]

        value = self._mean(_re_inner(R, R))
        d_orders = 2.0 * np.stack([self._mean(_re_inner(R, dX1)),
                                   self._mean(_re_inner(R, dX2))], axis=1)
        gh = 2.0 * self._mean(np.conj(U[:, 0]) * back, axis=1)
        return value, d_orders, gh.transpose(1, 2, 0).reshape(P, n1 * n2)


def _shared_basis(ts) -> SpectralBasis:
    """The one spectral basis under every transform's first factor."""
    if not all(isinstance(t.op1, FractionalOperator) for t in ts):
        raise TypeError("descent needs a fractional power as the first factor")
    basis = ts[0].op1.basis
    if any(t.op1.basis is not basis for t in ts):
        raise ValueError("stacked problems must share the first factor's spectral basis")
    return basis


class _Adam:
    """Plain Adam with bias correction; |g|^2 second moments for complex params."""

    def __init__(self, beta1: float, beta2: float, eps: float):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params: dict, grads: dict, rates: dict):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, g in grads.items():
            m = self.m.get(k, 0.0)
            v = self.v.get(k, 0.0)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * np.abs(g) ** 2
            self.m[k] = m
            self.v[k] = v
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            params[k] = params[k] - rates[k] * mhat / (np.sqrt(vhat) + self.eps)


def _initial_orders(cfg: TrainConfig, rng: np.random.Generator) -> tuple[float, float]:
    spec = cfg.init_orders
    if isinstance(spec, str):
        s = spec.strip()
        if not (s.startswith("uniform[") and s.endswith("]")):
            raise ValueError(f"unrecognized init_orders {spec!r}")
        lo, hi = (float(p) for p in s[len("uniform["):-1].split(","))
        spec = (rng.uniform(lo, hi), rng.uniform(lo, hi))
    a1, a2 = float(spec[0]), float(spec[1])
    return (a1, a1) if cfg.tie_orders else (a1, a2)


def _train_loop(problems, cfg: TrainConfig, tied=None) -> list[tuple[FilterDesign, TrainTrace]]:
    """Descend on every (samples, builder) problem at once, one fused pass
    per epoch; each problem keeps its own orders (a row of a (P, 2) array),
    filter, optimizer moments, trace and best iterate, so the result equals
    P separate descents. A ``tied`` problem (one flag each; default
    ``cfg.tie_orders``) starts at (o1, o1) and gives both columns the summed
    gradient, so they stay equal bit for bit."""
    if not problems or not all(samples for samples, _ in problems):
        raise ValueError("need at least one training pair")
    rng = np.random.default_rng(cfg.seed)
    o1, o2 = _initial_orders(cfg, rng)
    P = len(problems)
    tied = np.full((P, 1), cfg.tie_orders) if tied is None else np.asarray(tied, bool)[:, None]
    n = np.size(problems[0][0][0][0])
    dtype = np.float64 if cfg.real_filter else np.complex128
    orders = np.where(tied, o1, np.array([[o1, o2]]))
    h = np.ones((P, n), dtype=dtype)

    adam = _Adam(cfg.beta1, cfg.beta2, cfg.eps) if cfg.optimizer == "adam" else None
    rates = {"orders": cfg.lr_orders, "h": cfg.filter_rate}
    traces = [TrainTrace() for _ in problems]
    best_loss = np.full(P, np.inf)
    best_pairs = np.empty((P, 2))
    best_h = h.copy()
    stack = None

    for epoch in range(cfg.epochs):
        ts = [build(a, b) for (_, build), (a, b) in zip(problems, orders.tolist())]
        if stack is None:
            stack = _Stack(ts, [samples for samples, _ in problems])
        values, d_orders, gh = stack.value_and_grad(ts, h)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            where = f" in problem {bad[0]}" if P > 1 else ""
            raise DivergedLoss(f"loss became {values[bad[0]]} at epoch {epoch}{where}")
        for trace, (a, b), value in zip(traces, orders.tolist(), values.tolist()):
            trace.alpha1.append(a)
            trace.alpha2.append(b)
            trace.loss.append(value)
        better = values < best_loss
        best_loss[better] = values[better]
        best_pairs[better] = orders[better]
        best_h[better] = h[better]
        for p in np.flatnonzero(better):
            traces[p].best_epoch = epoch

        if epoch == 0:
            # h = 1 makes the estimate y at every order, so the exact order
            # gradient is 0; Adam would turn its roundoff into order moves
            d_orders[:] = 0.0
        if cfg.real_filter:
            gh = gh.real
        g_orders = np.where(tied, d_orders.sum(axis=1, keepdims=True), d_orders)
        params = {"orders": orders, "h": h}
        grads = {"orders": g_orders, "h": gh}
        if adam is not None:
            adam.step(params, grads, rates)
        else:
            for k in params:
                params[k] = params[k] - rates[k] * grads[k]
        orders, h = params["orders"], params["h"]

    return [(FilterDesign(alpha1=a, alpha2=b, h=best_h[p].copy(), mse=float(best_loss[p])), trace)
            for p, ((a, b), trace) in enumerate(zip(best_pairs.tolist(), traces))]


def fit(
    jobs,
    g1: Graph,
    g2: Graph,
    cfg: TrainConfig,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    convention: str = "transform-power",
) -> list[tuple[FilterDesign, TrainTrace]]:
    """Fit every ``(method, source)`` job in one stacked descent; one
    (design, trace) per job, each its own separate fit up to roundoff.

    A source is a sequence of (Y, X) pairs or an ObservationModel to draw
    ``cfg.batch_size`` realizations from. A job's orders are tied when its
    method is or when ``cfg.tie_orders`` is set. A method that searches
    lambda fits every value of ``lambda_grid`` from the same start and keeps
    the first best one: a later value must strictly improve the loss.
    """
    lams = [float(lam) for lam in lambda_grid]
    if not lams:
        raise ValueError("lambda_grid must hold at least one value")
    problems, tied, owners = [], [], []
    for j, (name, source) in enumerate(jobs):
        if name not in METHOD_TABLE:
            raise ValueError(f"method must be one of {METHODS}, got {name!r}")
        m = METHOD_TABLE[name]
        samples = (draw_observations(source, cfg.batch_size, cfg.seed)
                   if isinstance(source, ObservationModel) else list(source))
        for lam in lams if m.searches_lambda else [None]:
            problems.append((samples, partial(m.build, g1, g2, lam=lam, convention=convention)))
            tied.append(m.tied or cfg.tie_orders)
            owners.append((j, lam))
    results = [None] * len(jobs)
    for (j, lam), (design, trace) in zip(owners, _train_loop(problems, cfg, tied)):
        if results[j] is None or design.mse < results[j][0].mse:
            results[j] = (replace(design, lam=lam), trace)
    return results


def _fit_sources(name, source, sources, g1, g2, cfg, **kwargs):
    """The trainers' ``source``/``sources=`` calling convention over :func:`fit`."""
    if (source is None) == (sources is None):
        raise ValueError("give either one source or a sources= list, not both")
    fits = fit([(name, s) for s in ([source] if sources is None else sources)], g1, g2, cfg, **kwargs)
    return fits if sources is not None else fits[0]


def train(source, g1: Graph, g2: Graph, cfg: TrainConfig, convention: str = "transform-power", *,
          sources=None):
    """Fit ``2d-gbfrft`` (tied orders with ``cfg.tie_orders``) to one source,
    a sequence of (Y, X) pairs or an ObservationModel; one (design, trace).
    With ``source=None``, every source of a ``sources`` list is fit in one
    stacked descent, one (design, trace) each, its own fit up to roundoff.
    """
    return _fit_sources("2d-gbfrft", source, sources, g1, g2, cfg, convention=convention)


def train_jfrft(source, g: Graph, T: int, cfg: TrainConfig, convention: str = "transform-power",
                *, sources=None):
    """Descend on the joint transform; alpha1 tracks the vertex-side order,
    alpha2 the time-side order. ``sources`` as in :func:`train`."""
    return _fit_sources("jfrft", source, sources, g, path_graph(T), cfg, convention=convention)


def train_hybrid(source, g_spatial: Graph, T: int, cfg: TrainConfig, lambda_grid=DEFAULT_LAMBDA_GRID,
                 convention: str = "transform-power", *, sources=None):
    """Search over the temporal blend weight, a fresh descent per value.

    Every lambda restarts from the same seeded initialization; the first
    lambda seeds the incumbent and later ones must strictly improve the best
    achieved loss to replace it. All lambdas (and all ``sources``, as in
    :func:`train`) descend together in one stacked descent.
    """
    return _fit_sources("hybrid", source, sources, g_spatial, path_graph(T), cfg,
                        lambda_grid=lambda_grid, convention=convention)
