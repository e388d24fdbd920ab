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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergedLoss, ShapeMismatch
from .graphs import Graph
from .transforms import ProductTransform, hybrid_transform, jfrft, path_graph, transform_2d
from .wiener import FilterDesign, ObservationModel, draw_observations

OPTIMIZERS = ("adam", "sgd")
METHODS = ("2d-gfrft", "2d-gbfrft", "jfrft", "hybrid")  # what the deblur and time-vertex drivers fit
DEFAULT_LAMBDA_GRID = tuple(round(0.1 * k, 10) for k in range(11))


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
    """(dL/dalpha1, dL/dalpha2, g_h) averaged over the batch.

    g_h is the length-N1*N2 conjugate gradient (column-major vec order).
    """
    h = np.asarray(h, dtype=np.complex128)
    _check_batch(t, batch)
    Hm = _filter_grid(t, h)
    op1, op2 = t.op1, t.op2
    da1 = 0.0
    da2 = 0.0
    gh = np.zeros_like(Hm)
    for Y, X in batch:
        Y = np.asarray(Y)
        U = op2.rmul_t(op1.lmul(Y, "fwd"), "fwd")
        Z = Hm * U
        R = op2.rmul_t(op1.lmul(Z, "inv"), "inv") - np.asarray(X)

        dU1 = op2.rmul_t(op1.lmul(Y, "dfwd"), "fwd")
        dXh1 = op2.rmul_t(op1.lmul(Z, "dinv"), "inv") \
            + op2.rmul_t(op1.lmul(Hm * dU1, "inv"), "inv")
        da1 += 2.0 * float(np.vdot(R, dXh1).real)

        dU2 = op2.rmul_t(op1.lmul(Y, "fwd"), "dfwd")
        dXh2 = op2.rmul_t(op1.lmul(Z, "inv"), "dinv") \
            + op2.rmul_t(op1.lmul(Hm * dU2, "inv"), "inv")
        da2 += 2.0 * float(np.vdot(R, dXh2).real)

        back = op2.rmul_conj(op1.lmul_h(R, "inv"), "inv")
        gh = gh + 2.0 * np.conj(U) * back
    b = len(batch)
    return da1 / b, da2 / b, (gh / b).flatten(order="F")


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
        if cfg.tie_orders:
            a = float(rng.uniform(lo, hi))
            return a, a
        return float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))
    a1, a2 = (float(spec[0]), float(spec[1]))
    if cfg.tie_orders:
        return a1, a1
    return a1, a2


def _resolve_source(source, cfg: TrainConfig):
    if isinstance(source, ObservationModel):
        return draw_observations(source, cfg.batch_size, cfg.seed)
    return [(np.asarray(Y), np.asarray(X)) for Y, X in source]


def _train_loop(samples, builder, cfg: TrainConfig) -> tuple[FilterDesign, TrainTrace]:
    if not samples:
        raise ValueError("need at least one training pair")
    rng = np.random.default_rng(cfg.seed)
    o1, o2 = _initial_orders(cfg, rng)
    n1, n2 = np.shape(samples[0][0])
    dtype = np.float64 if cfg.real_filter else np.complex128
    h = np.ones(n1 * n2, dtype=dtype)

    adam = _Adam(cfg.beta1, cfg.beta2, cfg.eps) if cfg.optimizer == "adam" else None
    rates = {"orders": cfg.lr_orders, "h": cfg.filter_rate}
    trace = TrainTrace()
    best = None

    for epoch in range(cfg.epochs):
        t = builder(o1, o2)
        value = loss(t, h, samples)
        if not np.isfinite(value):
            raise DivergedLoss(f"loss became {value} at epoch {epoch}")
        trace.alpha1.append(o1)
        trace.alpha2.append(o2)
        trace.loss.append(value)
        if best is None or value < best[0]:
            best = (value, o1, o2, h.copy(), epoch)

        da1, da2, gh = gradients(t, h, samples)
        if cfg.real_filter:
            gh = gh.real
        if cfg.tie_orders:
            g_orders = np.array([da1 + da2])
        else:
            g_orders = np.array([da1, da2])
        params = {"orders": np.array([o1] if cfg.tie_orders else [o1, o2]), "h": h}
        grads = {"orders": g_orders, "h": gh}
        if adam is not None:
            adam.step(params, grads, rates)
        else:
            for k in params:
                params[k] = params[k] - rates[k] * grads[k]
        if cfg.tie_orders:
            o1 = o2 = float(params["orders"][0])
        else:
            o1, o2 = (float(v) for v in params["orders"])
        h = params["h"]

    value, o1, o2, h, epoch = best
    trace.best_epoch = epoch
    return FilterDesign(alpha1=o1, alpha2=o2, h=h, mse=value), trace


def train(
    source,
    g1: Graph,
    g2: Graph,
    cfg: TrainConfig,
    convention: str = "transform-power",
) -> tuple[FilterDesign, TrainTrace]:
    """Descend on a two-graph product transform.

    ``source`` is either a sequence of (Y, X) matrix pairs or an
    ObservationModel to sample ``cfg.batch_size`` realizations from.
    """
    samples = _resolve_source(source, cfg)
    builder = lambda a, b: transform_2d(g1, g2, a, b, convention)  # noqa: E731
    return _train_loop(samples, builder, cfg)


def train_jfrft(
    source,
    g: Graph,
    T: int,
    cfg: TrainConfig,
    convention: str = "transform-power",
) -> tuple[FilterDesign, TrainTrace]:
    """Descend on the joint transform; alpha1 tracks the vertex-side order,
    alpha2 the time-side order."""
    samples = _resolve_source(source, cfg)
    builder = lambda b, a: jfrft(g, T, alpha=a, beta=b, convention=convention)  # noqa: E731
    return _train_loop(samples, builder, cfg)


def train_hybrid(
    source,
    g_spatial: Graph,
    T: int,
    cfg: TrainConfig,
    lambda_grid=DEFAULT_LAMBDA_GRID,
    convention: str = "transform-power",
) -> tuple[FilterDesign, TrainTrace]:
    """Outer search over the temporal blend weight, fresh descent per value.

    Every lambda restarts from the same seeded initialization; the first
    lambda seeds the incumbent and later ones must strictly improve the best
    achieved loss to replace it.
    """
    samples = _resolve_source(source, cfg)
    g2 = path_graph(T)
    best_design = None
    best_trace = None
    for lam in lambda_grid:
        builder = (
            lambda a, b, _l=float(lam): hybrid_transform(
                g_spatial, g2, T, alpha=a, beta=b, lam=_l, convention=convention)
        )
        design, trace = _train_loop(samples, builder, cfg)
        if best_design is None or design.mse < best_design.mse:
            best_design = replace(design, lam=float(lam))
            best_trace = trace
    return best_design, best_trace
