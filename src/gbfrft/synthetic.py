"""Synthetic denoising protocol on Cartesian products.

The target signal is zero-mean Gaussian with an adjacency-pattern
autocorrelation: C has 2 on the diagonal, 1 wherever two product vertices
are adjacent (symmetrized pattern), 0 elsewhere, normalized by its largest
eigenvalue. Observations add white Gaussian noise of a chosen variance.

The two edge terms of a Cartesian product touch disjoint entries, so the
product's pattern is the Kronecker sum P2 (+) P1 of the factors' patterns
and C = 2I + P2 (+) P1 = kron(U2, U1) diag(2 + mu1_i + mu2_j) kron(U2, U1)^T
from one ``eigh`` per factor (P_k = U_k diag(mu_k) U_k^T). The signal is
thus stationary on the product graph, and ``build_observation_model``
returns its statistics in that factored form, with no N x N array.
Grid rows report the model-based expected MSE; descent rows report the best
empirical loss on the sampled realizations. Both are total squared errors
over the N1 x N2 grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph, ProductGraph, make_named_graph
from .learn import TrainConfig, fit
from .wiener import FactoredStatistics, ObservationModel, draw_observations, gaussian_samples, grid_search

METHODS = ("grid-gfrft", "grid-gbfrft", "gd-gfrft", "gd-gbfrft")
VARIANTS = ("UU", "UW", "DU", "DW")
TOPOLOGIES = {
    "path-cycle": (("path", 4), ("cycle", 8)),
    "path-fan": (("path", 4), ("fan", 5)),
    "complete-star": (("complete", 5), ("star", 5)),
}
DEFAULT_VARIANCES = (0.5, 1.0, 1.5)


def autocorrelation_matrix(pg: ProductGraph) -> tuple[np.ndarray, np.ndarray, float]:
    """(C, Rxx, power): pattern autocorrelation, its normalization, and the
    implied signal power 2*N / lambda_max(C).

    Rxx = C / lambda_max(C) is returned verbatim; it can be indefinite when
    the product spectral radius exceeds 2, and callers that need a true
    covariance should clip it.
    """
    C = 2.0 * np.eye(pg.n) + _pattern(pg)
    lam_max = float(np.linalg.eigvalsh(C).max())
    return C, C / lam_max, 2.0 * pg.n / lam_max


def _pattern(g: Graph) -> np.ndarray:
    """The symmetrized binary adjacency pattern, with a zero diagonal."""
    adj = np.asarray(g.adjacency)
    pattern = ((adj + adj.T) != 0.0).astype(np.float64)
    np.fill_diagonal(pattern, 0.0)
    return pattern


def sample_gaussian(rxx, seed: int, trials: int = 1) -> np.ndarray:
    """(trials, N) zero-mean Gaussian draws; negative eigenvalues of the
    requested covariance are clipped to zero (see wiener.gaussian_samples)."""
    return gaussian_samples(np.asarray(rxx, dtype=np.float64), np.random.default_rng(seed), trials)


def build_observation_model(g1: Graph, g2: Graph, sigma2: float) -> ObservationModel:
    """Identity-degradation model with pattern statistics and white noise.

    The signal covariance is the PSD-clipped normalized autocorrelation of
    the product g1 x g2, so the designed filter, the reported expected MSE,
    and sampled realizations all describe the same Gaussian. It is returned
    factored (see the module docstring): one ``eigh`` per factor pattern,
    and W = max((2 + mu1_i + mu2_j) / lambda_max, 0) >= 0 elementwise, with
    lambda_max = 2 + max(mu1) + max(mu2).
    """
    (mu1, u1), (mu2, u2) = (np.linalg.eigh(_pattern(g)) for g in (g1, g2))
    c = 2.0 + mu1[:, None] + mu2[None, :]
    w = np.clip(c / c.max(), 0.0, None)
    return ObservationModel(n1=g1.n, n2=g2.n, factored=FactoredStatistics(u1, u2, w, sigma2))


@dataclass(frozen=True)
class SyntheticSpec:
    """One topology pair swept over structure variants and noise levels."""

    topology: str = "path-cycle"
    variants: tuple[str, ...] = ("UU",)
    variances: tuple[float, ...] = DEFAULT_VARIANCES
    seed: int = 0
    trials: int = 1
    grid_range: tuple[float, float] = (0.0, 1.0)
    grid_step: float = 0.1
    train: TrainConfig | None = None
    convention: str = "transform-power"

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"topology must be one of {tuple(TOPOLOGIES)}")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"variant must be one of {VARIANTS}, got {v!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _variant_flags(variant: str) -> tuple[bool, bool]:
    return variant[0] == "D", variant[1] == "W"


def build_factors(spec: SyntheticSpec, variant: str) -> tuple[Graph, Graph]:
    directed, weighted = _variant_flags(variant)
    (k1, n1), (k2, n2) = TOPOLOGIES[spec.topology]
    g1 = make_named_graph(k1, n1, directed=directed, weighted=weighted, seed=spec.seed)
    g2 = make_named_graph(k2, n2, directed=directed, weighted=weighted, seed=spec.seed + 1)
    return g1, g2


def default_config() -> TrainConfig:
    """Descent settings of the ``gd-*`` methods when the spec sets none."""
    return TrainConfig(lr_orders=0.03, epochs=200, init_orders="uniform[-1,1]")


def run_synthetic(spec: SyntheticSpec, method: str) -> list[dict]:
    """Rows for the synthetic table: one per (variant, noise variance)."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    tie = method.endswith("-gfrft")
    base = spec.train if spec.train is not None else default_config()
    rows = []
    for vi, variant in enumerate(spec.variants):
        g1, g2 = build_factors(spec, variant)
        for si, sigma2 in enumerate(spec.variances):
            model = build_observation_model(g1, g2, sigma2)
            if method.startswith("grid-"):
                design = grid_search(
                    model, g1, g2, spec.grid_range, spec.grid_range, spec.grid_step,
                    equal_orders=tie, convention=spec.convention)
            else:
                data_seed = spec.seed + 1000 + 100 * vi + si
                samples = draw_observations(model, spec.trials, data_seed)
                design, _ = fit([("2d-gfrft" if tie else "2d-gbfrft", samples)], g1, g2,
                                replace(base, seed=data_seed), convention=spec.convention)[0]
            rows.append({
                "method": method,
                "topology": spec.topology,
                "variant": variant,
                "sigma2": sigma2,
                "mse": design.mse,
                "alpha1": design.alpha1,
                "alpha2": design.alpha2,
            })
    return rows
