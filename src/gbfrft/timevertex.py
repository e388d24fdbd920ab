"""Time-vertex denoising on sensor-style datasets.

A dataset is an (N, T) value matrix plus N sensor coordinates. Each node's
series is standardized (its own mean and population standard deviation)
before noise is added, and errors are reported per entry on that scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstantSeries, NonFinite, ShapeMismatch
from .graphs import Graph, make_knn_graph
from .learn import DEFAULT_LAMBDA_GRID, TrainConfig, fit
from .matio import read_matrix
from .transforms import METHODS, path_graph

# Not called here: the benchmark's layer tracer (bench/layertrace.py) wraps these names.
from .learn import train, train_hybrid, train_jfrft  # noqa: F401

STD_FLOOR = 1e-12


@dataclass(eq=False)
class TimeVertexDataset:
    coords: np.ndarray
    values: np.ndarray
    standardized: np.ndarray = field(init=False)
    mean: np.ndarray = field(init=False)
    std: np.ndarray = field(init=False)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.coords.ndim == 1:
            self.coords = self.coords[:, None]
        if self.values.ndim != 2:
            raise ShapeMismatch("values must be an (N, T) matrix")
        if self.coords.shape[0] != self.values.shape[0]:
            raise ShapeMismatch(
                f"{self.coords.shape[0]} coordinates for {self.values.shape[0]} series")
        for name, a in (("values", self.values), ("coordinates", self.coords)):
            bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
            if bad.size:
                raise NonFinite(f"series {bad.tolist()} have non-finite {name}")
        self.mean = self.values.mean(axis=1)
        self.std = self.values.std(axis=1)
        bad = np.nonzero(self.std < STD_FLOOR)[0]
        if bad.size:
            raise ConstantSeries(f"series {bad.tolist()} have (near-)zero variance")
        self.standardized = (self.values - self.mean[:, None]) / self.std[:, None]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]

    def destandardize(self, Z) -> np.ndarray:
        return np.asarray(Z) * self.std[:, None] + self.mean[:, None]

    def spatial_graph(self, k: int) -> Graph:
        return make_knn_graph(self.coords, k)


def ingest_timevertex(values_path: str, coords_path: str) -> TimeVertexDataset:
    """Dataset from a values CSV (N rows, T columns) and a coordinates CSV."""
    return TimeVertexDataset(coords=read_matrix(coords_path), values=read_matrix(values_path))


def default_config() -> TrainConfig:
    return TrainConfig(lr_orders=0.1, epochs=200, init_orders=(0.5, 0.5))


def run_timevertex(
    ds: TimeVertexDataset,
    k: int,
    variances,
    methods=METHODS,
    cfg: TrainConfig | None = None,
    seed: int = 0,
    lambda_grid=None,
) -> list[dict]:
    """Rows for the time-vertex table: one per (method, noise variance).

    A single noise realization is drawn per variance (from ``seed``) and
    shared by every method, so the comparisons see identical data. Every
    (variance, method) fit, and every lambda of a hybrid one, descends in
    one stacked descent. Reported mse is the per-entry mean on the
    standardized scale. A negative or non-finite noise variance raises
    ValueError before any work.
    """
    bad = [s for s in variances if not (np.isfinite(s) and s >= 0.0)]
    if bad:
        raise ValueError(f"noise variances must be finite and non-negative, got {bad}")
    X = ds.standardized
    noisy = [X + np.random.default_rng(seed + si).normal(scale=np.sqrt(sigma2), size=X.shape)
             for si, sigma2 in enumerate(variances)]
    cells = [(sigma2, Y, method) for sigma2, Y in zip(variances, noisy) for method in methods]
    if not cells:
        return []
    fits = fit([(method, [(Y, X)]) for _, Y, method in cells], ds.spatial_graph(k),
               path_graph(ds.t), cfg if cfg is not None else default_config(),
               DEFAULT_LAMBDA_GRID if lambda_grid is None else lambda_grid)
    return [{
        "method": method,
        "k": k,
        "sigma2": sigma2,
        "mse": design.mse / (ds.n * ds.t),
        "alpha1": design.alpha1,
        "alpha2": design.alpha2,
        "lam": design.lam,
    } for (sigma2, _, method), (design, _) in zip(cells, fits)]
