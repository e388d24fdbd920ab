"""Time-vertex denoising on sensor-style datasets.

A dataset is an (N, T) value matrix plus N sensor coordinates. Each node's
series is standardized (its own mean and population standard deviation)
before noise is added, and errors are reported per entry on that scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConstantSeries, ShapeMismatch
from .graphs import Graph, make_knn_graph
from .learn import METHODS, TrainConfig, train, train_hybrid, train_jfrft
from .matio import read_matrix
from .transforms import path_graph

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
    shared by every method, so the comparisons see identical data. Reported
    mse is the per-entry mean on the standardized scale.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {m!r}")
    base = cfg if cfg is not None else default_config()
    spatial = ds.spatial_graph(k)
    temporal = path_graph(ds.t)
    X = ds.standardized
    rows = []
    for si, sigma2 in enumerate(variances):
        rng = np.random.default_rng(seed + si)
        Y = X + rng.normal(scale=np.sqrt(sigma2), size=X.shape)
        batch = [(Y, X)]
        for method in methods:
            lam = None
            if method == "2d-gfrft":
                design, _ = train(batch, spatial, temporal, replace(base, tie_orders=True))
            elif method == "2d-gbfrft":
                design, _ = train(batch, spatial, temporal, base)
            elif method == "jfrft":
                design, _ = train_jfrft(batch, spatial, ds.t, base)
            else:
                kwargs = {} if lambda_grid is None else {"lambda_grid": lambda_grid}
                design, _ = train_hybrid(batch, spatial, ds.t, base, **kwargs)
                lam = design.lam
            rows.append({
                "method": method,
                "k": k,
                "sigma2": sigma2,
                "mse": design.mse / (ds.n * ds.t),
                "alpha1": design.alpha1,
                "alpha2": design.alpha2,
                "lam": lam,
            })
    return rows
