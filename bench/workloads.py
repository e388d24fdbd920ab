"""The benchmark's three workloads: inputs, the timed work, and the checks.

Each workload builds its inputs from a seed (``setup``), runs one round of
work through the public ``gbfrft`` API (``run``), and checks a round's
outputs (``check``) against quantities computed here, apart from the
library, or against properties the method must have. ``check`` returns one
message per failed operation, so an empty list means the round passed.

Library functions are looked up on their modules at call time, so that the
tracer's wrappers see the calls made from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import gbfrft.deblur
import gbfrft.graphs
import gbfrft.synthetic
import gbfrft.timevertex
import gbfrft.transforms
import gbfrft.wiener

MAX_VAL = 255.0
PSNR_CAP = 99.0


def _path_adjacency(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    i = np.arange(n - 1)
    a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def _cycle_adjacency(n: int) -> np.ndarray:
    a = _path_adjacency(n)
    a[0, n - 1] = a[n - 1, 0] = 1.0
    return a


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------- grid

@dataclass
class GridInputs:
    g1: object
    g2: object
    sigma2: float
    model: object


class Grid:
    """Wiener order grid search on a path x cycle product with white noise.

    Nearly all the work is normal-equation assembly and the condition-number
    SVD over dense kron operators; the factor eigenbases are tiny and built
    in set-up. An operation is one grid point.
    """

    name = "grid"

    def __init__(self, n1: int = 16, n2: int = 32, step: float = 0.25):
        self.n1, self.n2, self.step = n1, n2, step
        per_axis = round(1.0 / step) + 1
        self.operations = per_axis * per_axis

    def setup(self, seed: int) -> GridInputs:
        sigma2 = float(np.random.default_rng(seed).uniform(0.9, 1.1))
        g1 = gbfrft.graphs.make_named_graph("path", self.n1)
        g2 = gbfrft.graphs.make_named_graph("cycle", self.n2)
        gbfrft.transforms.graph_basis(g1)
        gbfrft.transforms.graph_basis(g2)
        model = gbfrft.synthetic.build_observation_model(g1, g2, sigma2)
        return GridInputs(g1, g2, sigma2, model)

    def run(self, inp: GridInputs):
        return gbfrft.wiener.grid_search(inp.model, inp.g1, inp.g2, step=self.step,
                                         keep_grid=True)

    def signal_statistics(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, Rxx): the normalized, PSD-clipped pattern covariance
        2I + A2 (+) A1 over its largest eigenvalue, built here."""
        n1, n2 = self.n1, self.n2
        adj = (np.kron(_cycle_adjacency(n2), np.eye(n1))
               + np.kron(np.eye(n2), _path_adjacency(n1)))
        w, V = np.linalg.eigh(2.0 * np.eye(n1 * n2) + adj)
        lam = np.clip(w / w.max(), 0.0, None)
        return lam, (V * lam) @ V.T

    def mmse(self, sigma2: float) -> float:
        """Linear MMSE under white noise: sum_i lam_i s2 / (lam_i + s2)."""
        lam, _ = self.signal_statistics()
        return float(np.sum(lam * sigma2 / (lam + sigma2)))

    def dense_mse(self, inp: GridInputs, design) -> float:
        """Tr((W-I) Rxx (W-I)^H) + Tr(W Rnn W^H), W = F^-1 diag(h) F."""
        _, rxx = self.signal_statistics()
        t = gbfrft.transforms.transform_2d(inp.g1, inp.g2, design.alpha1, design.alpha2)
        W = (t.vec_operator("inverse") * design.h) @ t.vec_operator("forward")
        D = W - np.eye(W.shape[0])
        return float(np.sum((D @ rxx) * D.conj()).real + inp.sigma2 * np.sum(np.abs(W) ** 2))

    def check(self, inp: GridInputs, out) -> list[str]:
        best, rows = out
        bound = self.mmse(inp.sigma2)
        failed = {}
        if len(rows) != self.operations:
            return [f"{len(rows)} grid rows, expected {self.operations}"] * self.operations
        for r in rows:
            if not (math.isfinite(r["mse"]) and r["mse"] >= bound * (1.0 - 1e-9)):
                failed[(r["alpha1"], r["alpha2"])] = f"row {r} below the MMSE {bound!r}"
        point = (best.alpha1, best.alpha2)
        if point != (1.0, 1.0):
            failed[point] = f"best orders {point}, expected (1.0, 1.0)"
        elif best.mse != min(r["mse"] for r in rows):
            failed[point] = "best design is not the smallest grid row"
        elif not _close(best.mse, bound, 1e-9):
            failed[point] = f"best mse {best.mse!r} differs from the MMSE {bound!r}"
        else:
            dense = self.dense_mse(inp, best)
            if not _close(dense, best.mse, 1e-8):
                failed[point] = f"dense mse of h {dense!r} differs from reported {best.mse!r}"
        return list(failed.values())

    def gain_db(self, inp: GridInputs, out) -> float:
        best, _ = out
        return 10.0 * math.log10(inp.sigma2 * self.n1 * self.n2 / best.mse)


# ------------------------------------------------------------------- deblur

@dataclass
class DeblurInputs:
    clean: object
    blurred: object


def _smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with wrap-around edges."""
    r = int(math.ceil(3 * sigma))
    k = np.exp(-0.5 * (np.arange(-r, r + 1) / sigma) ** 2)
    k /= k.sum()
    for axis in (0, 1):
        a = sum(w * np.roll(a, s, axis=axis) for s, w in zip(range(-r, r + 1), k))
    return a


class Deblur:
    """Patch-wise 2-D GBFRFT restoration of Gaussian-blurred frames.

    The frames are a smooth random texture that drifts one pixel per frame,
    cut into 20x20 patches that share one 400-vertex patch graph. Nearly
    all the time is the per-patch descent loop. An operation is one patch.
    """

    name = "deblur"
    frames = 3
    patch = 20  # run_deblur's default

    def __init__(self, height: int = 40, width: int = 60):
        self.height, self.width = height, width
        self.operations = (height // self.patch) * (width // self.patch)

    def clean_frames(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        field = _smooth(rng.standard_normal((self.height + self.frames, self.width + self.frames)), 1.5)
        field = 128.0 + 40.0 * field / field.std()
        frames = [field[t:t + self.height, t:t + self.width] for t in range(self.frames)]
        return np.clip(np.stack(frames), 0.0, MAX_VAL)

    def setup(self, seed: int) -> DeblurInputs:
        # the patch graph and its eigenbasis, built as run_deblur builds them;
        # run_deblur takes no graph, so it builds its own again
        gbfrft.transforms.graph_basis(gbfrft.deblur.patch_graph(self.patch))
        clean = gbfrft.deblur.FrameSequence(self.clean_frames(seed))
        return DeblurInputs(clean, gbfrft.deblur.blur_sequence(clean))

    def run(self, inp: DeblurInputs):
        return gbfrft.deblur.run_deblur(inp.blurred, inp.clean, patch=self.patch,
                                        method="2d-gbfrft")

    def check(self, inp: DeblurInputs, out) -> list[str]:
        restored, rows = out
        X, R = inp.clean.frames, restored.frames
        if R.shape != X.shape or not np.all(np.isfinite(R)):
            return ["restored frames have the wrong shape or are not finite"] * self.operations
        row_faults = []
        frame_mse = np.mean((X - R) ** 2, axis=(1, 2))
        for f, row in enumerate(rows[:-1]):
            psnr = PSNR_CAP if frame_mse[f] == 0 else min(
                10.0 * math.log10(MAX_VAL * MAX_VAL / frame_mse[f]), PSNR_CAP)
            if not (_close(row["mse"], frame_mse[f], 1e-9) and _close(row["psnr"], psnr, 1e-9)):
                row_faults.append(f"frame {f + 1}: row {row} vs mse {frame_mse[f]!r} psnr {psnr!r}")
        avg = rows[-1]
        if len(rows) != self.frames + 1 or not (
                _close(avg["mse"], float(np.mean([r["mse"] for r in rows[:-1]])), 1e-12)
                and _close(avg["psnr"], float(np.mean([r["psnr"] for r in rows[:-1]])), 1e-12)):
            row_faults.append("average row does not average the frame rows")
        if row_faults:  # the rows score every patch at once
            return [row_faults[0]] * self.operations
        patchify = gbfrft.deblur.patchify
        px, py, pr = (patchify(s, self.patch) for s in (inp.clean, inp.blurred, restored))
        out = []
        for p in range(px.shape[0]):
            sse_blurred = float(np.sum((py[p] - px[p]) ** 2))
            sse_restored = float(np.sum((pr[p] - px[p]) ** 2))
            if not sse_restored <= sse_blurred * (1.0 + 1e-9):
                out.append(f"patch {p}: restored error {sse_restored!r} above blurred {sse_blurred!r}")
        return out

    def gain_db(self, inp: DeblurInputs, out) -> float:
        restored, _ = out
        X = inp.clean.frames
        return 10.0 * math.log10(np.sum((inp.blurred.frames - X) ** 2)
                                 / np.sum((restored.frames - X) ** 2))


# --------------------------------------------------------------- timevertex

class TimeVertex:
    """Time-vertex denoising with all four methods on a k-NN sensor graph.

    The hybrid's lambda grid dominates; its operators are small, so the loop
    is bound by per-call overhead and the per-epoch blend rebuild. An
    operation is one (method, noise variance) fit.
    """

    name = "timevertex"
    variances = (0.6, 0.9, 1.2)   # the CLI's defaults
    k = 3                         # the CLI's default k-NN size
    # the sensor set is fixed, like a dataset read from files, and the run's
    # seed picks the noise draws, as the CLI's --seed does. The fits' errors
    # swing with the sensor layout: when the seed also made the sensor set,
    # gain_db had a spread (quartile distance over median) of 0.29 over ten
    # seeds; with a fixed set it was 0.08 over eight
    sensor_seed = 0
    modes = 8

    def __init__(self, nodes: int = 24, steps: int = 24):
        self.nodes, self.steps = nodes, steps
        self.operations = len(self.variances) * len(gbfrft.timevertex.METHODS)
        # a complex filter fits one noisy realization exactly, which leaves
        # the reported mse to the last Adam steps and swings it by orders of
        # magnitude between seeds; a real filter has a floor set by the data
        self.cfg = replace(gbfrft.timevertex.default_config(), real_filter=True)

    def dataset(self):
        """Sensors in the unit square carrying standing waves (a spatial
        cosine times a temporal sine per mode) plus a little sensor noise."""
        rng = np.random.default_rng(self.sensor_seed)
        coords = rng.uniform(0.0, 1.0, (self.nodes, 2))
        t = np.arange(self.steps)
        values = 0.1 * rng.standard_normal((self.nodes, self.steps))
        for j in range(self.modes):
            direction = np.array([math.cos(j), math.sin(j)]) * (1 + j)
            space = np.cos(3.0 * coords @ direction + rng.uniform(0, 2 * math.pi))
            time = np.sin(2 * math.pi * (0.05 + 0.05 * j) * t + rng.uniform(0, 2 * math.pi))
            values += np.outer(space, time)
        return gbfrft.timevertex.TimeVertexDataset(coords=coords, values=values)

    def setup(self, seed: int):
        # the sensor graph and its eigenbasis, built as run_timevertex builds
        # them; run_timevertex takes no graph, so it builds its own again
        ds = self.dataset()
        gbfrft.transforms.graph_basis(ds.spatial_graph(self.k))
        return ds, seed

    def run(self, inp):
        ds, seed = inp
        return gbfrft.timevertex.run_timevertex(ds, self.k, self.variances, cfg=self.cfg, seed=seed)

    def noisy_errors(self, inp) -> list[float]:
        """Per-entry error of the noisy series; run_timevertex documents one
        draw per variance from seed + index."""
        ds, seed = inp
        X = ds.standardized
        out = []
        for si, sigma2 in enumerate(self.variances):
            noise = np.random.default_rng(seed + si).normal(scale=math.sqrt(sigma2), size=X.shape)
            out.append(float(np.mean(noise ** 2)))
        return out

    def check(self, inp, out) -> list[str]:
        rows = out
        if len(rows) != self.operations:
            return [f"{len(rows)} rows, expected {self.operations}"] * self.operations
        failed = {}
        for sigma2, noisy in zip(self.variances, self.noisy_errors(inp)):
            fits = {r["method"]: r for r in rows if r["sigma2"] == sigma2}
            for method, r in fits.items():
                if not (math.isfinite(r["mse"]) and r["mse"] < noisy):
                    failed[(method, sigma2)] = f"{method} at {sigma2}: mse {r['mse']!r} not below noisy {noisy!r}"
            endpoint = min(fits["jfrft"]["mse"], fits["2d-gbfrft"]["mse"])
            if not fits["hybrid"]["mse"] <= endpoint * (1.0 + 1e-9):
                failed[("hybrid", sigma2)] = (
                    f"hybrid at {sigma2}: mse {fits['hybrid']['mse']!r} above its endpoints {endpoint!r}")
        return list(failed.values())

    def gain_db(self, inp, out) -> float:
        noisy = float(np.mean(self.noisy_errors(inp)))
        return 10.0 * math.log10(noisy / float(np.mean([r["mse"] for r in out])))


WORKLOADS = {w.name: w for w in (Grid, Deblur, TimeVertex)}
