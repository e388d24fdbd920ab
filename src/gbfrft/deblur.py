"""Patch-wise restoration of blurred frame sequences.

Frames are cut into non-overlapping p x p patches (row-major patch order,
row-major pixels within a patch); each patch across all frames forms a
p^2 x T signal on a product of a 4-nearest-neighbour pixel graph and a
temporal path. A diagonal filter in the chosen fractional domain is fit per
patch against the clean reference, applied to the blurred input, and the
reassembled frames are scored against the originals. All patches share the
pixel graph, so their descents run stacked, as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .graphs import Graph, make_knn_graph
from .learn import TrainConfig, apply_filter, fit
from .metrics import SSIM_WINDOW, frame_metrics, gaussian_blur
from .transforms import METHOD_TABLE, METHODS, path_graph

# Not called here: the benchmark's layer tracer (bench/layertrace.py) wraps these names.
from .learn import train  # noqa: F401
from .transforms import hybrid_transform, jfrft, transform_2d  # noqa: F401

DEFAULT_PATCH = 20
PATCH_NEIGHBOURS = 4   # k of the pixel graph's k-nearest-neighbour edges


@dataclass(eq=False)
class FrameSequence:
    """A stack of equal-size grayscale frames in [0, 255]."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim == 2:
            self.frames = self.frames[None, :, :]
        if self.frames.ndim != 3:
            raise ShapeMismatch("frames must be a (T, H, W) stack")
        if not np.isfinite(self.frames).all():
            bad = np.flatnonzero(~np.isfinite(self.frames).all(axis=(1, 2)))[0]
            raise NonFinite(f"frame {bad + 1} of {self.t} has non-finite pixels")

    @property
    def t(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


def patchify(fs: FrameSequence, patch: int) -> np.ndarray:
    """(num_patches, patch*patch, T) signal matrices, exact partition."""
    T, H, W = fs.frames.shape
    if patch < 1:
        raise ShapeMismatch(f"patch size must be at least 1, got {patch}")
    if H % patch or W % patch:
        raise ShapeMismatch(f"{H}x{W} frames are not divisible into {patch}x{patch} patches")
    rows, cols = H // patch, W // patch
    blocks = fs.frames.reshape(T, rows, patch, cols, patch).transpose(1, 3, 2, 4, 0)
    return blocks.reshape(rows * cols, patch * patch, T)


def reassemble(blocks: np.ndarray, shape: tuple[int, int, int], patch: int) -> FrameSequence:
    """Inverse of :func:`patchify` for a (T, H, W) target shape."""
    T, H, W = shape
    rows, cols = H // patch, W // patch
    if blocks.shape != (rows * cols, patch * patch, T):
        raise ShapeMismatch(f"blocks shape {blocks.shape} does not match target {shape}")
    frames = blocks.reshape(rows, cols, patch, patch, T).transpose(4, 0, 2, 1, 3)
    return FrameSequence(frames.reshape(shape))


def pixel_grid_coords(patch: int) -> np.ndarray:
    """(patch^2, 2) row-major pixel coordinates of a patch."""
    rr, cc = np.meshgrid(np.arange(patch), np.arange(patch), indexing="ij")
    return np.stack([rr.ravel(), cc.ravel()], axis=1).astype(np.float64)


@cache
def patch_graph(patch: int, k: int = PATCH_NEIGHBOURS) -> Graph:
    """The patch's k-NN pixel graph, built once per (patch, k) and shared:
    a Graph and its adjacency are read-only."""
    return make_knn_graph(pixel_grid_coords(patch), k)


def default_config() -> TrainConfig:
    return TrainConfig(lr_orders=7e-3, epochs=120, init_orders=(0.8, 0.8))


def blur_sequence(fs: FrameSequence, size: int = 5, sigma: float = 1.0) -> FrameSequence:
    """Per-frame Gaussian blur (synthetic degradation source)."""
    return FrameSequence(np.stack([gaussian_blur(f, size, sigma) for f in fs.frames]))


def run_deblur(
    blurred: FrameSequence,
    clean: FrameSequence,
    patch: int = DEFAULT_PATCH,
    method: str = "2d-gbfrft",
    cfg: TrainConfig | None = None,
) -> tuple[FrameSequence, list[dict]]:
    """Restore ``blurred`` against ``clean`` patch by patch.

    Returns the restored sequence (clamped to [0, 255]) and metric rows,
    one per frame plus an average row. Frames smaller than the SSIM window
    on either side are rejected before any work.
    """
    if blurred.frames.shape != clean.frames.shape:
        raise ShapeMismatch("blurred and clean sequences differ in shape")
    if patch * patch <= PATCH_NEIGHBOURS:
        raise ShapeMismatch(f"a {patch}x{patch} patch has too few pixels for a graph of "
                            f"{PATCH_NEIGHBOURS} neighbours per pixel")
    if method not in METHOD_TABLE:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if blurred.t < 2:
        raise ShapeMismatch(f"a sequence needs at least 2 frames for its temporal graph, got {blurred.t}")
    if min(blurred.height, blurred.width) < SSIM_WINDOW:
        raise ShapeMismatch(f"{blurred.height}x{blurred.width} frames are too small for the "
                            f"{SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    cfg = cfg if cfg is not None else default_config()
    y_blocks = patchify(blurred, patch)
    spatial, temporal = patch_graph(patch), path_graph(blurred.t)
    fits = fit([(method, [pair]) for pair in zip(y_blocks, patchify(clean, patch))], spatial,
               temporal, cfg)
    build = METHOD_TABLE[method].build  # each patch's transform at its fitted orders
    out_blocks = np.stack([
        apply_filter(build(spatial, temporal, d.alpha1, d.alpha2, d.lam), d.h, Yb).real
        for (d, _), Yb in zip(fits, y_blocks)])
    restored = reassemble(np.clip(out_blocks, 0.0, 255.0), blurred.frames.shape, patch)
    rows = []
    scores = []
    for f in range(clean.t):
        err, p_db, s = frame_metrics(clean.frames[f], restored.frames[f])
        scores.append((err, p_db, s))
        rows.append({"method": method, "frame": f + 1, "mse": err, "psnr": p_db, "ssim": s})
    avg = np.mean(np.asarray(scores), axis=0)
    rows.append({"method": method, "frame": "avg",
                 "mse": float(avg[0]), "psnr": float(avg[1]), "ssim": float(avg[2])})
    return restored, rows
