"""Image quality metrics for 8-bit grayscale frames."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

MAX_VAL = 255.0
PSNR_CAP = 99.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def mse(a, b) -> float:
    """Pixel-averaged squared error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"images differ in shape: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(err: float, max_val: float = MAX_VAL) -> float:
    """10*log10(max^2 / mse), capped at 99 dB (identical images hit the cap)."""
    if err < 0:
        raise ValueError("mse must be non-negative")
    if err == 0.0:
        return PSNR_CAP
    return float(min(10.0 * np.log10(max_val * max_val / err), PSNR_CAP))


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Unit-sum 2D Gaussian window."""
    half = (size - 1) / 2.0
    g = np.arange(size) - half
    w = np.exp(-(g[:, None] ** 2 + g[None, :] ** 2) / (2.0 * sigma * sigma))
    return w / w.sum()


def ssim(a, b, max_val: float = MAX_VAL, k1: float = SSIM_K1, k2: float = SSIM_K2,
         size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> float:
    """Mean structural similarity over the valid (unpadded) window positions.

    Stabilizers are C1 = (k1*max)^2 and C2 = (k2*max)^2. Identical inputs
    score exactly 1.
    """
    from scipy.signal import convolve2d  # on use: it is most of `import gbfrft`

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"images differ in shape: {a.shape} vs {b.shape}")
    if a.ndim != 2 or min(a.shape) < size:
        raise ShapeMismatch(f"images must be 2D with both sides >= {size}")
    w = gaussian_window(size, sigma)
    c1 = (k1 * max_val) ** 2
    c2 = (k2 * max_val) ** 2
    mu_a = convolve2d(a, w, mode="valid")
    mu_b = convolve2d(b, w, mode="valid")
    var_a = convolve2d(a * a, w, mode="valid") - mu_a * mu_a
    var_b = convolve2d(b * b, w, mode="valid") - mu_b * mu_b
    cov = convolve2d(a * b, w, mode="valid") - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def frame_metrics(reference, estimate) -> tuple[float, float, float]:
    """(mse, psnr, ssim) of an estimate against its reference frame."""
    err = mse(reference, estimate)
    return err, psnr(err), ssim(reference, estimate)


def gaussian_kernel(size: int = 5, sigma: float = 1.0) -> np.ndarray:
    return gaussian_window(size, sigma)


def gaussian_blur(img, size: int = 5, sigma: float = 1.0) -> np.ndarray:
    """Gaussian blur with symmetric boundary handling (synthetic degradation)."""
    from scipy.signal import convolve2d

    img = np.asarray(img, dtype=np.float64)
    return convolve2d(img, gaussian_kernel(size, sigma), mode="same", boundary="symm")
