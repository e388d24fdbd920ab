"""Image quality metrics for 8-bit grayscale frames.

The Gaussian window is separable: ``gaussian_window`` is the outer product
of unit-sum 1-D taps. So every 2-D convolution by it is two small matrix
products, ``Kh @ img @ Kw.T``, with Kh and Kw the banded matrices of the
1-D convolution along each axis. ``ssim`` takes the "valid" positions (no
padding); ``gaussian_blur`` keeps the frame size and extends the frame by
one symmetric reflection at each edge (x[-1] = x[0], x[-2] = x[1], ...),
folded into the edge columns of its matrices. A window wider than a frame
side is rejected by both.
"""

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


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    """Unit-sum 1-D Gaussian taps, symmetric about (size - 1) / 2."""
    if size < 1:
        raise ValueError(f"window size must be at least 1, got {size}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"window sigma must be positive and finite, got {sigma}")
    g = np.arange(size) - (size - 1) / 2.0
    t = np.exp(-g * g / (2.0 * sigma * sigma))
    return t / t.sum()


def gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """Unit-sum 2D Gaussian window, the outer product of unit-sum 1-D taps;
    ValueError for a size below 1 or a sigma that is not positive and finite."""
    taps = _gaussian_taps(size, sigma)
    return np.outer(taps, taps)


def _conv_matrix(n: int, taps: np.ndarray, valid: bool) -> np.ndarray:
    """K with K @ x the 1-D convolution of a length-n x by ``taps``: row i
    is row i + off of the full convolution, off = k - 1 for the valid rows
    and (k - 1) // 2 for the n centred ones, whose taps beyond an edge fold
    back onto it by one symmetric reflection (needs k <= n)."""
    k = len(taps)
    rows, off = (n - k + 1, k - 1) if valid else (n, (k - 1) // 2)
    col = np.arange(rows)[:, None] + off - np.arange(k)
    col = np.where(col < 0, -1 - col, np.where(col >= n, 2 * n - 1 - col, col))
    K = np.zeros((rows, n))
    np.add.at(K, (np.arange(rows)[:, None], col), taps)
    return K


def _check_window(shape: tuple, size: int) -> None:
    if len(shape) != 2 or min(shape) < size:
        raise ShapeMismatch(f"images must be 2D with both sides >= {size}")


def _convolve(imgs: np.ndarray, taps: np.ndarray, valid: bool) -> np.ndarray:
    """Kh @ img @ Kw.T for each (H, W) image of ``imgs``: its 2-D convolution
    by np.outer(taps, taps), at the valid positions or at the H x W centred
    ones over a symmetric boundary."""
    Kh, Kw = (_conv_matrix(n, taps, valid) for n in imgs.shape[-2:])
    return Kh @ imgs @ Kw.T


def ssim(a, b, max_val: float = MAX_VAL, k1: float = SSIM_K1, k2: float = SSIM_K2,
         size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> float:
    """Mean structural similarity over the valid (unpadded) window positions.

    The five Gaussian-weighted window sums (of a, b, a*a, b*b and a*b) are
    ``Kh @ x @ Kw.T``, with one pair of valid-convolution matrices per call.
    Stabilizers are C1 = (k1*max)^2 and C2 = (k2*max)^2. Identical inputs
    score exactly 1. ShapeMismatch unless both images are 2D, of one shape,
    with both sides at least ``size``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"images differ in shape: {a.shape} vs {b.shape}")
    _check_window(a.shape, size)
    taps = _gaussian_taps(size, sigma)
    mu_a, mu_b, aa, bb, ab = _convolve(np.stack([a, b, a * a, b * b, a * b]), taps, valid=True)
    c1 = (k1 * max_val) ** 2
    c2 = (k2 * max_val) ** 2
    var_a = aa - mu_a * mu_a
    var_b = bb - mu_b * mu_b
    cov = ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def frame_metrics(reference, estimate) -> tuple[float, float, float]:
    """(mse, psnr, ssim) of an estimate against its reference frame."""
    err = mse(reference, estimate)
    return err, psnr(err), ssim(reference, estimate)


def gaussian_blur(img, size: int = 5, sigma: float = 1.0) -> np.ndarray:
    """Gaussian blur of a 2D frame, same size out, with symmetric boundary
    handling (synthetic degradation): ``Kh @ img @ Kw.T`` with the reflected
    taps folded onto the edge columns. ShapeMismatch for a window wider than
    a frame side, which one reflection would not cover."""
    taps = _gaussian_taps(size, sigma)
    img = np.asarray(img, dtype=np.float64)
    _check_window(img.shape, size)
    return _convolve(img, taps, valid=False)
