import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbfrft
from gbfrft.errors import ShapeMismatch
from gbfrft.metrics import (
    frame_metrics,
    gaussian_blur,
    gaussian_kernel,
    gaussian_window,
    mse,
    psnr,
    ssim,
)


def test_mse_basics():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 3.0)
    assert mse(a, a) == 0.0
    assert mse(a, b) == 9.0
    with pytest.raises(ShapeMismatch):
        mse(np.zeros((2, 2)), np.zeros((3, 3)))


def test_psnr_reference_points():
    assert abs(psnr(62.5371) - 30.1694) < 1e-4
    assert abs(psnr(7.9011) - 39.1539) < 1e-4
    assert psnr(0.0) == 99.0
    assert psnr(1e-12) == 99.0  # capped
    assert abs(psnr(65025.0) - 0.0) < 1e-12  # mse of max_val^2
    with pytest.raises(ValueError):
        psnr(-1.0)


def test_gaussian_window_properties():
    w = gaussian_window(11, 1.5)
    assert w.shape == (11, 11)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.array_equal(w, w.T)
    assert w[5, 5] == w.max()
    assert np.array_equal(gaussian_kernel(5, 1.0), gaussian_window(5, 1.0))


def test_ssim_identity_is_exactly_one():
    rng = np.random.default_rng(0)
    for trial in range(3):
        img = rng.uniform(0, 255, size=(16, 20))
        assert ssim(img, img) == 1.0


def test_ssim_bounds_and_ordering():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, size=(24, 24))
    light = np.clip(img + rng.normal(scale=5.0, size=img.shape), 0, 255)
    heavy = np.clip(img + rng.normal(scale=60.0, size=img.shape), 0, 255)
    s_light = ssim(img, light)
    s_heavy = ssim(img, heavy)
    for s in (s_light, s_heavy):
        assert -1.0 <= s <= 1.0
    assert s_heavy < s_light < 1.0


def test_ssim_shape_requirements():
    with pytest.raises(ShapeMismatch):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))  # smaller than the window
    with pytest.raises(ShapeMismatch):
        ssim(np.zeros((16, 16)), np.zeros((16, 17)))


def test_frame_metrics_bundle():
    rng = np.random.default_rng(2)
    ref = rng.uniform(0, 255, size=(16, 16))
    est = np.clip(ref + rng.normal(scale=8.0, size=ref.shape), 0, 255)
    err, p, s = frame_metrics(ref, est)
    assert err == mse(ref, est)
    assert p == psnr(err)
    assert s == ssim(ref, est)


def test_gaussian_blur_preserves_mean_and_smooths():
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 255, size=(30, 30))
    out = gaussian_blur(img, 5, 1.0)
    assert out.shape == img.shape
    assert abs(out.mean() - img.mean()) < 2.0  # symmetric boundary keeps mass
    assert out.var() < img.var()
    flat = np.full((12, 12), 7.5)
    assert np.allclose(gaussian_blur(flat), flat, atol=1e-12)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes about a second to import; only ssim and
    # gaussian_blur need it, so `import gbfrft` must not pay for it
    src = str(Path(gbfrft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", "import sys, gbfrft; print('scipy.signal' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
