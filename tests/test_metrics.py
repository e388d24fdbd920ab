import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbfrft
from gbfrft import metrics
from gbfrft.errors import ShapeMismatch
from gbfrft.metrics import (
    frame_metrics,
    gaussian_blur,
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
    # scipy.signal costs about 0.7 s and 45 MB to import, and nothing in the
    # library needs it: neither `import gbfrft` nor a blur, a tiny deblur
    # run and its frame metrics may load it
    src = str(Path(gbfrft.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "\n".join([
        "import sys, numpy as np, gbfrft",
        "from gbfrft.deblur import FrameSequence, blur_sequence, run_deblur",
        "from gbfrft.learn import TrainConfig",
        "clean = FrameSequence(np.random.default_rng(0).uniform(0, 255, size=(2, 12, 12)))",
        "blurred = blur_sequence(clean)",
        "run_deblur(blurred, clean, patch=6, cfg=TrainConfig(epochs=1))",
        "gbfrft.frame_metrics(clean.frames[0], blurred.frames[0])",
        "print('scipy.signal' in sys.modules)"])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


SIZES = [1, 2, 3, 4, 5, 6, 11]


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("size", SIZES)
def test_gaussian_blur_matches_the_symmetric_2d_convolution(size):
    from scipy.signal import convolve2d   # the oracle; the library does without it

    rng = np.random.default_rng(10 + size)
    for shape in [(11, 17), (19, 12), (size, size + 3)]:
        img = rng.uniform(0, 255, size=shape)
        want = convolve2d(img, gaussian_window(size, 1.3), mode="same", boundary="symm")
        assert_close(gaussian_blur(img, size, 1.3), want)


@pytest.mark.parametrize("size", SIZES)
def test_ssim_window_sums_match_the_valid_2d_convolution(size):
    from scipy.signal import convolve2d

    rng = np.random.default_rng(20 + size)
    a = rng.uniform(0, 255, size=(13, 18))
    b = np.clip(a + rng.normal(scale=30.0, size=a.shape), 0, 255)
    images = np.stack([a, b, a * a, b * b, a * b])
    want = [convolve2d(x, gaussian_window(size), mode="valid") for x in images]
    for got, ref in zip(metrics._convolve(images, metrics._gaussian_taps(size, metrics.SSIM_SIGMA), valid=True),
                        want):
        assert_close(got, ref)
    # the index from the oracle's sums
    mu_a, mu_b, aa, bb, ab = want
    c1, c2 = (metrics.SSIM_K1 * 255.0) ** 2, (metrics.SSIM_K2 * 255.0) ** 2
    ref = np.mean((2.0 * mu_a * mu_b + c1) * (2.0 * (ab - mu_a * mu_b) + c2)
                  / ((mu_a * mu_a + mu_b * mu_b + c1) * (aa - mu_a * mu_a + bb - mu_b * mu_b + c2)))
    assert abs(ssim(a, b, size=size) - ref) <= 1e-12 * abs(ref)
    assert ssim(a, a, size=size) == 1.0


def test_gaussian_blur_rejects_a_window_wider_than_the_frame():
    for shape in [(3, 8), (8, 3)]:
        assert gaussian_blur(np.ones(shape), 3, 1.0).shape == shape
        with pytest.raises(ShapeMismatch):
            gaussian_blur(np.ones(shape), 4, 1.0)
    with pytest.raises(ShapeMismatch):
        gaussian_blur(np.ones(8), 3, 1.0)


@pytest.mark.parametrize("size, sigma", [(0, 1.0), (-3, 1.0), (5, 0.0), (5, -1.0),
                                         (5, float("nan")), (5, float("inf"))])
def test_gaussian_window_rejects_a_bad_size_or_sigma(size, sigma):
    with pytest.raises(ValueError):
        gaussian_window(size, sigma)
    with pytest.raises(ValueError):
        gaussian_blur(np.ones((8, 8)), size, sigma)
