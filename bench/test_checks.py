"""The benchmark's checks pass on the program's outputs and fail on perturbed ones.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Each workload runs once at a small size; every check is then shown to
catch a perturbation aimed at it alone.
"""

import copy
import dataclasses

import numpy as np
import pytest

import gbfrft.deblur
from workloads import Deblur, Grid, TimeVertex


@pytest.fixture(scope="module")
def grid():
    w = Grid(n1=4, n2=8, step=0.5)
    inp = w.setup(seed=3)
    return w, inp, w.run(inp)


@pytest.fixture(scope="module")
def deblur():
    w = Deblur(height=20, width=40)
    inp = w.setup(seed=3)
    return w, inp, w.run(inp)


@pytest.fixture(scope="module")
def timevertex():
    w = TimeVertex(nodes=6, steps=6)
    inp = w.setup(seed=3)
    return w, inp, w.run(inp)


def test_checks_pass_on_program_outputs(grid, deblur, timevertex):
    for w, inp, out in (grid, deblur, timevertex):
        assert w.check(inp, out) == [], w.name
        assert np.isfinite(w.gain_db(inp, out)) and w.gain_db(inp, out) > 0.0


def test_grid_mmse_at_16x32_and_unit_noise():
    assert Grid().mmse(1.0) == pytest.approx(119.4962094946925, rel=1e-12)


def test_grid_scaled_filter_fails(grid):
    w, inp, (best, rows) = grid
    scaled = dataclasses.replace(best, h=best.h * 1.01)
    assert len(w.check(inp, (scaled, rows))) == 1


def test_grid_row_below_the_bound_fails(grid):
    w, inp, (best, rows) = grid
    low = copy.deepcopy(rows)
    low[0]["mse"] = 0.9 * w.mmse(inp.sigma2)
    assert len(w.check(inp, (best, low))) == 2  # that row, and best is no longer the minimum


def test_grid_best_off_the_bound_fails(grid):
    w, inp, (best, rows) = grid
    off = dataclasses.replace(best, mse=best.mse * (1.0 + 1e-6))
    rows = [dict(r, mse=off.mse) if (r["alpha1"], r["alpha2"]) == (1.0, 1.0) else r for r in rows]
    assert len(w.check(inp, (off, rows))) == 1


def _rows_for(clean, frames):
    rows = []
    for f in range(frames.shape[0]):
        err, p, s = gbfrft.metrics.frame_metrics(clean.frames[f], frames[f])
        rows.append({"frame": f + 1, "mse": err, "psnr": p, "ssim": s})
    rows.append({"frame": "avg", **{k: float(np.mean([r[k] for r in rows])) for k in ("mse", "psnr", "ssim")}})
    return rows


def test_deblur_noisy_blurred_frames_fail(deblur):
    w, inp, (restored, rows) = deblur
    noise = np.random.default_rng(0).normal(scale=2.0, size=inp.blurred.frames.shape)
    fake = np.clip(inp.blurred.frames + noise, 0.0, 255.0)
    fake_seq = gbfrft.deblur.FrameSequence(fake)
    # with the program's rows the row check fails; with matching rows the patch check does
    assert len(w.check(inp, (fake_seq, rows))) == w.operations
    assert len(w.check(inp, (fake_seq, _rows_for(inp.clean, fake)))) == w.operations


def test_deblur_misreported_psnr_fails(deblur):
    w, inp, (restored, rows) = deblur
    bad = copy.deepcopy(rows)
    bad[0]["psnr"] += 1e-3
    assert w.check(inp, (restored, bad))


def test_timevertex_hybrid_above_its_endpoint_fails(timevertex):
    w, inp, rows = timevertex
    bad = copy.deepcopy(rows)
    sigma2 = w.variances[1]
    ends = [r["mse"] for r in bad if r["sigma2"] == sigma2 and r["method"] in ("jfrft", "2d-gbfrft")]
    hybrid = next(r for r in bad if r["sigma2"] == sigma2 and r["method"] == "hybrid")
    hybrid["mse"] = min(ends) * 1.01
    assert len(w.check(inp, bad)) == 1


def test_timevertex_fit_worse_than_noise_fails(timevertex):
    w, inp, rows = timevertex
    bad = copy.deepcopy(rows)
    bad[0]["mse"] = w.noisy_errors(inp)[0]
    assert len(w.check(inp, bad)) == 1
