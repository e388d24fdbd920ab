from dataclasses import replace

import numpy as np
import pytest
from test_learn import CountingMatrix, passes_taken

from gbfrft import deblur, transforms
from gbfrft.errors import NonFinite, ShapeMismatch
from gbfrft.deblur import (
    DEFAULT_PATCH,
    FrameSequence,
    blur_sequence,
    default_config,
    patch_graph,
    patchify,
    pixel_grid_coords,
    reassemble,
    run_deblur,
)
from gbfrft.learn import TrainConfig
from gbfrft.metrics import psnr


def textured_frames(t=2, size=20, seed=0):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    base = 40.0 + 25.0 * np.sin(yy / 2.5) + 25.0 * np.cos(xx / 3.0)
    base += 60.0 * ((yy + xx) % 7 < 3)
    frames = [np.clip(np.roll(base, f, axis=1) + 5.0 * rng.normal(size=base.shape), 0, 255)
              for f in range(t)]
    return FrameSequence(np.stack(frames))


def test_frame_sequence_promotes_2d():
    fs = FrameSequence(np.zeros((6, 8)))
    assert fs.frames.shape == (1, 6, 8)
    assert (fs.t, fs.height, fs.width) == (1, 6, 8)
    with pytest.raises(ShapeMismatch):
        FrameSequence(np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_frame_with_a_non_finite_pixel_is_rejected_and_named(bad):
    frames = textured_frames(t=3).frames
    frames[1, 4, 7] = bad
    with pytest.raises(NonFinite, match="frame 2 of 3"):
        FrameSequence(frames)


def test_patchify_reassemble_round_trip():
    fs = textured_frames(t=3, size=20)
    for patch in (4, 5, 10, 20):
        blocks = patchify(fs, patch)
        rows = cols = 20 // patch
        assert blocks.shape == (rows * cols, patch * patch, 3)
        back = reassemble(blocks, fs.frames.shape, patch)
        assert np.array_equal(back.frames, fs.frames)


def test_patchify_blocks_are_row_major():
    img = np.arange(16, dtype=np.float64).reshape(4, 4)
    blocks = patchify(FrameSequence(img), 2)
    # first patch is the top-left 2x2 block, pixels row by row
    assert blocks[0, :, 0].tolist() == [0.0, 1.0, 4.0, 5.0]
    # second patch is the top-right block
    assert blocks[1, :, 0].tolist() == [2.0, 3.0, 6.0, 7.0]


def test_patchify_requires_exact_tiling():
    with pytest.raises(ShapeMismatch):
        patchify(textured_frames(size=20), 7)
    for patch in (0, -5):
        with pytest.raises(ShapeMismatch, match="at least 1"):
            patchify(textured_frames(size=20), patch)
    with pytest.raises(ShapeMismatch):
        reassemble(np.zeros((1, 4, 1)), (1, 4, 4), 2)


def test_pixel_grid_and_patch_graph():
    coords = pixel_grid_coords(3)
    assert coords.shape == (9, 2)
    assert coords[0].tolist() == [0.0, 0.0]
    assert coords[1].tolist() == [0.0, 1.0]  # row-major
    g = patch_graph(2, k=2)
    # 2x2 pixel grid with 2 neighbours each is the 4-cycle
    assert (np.asarray(g.adjacency) != 0).sum() == 8


def test_blur_sequence_blurs_every_frame():
    fs = textured_frames(t=2, size=20)
    blurred = blur_sequence(fs, size=5, sigma=1.0)
    assert blurred.frames.shape == fs.frames.shape
    for f in range(2):
        assert blurred.frames[f].var() < fs.frames[f].var()


def test_run_deblur_improves_psnr_on_a_small_case():
    clean = textured_frames(t=2, size=20, seed=1)
    blurred = blur_sequence(clean, size=5, sigma=1.0)
    cfg = TrainConfig(lr_orders=7e-3, epochs=30, init_orders=(0.8, 0.8))
    restored, rows = run_deblur(blurred, clean, patch=10, method="2d-gbfrft", cfg=cfg)
    assert restored.frames.shape == clean.frames.shape
    assert restored.frames.min() >= 0.0 and restored.frames.max() <= 255.0

    assert [r["frame"] for r in rows] == [1, 2, "avg"]
    avg = rows[-1]
    assert avg["mse"] == pytest.approx(np.mean([rows[0]["mse"], rows[1]["mse"]]))

    from gbfrft.metrics import mse
    blurred_psnr = psnr(np.mean([mse(clean.frames[f], blurred.frames[f]) for f in range(2)]))
    assert avg["psnr"] > blurred_psnr + 1.0


def test_a_second_deblur_round_decomposes_no_graph_again(monkeypatch, cold_basis_cache, eig_calls):
    adjacency = patch_graph(20).adjacency
    cfg = TrainConfig(lr_orders=7e-3, epochs=4, init_orders=(0.8, 0.8))

    def deblur_round():   # fresh inputs, and run_deblur builds its own graphs
        clean = textured_frames(t=2, size=20, seed=1)
        restored, rows = run_deblur(blur_sequence(clean), clean, patch=20, cfg=cfg)
        return restored.frames.tobytes(), rows, transforms.basis_cache_stats()

    frames, rows, first = deblur_round()
    # one miss per distinct graph: the 400-vertex patch graph and the temporal path
    assert first["misses"] == first["entries"] == 2
    again, again_rows, second = deblur_round()
    assert sum(np.array_equal(M, adjacency) for M in eig_calls) == 1
    assert second["misses"] == 2 and second["hits"] > first["hits"]
    assert (again, again_rows) == (frames, rows)
    monkeypatch.setattr(transforms, "_BASES", transforms._BasisCache())
    assert deblur_round()[:2] == (frames, rows)   # as from a cold cache


def test_run_deblur_validates_shapes_and_method():
    clean = textured_frames(t=1, size=20)
    with pytest.raises(ShapeMismatch):
        run_deblur(clean, textured_frames(t=2, size=20), patch=10)
    blurred = blur_sequence(clean)
    with pytest.raises(ValueError):
        run_deblur(blurred, clean, patch=10, method="wavelet",
                   cfg=TrainConfig(lr_orders=0.01, epochs=1))


def test_run_deblur_rejects_a_patch_too_small_for_its_graph_before_any_work(monkeypatch):
    clean = textured_frames(t=1, size=20)
    monkeypatch.setattr(deblur, "fit", None)   # a descent would raise TypeError
    for patch in (-5, 0, 1, 2):
        with pytest.raises(ShapeMismatch):
            run_deblur(blur_sequence(clean), clean, patch=patch)


def test_run_deblur_rejects_a_single_frame_before_any_work(monkeypatch):
    clean = textured_frames(t=1, size=20)
    blurred = blur_sequence(clean)
    for name in ("patchify", "patch_graph", "fit"):
        monkeypatch.setattr(deblur, name, None)   # any work would raise TypeError
    with pytest.raises(ShapeMismatch, match="2 frames"):
        run_deblur(blurred, clean, patch=10)


def test_run_deblur_rejects_frames_too_small_for_ssim_before_any_work(monkeypatch):
    clean = textured_frames(t=3, size=8)

    def no_fit(*args, **kwargs):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(deblur, "fit", no_fit)
    with pytest.raises(ShapeMismatch, match="SSIM window"):
        run_deblur(blur_sequence(clean), clean, patch=4)


def test_a_default_deblur_multiplies_by_the_real_factor_once_per_epoch(monkeypatch):
    # the gated deblur benchmark runs this path: 2d-gbfrft on 20x20 patches,
    # whose unitary transform takes one basis product per epoch
    g = patch_graph(DEFAULT_PATCH)
    basis = transforms.graph_basis(g)
    counted = replace(basis, Z=basis.Z.view(CountingMatrix))
    monkeypatch.setattr(transforms, "_BASES", transforms._BasisCache())
    with monkeypatch.context() as m:   # make ``counted`` the cached basis of g
        m.setattr(transforms, "eig_general", lambda M: counted)
        assert transforms.graph_basis(g) is counted
    clean = textured_frames(t=3, size=40, seed=2)
    blurred = blur_sequence(clean)

    def products(epochs):
        CountingMatrix.products = 0
        run_deblur(blurred, clean, cfg=replace(default_config(), epochs=epochs))
        return CountingMatrix.products

    assert (products(5) - products(1)) / 4 == 1


def test_a_default_deblur_descends_on_a_real_stack(monkeypatch):
    # the gated deblur benchmark runs this path: real samples, and every
    # power of both factors' bases is a real matrix
    taken = passes_taken(monkeypatch)
    clean = textured_frames(t=3, size=40, seed=2)
    run_deblur(blur_sequence(clean), clean, cfg=replace(default_config(), epochs=1))
    assert taken == [True]


def test_deblur_rounds_build_their_patch_graph_once(monkeypatch):
    calls, knn = [], deblur.make_knn_graph
    monkeypatch.setattr(deblur, "make_knn_graph", lambda *a: calls.append(a) or knn(*a))
    deblur.patch_graph.cache_clear()
    clean = textured_frames(t=2, size=20, seed=1)
    cfg = TrainConfig(lr_orders=7e-3, epochs=2, init_orders=(0.8, 0.8))
    for _ in range(2):
        run_deblur(blur_sequence(clean), clean, patch=10, cfg=cfg)
    assert len(calls) == 1
    # the shared graph cannot be changed through its adjacency
    assert not patch_graph(10).adjacency.flags.writeable
