"""Acceptance checks for the package's advertised guarantees.

One test per numbered criterion; `pytest tests/test_acceptance.py -v`
prints a pass/fail line for each. Tolerances here are contractual, do
not loosen them to make a change pass.
"""
import time

import numpy as np

from gbfrft.cli import main
from gbfrft.deblur import FrameSequence, blur_sequence, patchify, reassemble, run_deblur
from gbfrft.graphs import Graph, make_named_graph
from gbfrft.learn import TrainConfig, apply_filter, gradients, loss, train, train_hybrid
from gbfrft.metrics import frame_metrics, psnr, ssim
from gbfrft.synthetic import SyntheticSpec, build_factors, build_observation_model
from gbfrft.transforms import gfrft2d, hybrid_transform, jfrft, path_graph, transform_2d
from gbfrft.wiener import (
    ObservationModel,
    assemble_normal_equations,
    assemble_normal_equations_naive,
    draw_observations,
    expected_mse,
    grid_search,
    solve_filter,
)

rng_graph = np.random.default_rng


def random_uu_graph(rng, n: int) -> Graph:
    """Random undirected unweighted graph with a spanning path."""
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    extra = rng.random((n, n)) < 0.3
    extra = np.triu(extra, 1)
    adj = np.clip(adj + extra + extra.T, 0.0, 1.0)
    return Graph(n=n, adjacency=adj)


def vec(X: np.ndarray) -> np.ndarray:
    return np.asarray(X).flatten(order="F")


def test_criterion_1_algebraic_properties():
    """Identity at (0,0), unitarity, index additivity, inverse roundtrip
    on >= 10 random undirected unweighted factor pairs, under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(10):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        g1 = random_uu_graph(rng, n1)
        g2 = random_uu_graph(rng, n2)
        nn = n1 * n2

        F0 = transform_2d(g1, g2, 0.0, 0.0).vec_operator("forward")
        assert np.abs(F0 - np.eye(nn)).max() <= 1e-12

        a, b = rng.uniform(-1.0, 1.0, size=2)
        t = transform_2d(g1, g2, a, b)
        F = t.vec_operator("forward")
        assert np.abs(F @ F.conj().T - np.eye(nn)).max() <= 1e-8 * nn

        c, d = rng.uniform(-1.0, 1.0, size=2)
        Fc = transform_2d(g1, g2, c, d).vec_operator("forward")
        Fsum = transform_2d(g1, g2, a + c, b + d).vec_operator("forward")
        assert np.abs(F @ Fc - Fsum).max() <= 1e-8 * nn

        X = rng.normal(size=(n1, n2)) + 1j * rng.normal(size=(n1, n2))
        back = t.apply(t.apply(X, "forward"), "inverse")
        assert np.abs(back - X).max() <= 1e-9 * np.abs(X).max()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[PASS] criterion 1: algebraic properties on 10 random pairs ({elapsed:.2f}s)")


def test_criterion_2_matrix_vec_equivalence():
    """Matrix sandwich equals the Kronecker vec operator for every
    transform kind, including the hybrid blend at lambda 0, 0.5, 1."""
    rng = np.random.default_rng(102)
    sizes = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 8)]
    for n1, n2 in sizes:
        g1 = random_uu_graph(rng, n1)
        g2 = random_uu_graph(rng, n2)
        X = rng.normal(size=(n1, n2)) + 1j * rng.normal(size=(n1, n2))
        a, b = rng.uniform(-1.0, 1.0, size=2)
        transforms = [
            transform_2d(g1, g2, a, b),
            gfrft2d(g1, g2, a),
            jfrft(g1, n2, alpha=a, beta=b),
            hybrid_transform(g1, path_graph(n2), n2, a, b, 0.0),
            hybrid_transform(g1, path_graph(n2), n2, a, b, 0.5),
            hybrid_transform(g1, path_graph(n2), n2, a, b, 1.0),
        ]
        for t in transforms:
            for direction in ("forward", "inverse"):
                lhs = vec(t.apply(X, direction))
                rhs = t.vec_operator(direction) @ vec(X)
                assert np.abs(lhs - rhs).max() <= 1e-9, (t.kind, direction)
    print("[PASS] criterion 2: matrix-form equals vec-form on 3x4..8x8, all kinds")


def test_criterion_3_wiener_correctness():
    """Scalar closed form, noiseless identity, Monte-Carlo agreement of
    the expected MSE, and fast-vs-naive normal equations."""
    one = Graph(n=1, adjacency=np.zeros((1, 1)))
    for sx2, sn2 in [(1.0, 1.0), (2.0, 0.5), (0.3, 1.7)]:
        model = ObservationModel(n1=1, n2=1, rxx=[[sx2]], rnn=[[sn2]])
        t = transform_2d(one, one, 0.7, 0.3)
        T, q = assemble_normal_equations(model, t)
        h = solve_filter(T, q)
        assert abs(h[0] - sx2 / (sx2 + sn2)) <= 1e-12
        assert abs(expected_mse(model, t, h) - sx2 * sn2 / (sx2 + sn2)) <= 1e-12

    g1 = make_named_graph("path", 3)
    g2 = make_named_graph("cycle", 4)
    rng = np.random.default_rng(103)
    B = rng.normal(size=(12, 12))
    clean = ObservationModel(n1=3, n2=4, rxx=B @ B.T + np.eye(12), rnn=np.zeros((12, 12)))
    t = transform_2d(g1, g2, 0.4, 0.9)
    T, q = assemble_normal_equations(clean, t)
    h = solve_filter(T, q)
    assert np.abs(h - 1.0).max() <= 1e-9
    assert expected_mse(clean, t, h) <= 1e-10

    p2 = make_named_graph("path", 2)
    model = build_observation_model(p2, p2, 1.0)
    t = transform_2d(p2, p2, 0.6, 0.8)
    T, q = assemble_normal_equations(model, t)
    h = solve_filter(T, q)
    predicted = expected_mse(model, t, h)
    draws = draw_observations(model, 10_000, seed=7)
    errs = np.array([np.sum(np.abs(apply_filter(t, h, Y) - X) ** 2) for Y, X in draws])
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(predicted - errs.mean()) <= 3.0 * se

    t22 = transform_2d(p2, p2, 0.35, 0.85)
    rng = np.random.default_rng(104)
    B = rng.normal(size=(4, 4))
    m22 = ObservationModel(n1=2, n2=2, rxx=B @ B.T + np.eye(4), rnn=0.5 * np.eye(4),
                           g1=rng.normal(size=(2, 2)), g2=rng.normal(size=(2, 2)),
                           rxn=0.1 * rng.normal(size=(4, 4)))
    Tf, qf = assemble_normal_equations(m22, t22)
    Tn, qn = assemble_normal_equations_naive(m22, t22)
    assert np.abs(Tf - Tn).max() <= 1e-10
    assert np.abs(qf - qn).max() <= 1e-10
    print(f"[PASS] criterion 3: Wiener scalar/noiseless/Monte-Carlo/naive "
          f"(predicted {predicted:.4f}, empirical {errs.mean():.4f} +- {se:.4f})")


def test_criterion_4_grid_dominance():
    """Free (alpha1, alpha2) grid search never loses to the diagonal
    alpha1 == alpha2 search on 3 topologies x 3 noise levels."""
    elapsed_pc = 0.0
    for topology in ("path-cycle", "path-fan", "complete-star"):
        spec = SyntheticSpec(topology=topology, variants=("UU",))
        g1, g2 = build_factors(spec, "UU")
        for sigma2 in (0.5, 1.0, 2.0):
            model = build_observation_model(g1, g2, sigma2)
            t0 = time.perf_counter()
            free = grid_search(model, g1, g2, (0.0, 1.0), (0.0, 1.0), 0.1)
            diag = grid_search(model, g1, g2, (0.0, 1.0), (0.0, 1.0), 0.1,
                               equal_orders=True)
            if topology == "path-cycle":
                elapsed_pc += time.perf_counter() - t0
            assert free.mse <= diag.mse + 1e-12, (topology, sigma2)
    assert elapsed_pc < 120.0
    print(f"[PASS] criterion 4: grid dominance on 9 configs (P4xC8 column {elapsed_pc:.1f}s)")


def test_criterion_5_gradient_fidelity():
    """Analytic order and filter gradients against central finite
    differences, relative error <= 1e-4, on 20 random configurations."""
    rng = np.random.default_rng(105)
    sizes = [(2, 3), (3, 3), (3, 4), (2, 8), (4, 4), (5, 6), (4, 8), (6, 6), (3, 8), (5, 5)]
    checked = 0
    for trial in range(20):
        n1, n2 = sizes[trial % len(sizes)]
        g1 = random_uu_graph(rng, n1)
        g2 = random_uu_graph(rng, n2)
        a, b = rng.uniform(-1.0, 1.0, size=2)
        h = rng.normal(size=n1 * n2) + 1j * rng.normal(size=n1 * n2)
        batch = [(rng.normal(size=(n1, n2)), rng.normal(size=(n1, n2)))]
        t = transform_2d(g1, g2, a, b)
        da1, da2, gh = gradients(t, h, batch)

        eps = 1e-5
        fd1 = (loss(transform_2d(g1, g2, a + eps, b), h, batch)
               - loss(transform_2d(g1, g2, a - eps, b), h, batch)) / (2 * eps)
        fd2 = (loss(transform_2d(g1, g2, a, b + eps), h, batch)
               - loss(transform_2d(g1, g2, a, b - eps), h, batch)) / (2 * eps)
        assert abs(da1 - fd1) <= 1e-4 * max(1.0, abs(fd1))
        assert abs(da2 - fd2) <= 1e-4 * max(1.0, abs(fd2))

        eps = 1e-6
        for m in rng.choice(n1 * n2, size=3, replace=False):
            e = np.zeros_like(h)
            e[m] = eps
            d_re = (loss(t, h + e, batch) - loss(t, h - e, batch)) / (2 * eps)
            d_im = (loss(t, h + 1j * e, batch) - loss(t, h - 1j * e, batch)) / (2 * eps)
            assert abs(gh[m].real - d_re) <= 1e-4 * max(1.0, abs(d_re))
            assert abs(gh[m].imag - d_im) <= 1e-4 * max(1.0, abs(d_im))
        checked += 1
    assert checked == 20
    print("[PASS] criterion 5: gradients match finite differences on 20 configs")


def test_criterion_6_training_sanity():
    """Noiseless identity descent converges; the hybrid lambda search is
    at least as good as either of its endpoints under shared seeds."""
    rng = np.random.default_rng(106)
    g1 = make_named_graph("path", 3)
    g2 = make_named_graph("cycle", 4)
    X = rng.normal(size=(3, 4))
    cfg = TrainConfig(lr_orders=0.03, epochs=200, init_orders=(0.5, 0.5), seed=0)
    design, _ = train([(X, X)], g1, g2, cfg)
    assert design.mse <= 1e-6 * np.sum(X ** 2)

    g = make_named_graph("path", 3)
    T = 4
    batch = [(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))]
    cfg = TrainConfig(lr_orders=0.05, epochs=15, init_orders=(0.5, 0.5), seed=8)
    d_all, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(0.0, 0.5, 1.0))
    d_lam0, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(0.0,))
    d_lam1, _ = train_hybrid(batch, g, T, cfg, lambda_grid=(1.0,))
    assert d_all.mse <= d_lam0.mse + 1e-12
    assert d_all.mse <= d_lam1.mse + 1e-12
    print(f"[PASS] criterion 6: training sanity (identity loss {design.mse:.2e})")


def test_criterion_7_metrics_crosscheck():
    assert abs(psnr(62.5371) - 30.17) <= 0.01
    assert abs(psnr(7.9011) - 39.15) <= 0.01
    rng = np.random.default_rng(107)
    img = rng.uniform(0, 255, size=(24, 24))
    assert ssim(img, img) == 1.0
    for _ in range(10):
        a = rng.uniform(0, 255, size=(16, 16))
        b = rng.uniform(0, 255, size=(16, 16))
        assert -1.0 <= ssim(a, b) <= 1.0
    print("[PASS] criterion 7: PSNR pins 30.17/39.15 dB, SSIM identity and bounds")


def test_criterion_8_deblur_smoke():
    """Trained restoration of a synthetically blurred 60x60x3 sequence
    beats the blurred input by at least 1 dB, under 3 minutes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    size = 60
    yy, xx = np.mgrid[0:size, 0:size]
    base = 40.0 + 25.0 * np.sin(yy / 2.5) + 25.0 * np.cos(xx / 3.0)
    base += 60.0 * ((yy + xx) % 7 < 3)
    frames = [np.clip(np.roll(base, f, axis=1) + 5.0 * rng.normal(size=base.shape), 0, 255)
              for f in range(3)]
    clean = FrameSequence(np.stack(frames))

    blocks = patchify(clean, 10)
    assert np.array_equal(reassemble(blocks, clean.frames.shape, 10).frames, clean.frames)

    blurred = blur_sequence(clean, size=5, sigma=1.0)
    cfg = TrainConfig(lr_orders=7e-3, epochs=40, init_orders=(0.8, 0.8), seed=0)
    restored, rows = run_deblur(blurred, clean, patch=10, cfg=cfg)
    base_psnr = np.mean([frame_metrics(clean.frames[f], blurred.frames[f])[1]
                         for f in range(clean.t)])
    avg = rows[-1]
    assert avg["frame"] == "avg"
    assert avg["psnr"] >= base_psnr + 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(f"[PASS] criterion 8: deblur {base_psnr:.2f} -> {avg['psnr']:.2f} dB "
          f"({elapsed:.1f}s)")


def test_criterion_9_selftest_determinism(tmp_path):
    pairs = [(str(tmp_path / "a0"), str(tmp_path / "a1"), []),
             (str(tmp_path / "b0"), str(tmp_path / "b1"), ["--seed", "5"])]
    for d0, d1, extra in pairs:
        assert main(["selftest", "--outdir", d0] + extra) == 0
        assert main(["selftest", "--outdir", d1] + extra) == 0
        for stem in ("selftest_synthetic", "selftest_gridmap", "selftest_trace"):
            f0 = open(f"{d0}/{stem}.csv", "rb").read()
            f1 = open(f"{d1}/{stem}.csv", "rb").read()
            assert f0 == f1, stem
    print("[PASS] criterion 9: selftest outputs byte-identical per seed")
