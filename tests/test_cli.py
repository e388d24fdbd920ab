import numpy as np
import pytest

from gbfrft import cli, deblur, matio, results, synthetic, timevertex
from gbfrft.cli import main
from gbfrft.graphs import make_named_graph
from gbfrft.learn import TrainConfig, fit, train_hybrid
from gbfrft.synthetic import build_observation_model
from gbfrft.transforms import gfrft2d, hybrid_transform, jfrft, path_graph, transform_2d


def write_model(tmp_path):
    g1 = make_named_graph("path", 3)
    g2 = make_named_graph("cycle", 4)
    model = build_observation_model(g1, g2, 1.0)
    p1 = str(tmp_path / "g1.csv")
    p2 = str(tmp_path / "g2.csv")
    rxx = str(tmp_path / "rxx.csv")
    rnn = str(tmp_path / "rnn.csv")
    matio.save_graph(g1, p1)
    matio.save_graph(g2, p2)
    matio.write_matrix(rxx, model.rxx)
    matio.write_matrix(rnn, model.rnn)
    return p1, p2, rxx, rnn


def test_graph_subcommand_writes_graph_and_sidecar(tmp_path, capsys):
    out = str(tmp_path / "g.csv")
    rc = main(["graph", "--kind", "cycle", "--n", "6", "--weighted",
               "--seed", "3", "--output", out])
    assert rc == 0
    assert "cycle6" in capsys.readouterr().out
    g = matio.load_graph(out)
    assert g.n == 6 and g.weighted and g.seed == 3


def test_graph_from_coordinates(tmp_path):
    coords = str(tmp_path / "c.csv")
    matio.write_matrix(coords, np.random.default_rng(0).normal(size=(8, 2)))
    out = str(tmp_path / "knn.csv")
    assert main(["graph", "--coords", coords, "--k", "2", "--output", out]) == 0
    assert matio.load_graph(out).n == 8


def test_transform_round_trip_via_cli(tmp_path):
    g1p = str(tmp_path / "g1.csv")
    g2p = str(tmp_path / "g2.csv")
    matio.save_graph(make_named_graph("path", 3), g1p)
    matio.save_graph(make_named_graph("cycle", 4), g2p)
    x = str(tmp_path / "x.csv")
    X = np.random.default_rng(1).normal(size=(3, 4))
    matio.write_matrix(x, X)
    xf = str(tmp_path / "xf.csv")
    xr = str(tmp_path / "xr.csv")
    assert main(["transform", "--graph1", g1p, "--graph2", g2p,
                 "--alpha1", "0.4", "--alpha2", "0.7",
                 "--input", x, "--output", xf]) == 0
    assert main(["transform", "--graph1", g1p, "--graph2", g2p,
                 "--alpha1", "0.4", "--alpha2", "0.7", "--complex-data",
                 "--direction", "inverse", "--input", xf, "--output", xr]) == 0
    back = matio.read_matrix(xr, complex_=True)
    assert np.abs(back - X).max() < 1e-9


@pytest.mark.parametrize("t", ["0", "1"])
def test_transform_rejects_a_time_axis_too_short_for_a_path(tmp_path, capsys, t):
    g1p, x, out = str(tmp_path / "g1.csv"), str(tmp_path / "x.csv"), tmp_path / "y.csv"
    matio.save_graph(make_named_graph("path", 3), g1p)
    matio.write_matrix(x, np.ones((3, 4)))
    assert main(["transform", "--graph1", g1p, "--kind", "jfrft", "--t", t,
                 "--input", x, "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[ValueError]:"), err
    assert not out.exists()


def test_denoise_grid_outputs(tmp_path, capsys):
    g1, g2, rxx, rnn = write_model(tmp_path)
    outdir = str(tmp_path / "out")
    rc = main(["denoise-grid", "--graph1", g1, "--graph2", g2,
               "--rxx", rxx, "--rnn", rnn, "--step", "0.5", "--outdir", outdir])
    assert rc == 0
    assert "best orders" in capsys.readouterr().out
    grid = open(tmp_path / "out" / "gridmap.csv").read().splitlines()
    assert grid[0] == "alpha1,alpha2,mse"
    assert len(grid) == 1 + 9
    h = matio.read_vector(str(tmp_path / "out" / "filter.csv"), complex_=True)
    assert h.shape == (12,)


def test_config_file_merging_and_flag_precedence(tmp_path, capsys):
    g1, g2, rxx, rnn = write_model(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs=7\nlr=0.05\nseed=4\n")
    outdir = str(tmp_path / "out")
    rc = main(["denoise-gd", "--config", str(cfg), "--graph1", g1, "--graph2", g2,
               "--rxx", rxx, "--rnn", rnn, "--seed", "9", "--outdir", outdir])
    assert rc == 0
    trace = open(tmp_path / "out" / "trace.csv").read().splitlines()
    assert len(trace) == 1 + 7  # epochs from the file
    import json
    meta = json.load(open(tmp_path / "out" / "trace.meta.json"))
    assert meta["config"]["epochs"] == 7
    assert meta["config"]["lr"] == 0.05
    assert meta["config"]["seed"] == 9  # explicit flag wins


def test_unknown_config_key_fails_with_location(tmp_path, capsys):
    g1, g2, rxx, rnn = write_model(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epoch=7\n")
    rc = main(["denoise-gd", "--config", str(cfg), "--graph1", g1, "--graph2", g2,
               "--rxx", rxx, "--rnn", rnn, "--outdir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[ParseError]:")
    assert ":1:" in err and "epoch" in err


def test_denoise_hybrid_builds_temporal_factor_from_rxx(tmp_path, capsys):
    """Hybrid needs no --graph2; the window length comes from the model."""
    g1, _, rxx, rnn = write_model(tmp_path)
    outdir = str(tmp_path / "out")
    rc = main(["denoise-hybrid", "--graph1", g1, "--rxx", rxx, "--rnn", rnn,
               "--lambda-step", "0.5", "--epochs", "5", "--outdir", outdir])
    assert rc == 0
    assert "best lambda" in capsys.readouterr().out
    assert (tmp_path / "out" / "trace.csv").exists()
    bad = str(tmp_path / "bad.csv")
    matio.write_matrix(bad, np.eye(7))
    rc = main(["denoise-hybrid", "--graph1", g1, "--rxx", bad, "--rnn", rnn,
               "--outdir", outdir])
    assert rc == 1
    assert "error[ShapeMismatch]" in capsys.readouterr().err


def test_missing_required_option_is_reported(tmp_path, capsys):
    rc = main(["denoise-grid", "--graph1", str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "error[ParseError]" in capsys.readouterr().err


def test_missing_file_maps_to_nonzero_exit(tmp_path, capsys):
    rc = main(["transform", "--graph1", str(tmp_path / "nope.csv"),
               "--graph2", str(tmp_path / "nope.csv"),
               "--input", str(tmp_path / "x.csv"),
               "--output", str(tmp_path / "y.csv")])
    assert rc == 1
    assert "error[FileNotFoundError]" in capsys.readouterr().err


def test_selftest_is_deterministic_per_seed(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    c = str(tmp_path / "c")
    assert main(["selftest", "--outdir", a]) == 0
    assert main(["selftest", "--outdir", b]) == 0
    assert main(["selftest", "--seed", "5", "--outdir", c]) == 0
    for stem in ("selftest_synthetic", "selftest_gridmap", "selftest_trace"):
        fa = open(f"{a}/{stem}.csv", "rb").read()
        fb = open(f"{b}/{stem}.csv", "rb").read()
        assert fa == fb
    # grid outputs are analytic, only the descent trace consumes the seed
    ta = open(f"{a}/selftest_trace.csv", "rb").read()
    tc = open(f"{c}/selftest_trace.csv", "rb").read()
    assert ta != tc


def test_synth_subcommand_writes_table(tmp_path):
    outdir = str(tmp_path / "out")
    rc = main(["synth", "--topology", "path-cycle", "--variants", "UU",
               "--variances", "0.5", "--methods", "grid-gbfrft",
               "--step", "0.5", "--outdir", outdir])
    assert rc == 0
    lines = open(tmp_path / "out" / "synthetic.csv").read().splitlines()
    assert lines[0].startswith("method,topology,variant")
    assert len(lines) == 2


def test_denoise_hybrid_lambda_step_uses_the_exact_grid(tmp_path, capsys, monkeypatch):
    g1, _, rxx, rnn = write_model(tmp_path)
    args = ["denoise-hybrid", "--graph1", g1, "--rxx", rxx, "--rnn", rnn,
            "--epochs", "2", "--outdir", str(tmp_path / "out")]
    assert main(args + ["--lambda-step", "0"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[ValueError]:")

    grids = []

    def spy(*a, lambda_grid, **kw):
        grids.append(tuple(lambda_grid))
        return train_hybrid(*a, lambda_grid=lambda_grid, **kw)

    monkeypatch.setattr(cli, "train_hybrid", spy)
    for step in ("0.3", "0.6"):
        assert main(args + ["--lambda-step", step]) == 0
    assert grids == [(0.0, 0.3, 0.6, 0.9, 1.0), (0.0, 0.6, 1.0)]


@pytest.mark.parametrize("step", ["nan", "inf", "1e-300"])
def test_grid_steps_that_are_not_finite_or_too_fine_fail_at_once(tmp_path, capsys, step):
    # 1e-300 asks for about 1e300 grid values
    g1, g2, rxx, rnn = write_model(tmp_path)
    outdir = str(tmp_path / "out")
    for args in (["denoise-grid", "--graph1", g1, "--graph2", g2, "--step", step],
                 ["denoise-hybrid", "--graph1", g1, "--epochs", "2", "--lambda-step", step]):
        assert main(args + ["--rxx", rxx, "--rnn", rnn, "--outdir", outdir]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[ValueError]:") and "step" in err[0]


def test_a_shift_power_grid_names_the_range_that_meets_a_zero_eigenvalue(tmp_path, capsys):
    # under shift-power the adjacencies of the 3-path and the 4-cycle both
    # have the eigenvalue 0, so each axis's orders must be positive
    g1, g2, rxx, rnn = write_model(tmp_path)
    args = ["denoise-grid", "--graph1", g1, "--graph2", g2, "--rxx", rxx, "--rnn", rnn, "--step", "0.5",
            "--convention", "shift-power", "--outdir", str(tmp_path / "out")]
    for extra, message in (([], "factor 1 has a zero eigenvalue, so range1 must start above 0, got lower bound 0"),
                           (["--range1", "0.5,1"], "factor 2 has a zero eigenvalue, so range2 must start above 0")):
        assert main(args + extra) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error[SingularPower]: {message}"), err
    # synth's --range1 sets both axes: the 8-cycle has the eigenvalue 0
    synth = ["synth", "--convention", "shift-power", "--variants", "UU", "--variances", "0.5",
             "--step", "0.5", "--outdir", str(tmp_path / "synth")]
    assert main(synth) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[SingularPower]: factor 2 ") and "range1" in err[0], err
    with pytest.raises(SystemExit):
        main(["synth", "--help"])
    assert "both axes" in " ".join(capsys.readouterr().out.split())


def test_a_batch_below_one_names_the_flag(tmp_path, capsys):
    g1, g2, rxx, rnn = write_model(tmp_path)
    for command in (["denoise-gd", "--graph2", g2], ["denoise-hybrid"]):
        rc = main(command + ["--graph1", g1, "--rxx", rxx, "--rnn", rnn, "--batch", "0",
                             "--epochs", "2", "--outdir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error[ValueError]: --batch must be at least 1, got 0"], (command, err)
    assert not (tmp_path / "out").exists()


def test_timevertex_k_must_be_integers(tmp_path, capsys):
    rc = main(["timevertex", "--values", str(tmp_path / "v.csv"),
               "--coords", str(tmp_path / "c.csv"), "--k", "3,2.5",
               "--outdir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[ParseError]:") and "2.5" in err[0]


def test_transform_kinds_match_the_library_transforms(tmp_path, capsys):
    g1, g2 = make_named_graph("path", 3), make_named_graph("cycle", 5)
    matio.save_graph(g1, str(tmp_path / "g1.csv"))
    matio.save_graph(g2, str(tmp_path / "g2.csv"))
    X = np.random.default_rng(2).normal(size=(3, 5))
    matio.write_matrix(str(tmp_path / "x.csv"), X)
    expected = {
        "gfrft2d": (gfrft2d(g1, g2, 0.3), True),
        "gbfrft2d": (transform_2d(g1, g2, 0.3, 0.7), True),
        "jfrft": (jfrft(g1, 5, alpha=0.7, beta=0.3), False),
        "hybrid": (hybrid_transform(g1, path_graph(5), 5, alpha=0.3, beta=0.7, lam=0.4), False),
    }
    for kind, (t, uses_graph2) in expected.items():
        out = str(tmp_path / f"{kind}.csv")
        argv = ["transform", "--kind", kind, "--graph1", str(tmp_path / "g1.csv"),
                "--alpha1", "0.3", "--alpha2", "0.7", "--lam", "0.4",
                "--input", str(tmp_path / "x.csv"), "--output", out]
        if uses_graph2:
            argv += ["--graph2", str(tmp_path / "g2.csv")]
        assert main(argv) == 0
        assert np.allclose(matio.read_matrix(out, complex_=True), t.apply(X), rtol=0, atol=1e-12)
    assert main(argv + ["--graph2", str(tmp_path / "g2.csv"), "--t", "4"]) == 1
    assert capsys.readouterr().err.startswith("error[ShapeMismatch]:")


def test_deblur_and_timevertex_training_defaults_come_from_the_library():
    parser = cli.build_parser()
    for command, default_config in [("deblur", deblur.default_config),
                                     ("timevertex", timevertex.default_config),
                                     ("denoise-gd", TrainConfig),
                                     ("denoise-hybrid", TrainConfig),
                                     ("synth", synthetic.default_config)]:
        args = parser.parse_args([command])
        lib = default_config()
        assert (args.lr, args.epochs, args.init_orders) == (lib.lr_orders, lib.epochs, lib.init_orders)
        assert cli._descent_config(args, default_config) == lib


def test_denoise_gd_equal_orders_traces_the_2d_gfrft_fit(tmp_path):
    g1, g2, rxx, rnn = write_model(tmp_path)
    argv = ["denoise-gd", "--graph1", g1, "--graph2", g2, "--rxx", rxx, "--rnn", rnn,
            "--batch", "2", "--epochs", "20", "--init-orders", "0.3,0.9", "--equal-orders",
            "--outdir", str(tmp_path / "out")]
    assert main(argv) == 0
    args = cli.build_parser().parse_args(argv)
    samples, graph1, graph2 = cli._gd_samples(args)
    _, trace = fit([("2d-gfrft", samples)], graph1, graph2,
                   TrainConfig(epochs=20, init_orders=(0.3, 0.9)))[0]
    results.emit_results(trace.rows(), "trace", str(tmp_path / "lib"), "trace")
    assert (tmp_path / "out" / "trace.csv").read_bytes() == (tmp_path / "lib" / "trace.csv").read_bytes()


def test_deblur_rejects_bad_patch_and_blur_parameters_in_one_line(tmp_path, capsys):
    frame = str(tmp_path / "clean.pgm")
    matio.write_pgm(frame, np.random.default_rng(3).uniform(0, 255, size=(20, 20)))
    argv = ["deblur", "--clean", frame, "--synthesize-blur", "--epochs", "1",
            "--outdir", str(tmp_path / "out")]
    for extra, error in [(["--patch", "0"], "ShapeMismatch"), (["--patch", "-5"], "ShapeMismatch"),
                         (["--patch", "2"], "ShapeMismatch"), (["--blur-size", "0"], "ValueError"),
                         (["--blur-sigma", "0"], "ValueError"), (["--blur-sigma", "nan"], "ValueError")]:
        assert main(argv + extra) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error[{error}]:"), (extra, err)
    assert not (tmp_path / "out").exists()


def test_deblur_rejects_a_blur_window_wider_than_a_frame_in_one_line(tmp_path, capsys):
    frame = str(tmp_path / "clean.pgm")
    matio.write_pgm(frame, np.random.default_rng(4).uniform(0, 255, size=(20, 40)))
    for size in ("21", "22", "41"):
        assert main(["deblur", "--clean", f"{frame},{frame}", "--synthesize-blur", "--blur-size", size,
                     "--epochs", "1", "--outdir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[ShapeMismatch]:") and ">= " + size in err[0], err
    assert not (tmp_path / "out").exists()


def test_deblur_rejects_frames_too_small_for_ssim_in_one_line(tmp_path, capsys):
    frame = str(tmp_path / "clean.pgm")
    matio.write_pgm(frame, np.random.default_rng(6).uniform(0, 255, size=(8, 8)))
    assert main(["deblur", "--clean", ",".join([frame] * 3), "--synthesize-blur", "--patch", "4",
                 "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[ShapeMismatch]:") and "SSIM window" in err[0], err
    assert not (tmp_path / "out").exists()


def test_deblur_reports_a_truncated_binary_frame_in_one_line(tmp_path, capsys):
    short = tmp_path / "t.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x01\x02\x03")
    assert main(["deblur", "--clean", str(short), "--synthesize-blur", "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[ParseError]:") and "truncated pixel data" in err[0], err
    assert not (tmp_path / "out").exists()


def test_timevertex_rejects_a_bad_noise_variance_in_one_line(tmp_path, capsys):
    rng = np.random.default_rng(5)
    matio.write_matrix(str(tmp_path / "v.csv"), rng.normal(size=(6, 8)))
    matio.write_matrix(str(tmp_path / "c.csv"), rng.uniform(0, 10, size=(6, 2)))
    for bad in ("-1", "nan", "0.5,inf"):
        rc = main(["timevertex", "--values", str(tmp_path / "v.csv"), "--coords", str(tmp_path / "c.csv"),
                   "--k", "2", "--variances", bad, "--epochs", "1", "--outdir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[ValueError]:"), (bad, err)
    assert not (tmp_path / "out").exists()


def test_descent_rejects_a_non_finite_initial_order_in_one_line(tmp_path, capsys):
    g1, g2, rxx, rnn = write_model(tmp_path)
    for bad in ("uniform[0,nan]", "uniform[0,inf]", "uniform[1]", "0.5,nan"):
        rc = main(["denoise-gd", "--graph1", g1, "--graph2", g2, "--rxx", rxx, "--rnn", rnn,
                   "--init-orders", bad, "--epochs", "2", "--outdir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[ValueError]:") and "init_orders" in err[0], (bad, err)
    for option in ("--lr", "--lr-filter"):
        rc = main(["denoise-gd", "--graph1", g1, "--graph2", g2, "--rxx", rxx, "--rnn", rnn,
                   option, "nan", "--epochs", "2", "--outdir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[ValueError]:") and "finite" in err[0], (option, err)
    # the config is checked before any input is read
    for command in (["deblur", "--clean", str(tmp_path / "missing.pgm"), "--synthesize-blur"],
                    ["timevertex", "--values", str(tmp_path / "v.csv"), "--coords", str(tmp_path / "c.csv")]):
        assert main(command + ["--lr", "inf", "--outdir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[ValueError]: lr_orders"), (command, err)
    assert not (tmp_path / "out").exists()


# per subcommand: an integer option and, where it has one, an option with choices
_OPTIONS = {"graph": ("n", "kind"), "transform": ("t", "kind"), "denoise-grid": ("cap", "convention"),
            "denoise-gd": ("epochs", "optimizer"), "denoise-hybrid": ("epochs", "convention"),
            "synth": ("epochs", "topology"), "timevertex": ("epochs", None),
            "deblur": ("patch", "method"), "selftest": ("seed", None)}
_BAD = [(command, key, value) for command, (integer, choice) in _OPTIONS.items()
        for key, value in [("bogus", "1"), (integer, "abc")] + ([(choice, "bogus")] if choice else [])]


@pytest.mark.parametrize("source", ["argv", "config"])
@pytest.mark.parametrize("command, key, value", _BAD)
def test_a_bad_option_is_one_parse_error_line_from_argv_or_config(tmp_path, capsys, source,
                                                                  command, key, value):
    cfg = tmp_path / "bad.cfg"
    if source == "argv":
        argv = [command, f"--{key}", value]
    else:
        cfg.write_text(f"# from a file\n{key}={value}\n")
        argv = [command, "--config", str(cfg)]
    output = "--output" if command in ("graph", "transform") else "--outdir"
    assert main(argv + [output, str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert out == "" and len(err) == 1 and err[0].startswith("error[ParseError]:"), err
    assert (str(cfg) in err[0]) == (source == "config"), err
    assert not (tmp_path / "out").exists()


def test_a_missing_subcommand_or_option_value_is_one_line(capsys):
    for argv in ([], ["bogus"], ["--bogus"], ["synth", "--epochs"]):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[ParseError]:"), (argv, err)


def test_config_values_get_the_flag_checks_and_name_the_file(tmp_path, capsys):
    cases = [("transform", "kind=bogus", "argument --kind: invalid choice: 'bogus'"),
             ("synth", "epochs=abc", "argument --epochs: invalid int value: 'abc'"),
             ("deblur", "heatmap=maybe", "argument --heatmap: expected a boolean, got 'maybe'"),
             ("timevertex", "k=3,2.5", "argument --k: expected comma-separated integers")]
    for command, line, words in cases:
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error[ParseError]: {cfg}: {words}"), err


def _trace_orders(outdir):
    rows = [line.split(",") for line in open(f"{outdir}/trace.csv").read().splitlines()[1:]]
    return [(float(r[1]), float(r[2])) for r in rows]


def test_a_flag_on_argv_overrides_its_config_line(tmp_path):
    g1, g2, rxx, rnn = write_model(tmp_path)
    argv = ["denoise-gd", "--graph1", g1, "--graph2", g2, "--rxx", rxx, "--rnn", rnn]
    untied = tmp_path / "untied.cfg"
    untied.write_text("equal_orders=false\ninit_orders=0.3,0.9\nepochs=6\n")
    tied = tmp_path / "tied.cfg"
    tied.write_text("equal_orders=true\ninit_orders=0.3,0.9\nepochs=6\n")
    for name, cfg, extra, is_tied in [("file", untied, [], False), ("flag", untied, ["--equal-orders"], True),
                                      ("off", tied, ["--equal-orders=false"], False)]:
        assert main(argv + ["--config", str(cfg)] + extra + ["--outdir", str(tmp_path / name)]) == 0
        orders = _trace_orders(tmp_path / name)
        assert len(orders) == 6
        assert all(a1 == a2 for a1, a2 in orders) == is_tied, (name, orders)


def test_config_keeps_a_negative_initial_order(tmp_path):
    g1, g2, rxx, rnn = write_model(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("init_orders=-0.5,0.5\nepochs=3\n")
    assert main(["denoise-gd", "--config", str(cfg), "--graph1", g1, "--graph2", g2,
                 "--rxx", rxx, "--rnn", rnn, "--outdir", str(tmp_path / "out")]) == 0
    import json
    meta = json.load(open(tmp_path / "out" / "trace.meta.json"))
    assert meta["config"]["init_orders"] == [-0.5, 0.5]
    assert meta["config"]["equal_orders"] is False
