"""Command line front end.

Every subcommand accepts ``--config FILE`` with ``key=value`` lines (keys
are the flag names with dashes as underscores). argparse reads each line as
the flag ``--key=value`` placed before the command line's own flags, so the
file gets the same type and choice checks as flags, explicit flags override
it, and it overrides the built-in defaults; an unknown or repeated key is an
error that names its line. A flag such as ``--heatmap`` also takes
``--heatmap=false``. Failures, argparse's own included, exit 1 with a single
``error[ClassName]: message`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, matio, results
from .deblur import FrameSequence, blur_sequence, default_config as deblur_config, run_deblur
from .errors import GbfrftError, ParseError, ShapeMismatch
from .graphs import NAMED_KINDS, make_knn_graph, make_named_graph
from .learn import OPTIMIZERS, TrainConfig, fit, train, train_hybrid
from .metrics import frame_metrics
from .synthetic import DEFAULT_VARIANCES, SyntheticSpec, TOPOLOGIES, run_synthetic
from .synthetic import default_config as synthetic_config
from .timevertex import default_config as timevertex_config, ingest_timevertex, run_timevertex
from .transforms import CONVENTIONS, METHOD_TABLE, METHODS, apply, path_graph
from .wiener import DEFAULT_SIZE_CAP, ObservationModel, draw_observations, grid_search, grid_values

# the learn method whose transform each --kind applies
_KIND_METHODS = {m.kind: m for m in METHOD_TABLE.values()}
# the TrainConfig field behind each descent option a subcommand may have
_DESCENT_FIELDS = {"lr": "lr_orders", "lr_filter": "lr_filter", "epochs": "epochs",
                   "init_orders": "init_orders", "optimizer": "optimizer", "seed": "seed"}


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in s.split(",") if p.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {s!r}") from e


def _parse_ints(s: str) -> tuple[int, ...]:
    vals = _parse_floats(s)
    if not all(v.is_integer() for v in vals):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {s!r}")
    return tuple(int(v) for v in vals)


def _parse_strs(s: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in s.split(",") if p.strip())


def _parse_range(s: str) -> tuple[float, float]:
    vals = _parse_floats(s)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi range, got {s!r}")
    return vals


def _parse_init(s: str):
    s = s.strip()
    if s.startswith("uniform["):
        return s
    vals = _parse_floats(s)
    if len(vals) == 1:
        return (vals[0], vals[0])
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two init orders or uniform[a,b], got {s!r}")
    return vals


# a flag: bare ``--name`` is true, and ``--name=false`` (or a config line) sets it
_FLAG = dict(nargs="?", const=True, type=_parse_bool, default=False, metavar="BOOL")


def _command(subparsers, name: str, help_: str, func) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(name, help=help_)
    parser.set_defaults(_func=func)
    parser.add_argument("--config", help="key=value config file")
    return parser


def _require(args, *dests):
    for d in dests:
        if getattr(args, d, None) is None:
            raise ParseError(f"missing required option --{d.replace('_', '-')}")


def _echo(args) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(vars(args).items())
            if k not in ("_func", "config")}


def _descent_config(args, default_config) -> TrainConfig:
    """The library's ``default_config()`` with those of --lr, --lr-filter,
    --epochs, --init-orders, --optimizer and --seed that the subcommand has."""
    return replace(default_config(), **{field: getattr(args, dest)
                                        for dest, field in _DESCENT_FIELDS.items()
                                        if hasattr(args, dest)})


def _load_model(args) -> ObservationModel:
    _require(args, "rxx", "rnn")
    g1 = matio.load_graph(args.graph1)
    rxx = matio.read_matrix(args.rxx, complex_=True)
    if args.graph2:
        n2 = matio.load_graph(args.graph2).n
    else:
        # temporal-factor commands infer the window length from rxx
        if rxx.shape[0] % g1.n:
            raise ShapeMismatch(
                f"rxx has {rxx.shape[0]} rows, not a multiple of n1={g1.n}")
        n2 = rxx.shape[0] // g1.n
    rnn = matio.read_matrix(args.rnn, complex_=True)
    rxn = matio.read_matrix(args.rxn, complex_=True) if args.rxn else None
    gf1 = matio.read_matrix(args.g1_filter, complex_=True) if args.g1_filter else None
    gf2 = matio.read_matrix(args.g2_filter, complex_=True) if args.g2_filter else None
    return ObservationModel(n1=g1.n, n2=n2, rxx=rxx, rnn=rnn, g1=gf1, g2=gf2, rxn=rxn)


def _gd_samples(args):
    """(samples, g1, g2) for the descent subcommands."""
    g1 = matio.load_graph(args.graph1)
    g2 = matio.load_graph(args.graph2) if args.graph2 else None
    if args.y and args.x:
        Y = matio.read_matrix(args.y, complex_=args.complex_data)
        X = matio.read_matrix(args.x, complex_=args.complex_data)
        return [(Y, X)], g1, g2
    if args.batch < 1:
        raise ValueError(f"--batch must be at least 1, got {args.batch}")
    return draw_observations(_load_model(args), args.batch, args.seed), g1, g2


# ---------------------------------------------------------------- commands


def cmd_graph(args) -> int:
    _require(args, "output")
    if args.coords:
        coords = matio.read_matrix(args.coords)
        g = make_knn_graph(coords, args.k)
    else:
        _require(args, "kind", "n")
        g = make_named_graph(args.kind, args.n, directed=args.directed,
                             weighted=args.weighted, seed=args.seed)
    matio.save_graph(g, args.output)
    print(f"wrote {g.label or 'graph'} (n={g.n}) to {args.output}")
    return 0


def cmd_transform(args) -> int:
    _require(args, "graph1", "input", "output")
    g1 = matio.load_graph(args.graph1)
    X = matio.read_matrix(args.input, complex_=args.complex_data)
    # the second factor defaults to a temporal path on --t (or the signal width) vertices
    g2 = matio.load_graph(args.graph2) if args.graph2 else path_graph(X.shape[1] if args.t is None else args.t)
    if args.t is not None and g2.n != args.t:
        raise ShapeMismatch(f"--graph2 has {g2.n} vertices, --t asks for {args.t}")
    t = _KIND_METHODS[args.kind].build(g1, g2, args.alpha1, args.alpha2, args.lam, convention=args.convention)
    Y = apply(t, X, args.direction)
    matio.write_matrix(args.output, Y)
    print(f"{args.kind} {args.direction} at orders {t.orders} -> {args.output}")
    return 0


def cmd_denoise_grid(args) -> int:
    _require(args, "graph1", "graph2", "outdir")
    g1 = matio.load_graph(args.graph1)
    g2 = matio.load_graph(args.graph2)
    model = _load_model(args)
    design, rows = grid_search(
        model, g1, g2, args.range1, args.range2, args.step,
        equal_orders=args.equal_orders, convention=args.convention,
        cap=args.cap, keep_grid=True)
    results.emit_results(rows, "gridmap", args.outdir, "gridmap", config=_echo(args))
    matio.write_vector(os.path.join(args.outdir, "filter.csv"), design.h)
    print(f"best orders ({design.alpha1:g}, {design.alpha2:g}) expected mse {design.mse:.10g}")
    return 0


def cmd_denoise_gd(args) -> int:
    _require(args, "graph1", "graph2", "outdir")
    cfg = _descent_config(args, TrainConfig)
    samples, g1, g2 = _gd_samples(args)
    method = "2d-gfrft" if args.equal_orders else "2d-gbfrft"
    design, trace = fit([(method, samples)], g1, g2, cfg, convention=args.convention)[0]
    results.emit_results(trace.rows(), "trace", args.outdir, "trace", config=_echo(args))
    matio.write_vector(os.path.join(args.outdir, "filter.csv"), design.h)
    print(f"best orders ({design.alpha1:.6g}, {design.alpha2:.6g}) "
          f"loss {design.mse:.10g} at epoch {trace.best_epoch}")
    return 0


def cmd_denoise_hybrid(args) -> int:
    _require(args, "graph1", "outdir")
    cfg = _descent_config(args, TrainConfig)
    samples, g1, _ = _gd_samples(args)
    T = samples[0][0].shape[1]
    design, trace = train_hybrid(samples, g1, T, cfg,
                                 lambda_grid=grid_values((0.0, 1.0), args.lambda_step),
                                 convention=args.convention)
    results.emit_results(trace.rows(), "trace", args.outdir, "trace", config=_echo(args))
    matio.write_vector(os.path.join(args.outdir, "filter.csv"), design.h)
    print(f"best lambda {design.lam:g} orders ({design.alpha1:.6g}, {design.alpha2:.6g}) "
          f"loss {design.mse:.10g}")
    return 0


def cmd_synth(args) -> int:
    _require(args, "outdir")
    topologies = tuple(TOPOLOGIES) if args.topology == "all" else (args.topology,)
    cfg = _descent_config(args, synthetic_config)
    rows = []
    for topo in topologies:
        spec = SyntheticSpec(
            topology=topo, variants=args.variants, variances=args.variances,
            seed=args.seed, trials=args.trials, grid_range=args.range1,
            grid_step=args.step, convention=args.convention, train=cfg)
        for method in args.methods:
            rows.extend(run_synthetic(spec, method))
    results.emit_results(rows, "synthetic", args.outdir, "synthetic", config=_echo(args))
    print(f"synthetic table: {len(rows)} rows -> {args.outdir}")
    return 0


def cmd_timevertex(args) -> int:
    _require(args, "values", "coords", "outdir")
    cfg = _descent_config(args, timevertex_config)
    ds = ingest_timevertex(args.values, args.coords)
    rows = []
    for k in args.k:
        rows.extend(run_timevertex(ds, k, args.variances, methods=args.methods,
                                   cfg=cfg, seed=args.seed))
    results.emit_results(rows, "timevertex", args.outdir, "timevertex", config=_echo(args))
    print(f"timevertex table: {len(rows)} rows -> {args.outdir}")
    return 0


def cmd_deblur(args) -> int:
    _require(args, "clean", "outdir")
    cfg = _descent_config(args, deblur_config)
    clean = FrameSequence(np.stack([matio.read_pgm(p) for p in args.clean]))
    if args.blurred:
        blurred = FrameSequence(np.stack([matio.read_pgm(p) for p in args.blurred]))
    elif args.synthesize_blur:
        blurred = blur_sequence(clean, size=args.blur_size, sigma=args.blur_sigma)
    else:
        raise ParseError("need --blurred files or --synthesize-blur")
    restored, rows = run_deblur(blurred, clean, patch=args.patch, method=args.method, cfg=cfg)
    for f in range(clean.t):
        err, p_db, s = frame_metrics(clean.frames[f], blurred.frames[f])
        rows.append({"method": "blurred", "frame": f + 1, "mse": err, "psnr": p_db, "ssim": s})
    results.emit_results(rows, "deblur", args.outdir, "deblur", config=_echo(args))
    for f in range(restored.t):
        matio.write_pgm(os.path.join(args.outdir, f"restored_{f + 1}.pgm"), restored.frames[f])
        if args.heatmap:
            err = np.abs(restored.frames[f] - clean.frames[f])
            matio.write_pgm(os.path.join(args.outdir, f"error_{f + 1}.pgm"), err)
    avg = [r for r in rows if r["frame"] == "avg"][0]
    print(f"deblur avg psnr {avg['psnr']:.4f} dB ssim {avg['ssim']:.6f} -> {args.outdir}")
    return 0


def cmd_selftest(args) -> int:
    _require(args, "outdir")
    seed = args.seed
    g1 = make_named_graph("path", 3, seed=seed)
    g2 = make_named_graph("cycle", 4, seed=seed + 1)
    spec = SyntheticSpec(topology="path-cycle", variants=("UU",), variances=(0.5, 1.0),
                         seed=seed, grid_step=0.5)
    rows = run_synthetic(spec, "grid-gbfrft")
    results.emit_results(rows, "synthetic", args.outdir, "selftest_synthetic",
                         config={"seed": seed})
    print("selftest: synthetic grid ok")

    from .synthetic import build_observation_model
    model = build_observation_model(g1, g2, 0.8)
    design, grid_rows = grid_search(model, g1, g2, (0.0, 1.0), (0.0, 1.0), 0.25, keep_grid=True)
    results.emit_results(grid_rows, "gridmap", args.outdir, "selftest_gridmap",
                         config={"seed": seed})
    print(f"selftest: gridmap ok (best mse {design.mse:.6g})")

    cfg = TrainConfig(lr_orders=0.05, epochs=40, init_orders=(0.5, 0.5), seed=seed)
    samples = draw_observations(model, 1, seed)
    _, trace = train(samples, g1, g2, cfg)
    results.emit_results(trace.rows(), "trace", args.outdir, "selftest_trace",
                         config={"seed": seed})
    print("selftest: descent trace ok")
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors raise ParseError; subparsers share the class."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gbfrft",
        description="Bi-fractional spectral transforms and filtering on product graphs")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = _command(sub, "graph", "build and save a factor graph", cmd_graph)
    c.add_argument("--kind", choices=NAMED_KINDS, help="named topology")
    c.add_argument("--n", type=int, help="vertex count")
    c.add_argument("--directed", **_FLAG)
    c.add_argument("--weighted", **_FLAG)
    c.add_argument("--coords", help="coordinate CSV for a k-NN graph instead of a named kind")
    c.add_argument("--k", type=int, default=4, help="neighbours for the k-NN graph")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--output", help="adjacency CSV path (metadata sidecar gets .meta)")

    c = _command(sub, "transform", "apply a product transform to a signal", cmd_transform)
    c.add_argument("--kind", default="gbfrft2d", choices=tuple(_KIND_METHODS))
    c.add_argument("--graph1", help="row-factor graph CSV")
    c.add_argument("--graph2", help="column-factor graph CSV")
    c.add_argument("--t", type=int, help="time length for jfrft/hybrid (defaults to signal width)")
    c.add_argument("--alpha1", type=float, default=1.0, help="op1 (row side) order")
    c.add_argument("--alpha2", type=float, default=1.0, help="op2 (column side) order")
    c.add_argument("--lam", type=float, default=0.5, help="hybrid blend weight")
    c.add_argument("--direction", default="forward", choices=("forward", "inverse"))
    c.add_argument("--convention", default="transform-power", choices=CONVENTIONS)
    c.add_argument("--complex-data", **_FLAG, help="parse the input as complex")
    c.add_argument("--input")
    c.add_argument("--output")

    def model_opts(c):
        c.add_argument("--rxx", help="signal covariance CSV")
        c.add_argument("--rnn", help="noise covariance CSV")
        c.add_argument("--rxn", help="cross covariance CSV")
        c.add_argument("--g1-filter", help="row-side degradation matrix CSV")
        c.add_argument("--g2-filter", help="column-side degradation matrix CSV")

    c = _command(sub, "denoise-grid", "statistical filter design by order search", cmd_denoise_grid)
    c.add_argument("--graph1")
    c.add_argument("--graph2")
    model_opts(c)
    c.add_argument("--range1", type=_parse_range, default=(0.0, 1.0))
    c.add_argument("--range2", type=_parse_range, default=(0.0, 1.0))
    c.add_argument("--step", type=float, default=0.1)
    c.add_argument("--equal-orders", **_FLAG)
    c.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)
    c.add_argument("--convention", default="transform-power", choices=CONVENTIONS)
    c.add_argument("--outdir")

    def descent_opts(c, defaults: TrainConfig):
        # defaults from the library's config, which the command extends
        c.add_argument("--lr", type=float, default=defaults.lr_orders)
        c.add_argument("--epochs", type=int, default=defaults.epochs)
        c.add_argument("--init-orders", type=_parse_init, default=defaults.init_orders)

    def gd_opts(c):
        c.add_argument("--y", help="observation matrix CSV")
        c.add_argument("--x", help="target matrix CSV")
        c.add_argument("--complex-data", **_FLAG)
        model_opts(c)
        c.add_argument("--batch", type=int, default=1, help="realizations to sample from the model")
        descent_opts(c, TrainConfig())
        c.add_argument("--lr-filter", type=float)
        c.add_argument("--optimizer", default="adam", choices=OPTIMIZERS)
        c.add_argument("--seed", type=int, default=0)
        c.add_argument("--convention", default="transform-power", choices=CONVENTIONS)
        c.add_argument("--outdir")

    c = _command(sub, "denoise-gd", "joint order/filter descent on a product", cmd_denoise_gd)
    c.add_argument("--graph1")
    c.add_argument("--graph2")
    c.add_argument("--equal-orders", **_FLAG)
    gd_opts(c)

    c = _command(sub, "denoise-hybrid", "descent with a blended temporal factor", cmd_denoise_hybrid)
    c.add_argument("--graph1", help="spatial graph CSV")
    c.add_argument("--graph2", help="sampling from --rxx, its vertex count sets the window length "
                   "(default: rxx rows / graph1 vertices); the temporal factor is a path either way")
    c.add_argument("--lambda-step", type=float, default=0.1)
    gd_opts(c)

    c = _command(sub, "synth", "synthetic denoising tables", cmd_synth)
    c.add_argument("--topology", default="path-cycle", choices=tuple(TOPOLOGIES) + ("all",))
    c.add_argument("--variants", type=_parse_strs, default=("UU", "UW"))
    c.add_argument("--variances", type=_parse_floats, default=DEFAULT_VARIANCES)
    c.add_argument("--methods", type=_parse_strs, default=("grid-gfrft", "grid-gbfrft"))
    c.add_argument("--trials", type=int, default=1)
    c.add_argument("--range1", type=_parse_range, default=(0.0, 1.0), help="grid order range on both axes")
    c.add_argument("--step", type=float, default=0.1)
    descent_opts(c, synthetic_config())
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--convention", default="transform-power", choices=CONVENTIONS)
    c.add_argument("--outdir")

    c = _command(sub, "timevertex", "sensor time series denoising table", cmd_timevertex)
    c.add_argument("--values", help="(N, T) values CSV")
    c.add_argument("--coords", help="(N, d) coordinates CSV")
    c.add_argument("--k", type=_parse_ints, default=(3,), help="k-NN sizes, comma separated")
    c.add_argument("--variances", type=_parse_floats, default=(0.6, 0.9, 1.2))
    c.add_argument("--methods", type=_parse_strs, default=METHODS)
    descent_opts(c, timevertex_config())
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--outdir")

    c = _command(sub, "deblur", "patch-wise restoration of blurred frames", cmd_deblur)
    c.add_argument("--clean", type=_parse_strs, help="clean PGM frames, comma separated")
    c.add_argument("--blurred", type=_parse_strs, help="blurred PGM frames, comma separated")
    c.add_argument("--synthesize-blur", **_FLAG, help="blur the clean frames instead")
    c.add_argument("--blur-size", type=int, default=5)
    c.add_argument("--blur-sigma", type=float, default=1.0)
    c.add_argument("--patch", type=int, default=20)
    c.add_argument("--method", default="2d-gbfrft", choices=METHODS)
    descent_opts(c, deblur_config())
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--heatmap", **_FLAG, help="also write per-pixel absolute error PGMs")
    c.add_argument("--outdir")

    c = _command(sub, "selftest", "deterministic battery writing reference CSVs", cmd_selftest)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--outdir")

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's lines are parsed again as ``--key=value``
    flags placed before argv's own, so an explicit flag wins."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    lines = matio.read_key_values(args.config, set(vars(args)) - {"_func", "command", "config"})
    at = argv.index(args.command) + 1
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in lines.items()]
    try:
        return parser.parse_args(argv[:at] + flags + argv[at:])
    except ParseError as e:
        raise ParseError(f"{args.config}: {e}") from e


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        return args._func(args)
    except (GbfrftError, OSError, ValueError) as e:
        msg = str(e).replace("\n", " ")
        print(f"error[{type(e).__name__}]: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
