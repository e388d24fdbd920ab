"""Command line front end.

Every subcommand accepts ``--config FILE`` with ``key=value`` lines (keys
are the flag names with dashes as underscores); explicit flags override the
file, the file overrides built-in defaults, and unknown keys are errors.
Failures exit nonzero with a single ``error[ClassName]: message`` line.
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
from .learn import TrainConfig, fit, train, train_hybrid
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
    raise ParseError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in s.split(",") if p.strip())
    except ValueError as e:
        raise ParseError(f"expected comma-separated numbers, got {s!r}") from e


def _parse_ints(s: str) -> tuple[int, ...]:
    vals = _parse_floats(s)
    if not all(v.is_integer() for v in vals):
        raise ParseError(f"expected comma-separated integers, got {s!r}")
    return tuple(int(v) for v in vals)


def _parse_strs(s: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in s.split(",") if p.strip())


def _parse_range(s: str) -> tuple[float, float]:
    vals = _parse_floats(s)
    if len(vals) != 2:
        raise ParseError(f"expected lo,hi range, got {s!r}")
    return vals


def _parse_init(s: str):
    s = s.strip()
    if s.startswith("uniform["):
        return s
    vals = _parse_floats(s)
    if len(vals) == 1:
        return (vals[0], vals[0])
    if len(vals) != 2:
        raise ParseError(f"expected two init orders or uniform[a,b], got {s!r}")
    return vals


class _Command:
    """A subparser plus the type/default tables used for config merging."""

    def __init__(self, subparsers, name: str, help_: str, func):
        self.parser = subparsers.add_parser(name, help=help_)
        self.types: dict = {}
        self.defaults: dict = {}
        self.parser.set_defaults(_types=self.types, _defaults=self.defaults, _func=func)
        self.opt("--config", type=str, help="key=value config file")

    def opt(self, *flags, type=str, default=None, help="", flag=False, choices=None):
        if flag:
            action = self.parser.add_argument(*flags, action="store_const", const=True,
                                              default=None, help=help)
            self.types[action.dest] = _parse_bool
            self.defaults[action.dest] = False if default is None else default
        else:
            action = self.parser.add_argument(*flags, type=type, default=None,
                                              help=help, choices=choices)
            self.types[action.dest] = type
            self.defaults[action.dest] = default


def _merge_config(args):
    types = getattr(args, "_types", {})
    defaults = getattr(args, "_defaults", {})
    file_vals = {}
    if getattr(args, "config", None):
        file_vals = matio.read_key_values(args.config, defaults)
    for dest, default in defaults.items():
        if getattr(args, dest, None) is None:
            if dest in file_vals:
                setattr(args, dest, types[dest](file_vals[dest]))
            else:
                setattr(args, dest, default)


def _require(args, *dests):
    for d in dests:
        if getattr(args, d, None) is None:
            raise ParseError(f"missing required option --{d.replace('_', '-')}")


def _echo(args, extra=None) -> dict:
    skip = {"_types", "_defaults", "_func", "config"}
    out = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    out = {k: (list(v) if isinstance(v, tuple) else v) for k, v in out.items()}
    if extra:
        out.update(extra)
    return out


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
    model = _load_model(args)
    return draw_observations(model, args.batch, args.seed), g1, g2


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
    g2 = matio.load_graph(args.graph2) if args.graph2 else path_graph(args.t or X.shape[1])
    if args.t and g2.n != args.t:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbfrft",
        description="Bi-fractional spectral transforms and filtering on product graphs")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = _Command(sub, "graph", "build and save a factor graph", cmd_graph)
    c.opt("--kind", choices=NAMED_KINDS, help="named topology")
    c.opt("--n", type=int, help="vertex count")
    c.opt("--directed", flag=True)
    c.opt("--weighted", flag=True)
    c.opt("--coords", help="coordinate CSV for a k-NN graph instead of a named kind")
    c.opt("--k", type=int, default=4, help="neighbours for the k-NN graph")
    c.opt("--seed", type=int, default=0)
    c.opt("--output", help="adjacency CSV path (metadata sidecar gets .meta)")

    c = _Command(sub, "transform", "apply a product transform to a signal", cmd_transform)
    c.opt("--kind", default="gbfrft2d", choices=tuple(_KIND_METHODS))
    c.opt("--graph1", help="row-factor graph CSV")
    c.opt("--graph2", help="column-factor graph CSV")
    c.opt("--t", type=int, help="time length for jfrft/hybrid (defaults to signal width)")
    c.opt("--alpha1", type=float, default=1.0, help="op1 (row side) order")
    c.opt("--alpha2", type=float, default=1.0, help="op2 (column side) order")
    c.opt("--lam", type=float, default=0.5, help="hybrid blend weight")
    c.opt("--direction", default="forward", choices=("forward", "inverse"))
    c.opt("--convention", default="transform-power", choices=CONVENTIONS)
    c.opt("--complex-data", flag=True, help="parse the input as complex")
    c.opt("--input")
    c.opt("--output")

    def model_opts(c):
        c.opt("--rxx", help="signal covariance CSV")
        c.opt("--rnn", help="noise covariance CSV")
        c.opt("--rxn", help="cross covariance CSV")
        c.opt("--g1-filter", help="row-side degradation matrix CSV")
        c.opt("--g2-filter", help="column-side degradation matrix CSV")

    c = _Command(sub, "denoise-grid", "statistical filter design by order search", cmd_denoise_grid)
    c.opt("--graph1")
    c.opt("--graph2")
    model_opts(c)
    c.opt("--range1", type=_parse_range, default=(0.0, 1.0))
    c.opt("--range2", type=_parse_range, default=(0.0, 1.0))
    c.opt("--step", type=float, default=0.1)
    c.opt("--equal-orders", flag=True)
    c.opt("--cap", type=int, default=DEFAULT_SIZE_CAP)
    c.opt("--convention", default="transform-power", choices=CONVENTIONS)
    c.opt("--outdir")

    def descent_opts(c, defaults: TrainConfig):
        # defaults from the library's config, which the command extends
        c.opt("--lr", type=float, default=defaults.lr_orders)
        c.opt("--epochs", type=int, default=defaults.epochs)
        c.opt("--init-orders", type=_parse_init, default=defaults.init_orders)

    def gd_opts(c):
        c.opt("--y", help="observation matrix CSV")
        c.opt("--x", help="target matrix CSV")
        c.opt("--complex-data", flag=True)
        model_opts(c)
        c.opt("--batch", type=int, default=1, help="realizations to sample from the model")
        descent_opts(c, TrainConfig())
        c.opt("--lr-filter", type=float)
        c.opt("--optimizer", default="adam", choices=("adam", "sgd"))
        c.opt("--seed", type=int, default=0)
        c.opt("--convention", default="transform-power", choices=CONVENTIONS)
        c.opt("--outdir")

    c = _Command(sub, "denoise-gd", "joint order/filter descent on a product", cmd_denoise_gd)
    c.opt("--graph1")
    c.opt("--graph2")
    c.opt("--equal-orders", flag=True)
    gd_opts(c)

    c = _Command(sub, "denoise-hybrid", "descent with a blended temporal factor", cmd_denoise_hybrid)
    c.opt("--graph1", help="spatial graph CSV")
    c.opt("--graph2", help="unused; temporal factor is a path")
    c.opt("--lambda-step", type=float, default=0.1)
    gd_opts(c)

    c = _Command(sub, "synth", "synthetic denoising tables", cmd_synth)
    c.opt("--topology", default="path-cycle", choices=tuple(TOPOLOGIES) + ("all",))
    c.opt("--variants", type=_parse_strs, default=("UU", "UW"))
    c.opt("--variances", type=_parse_floats, default=DEFAULT_VARIANCES)
    c.opt("--methods", type=_parse_strs, default=("grid-gfrft", "grid-gbfrft"))
    c.opt("--trials", type=int, default=1)
    c.opt("--range1", type=_parse_range, default=(0.0, 1.0))
    c.opt("--step", type=float, default=0.1)
    descent_opts(c, synthetic_config())
    c.opt("--seed", type=int, default=0)
    c.opt("--convention", default="transform-power", choices=CONVENTIONS)
    c.opt("--outdir")

    c = _Command(sub, "timevertex", "sensor time series denoising table", cmd_timevertex)
    c.opt("--values", help="(N, T) values CSV")
    c.opt("--coords", help="(N, d) coordinates CSV")
    c.opt("--k", type=_parse_ints, default=(3,), help="k-NN sizes, comma separated")
    c.opt("--variances", type=_parse_floats, default=(0.6, 0.9, 1.2))
    c.opt("--methods", type=_parse_strs, default=METHODS)
    descent_opts(c, timevertex_config())
    c.opt("--seed", type=int, default=0)
    c.opt("--outdir")

    c = _Command(sub, "deblur", "patch-wise restoration of blurred frames", cmd_deblur)
    c.opt("--clean", type=_parse_strs, help="clean PGM frames, comma separated")
    c.opt("--blurred", type=_parse_strs, help="blurred PGM frames, comma separated")
    c.opt("--synthesize-blur", flag=True, help="blur the clean frames instead")
    c.opt("--blur-size", type=int, default=5)
    c.opt("--blur-sigma", type=float, default=1.0)
    c.opt("--patch", type=int, default=20)
    c.opt("--method", default="2d-gbfrft", choices=METHODS)
    descent_opts(c, deblur_config())
    c.opt("--seed", type=int, default=0)
    c.opt("--heatmap", flag=True, help="also write per-pixel absolute error PGMs")
    c.opt("--outdir")

    c = _Command(sub, "selftest", "deterministic battery writing reference CSVs", cmd_selftest)
    c.opt("--seed", type=int, default=0)
    c.opt("--outdir")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)  # the option types raise ParseError
        _merge_config(args)
        return args._func(args)
    except (GbfrftError, OSError, ValueError) as e:
        msg = str(e).replace("\n", " ")
        print(f"error[{type(e).__name__}]: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
