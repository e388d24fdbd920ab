"""gbfrft benchmark: run one workload and print its result.

    python3 bench/measure.py --workload grid --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ``src/`` next
to this directory, with BLAS limited to one thread. The process times
``import gbfrft``, then runs whole rounds of the workload until
``--seconds`` have passed. Before each round it sets up the workload's
inputs SETUPS_PER_ROUND times. ``setup_s`` is the median set-up,
``wall_s`` the median round, ``peak_rss_mb`` the process's peak resident
memory over the run. Every round's outputs are checked, untimed.

With ``--trace 1`` rounds alternate between untraced and traced, so the
tracing overhead is measured in the same process; the per-layer metrics
come from the traced set-ups and rounds, and the spans are written to
``.bench_out/spans_<workload>.csv``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See bench/README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: OpenBLAS's default two threads
# made timings on a shared two-core machine swing by a quarter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter  # noqa: E402

_t0 = perf_counter()
try:
    import gbfrft  # noqa: E402
except ImportError as exc:
    sys.exit(f"error: cannot import gbfrft from {SRC}: {exc}")
IMPORT_S = perf_counter() - _t0
if SRC not in Path(gbfrft.__file__).resolve().parents:
    sys.exit(f"error: gbfrft was imported from {gbfrft.__file__}, not from {SRC}")

from layertrace import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_ROUND = 3
OUT_DIR = Path(".bench_out")
SHOWN_FAILURES = 5


def measure(workload, seed: int, seconds: float, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    setup_s, setup_layers, round_layers, failures = [], [], [], []
    walls = {False: [], True: []}
    attempted = 0
    gain = None
    start = perf_counter()
    while True:
        # set-ups and rounds start from the same heap: the library's spectral
        # bases and their cached operators form reference cycles that only
        # the cyclic collector frees, at times that depend on the run's length
        gc.collect()
        # set-ups are taken before every round, so that their samples spread
        # over the run as the rounds do: the speed of a shared machine drifts
        for _ in range(SETUPS_PER_ROUND):
            with tracer.phase(f"setup{len(setup_s)}") if traced else nullcontext() as layers:
                t = perf_counter()
                inputs = workload.setup(seed)
                setup_s.append(perf_counter() - t)
            if traced:
                setup_layers.append(layers)
        gc.collect()
        # a traced run alternates untraced and traced rounds
        on = traced and len(walls[False]) > len(walls[True])
        with tracer.phase(f"round{attempted // workload.operations}") if on else nullcontext() as layers:
            t = perf_counter()
            try:
                out = workload.run(inputs)
            except Exception as exc:  # a round that raises fails all its operations
                out, error = None, f"{type(exc).__name__}: {exc}"
            walls[on].append(perf_counter() - t)
        if on:
            round_layers.append(layers)
        attempted += workload.operations
        if out is not None:
            try:
                round_failures = workload.check(inputs, out)
                gain = workload.gain_db(inputs, out)
            except Exception as exc:  # outputs the checks cannot read fail them
                out, error = None, f"check raised {type(exc).__name__}: {exc}"
        failures += [error] * workload.operations if out is None else round_failures
        if perf_counter() - start >= seconds and (not traced or walls[True]):
            break

    print(f"# {workload.name} seed={seed} import_s={IMPORT_S:.4f} setups={len(setup_s)} "
          f"setup_s={[round(s, 4) for s in setup_s]} "
          f"rounds={[round(w, 4) for w in walls[False]]} traced_rounds={[round(w, 4) for w in walls[True]]}")
    for msg in failures[:SHOWN_FAILURES]:
        print(f"# check failed: {msg}")

    if traced:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans_{workload.name}.csv")
        metrics = layer_metrics(setup_layers, round_layers, overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "gain_db": (gain if gain is not None else 0.0, "dB"),
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
