"""Convergence-table benchmark for fkdv.

    python3 bench/run.py --workload bo-table --seed 0 --seconds 42 --trace 0

Runs one workload (an ``fkdv run`` table, see workloads.py) repeatedly in
this process through ``fkdv.cli.run_table`` for about ``--seconds`` seconds,
checks every row against the pinned tables in expected.json, and prints the
metrics named in BENCHMARK.json.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
``{"record": ...}`` object with sample counts, layer shares and the machine.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
untraced tables with traced ones (spans.py) and reports the per-layer
metrics.  The seed picks the bo-table start phase and orders the
repetitions.  Exit codes: 0 correct, 1 some row failed its check, 2 the
benchmark could not run (fkdv sources missing, trace guard tripped).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

from check import RowCount, check_table, load_expected
from spans import (FFT_LAYERS, TraceGuardError, Tracer, reduce_spans, self_times,
                   span_calls)
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11       # cold starts per untraced run; setup_s is their median
MIN_TABLES = 3          # untraced tables per run, even past the deadline
SPAN_COUNTS = ("_calls", ".calls", ".points", "stepper.steps", "stepper.picard_iters")

# A fresh interpreter up to the first call into a layer: import the CLI and
# resolve the workload's command line, then report ready.
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import fkdv.cli as cli; "
         "cli._resolve_run_config(cli._build_parser().parse_args(sys.argv[2:])); "
         "print('ready', flush=True)")


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def cap_blas_threads() -> dict:
    """Cap BLAS threads at nproc before numpy loads; record who set them."""
    nproc = len(os.sched_getaffinity(0))
    record = {}
    for var in BLAS_VARS:
        given = os.environ.get(var, "")
        value = min(int(given), nproc) if given.isdigit() and int(given) > 0 else nproc
        os.environ[var] = str(value)
        record[var] = {"threads": value,
                       "set_by": f"environment ({given})" if given else "benchmark (nproc)"}
    return record


def import_cli():
    if not (SRC / "fkdv" / "cli.py").is_file():
        raise BenchError(f"fkdv sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import fkdv.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import fkdv.cli: {exc}") from exc
    if Path(cli.__file__).resolve().parent != SRC / "fkdv":
        raise BenchError(f"imported fkdv from {cli.__file__}, not from {SRC}")
    return cli


def machine_record(blas: dict) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas_lib = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_lib.get('name')} {blas_lib.get('version')}",
        "blas_threads": blas,
        "commit": commit or "unknown (not a git checkout)",
    }


def probe_setup(argv: tuple[str, ...]) -> float:
    """Seconds from spawning a fresh interpreter to its first layer call."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC), *argv],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode:
        raise BenchError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


class Runner:
    """Runs and checks tables of one workload configuration."""

    def __init__(self, cli, cfg, pinned: list, tol: dict):
        self.cli, self.cfg, self.pinned, self.tol = cli, cfg, pinned, tol
        self.rows = RowCount()
        self.csv: str | None = None     # the first repetition's CSV

    def table(self) -> float:
        start = perf_counter()
        try:
            results = self.cli.run_table(self.cfg)
        except TraceGuardError:
            raise
        except Exception as exc:  # noqa: BLE001 - a raising table is a failed row set
            self.rows.add_raised(len(self.pinned), repr(exc))
            return perf_counter() - start
        elapsed = perf_counter() - start
        outcomes = check_table(results, self.pinned, self.tol)
        csv = self.cli.table_csv(results)
        if self.csv is None:
            self.csv = csv
        elif csv != self.csv:
            outcomes = [r or "CSV differs from the first repetition" for r in outcomes]
        self.rows.add(outcomes)
        return elapsed

    def traced_table(self) -> tuple[float, Tracer]:
        with Tracer() as tracer:
            elapsed = self.table()
        return elapsed, tracer


def guard(workload, tracer: Tracer, metrics: dict) -> None:
    """Fail loudly if a predicted layer call is missing or an absent one ran."""
    calls = span_calls(tracer.spans)
    seen = {name for name, n in calls.items() if n}
    seen |= {f"fft.{layer}" for layer in FFT_LAYERS if metrics[f"fft.{layer}.calls"]}
    missing = sorted(workload.calls - seen)
    extra = sorted(workload.absent & seen)
    if missing or extra:
        raise TraceGuardError(
            f"{workload.name}: predicted calls never made {missing}; "
            f"calls predicted absent but made {extra}")


def plan(rng: random.Random, items: dict[str, int]) -> list[str]:
    order = [kind for kind, n in items.items() for _ in range(n)]
    rng.shuffle(order)
    return order


def measure_end_to_end(runner: Runner, workload, seconds: float,
                       rng: random.Random) -> tuple[dict, dict]:
    deadline = perf_counter() + seconds
    tables = [runner.table()]
    setups: list[float] = []
    budget = deadline - perf_counter() - SETUP_PROBES * 0.5   # ~0.5 s per probe
    n_more = max(MIN_TABLES - 1, int(budget / max(tables[0], 1e-3)))
    for kind in plan(rng, {"table": n_more, "setup": SETUP_PROBES}):
        if kind == "setup":
            setups.append(probe_setup(workload.argv))
        elif len(tables) < MIN_TABLES or perf_counter() + max(tables) <= deadline:
            tables.append(runner.table())
    rows = runner.rows
    metrics = {
        "table_s": statistics.median(tables),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows_ok_frac": 1.0 - rows.failed_frac,
    }
    samples = {"table_s": len(tables), "setup_s": len(setups), "peak_rss_mb": 1,
               "rows_ok_frac": rows.attempted}
    return metrics, {"samples": samples, "rows_failed_frac": rows.failed_frac,
                     "table_s_all": tables, "setup_s_all": setups}


def measure_per_layer(runner: Runner, workload, seconds: float,
                      rng: random.Random) -> tuple[dict, dict]:
    deadline = perf_counter() + seconds
    plain = [runner.table()]
    traced: list[dict] = []
    tracers: list[Tracer] = []
    n_total = max(2, int((deadline - perf_counter()) / (1.25 * max(plain[0], 1e-3))))
    n_traced = max(1, n_total // 2)
    for kind in plan(rng, {"plain": n_total - n_traced, "traced": n_traced}):
        room = perf_counter() + 1.25 * max(plain) <= deadline
        if kind == "plain" and (len(plain) < 2 or room):
            plain.append(runner.table())
        elif kind == "traced" and (not traced or room):
            elapsed, tracer = runner.traced_table()
            m = reduce_spans(tracer.spans, tracer.steps, tracer.picard_iters)
            guard(workload, tracer, m)
            m["trace.table_s"] = elapsed
            traced.append(m)
            tracers.append(tracer)
    counts = {k for k in traced[0] if k.endswith(SPAN_COUNTS)}
    for m in traced[1:]:
        differ = sorted(k for k in counts if m[k] != traced[0][k])
        if differ:
            raise TraceGuardError(f"count metrics differ between traced tables: {differ}")
    metrics = {k: traced[0][k] if k in counts else statistics.median(m[k] for m in traced)
               for k in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.table_s"] - statistics.median(plain)
    table = metrics["trace.table_s"]
    shares = {layer: metrics[key] / table for layer, key in (
        ("stepper", "stepper.run_s"), ("assembly", "assembly.assemble_operators_s"),
        ("spectral", "spectral.solve_s"), ("fem", "fem.l2_project_s"),
        ("diagnostics", "diagnostics.s"))}
    write_spans(workload.name, tracers)
    return metrics, {"samples": {"traced": len(traced), "untraced": len(plain)},
                     "layer_shares": shares, "rows_failed_frac": runner.rows.failed_frac}


def write_spans(name: str, tracers: list[Tracer]) -> None:
    """Spans of every traced table, one CSV row each, with self times."""
    SPAN_DIR.mkdir(exist_ok=True)
    with gzip.open(SPAN_DIR / f"spans-{name}.csv.gz", "wt", compresslevel=1) as fh:
        fh.write("rep,index,name,start,end,parent,points,self_s\n")
        for rep, tracer in enumerate(tracers):
            for idx, (span, own) in enumerate(zip(tracer.spans, self_times(tracer.spans))):
                fh.write(f"{rep},{idx},{span[0]},{span[1]!r},{span[2]!r},"
                         f"{span[3]},{span[4]},{own!r}\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas = cap_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        cli = import_cli()
        warnings.filterwarnings("ignore", message="CFL")
        workload = WORKLOADS[args.workload]
        expected = load_expected()
        cfg = workload.config(cli, args.seed)
        runner = Runner(cli, cfg, expected["tables"][workload.table_key(args.seed)],
                        expected["tolerances"])
        rng = random.Random(args.seed)
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, details = measure(runner, workload, args.seconds, rng)
    except (BenchError, TraceGuardError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        print(f"benchmark error: metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 2
    rows = runner.rows
    correct = rows.failed == 0

    samples = details["samples"]
    print(f"workload {workload.name} seed {args.seed} "
          f"({workload.table_key(args.seed)}), trace {args.trace}")
    for m in declared:
        n = samples.get(m["name"], samples.get("traced"))
        print(f"  {m['name']:<34} {metrics[m['name']]:>14.6g} {m['unit']:<10} "
              f"samples {n}")
    if not args.trace:
        print(f"  {'rows_failed_frac':<34} {rows.failed_frac:>14.6g} {'ratio':<10} "
              f"{rows.failed} of {rows.attempted} rows")
    for reason in rows.reasons:
        print(f"  row failed: {reason}")
    record = {
        "workload": workload.name, "seed": args.seed, "table": workload.table_key(args.seed),
        "argv": list(workload.argv), "overrides": runner.cfg.overrides,
        "csv": runner.csv, **details,
        "machine": machine_record(blas),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": rows.attempted, "failed": rows.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
