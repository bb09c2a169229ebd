"""Self-tests of the benchmark: span arithmetic, row counting, the output
check, the trace guard and a seconds-long end-to-end smoke run.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from check import RowCount, check_row, check_table, load_expected
from run import Runner, guard
from spans import Tracer, TraceGuardError, reduce_spans, root_layer, self_times
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=-1, points=0):
    return (name, start, end, parent, points)


# --- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [span("stepper.run", 0.0, 10.0),
             span("stepper.nonlinear_load", 1.0, 3.0, 0),
             span("fft.fft", 1.5, 2.0, 1),
             span("circulant.apply_symbol", 4.0, 8.0, 0)]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [span("a", 0.0, 10.0),
             span("b", 2.0, 6.0, 0),
             span("c", 4.0, 8.0, 0),     # overlaps b on [4, 6]
             span("d", 9.0, 12.0, 0)]    # runs past the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert min(self_times(spans)) >= 0.0


def test_fft_attributed_to_outermost_layer():
    spans = [span("stepper.run", 0.0, 10.0),
             span("circulant.apply_symbol", 1.0, 2.0, 0),
             span("fft.fft", 1.2, 1.4, 1, points=64),
             span("fft.ifft", 3.0, 3.5, 0, points=64),
             span("spectral.solve", 11.0, 12.0),
             span("fft.fft", 11.1, 11.2, 4, points=32),
             span("fft.fft", 13.0, 13.1, points=8)]
    assert root_layer(spans, 2) == "stepper"
    assert root_layer(spans, 6) == "other"
    m = reduce_spans(spans, steps=5, picard_iters=10)
    assert m["fft.stepper.calls"] == 2 and m["fft.stepper.points"] == 128
    assert m["fft.stepper.s"] == pytest.approx(0.7)
    assert m["fft.spectral.calls"] == 1
    assert m["fft.calls"] == 4 and m["fft.points"] == 168
    assert m["stepper.run_s"] == pytest.approx(10.0)
    assert m["stepper.self_s"] == pytest.approx(10.0 - 1.0 - 0.5)
    assert m["circulant.apply_symbol_calls"] == 1
    assert m["stepper.iters_per_step"] == 2.0
    assert m["stepper.iter_us"] == pytest.approx(1e6)
    assert m["spectral.solve_s"] == pytest.approx(1.0)


def test_tracer_restores_names_and_records_nesting():
    import numpy as np
    original = np.fft.fft
    with Tracer() as tracer:
        np.fft.ifft(np.fft.fft(np.ones(8)))
    assert np.fft.fft is original
    assert [s[0] for s in tracer.spans] == ["fft.fft", "fft.ifft"]
    assert [s[4] for s in tracer.spans] == [8, 8]


def test_tracer_fails_loudly_when_a_wrapped_name_is_gone(monkeypatch):
    import fkdv.stepper
    import numpy as np
    original = np.fft.fft
    monkeypatch.delattr(fkdv.stepper, "nonlinear_load")
    with pytest.raises(TraceGuardError, match="fkdv.stepper.nonlinear_load"):
        Tracer().install()
    assert np.fft.fft is original


def test_guard_flags_missing_and_unexpected_calls():
    workload = WORKLOADS["sin-spectral"]
    tracer = SimpleNamespace(spans=[span(n, 0.0, 1.0) for n in workload.calls
                                    if n not in ("spectral.solve", "fft.stepper",
                                                 "fft.spectral")])
    metrics = {f"fft.{layer}.calls": 1 for layer in ("assembly", "stepper", "spectral")}
    with pytest.raises(TraceGuardError, match="spectral.solve"):
        guard(workload, tracer, metrics)
    with pytest.raises(TraceGuardError, match="predicted absent.*fft.spectral"):
        guard(WORKLOADS["bo-table"], tracer, metrics)


# --- row counting and the output check ---------------------------------------

TOL = load_expected()["tolerances"]
PINNED = [[16, 1e-3, 1.0, 1.0 + 1e-4, 1.0 + 2e-4, None],
          [32, 2.5e-4, math.nan, 1.0 + 1e-5, 1.0 + 2e-5, 2.0]]


def test_rows_failed_frac_counts_diverged_raised_and_mismatched_rows():
    rows = RowCount()
    rows.add([None, None])                       # a clean table
    rows.add([None, "N=32: E=1 pinned 0.5"])     # one row off its pin
    rows.add_raised(2, "ValueError()")           # a table that raised
    assert (rows.attempted, rows.failed) == (6, 3)
    assert rows.failed_frac == pytest.approx(0.5)
    assert RowCount().failed_frac == 1.0         # nothing attempted is no success


def test_check_row_tolerances():
    assert check_row(list(PINNED[0]), PINNED[0], TOL) is None
    assert check_row(list(PINNED[1]), PINNED[1], TOL) is None
    e_ok = PINNED[0][1] * (1 + 0.5 * TOL["E"]["rel"])
    assert check_row([16, e_ok] + PINNED[0][2:], PINNED[0], TOL) is None
    e_bad = PINNED[0][1] * (1 + 2 * TOL["E"]["rel"])
    assert "E=" in check_row([16, e_bad] + PINNED[0][2:], PINNED[0], TOL)
    c2_bad = 1.0 + 1e-4 * (1 + 1e-5)
    assert "C2=" in check_row([16, 1e-3, 1.0, c2_bad, 1.0 + 2e-4, None], PINNED[0], TOL)
    assert "C1=" in check_row([32, 2.5e-4, 1.0] + PINNED[1][3:], PINNED[1], TOL)
    assert "rate=" in check_row(PINNED[1][:5] + [None], PINNED[1], TOL)
    assert "diverged" in check_row(None, PINNED[0], TOL)


def test_runner_fails_rows_whose_csv_differs_between_repetitions():
    row = SimpleNamespace(n_elems=16, E=1e-3, C1=1.0, C2=1.0 + 1e-4, C3=1.0 + 2e-4,
                          rate=None)
    csvs = iter(["N,E\n16,0.001\n", "N,E\n16,0.001\n", "N,E\n16,0.0010001\n"])
    cli = SimpleNamespace(run_table=lambda cfg: [SimpleNamespace(n_elems=16, row=row)],
                          table_csv=lambda results: next(csvs))
    runner = Runner(cli, None, PINNED[:1], TOL)
    for _ in range(3):
        runner.table()
    assert (runner.rows.attempted, runner.rows.failed) == (3, 1)
    assert "CSV differs" in runner.rows.reasons[0]


def test_check_table_counts_every_pinned_row():
    rows = [SimpleNamespace(row=None, n_elems=16)]
    assert len(check_table(rows, PINNED, TOL)) == 2


# --- the whole pipeline, seconds long ----------------------------------------

def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_matches_the_schema(trace, kind):
    proc = run_bench("--workload", "smoke", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["csv"].startswith("N,E,C1,C2,C3,rate\n16,")
    assert {"nproc", "cpu_model", "numpy", "scipy", "blas_threads",
            "commit"} <= set(record["machine"])
    if trace:
        assert result["metrics"]["spectral.solve_s"]["value"] == 0
        assert result["metrics"]["stepper.picard_iters"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "smoke", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
