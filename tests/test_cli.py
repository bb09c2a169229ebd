"""Command line interface: table runs, snapshots, verification, exit codes.

All invocations go through ``main`` in-process so exit codes and emitted text
can be asserted directly.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fkdv.assembly
import fkdv.cli
import fkdv.stepper
from fkdv.cli import EXIT_ALL_DIVERGED, EXIT_CONFIG, emit_snapshot, main
from fkdv.assembly import assemble_operators
from fkdv.fem import FemFunction, Grid, l2_project, mass_norm
from fkdv.solutions import bo_soliton, builtin_experiments, get_experiment
from fkdv.stepper import SchemeConfig, _blend, run

HEADER = "N,E,C1,C2,C3,rate"


def _invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _rows(csv_text: str) -> list[list[str]]:
    lines = csv_text.strip().split("\n")
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


def _short_bo_ini(tmp_path) -> str:
    path = tmp_path / "short-bo.ini"
    path.write_text("[experiment]\nbase = bo-one\nt_final = 12\nsweep = 16, 32\n")
    return str(path)


# ---------------------------------------------------------------------------
# run: table output

def test_run_emits_header_and_rate_cells():
    rc, out, _ = _invoke(["run", "--experiment", "frac-sin",
                          "--sweep", "8,16", "--dt", "0.7"])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert rows[0][5] == ""  # no rate before the second resolution
    assert float(rows[1][5]) == pytest.approx(3.1848, rel=0.1)
    assert float(rows[1][1]) < float(rows[0][1])
    # zero-mean data has no meaningful mass ratio
    assert rows[0][2] == "nan" and rows[1][2] == "nan"


def test_run_ini_overrides_final_time(tmp_path):
    rc, out, _ = _invoke(["run", "--experiment", _short_bo_ini(tmp_path)])
    assert rc == 0
    rows = _rows(out)
    assert [r[0] for r in rows] == ["16", "32"]
    assert float(rows[0][1]) == pytest.approx(0.002758522306, rel=1e-6)
    assert float(rows[1][1]) == pytest.approx(0.001180926935, rel=1e-6)
    # mass is conserved exactly, so the printed ratio collapses to 1
    assert rows[0][2] == "1" and rows[1][2] == "1"
    assert float(rows[1][5]) == pytest.approx(1.224, abs=0.01)


def test_run_empty_sweep_emits_header_only(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[experiment]\nbase = frac-sin\nsweep =\n")
    rc, out, _ = _invoke(["run", "--experiment", str(path)])
    assert rc == 0
    assert out == HEADER + "\n"


def test_run_empty_sweep_flag_is_the_empty_sweep():
    # As in an INI file: an explicitly empty --sweep runs nothing rather
    # than falling back to the experiment's own sweep.
    rc, out, _ = _invoke(["run", "--experiment", "bo-one", "--sweep="])
    assert rc == 0
    assert out == HEADER + "\n"


def test_run_writes_table_file(tmp_path):
    out_dir = tmp_path / "tables"
    rc, out, err = _invoke(["run", "--experiment", _short_bo_ini(tmp_path),
                            "--out", str(out_dir)])
    assert rc == 0
    written = (out_dir / "bo-one-table.csv").read_text()
    assert written == out
    assert "bo-one-table.csv" in err


def test_run_repeat_is_bit_identical(tmp_path):
    ini = _short_bo_ini(tmp_path)
    _, first, _ = _invoke(["run", "--experiment", ini, "--jobs", "1"])
    _, second, _ = _invoke(["run", "--experiment", ini, "--jobs", "1"])
    assert first == second


def test_run_emits_no_warning(tmp_path):
    # A converging table has nothing to warn about.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = _invoke(["run", "--experiment", _short_bo_ini(tmp_path)])
    assert rc == 0
    assert err == ""


def test_run_parallel_matches_serial(tmp_path):
    ini = _short_bo_ini(tmp_path)
    rc1, serial, _ = _invoke(["run", "--experiment", ini, "--jobs", "1"])
    rc2, parallel, _ = _invoke(["run", "--experiment", ini, "--jobs", "2"])
    assert rc1 == 0 and rc2 == 0
    for row_s, row_p in zip(_rows(serial), _rows(parallel)):
        for cell_s, cell_p in zip(row_s[:5], row_p[:5]):
            np.testing.assert_allclose(float(cell_s), float(cell_p),
                                       rtol=1e-12, equal_nan=True)


@pytest.mark.parametrize("sweep, jobs, pool_sizes", [
    ("16,32", "5000", [2]),      # one worker per row, not per --jobs
    ("16", "4", []),             # a one-row sweep runs in this process
    ("16,32", "1", []),
])
def test_pool_never_larger_than_the_sweep(sweep, jobs, pool_sizes, tmp_path,
                                          monkeypatch):
    created = []

    class SerialPool:
        """Records the pool size asked for; maps in this process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    rc, out, _ = _invoke(["run", "--experiment", _short_bo_ini(tmp_path),
                          "--sweep", sweep, "--jobs", jobs])
    assert rc == 0
    assert created == pool_sizes
    assert len(_rows(out)) == len(sweep.split(","))


@pytest.mark.parametrize("argv, target", [
    (["run", "--sweep", "16"], "bo-one-table.csv"),
    (["snapshot", "--elements", "16", "--times", "12"], "bo-one-N16-t12.txt"),
])
def test_failed_write_leaves_no_partial_output(tmp_path, monkeypatch,
                                               argv, target):
    def refuse(src, dst):
        raise OSError("disk full")

    out_dir = tmp_path / "out"
    monkeypatch.setattr(fkdv.cli.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        _invoke(argv + ["--experiment", _short_bo_ini(tmp_path),
                        "--out", str(out_dir)])
    assert not (out_dir / target).exists()
    assert not list(out_dir.glob("*.tmp"))


def test_run_all_rows_diverged_exits_three():
    # dt far above the contraction threshold: every row fails, none silently.
    # The overflow on the way to a non-finite residual is not a warning, so
    # the exit code holds with warnings as errors (python -W error).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _invoke(["run", "--experiment", "kdv-one",
                                "--sweep", "32,64", "--dt", "1.0"])
    assert rc == EXIT_ALL_DIVERGED
    for row in _rows(out):
        assert row[1:5] == ["nan", "nan", "nan", "nan"]
    assert "failed" in err


def test_run_diverged_self_reference_exits_three(tmp_path):
    # The reference diverges before any row runs: one stderr line names it,
    # and neither a table nor an --out file is written.
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _invoke(["run", "--experiment", "kdv-one", "--sweep", "32",
                                "--dt", "1.0", "--reference", "self:128",
                                "--out", str(out_dir)])
    assert rc == EXIT_ALL_DIVERGED
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("reference self:128 failed: "), err
    assert not out_dir.exists() or not list(out_dir.iterdir())


def test_snapshot_diverged_exits_three(tmp_path):
    # As run's reference does: one stderr line names the failed solve, no
    # profile is written and the exit code is 3, with warnings as errors.
    path = tmp_path / "diverge.ini"
    path.write_text("[experiment]\nbase = kdv-one\ndt_value = 1.0\n")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _invoke(["snapshot", "--experiment", str(path), "--elements", "32",
                                "--times", "0,1", "--out", str(out_dir)])
    assert rc == EXIT_ALL_DIVERGED
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("snapshot N=32 failed: "), err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# run: configuration errors

@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "no-such-experiment"],
    ["run", "--experiment", "frac-sin", "--sweep", "64,32"],
    ["run", "--experiment", "frac-sin", "--sweep", "8,8"],
    ["run", "--experiment", "frac-sin", "--dt-rule", "nope"],
    ["run", "--experiment", "frac-sin", "--reference", "mesh:12"],
    ["run", "--experiment", "frac-sin", "--reference", "self:2"],
    ["run", "--experiment", "frac-sin", "--sweep", "8,16",
     "--reference", "self:40"],  # 40 is not a multiple of 16
    ["run", "--experiment", "frac-sin", "--sweep", "16,32",
     "--reference", "self:32"],  # the last row would be its own reference
    ["run", "--experiment", "/tmp/does-not-exist.ini"],
])
def test_run_config_errors_exit_two(argv):
    rc, _, err = _invoke(argv)
    assert rc == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize("flags, ini", [
    (["--tol-factor", "0"], None),
    ([], "dt_rule = bogus\n"),
    ([], "dt_rule = explicit\n"),      # a key that no longer exists
    (["--jobs", "0"], None),
    (["--jobs", "-3"], None),
    ([], "dt_value = 0.5\ndt_factor = 0.5\n"),
    ([], "tol-factor = 1e-9\n"),       # the flag's spelling, not the key's
    ([], "t_end = 3\n"),
    (["--dt=-0.5"], None),
    ([], "dt_value = -0.5\n"),        # every experiment runs forward
], ids=["tol-factor-zero", "ini-dt-rule-bogus", "ini-dt-rule-explicit", "jobs-zero",
        "jobs-negative", "ini-both-step-keys", "ini-flag-spelling", "ini-unknown-key",
        "negative-dt-flag", "ini-negative-dt-value"])
def test_bad_step_settings_exit_two_before_any_solve(
        flags, ini, tmp_path, tmp_path_factory, monkeypatch):
    experiment = "frac-sin"      # no closed form: a self reference is solved
    if ini is not None:
        path = tmp_path_factory.mktemp("ini") / "steps.ini"
        path.write_text(f"[experiment]\nbase = frac-sin\n{ini}")
        experiment = str(path)

    def no_assembly(*args, **kwargs):
        raise AssertionError("operators assembled before the settings were checked")

    monkeypatch.setattr(fkdv.cli, "assemble_operators", no_assembly)
    monkeypatch.chdir(tmp_path)
    commands = [["run", "--sweep", "8", *flags]]
    if ini is not None:         # snapshot reads the file's step keys too
        commands.append(["snapshot", "--elements", "16", "--times", "0"])
    for command in commands:
        rc, out, err = _invoke([*command, "--experiment", experiment,
                                "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert "config error" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["run", "--experiment", "bo-one", "--sweep", "16"],
    ["snapshot", "--experiment", "bo-one", "--elements", "16", "--times", "0"],
])
@pytest.mark.parametrize("out", ["/dev/null/x", "file", "file/tables"])
def test_an_out_that_cannot_be_a_directory_exits_two(command, out, tmp_path,
                                                     monkeypatch, no_solve):
    # Its nearest existing ancestor is no directory: a config error before
    # any solve, not a traceback after the table.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    rc, stdout, err = _invoke([*command, "--out", out])
    assert rc == EXIT_CONFIG
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: bad --out"), err
    assert stdout == ""
    assert [path.name for path in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == ""


def _step_ini(tmp_path, name: str, lines: str = "") -> str:
    path = tmp_path / f"{name}.ini"
    sweep = "" if "sweep" in lines else "sweep = 16, 32\n"
    path.write_text(f"[experiment]\nbase = bo-one\nt_final = 6\n{sweep}{lines}")
    return str(path)


@pytest.mark.parametrize("lines, ini_flags, flags", [
    ("dt_value = 0.5\n", [], ["--dt", "0.5"]),
    ("dt_factor = 0.25\n", [], ["--dt-rule", "prop:0.25"]),
    ("dt_factor = 0.25\n", ["--dt", "0.5"], ["--dt", "0.5"]),
    ("dt_value = 0.5\n", ["--dt-rule", "prop:0.25"], ["--dt-rule", "prop:0.25"]),
    ("dt_value = 0.5\n", ["--dt-rule", "courant"], []),
    ("dt_factor = 0.25\n", ["--dt-rule", "courant"], []),
    ("alpha = 1.2\n", [], ["--alpha", "1.2"]),
    ("sweep = 16\n", [], ["--sweep", "16"]),
    ("reference = self:64\n", [], ["--reference", "self:64"]),
    ("tol_factor = 1e-6\n", [], ["--tol-factor", "1e-6"]),
    ("alpha = 1.2\n", ["--alpha", "1.1"], ["--alpha", "1.1"]),
    ("sweep = 16\n", ["--sweep", "32"], ["--sweep", "32"]),
    ("reference = self:64\n", ["--reference", "self:128"], ["--reference", "self:128"]),
    ("tol_factor = 1e-6\n", ["--tol-factor", "1e-3"], ["--tol-factor", "1e-3"]),
], ids=["dt-value-as-dt", "dt-factor-as-prop", "dt-flag-over-dt-factor",
        "prop-flag-over-dt-value", "courant-over-dt-value", "courant-over-dt-factor",
        "alpha-as-flag", "sweep-as-flag", "reference-as-flag", "tol-factor-as-flag",
        "alpha-flag-over-key", "sweep-flag-over-key", "reference-flag-over-key",
        "tol-factor-flag-over-key"])
def test_ini_key_runs_as_its_flag(lines, ini_flags, flags, tmp_path):
    # An INI key prints the table of the flag that spells it, a flag beats
    # the same key in the file, and a step flag replaces whichever step size
    # the file gives.
    ini = _step_ini(tmp_path, "keys", lines)
    rc, from_ini, _ = _invoke(["run", "--experiment", ini, *ini_flags])
    plain = _step_ini(tmp_path, "plain")
    _, from_flags, _ = _invoke(["run", "--experiment", plain, *flags])
    assert rc == 0
    assert from_ini == from_flags
    if flags:       # not vacuous: the value changes the table
        _, default, _ = _invoke(["run", "--experiment", plain])
        assert from_ini != default
    if ini_flags and flags:     # nor is the flag's win: the key alone differs
        _, key_alone, _ = _invoke(["run", "--experiment", ini])
        assert from_ini != key_alone


def test_run_ini_without_experiment_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[other]\nbase = bo-one\n")
    rc, _, err = _invoke(["run", "--experiment", str(path)])
    assert rc == EXIT_CONFIG
    assert "experiment" in err


def test_dt_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--experiment", "frac-sin",
              "--dt", "0.1", "--dt-rule", "courant"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# snapshot

def test_snapshot_writes_profiles(tmp_path):
    rc, _, err = _invoke(["snapshot", "--experiment", "bo-one",
                          "--elements", "64", "--times", "0,60,120",
                          "--out", str(tmp_path)])
    assert rc == 0
    crest = float(bo_soliton(np.array([0.0]), 0.0)[0])
    early = np.loadtxt(tmp_path / "bo-one-N64-t0.txt")
    final = np.loadtxt(tmp_path / "bo-one-N64-t120.txt")
    assert early.shape == final.shape == (64, 3)
    np.testing.assert_allclose(early[:, 0], np.linspace(-15.0, 15.0, 65)[:-1],
                               atol=1e-9)
    # the wave returns to its starting position after one period
    assert abs(final[:, 1].max() - crest) < 5e-3
    assert abs(final[:, 2].max() - crest) < 1e-9
    assert (tmp_path / "bo-one-N64-t60.txt").exists()
    assert err.count("wrote") == 3
    # A time past the end by less than 1e-9 of the span is the end itself.
    rc, _, _ = _invoke(["snapshot", "--experiment", "bo-one", "--elements", "64",
                        "--times", "120.00000001", "--out", str(tmp_path / "past")])
    assert rc == 0
    assert ((tmp_path / "past" / "bo-one-N64-t120.txt").read_bytes()
            == (tmp_path / "bo-one-N64-t120.txt").read_bytes())


def test_snapshot_writes_the_closed_form_at_every_time(tmp_path):
    rc, _, _ = _invoke(["snapshot", "--experiment", "bo-one", "--elements", "16",
                        "--times", "0,60,120", "--out", str(tmp_path)])
    assert rc == 0
    for t in (0.0, 60.0, 120.0):
        cols = np.loadtxt(tmp_path / f"bo-one-N16-t{t:g}.txt")
        assert cols.shape == (16, 3)
        want = [float(f"{v:.12g}") for v in bo_soliton(cols[:, 0], t)]
        assert cols[:, 2].tolist() == want


@pytest.mark.parametrize("n", [32, 64, 256])
def test_snapshot_profiles_match_a_run_that_keeps_every_state(n, tmp_path):
    # snapshot keeps only the states its times read; its profiles must be
    # the bytes that blending every state u^0 ... u^M writes.  The states
    # come from one step operator, as in a run.
    times = [0.0, 0.01, 33.3, 60.0, 119.99, 120.0]
    rc, _, _ = _invoke(["snapshot", "--experiment", "bo-one", "--elements", str(n),
                        "--times", ",".join(map(str, times)),
                        "--out", str(tmp_path / "lean")])
    assert rc == 0

    spec = get_experiment("bo-one")
    grid = Grid(spec.domain[0], spec.domain[1], n)
    ops = assemble_operators(grid, spec.alpha)
    u0 = l2_project(grid, spec.initial)
    traj = run(u0, 0.0, spec.t_final, ops, SchemeConfig())
    operator = fkdv.stepper._StepOperator(
        grid, traj.dt, *fkdv.stepper._step_symbols(ops, traj.dt))
    u, norm, states = u0, mass_norm(u0.coeffs, operator.bands), [u0.coeffs]
    for step in range(1, traj.n_steps + 1):
        u, _, norm = operator.step(u, norm, SchemeConfig(), step)
        states.append(u.coeffs)
    assert np.array_equal(states[-1], traj.final.coeffs)
    for t in times:
        theta, lo, hi = _blend(0.0, traj.dt, traj.n_steps, t)
        profile = states[lo] if lo == hi else (
            (1.0 - theta) * states[lo] + theta * states[hi])
        name = f"bo-one-N{n}-t{t:g}.txt"
        emit_snapshot(FemFunction(grid, profile), tmp_path / "full" / name,
                      reference=partial(spec.exact, t=t))
        lean = (tmp_path / "lean" / name).read_bytes()
        assert lean == (tmp_path / "full" / name).read_bytes()


@pytest.mark.parametrize("n", [32, 256])
def test_snapshot_at_a_step_time_is_the_state_a_run_to_it_ends_in(n, tmp_path):
    # With dt_value = 0.5 a run to 3 and a run to 6 take the same step, so
    # the profile at t = 3 is one state, whichever run it comes from.
    for t_final in (3, 6):
        ini = tmp_path / f"to{t_final}.ini"
        ini.write_text(f"[experiment]\nbase = bo-one\nt_final = {t_final}\n"
                       "dt_value = 0.5\n")
        rc, _, _ = _invoke(["snapshot", "--experiment", str(ini), "--elements", str(n),
                            "--times", "3", "--out", str(tmp_path / f"to{t_final}")])
        assert rc == 0
    name = f"bo-one-N{n}-t3.txt"
    assert (tmp_path / "to3" / name).read_bytes() == (tmp_path / "to6" / name).read_bytes()


def test_snapshot_follows_the_files_step_size(tmp_path):
    # The profiles of a dt_value = 0.5 file are those of a run at that step,
    # not the Courant step's.
    times = [0.0, 1.3, 6.0]
    rc, _, _ = _invoke(["snapshot", "--experiment",
                        _step_ini(tmp_path, "steps", "dt_value = 0.5\n"),
                        "--elements", "16", "--times", "0,1.3,6",
                        "--out", str(tmp_path / "ini")])
    assert rc == 0
    rc, _, _ = _invoke(["snapshot", "--experiment", _step_ini(tmp_path, "plain"),
                        "--elements", "16", "--times", "0,1.3,6",
                        "--out", str(tmp_path / "courant")])
    assert rc == 0

    spec = replace(get_experiment("bo-one"), t_final=6.0)
    grid = Grid(spec.domain[0], spec.domain[1], 16)
    traj = run(l2_project(grid, spec.initial), spec.t0, spec.t_final,
               assemble_operators(grid, spec.alpha), SchemeConfig(dt_value=0.5), times)
    for t in times:
        name = f"bo-one-N16-t{t:g}.txt"
        emit_snapshot(traj.profiles[t], tmp_path / "run" / name,
                      reference=partial(spec.exact, t=t))
        assert ((tmp_path / "ini" / name).read_bytes()
                == (tmp_path / "run" / name).read_bytes())
    assert ((tmp_path / "ini" / "bo-one-N16-t1.3.txt").read_bytes()
            != (tmp_path / "courant" / "bo-one-N16-t1.3.txt").read_bytes())


def test_snapshot_reads_experiment_ini(tmp_path):
    out = tmp_path / "out"
    rc, _, err = _invoke(["snapshot", "--experiment", _short_bo_ini(tmp_path),
                          "--elements", "16", "--times", "0,12",
                          "--out", str(out)])
    assert rc == 0
    assert sorted(f.name for f in out.iterdir()) == ["bo-one-N16-t0.txt",
                                                     "bo-one-N16-t12.txt"]
    # The INI's t_final = 12 moves the closed-form column with it.
    final = np.loadtxt(out / "bo-one-N16-t12.txt")
    np.testing.assert_allclose(final[:, 2], bo_soliton(final[:, 0], 12.0),
                               atol=1e-12)
    assert err.count("wrote") == 2


def test_snapshot_bad_ini_exits_two(tmp_path, tmp_path_factory, monkeypatch):
    ini = tmp_path_factory.mktemp("ini") / "bad.ini"
    ini.write_text("[experiment]\nbase = bo-one\nt_final = soon\n")
    monkeypatch.chdir(tmp_path)
    rc, _, err = _invoke(["snapshot", "--experiment", str(ini),
                          "--elements", "16", "--times", "0"])
    assert rc == EXIT_CONFIG
    assert "config error" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["snapshot", "--experiment", "no-such", "--elements", "16", "--times", "0"],
    ["snapshot", "--experiment", "frac-sin", "--elements", "16",
     "--times", "0,999"],
    ["snapshot", "--experiment", "frac-sin", "--elements", "16", "--times", ","],
    ["snapshot", "--experiment", "frac-sin", "--elements", "16",
     "--times", "0.5;1"],
    ["snapshot", "--experiment", "bo-one", "--elements=2", "--times=0"],
    ["snapshot", "--experiment", "bo-one", "--elements=3", "--times=0"],
    ["snapshot", "--experiment", "bo-one", "--elements", "16",
     "--times", "120.001"],
    ["snapshot", "--experiment", "bo-one", "--elements", "x", "--times", "0"],
    ["snapshot", "--experiment", "bo-one", "--elements", "16.0", "--times", "0"],
    ["snapshot", "--experiment", "bo-one", "--elements", "16", "--times", "0",
     "--alpha", "abc"],
    # Two times whose profiles one file name would hold (%g precision).
    ["snapshot", "--experiment", "bo-one", "--elements", "16",
     "--times", "60.0000001,60.0000002"],
    ["snapshot", "--experiment", "bo-one", "--elements", "16", "--times", "30,30"],
])
def test_snapshot_config_errors_exit_two(argv, tmp_path, monkeypatch, no_solve):
    # Without --out the files would land in the working directory; a config
    # error must leave nothing there, and must come before any solve.
    monkeypatch.chdir(tmp_path)
    rc, _, err = _invoke(argv)
    assert rc == EXIT_CONFIG
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    assert not list(tmp_path.iterdir())


def test_emit_snapshot_zero_state_and_array_reference(tmp_path):
    grid = Grid(0.0, 1.0, 8)
    zero = FemFunction(grid, np.zeros(grid.n_dofs))
    ref = np.arange(8, dtype=float)
    path = tmp_path / "profile.txt"
    # The reference is a callable of x; here it returns an array of node values.
    emit_snapshot(zero, path, reference=lambda x: ref)
    data = np.loadtxt(path)
    np.testing.assert_allclose(data[:, 0], grid.nodes(), atol=1e-12)
    np.testing.assert_allclose(data[:, 1], 0.0, atol=1e-15)
    np.testing.assert_allclose(data[:, 2], ref, atol=1e-12)


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_prints_checks():
    rc, out, _ = _invoke(["verify", "--alpha", "1.5"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    assert all(line.endswith("PASS") for line in lines)
    names = {line.split(":")[0] for line in lines}
    assert "disp_skew_symmetry" in names
    assert "pointwise_symbol_error" in names


def test_verify_passes_at_unit_alpha_small_grid():
    rc, out, _ = _invoke(["verify", "--alpha", "1.0", "--elements", "32"])
    assert rc == 0
    assert "FAIL" not in out


def test_verify_probes_avoid_nodes_at_any_size():
    # At N=600, 0.11 and 0.52 of the window fall on nodes, where the
    # pointwise value is undefined for alpha > 1.
    rc, out, err = _invoke(["verify", "--alpha", "1.5", "--elements", "600"])
    assert rc == 0, err
    assert "FAIL" not in out


def test_verify_rejects_alpha_two():
    rc, _, err = _invoke(["verify", "--alpha", "2.0"])
    assert rc == EXIT_CONFIG
    assert "config error" in err


def test_verify_does_not_report_an_internal_error_as_config_error(monkeypatch):
    # Valid arguments, then a ValueError deep inside the report: it must
    # leave main as a traceback (exit 1), not as "config error" (exit 2).
    def broken(*args, **kwargs):
        raise ValueError("defect inside the report")

    monkeypatch.setattr(fkdv.assembly, "spectral_offset_blocks", broken)
    with pytest.raises(ValueError, match="defect inside the report"):
        _invoke(["verify", "--alpha", "1.5", "--elements", "16"])


def test_verify_rejects_too_few_elements():
    rc, _, err = _invoke(["verify", "--alpha", "1.5", "--elements", "3"])
    assert rc == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize("flags", [
    ["--alpha", "x"],
    ["--alpha", ""],
    ["--alpha", "1.5", "--elements", "x"],
    ["--alpha", "1.5", "--elements", "64.5"],
])
def test_verify_non_numeric_flags_exit_two(flags, monkeypatch):
    monkeypatch.setattr(fkdv.cli, "operator_identity_report", None)
    rc, out, err = _invoke(["verify", *flags])
    assert rc == EXIT_CONFIG
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    assert out == ""


# ---------------------------------------------------------------------------
# runtime dependencies

@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "bo-one", "--sweep", "16,32"],
    ["verify", "--alpha", "1.5", "--elements", "16"],
])
def test_runs_without_scipy(argv):
    # numpy is the only runtime dependency: with scipy unimportable a fresh
    # interpreter prints byte for byte what this process prints.
    script = ("import sys; sys.modules['scipy'] = None; import fkdv.cli; "
              "sys.exit(fkdv.cli.main(sys.argv[1:]))")
    src = str(Path(fkdv.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=600)
    rc, out, _ = _invoke(argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert rc == 0
    assert proc.stdout == out.encode()


# ---------------------------------------------------------------------------
# generated bad inputs: every one exits 2 with one line and writes nothing

def _parses(convert, text: str) -> bool:
    try:
        convert(text)
    except ValueError:
        return False
    return True


def _finite_interval(text: str) -> bool:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        return False
    return 0.0 < hi - lo < math.inf


_EXPERIMENTS = {spec.name for spec in builtin_experiments()}
_BO_T_FINAL = 120.0
# Printable ASCII without outer blanks, which configparser would strip.
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).map(str.strip)
_NOT_FLOAT = _TEXT.filter(lambda t: not _parses(float, t))
_NOT_INT = _TEXT.filter(lambda t: not _parses(int, t))
_NOT_POSITIVE = st.one_of(_NOT_FLOAT, st.floats(max_value=0.0).map(repr),
                          st.sampled_from(["nan", "inf"]))


def _list_ending_in(valid, bad):
    """Comma lists of up to two valid entries, then one bad comma-free entry."""
    return st.tuples(st.lists(valid, max_size=2), bad.filter(lambda t: t and "," not in t)).map(
        lambda parts: ",".join([*parts[0], parts[1]]))


_BAD_SWEEP = st.one_of(
    st.lists(st.integers(4, 4096), min_size=2, max_size=4)
    .filter(lambda v: v != sorted(set(v))).map(lambda v: ",".join(map(str, v))),
    st.lists(st.integers(-8, 3), min_size=1, max_size=3)
    .map(lambda v: ",".join(map(str, sorted(set(v))))),
    _list_ending_in(st.integers(4, 4096).map(str), _NOT_INT),
)
_BAD_REFERENCE = st.one_of(
    _TEXT.filter(lambda t: t != "closed" and not t.startswith(("self:", "spectral:"))),
    st.tuples(st.sampled_from(["self:", "spectral:"]), st.one_of(
        _NOT_INT,
        st.integers(max_value=3).map(str),
        # bo-one sweeps up to N=1024, so M must be a multiple of it.
        st.integers(4, 10**6).filter(lambda m: m % 1024).map(str))).map("".join),
    # The one multiple that is no finer than the sweep.
    st.just("self:1024"),
    # A multiple of every sweep entry that no spectral grid can take.
    st.integers(1, 10**3).map(lambda k: 1024 * k).filter(lambda m: m & (m - 1))
    .map(lambda m: f"spectral:{m}"),
)
_BAD_RUN_FLAGS = {
    "--sweep": _BAD_SWEEP,
    "--reference": _BAD_REFERENCE,
    "--dt-rule": st.one_of(
        _TEXT.filter(lambda t: t != "courant" and not t.startswith("prop:")),
        _NOT_POSITIVE.map(lambda t: "prop:" + t)),
    "--jobs": st.one_of(st.integers(max_value=0).map(str), _NOT_INT),
    "--dt": _NOT_POSITIVE,
    "--tol-factor": _NOT_POSITIVE,
    "--alpha": st.one_of(_NOT_FLOAT, st.floats(max_value=1.0, exclude_max=True).map(repr),
                         st.floats(min_value=2.0).map(repr), st.just("nan")),
}
_BAD_TIMES = st.one_of(
    st.text(st.sampled_from(", "), max_size=4),
    _list_ending_in(st.floats(0.0, _BO_T_FINAL).map(repr), _NOT_FLOAT),
    st.floats().filter(lambda t: not -1e-6 <= t <= _BO_T_FINAL + 1e-6).map(repr),
)


def _ini(key: str, values):
    """INI lines setting key to each value."""
    return values.map(lambda v: f"{key} = {v}")


# One bad [experiment] key each, besides base = bo-one.
_BAD_INI = {
    "base": _ini("base", _TEXT.filter(lambda t: t not in _EXPERIMENTS)),
    "alpha": _ini("alpha", st.one_of(
        _NOT_FLOAT, st.floats(max_value=1.0, exclude_max=True).map(repr),
        st.floats(min_value=2.0).map(repr), st.just("nan"))),
    "t0": _ini("t0", st.one_of(_NOT_FLOAT, st.floats(min_value=_BO_T_FINAL).map(repr),
                               st.sampled_from(["nan", "-inf"]))),
    "t_final": _ini("t_final", st.one_of(_NOT_FLOAT, st.floats(max_value=0.0).map(repr),
                                         st.sampled_from(["nan", "inf"]))),
    "domain": _ini("domain", st.one_of(
        _TEXT, st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True))
        .map(lambda d: f"{d[0]!r}, {d[1]!r}")).filter(lambda t: not _finite_interval(t))),
    "sweep": _ini("sweep", _BAD_SWEEP),
    "dt_value": _ini("dt_value", _NOT_POSITIVE),
    "dt_factor": _ini("dt_factor", _NOT_POSITIVE),
    "tol_factor": _ini("tol_factor", _NOT_POSITIVE),
    "reference": _ini("reference", _BAD_REFERENCE),
    # Any other key, whatever its value: old and misspelt keys among them.
    "unknown": st.tuples(
        st.one_of(st.sampled_from(["dt_rule", "tol-factor", "t_end", "dt"]),
                  st.from_regex(r"[a-z_][a-z0-9_-]{0,11}", fullmatch=True)
                  .filter(lambda k: k not in fkdv.cli._INI_KEYS)),
        _TEXT).map(lambda kv: f"{kv[0]} = {kv[1]}"),
}
_GENERATED = settings(max_examples=50, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if a generated input gets as far as any solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("a generated bad input reached a solve")

    for name in ("l2_project", "assemble_operators", "run", "spectral_reference_solve"):
        monkeypatch.setattr(fkdv.cli, name, refuse)


def _assert_config_error(argv: list[str], tmp_path) -> str:
    """The one config error line of argv, which must write nothing."""
    rc, out, err = _invoke(argv + ["--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    assert out == ""
    assert list(tmp_path.iterdir()) == []
    return lines[0]


@pytest.mark.parametrize("flag", sorted(_BAD_RUN_FLAGS))
@_GENERATED
@given(data=st.data())
def test_generated_bad_run_flags_exit_two(flag, data, tmp_path, no_solve):
    value = data.draw(_BAD_RUN_FLAGS[flag], label=flag)
    _assert_config_error(["run", "--experiment", "bo-one", f"{flag}={value}"], tmp_path)


@_GENERATED
@given(times=_BAD_TIMES)
def test_generated_bad_snapshot_times_exit_two(times, tmp_path, no_solve):
    _assert_config_error(["snapshot", "--experiment", "bo-one", "--elements", "16",
                          f"--times={times}"], tmp_path)


@pytest.fixture
def ini_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ini") / "bad.ini"


@pytest.mark.parametrize("key", sorted(_BAD_INI))
@_GENERATED
@given(data=st.data())
def test_generated_bad_ini_keys_exit_two(key, data, ini_path, tmp_path, no_solve):
    lines = data.draw(_BAD_INI[key], label=key)
    base = "" if key == "base" else "base = bo-one\n"
    ini_path.write_text(f"[experiment]\n{base}{lines}\n")
    # The line names the bad key, outside the file's path; a bad base names
    # the experiment instead.
    name = "" if key == "base" else lines.partition(" = ")[0]
    line = _assert_config_error(["run", "--experiment", str(ini_path)], tmp_path)
    assert name in line.replace(str(ini_path), ""), line
    # A reference that bo-one's sweep cannot use is no error for snapshot,
    # which reads no reference.
    if key != "reference":
        line = _assert_config_error(["snapshot", "--experiment", str(ini_path),
                                     "--elements", "16", "--times", "0"], tmp_path)
        assert name in line.replace(str(ini_path), ""), line
