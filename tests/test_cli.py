"""Command line interface: table runs, snapshots, verification, exit codes.

All invocations go through ``main`` in-process so exit codes and emitted text
can be asserted directly.
"""
from __future__ import annotations

import contextlib
import io
import warnings

import numpy as np
import pytest

import fkdv.cli
from fkdv.cli import EXIT_ALL_DIVERGED, EXIT_CONFIG, emit_snapshot, main
from fkdv.fem import FemFunction, Grid
from fkdv.solutions import bo_soliton
from fkdv.stepper import SchemeConfig, StepReport, Trajectory

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


def test_run_uses_cache_directory(tmp_path):
    cache = tmp_path / "cache"
    rc, _, _ = _invoke(["run", "--experiment", "frac-sin", "--sweep", "8",
                        "--dt", "0.7", "--cache", str(cache)])
    assert rc == 0
    assert list(cache.glob("*.blocks"))


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
    ["run", "--experiment", "/tmp/does-not-exist.ini"],
])
def test_run_config_errors_exit_two(argv):
    rc, _, err = _invoke(argv)
    assert rc == EXIT_CONFIG
    assert "config error" in err


@pytest.mark.parametrize("flags, ini", [
    (["--tol-factor", "0"], None),
    ([], "dt_rule = bogus\n"),
    ([], "dt_rule = explicit\n"),      # no dt_value
])
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
    rc, out, err = _invoke(["run", "--experiment", experiment, "--sweep", "8",
                            "--out", str(tmp_path / "out"), *flags])
    assert rc == EXIT_CONFIG
    assert "config error" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


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
    assert early.shape == (64, 2)
    assert final.shape == (64, 3)  # closed-form column only at the final time
    np.testing.assert_allclose(early[:, 0], np.linspace(-15.0, 15.0, 65)[:-1],
                               atol=1e-9)
    # the wave returns to its starting position after one period
    assert abs(final[:, 1].max() - crest) < 5e-3
    assert abs(final[:, 2].max() - crest) < 1e-9
    assert (tmp_path / "bo-one-N64-t60.txt").exists()
    assert err.count("wrote") == 3


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
])
def test_snapshot_config_errors_exit_two(argv, tmp_path, monkeypatch):
    # Without --out the files would land in the working directory; a config
    # error must leave nothing there.
    monkeypatch.chdir(tmp_path)
    rc, _, err = _invoke(argv)
    assert rc == EXIT_CONFIG
    assert "config error" in err
    assert not list(tmp_path.iterdir())


def test_emit_snapshot_zero_state_and_array_reference(tmp_path):
    grid = Grid(0.0, 1.0, 8)
    zero = FemFunction(grid, np.zeros(grid.n_dofs))
    blank = StepReport(iters=1, final_residual=0.0, l2_drift=0.0,
                       mass_drift=0.0, contraction=0.0)
    traj = Trajectory(grid, SchemeConfig(alpha=1.5), 0.1, 0.0,
                      [(0, zero), (1, zero)], [blank])
    ref = np.arange(8, dtype=float)
    path = tmp_path / "profile.txt"
    emit_snapshot(traj, 0.05, path, reference=ref)
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


def test_verify_rejects_alpha_two():
    rc, _, err = _invoke(["verify", "--alpha", "2.0"])
    assert rc == EXIT_CONFIG
    assert "config error" in err
