"""Experiment runner: convergence tables, snapshots, operator verification.

Subcommands:

* ``run``      sweep element counts for one experiment, emit a CSV table of
               N, E, C1, C2, C3, rate rows.
* ``snapshot`` write (x, u) profile files at requested times.
* ``verify``   run the operator identity suite for one (alpha, N).

Exit codes: 0 success, 2 configuration error, 3 every row diverged,
4 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .assembly import (FractionalOrder, assemble_operators,
                       operator_identity_report)
from .diagnostics import (DiagnosticsRow, convergence_rate, hamiltonian_ratio,
                          mass_ratio, momentum_ratio, relative_error)
from .fem import Grid, l2_project
from .solutions import (ExperimentSpec, builtin_experiments, get_experiment,
                        rebind_closed_forms)
from .spectral import (REFERENCE_DT_FACTOR, SpectralGrid, default_spectral_dt,
                       spectral_reference_solve)
from .stepper import (FixedPointDivergence, SchemeConfig, Trajectory,
                      interpolate_in_time, run)

__all__ = ["main", "run_table", "emit_snapshot", "RunConfig"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_DIVERGED = 3
EXIT_VERIFY_FAILED = 4


class ConfigError(Exception):
    """Invalid command line or experiment configuration."""


# INI keys that go to SchemeConfig under the same names.
_STEP_SETTINGS = ("dt_rule", "dt_value", "dt_factor", "tol_factor")


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one table run."""

    base_name: str
    overrides: dict
    sweep: tuple[int, ...]
    scheme: SchemeConfig
    reference: tuple  # ("closed",) | ("self", M) | ("spectral", M)
    out_dir: Path | None
    jobs: int


@dataclass(frozen=True)
class RowResult:
    n_elems: int
    row: DiagnosticsRow | None
    error: str | None
    max_l2_drift: float = 0.0
    max_mass_drift: float = 0.0
    max_iters: int = 0


def _resolve_spec(base_name: str, overrides: dict) -> ExperimentSpec:
    spec = get_experiment(base_name)
    if overrides:
        spec = rebind_closed_forms(replace(spec, **overrides))
    return spec


def _load_ini(path: Path) -> tuple[str, dict, dict]:
    """Parse an experiment INI file into (base name, spec overrides, settings)."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read experiment file {path}: {exc}") from exc
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    if "base" not in section:
        raise ConfigError(f"{path}: 'base' (a built-in experiment name) is required")
    base = section["base"]
    overrides: dict = {}
    settings: dict = {}
    try:
        if "alpha" in section:
            overrides["alpha"] = section.getfloat("alpha")
        if "t0" in section:
            overrides["t0"] = section.getfloat("t0")
        if "t_final" in section:
            overrides["t_final"] = section.getfloat("t_final")
        if "domain" in section:
            lo, hi = (float(v) for v in section["domain"].split(","))
            overrides["domain"] = (lo, hi)
        if "sweep" in section:
            settings["sweep"] = _parse_sweep(section["sweep"])
        if "dt_rule" in section:
            settings["dt_rule"] = section["dt_rule"]
        for key in ("dt_value", "dt_factor", "tol_factor"):
            if key in section:
                settings[key] = section.getfloat(key)
        if "reference" in section:
            settings["reference"] = _parse_reference(section["reference"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return base, overrides, settings


def _parse_sweep(text: str) -> tuple[int, ...]:
    """Comma-separated element counts; empty input means an empty sweep."""
    try:
        sweep = tuple(int(v) for v in text.replace(" ", "").split(",") if v)
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}") from exc
    if list(sweep) != sorted(set(sweep)):
        raise ConfigError(f"sweep must be strictly increasing, got {text!r}")
    return sweep


def _parse_reference(text: str) -> tuple:
    if text == "closed":
        return ("closed",)
    for prefix in ("self", "spectral"):
        if text.startswith(prefix + ":"):
            try:
                m = int(text[len(prefix) + 1:])
            except ValueError as exc:
                raise ConfigError(f"bad reference {text!r}") from exc
            if m < 4:
                raise ConfigError(f"reference resolution too small: {text!r}")
            return (prefix, m)
    raise ConfigError(
        f"bad reference {text!r}; expected closed, self:<M> or spectral:<M>")


def _solve(cfg: RunConfig, spec: ExperimentSpec, n: int):
    """Project, assemble and step one N-element run: (u0, ops, trajectory)."""
    grid = Grid(spec.domain[0], spec.domain[1], n)
    u0 = l2_project(grid, spec.initial)
    ops = assemble_operators(grid, spec.alpha)
    return u0, ops, run(u0, spec.t0, spec.t_final, ops, cfg.scheme)


def _reference_values(cfg: RunConfig, spec: ExperimentSpec) -> np.ndarray | None:
    """Fine-grid reference node values, or None for closed-form references."""
    if not cfg.sweep:
        return None
    kind = cfg.reference[0]
    if kind == "closed":
        if spec.reference is None:
            raise ConfigError(
                f"experiment {spec.name!r} has no closed-form reference; "
                f"use --reference self:<M> or spectral:<M>")
        return None
    m = cfg.reference[1]
    for n in cfg.sweep:
        if m % n:
            raise ConfigError(
                f"reference resolution {m} must be a multiple of each sweep "
                f"entry (violated by N={n})")
    if kind == "self":
        _, _, traj = _solve(cfg, spec, m)
        return traj.final.node_values.copy()
    sg = SpectralGrid(spec.domain[0], spec.domain[1], m)
    samples = np.asarray(spec.initial(sg.points()), dtype=float)
    dt = REFERENCE_DT_FACTOR * default_spectral_dt(samples, sg)
    return spectral_reference_solve(samples, spec.alpha, spec.t0, spec.t_final,
                                    sg, dt)


def _row_worker(cfg: RunConfig, n: int, ref_values: np.ndarray | None) -> RowResult:
    spec = _resolve_spec(cfg.base_name, cfg.overrides)
    try:
        u0, ops, traj = _solve(cfg, spec, n)
    except FixedPointDivergence as exc:
        return RowResult(n, None, str(exc))
    u = traj.final
    if ref_values is None:
        ref = spec.reference(u.grid.nodes())
    else:
        ref = ref_values[:: len(ref_values) // n]
    row = DiagnosticsRow(
        n_elems=n,
        E=relative_error(u, ref),
        C1=mass_ratio(u, u0),
        C2=momentum_ratio(u, u0),
        C3=hamiltonian_ratio(u, u0, ops),
    )
    return RowResult(
        n, row, None,
        max_l2_drift=max((r.l2_drift for r in traj.reports), default=0.0),
        max_mass_drift=max((r.mass_drift for r in traj.reports), default=0.0),
        max_iters=max((r.iters for r in traj.reports), default=0),
    )


def run_table(cfg: RunConfig) -> list[RowResult]:
    """Run the sweep and return per-row results with rates filled in."""
    spec = _resolve_spec(cfg.base_name, cfg.overrides)
    ref_values = _reference_values(cfg, spec)
    # A fork pool starts all its workers at once, so never ask for idle ones.
    workers = min(cfg.jobs, len(cfg.sweep))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_row_worker, repeat(cfg), cfg.sweep,
                                    repeat(ref_values)))
    else:
        results = [_row_worker(cfg, n, ref_values) for n in cfg.sweep]

    finished: list[RowResult] = []
    prev: DiagnosticsRow | None = None
    for res in results:
        if res.row is not None and prev is not None:
            rate = convergence_rate(prev.E, prev.n_elems, res.row.E, res.row.n_elems)
            res = replace(res, row=replace(res.row, rate=rate))
        if res.row is not None:
            prev = res.row
        finished.append(res)
    return finished


def _format_cell(value: float) -> str:
    return "nan" if value != value else f"{value:.10g}"


def table_csv(results: list[RowResult]) -> str:
    lines = ["N,E,C1,C2,C3,rate"]
    for res in results:
        if res.row is None:
            lines.append(f"{res.n_elems},nan,nan,nan,nan,")
            continue
        r = res.row
        rate = "" if r.rate is None else f"{r.rate:.10g}"
        lines.append(",".join([str(r.n_elems), _format_cell(r.E),
                               _format_cell(r.C1), _format_cell(r.C2),
                               _format_cell(r.C3), rate]))
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path.

    A failure leaves path untouched and no temporary file behind.  The file
    is created like any other, so it gets the usual (umask) permissions.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def emit_snapshot(traj: Trajectory, t: float, path, reference=None) -> None:
    """Write node profiles at time t: columns x, u(x, t)[, reference(x)]."""
    u = interpolate_in_time(traj, t)
    nodes = traj.grid.nodes()
    cols = [nodes, u.node_values]
    if reference is not None:
        cols.append(np.asarray(reference(nodes) if callable(reference)
                               else reference, dtype=float))
    rows = (" ".join(f"{v:.12g}" for v in parts) + "\n" for parts in zip(*cols))
    _atomic_write(Path(path), "".join(rows))


# ---------------------------------------------------------------------------
# argument handling

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkdv",
        description="Crank-Nicolson Galerkin experiments for fractional KdV")
    sub = parser.add_subparsers(dest="command", required=True)

    known = ", ".join(sorted(s.name for s in builtin_experiments()))
    p_run = sub.add_parser("run", help="run a convergence sweep")
    p_run.add_argument("--experiment", required=True,
                       help=f"built-in name ({known}) or path to an INI file")
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--sweep", help="comma-separated element counts")
    dt_group = p_run.add_mutually_exclusive_group()
    dt_group.add_argument("--dt", type=float, help="explicit time step")
    dt_group.add_argument("--dt-rule",
                          help="'courant' or 'prop:<c>' (dt = c*dx)")
    p_run.add_argument("--tol-factor", type=float)
    p_run.add_argument("--reference",
                       help="closed, self:<M>, or spectral:<M>")
    p_run.add_argument("--out", help="output directory for the CSV table")
    p_run.add_argument("--jobs", type=int, default=1)

    p_snap = sub.add_parser("snapshot", help="write solution profiles")
    p_snap.add_argument("--experiment", required=True,
                        help=f"built-in name ({known}) or path to an INI file; "
                             "its sweep, dt and reference keys apply to run only")
    p_snap.add_argument("--elements", type=int, required=True)
    p_snap.add_argument("--times", required=True,
                        help="comma-separated output times")
    p_snap.add_argument("--alpha", type=float)
    p_snap.add_argument("--out", default=".")

    p_verify = sub.add_parser("verify", help="operator identity suite")
    p_verify.add_argument("--alpha", type=float, required=True)
    p_verify.add_argument("--elements", type=int, default=64)
    return parser


def _resolve_experiment(args) -> tuple[str, dict, dict]:
    """(base name, spec overrides, INI settings) from --experiment and --alpha.

    --experiment names a built-in experiment or an INI file; --alpha
    overrides the order either way.
    """
    path = Path(args.experiment)
    if path.suffix == ".ini" or path.is_file():
        base, overrides, settings = _load_ini(path)
    else:
        try:
            get_experiment(args.experiment)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        base, overrides, settings = args.experiment, {}, {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    return base, overrides, settings


def _resolve_run_config(args) -> RunConfig:
    base, overrides, settings = _resolve_experiment(args)
    spec = _resolve_spec(base, overrides)

    sweep = settings.get("sweep", spec.sweep)
    if args.sweep:
        sweep = _parse_sweep(args.sweep)

    step = {key: settings[key] for key in _STEP_SETTINGS if key in settings}
    if args.dt is not None:
        step.update(dt_rule="explicit", dt_value=args.dt)
    elif args.dt_rule == "courant":
        step["dt_rule"] = "courant"
    elif args.dt_rule is not None:
        if not args.dt_rule.startswith("prop:"):
            raise ConfigError(f"bad --dt-rule {args.dt_rule!r}")
        try:
            step.update(dt_rule="proportional",
                        dt_factor=float(args.dt_rule[5:]))
        except ValueError as exc:
            raise ConfigError(f"bad --dt-rule {args.dt_rule!r}") from exc
    if args.tol_factor is not None:
        step["tol_factor"] = args.tol_factor
    # Check the step settings and --jobs now, before any solve or output.
    try:
        scheme = SchemeConfig(**step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")

    if args.reference:
        reference = _parse_reference(args.reference)
    elif "reference" in settings:
        reference = settings["reference"]
    elif spec.reference is not None:
        reference = ("closed",)
    else:
        reference = ("self", 4 * max(sweep, default=4))

    return RunConfig(
        base_name=base,
        overrides=overrides,
        sweep=sweep,
        scheme=scheme,
        reference=reference,
        out_dir=Path(args.out) if args.out else None,
        jobs=args.jobs,
    )


def _cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    results = run_table(cfg)
    csv_text = table_csv(results)
    sys.stdout.write(csv_text)
    for res in results:
        if res.error:
            print(f"row N={res.n_elems} failed: {res.error}", file=sys.stderr)
    if cfg.out_dir is not None:
        name = _resolve_spec(cfg.base_name, cfg.overrides).name
        out_path = cfg.out_dir / f"{name}-table.csv"
        _atomic_write(out_path, csv_text)
        print(f"wrote {out_path}", file=sys.stderr)
    if results and all(res.row is None for res in results):
        return EXIT_ALL_DIVERGED
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    base, overrides, _ = _resolve_experiment(args)
    spec = _resolve_spec(base, overrides)
    try:
        times = [float(v) for v in args.times.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad --times {args.times!r}") from exc
    if not times:
        raise ConfigError("no output times given")
    span = spec.t_final - spec.t0
    for t in times:
        if not spec.t0 - 1e-9 * span <= t <= spec.t_final + 1e-9 * span:
            raise ConfigError(f"time {t} outside [{spec.t0}, {spec.t_final}]")

    grid = Grid(spec.domain[0], spec.domain[1], args.elements)
    u0 = l2_project(grid, spec.initial)
    ops = assemble_operators(grid, spec.alpha)
    traj = run(u0, spec.t0, spec.t_final, ops, SchemeConfig(), snapshot_stride=1)
    out = Path(args.out)
    for t in times:
        ref = None
        if spec.reference is not None and abs(t - spec.t_final) <= 1e-9 * span:
            ref = spec.reference
        path = out / f"{spec.name}-N{args.elements}-t{t:g}.txt"
        emit_snapshot(traj, t, path, reference=ref)
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # Only the arguments map to a config error; a ValueError raised inside
    # the report is a defect and keeps its traceback.
    try:
        FractionalOrder(args.alpha)
        Grid(0.0, 2.0 * np.pi, args.elements)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = operator_identity_report(args.alpha, args.elements)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{check['name']}: {check['value']:.3e} (tol {check['tol']:.1e}) "
              f"{status}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "snapshot":
            return _cmd_snapshot(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
