"""Experiment runner: convergence tables, snapshots, operator verification.

Subcommands:

* ``run``      sweep element counts for one experiment, emit a CSV table of
               N, E, C1, C2, C3, rate rows.
* ``snapshot`` write (x, u) profile files at requested times.
* ``verify``   run the operator identity suite for one (alpha, N).

Exit codes: 0 success, 2 configuration error, 3 a diverged solve (every row
of a run, its reference or a snapshot), 4 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .assembly import (assemble_operators, fractional_order,
                       operator_identity_report)
from .diagnostics import (DiagnosticsRow, convergence_rate, hamiltonian_ratio,
                          mass_ratio, momentum_ratio, relative_error)
from .fem import FemFunction, Grid, l2_project
from .solutions import ExperimentSpec, builtin_experiments, get_experiment
from .spectral import SpectralGrid, spectral_reference_solve
from .stepper import FixedPointDivergence, SchemeConfig, run, snap_time

__all__ = ["main", "run_table", "emit_snapshot", "RunConfig"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ALL_DIVERGED = 3
EXIT_VERIFY_FAILED = 4


class ConfigError(Exception):
    """Invalid command line or experiment configuration."""


# INI keys that go to SchemeConfig under the same names.
_STEP_SETTINGS = ("dt_value", "dt_factor", "tol_factor")
# Every key an [experiment] section may hold; any other is a config error.
_INI_KEYS = ("base", "alpha", "t0", "t_final", "domain", "sweep", "reference",
             *_STEP_SETTINGS)


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
    try:
        spec = get_experiment(base_name)
        if overrides:
            spec = replace(spec, **overrides)
        fractional_order(spec.alpha)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0]) from exc
    return spec


def _load_ini(path: Path) -> tuple[str, dict, dict]:
    """Parse an experiment INI file into (base name, spec overrides, settings)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read experiment file {path}: {exc}") from exc
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    unknown = [key for key in section if key not in _INI_KEYS]
    if unknown:
        raise ConfigError(f"{path}: unknown [experiment] key(s) {', '.join(unknown)}; "
                          f"known keys: {', '.join(_INI_KEYS)}")
    if "base" not in section:
        raise ConfigError(f"{path}: 'base' (a built-in experiment name) is required")
    base = section["base"]
    overrides: dict = {}
    settings: dict = {}
    try:
        for key in ("alpha", "t0", "t_final"):
            if key in section:
                overrides[key] = section.getfloat(key)
        if "domain" in section:
            lo, hi = (float(v) for v in section["domain"].split(","))
            overrides["domain"] = (lo, hi)
        if "sweep" in section:
            settings["sweep"] = _parse_sweep(section["sweep"])
        for key in _STEP_SETTINGS:
            if key in section:
                settings[key] = section.getfloat(key)
        if "reference" in section:
            settings["reference"] = _parse_reference(section["reference"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return base, overrides, settings


def _parsed(convert, what: str, text):
    """convert(text); a ValueError there is a config error naming what."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}") from exc


def _parse_sweep(text: str) -> tuple[int, ...]:
    """Comma-separated element counts; empty input means an empty sweep."""
    sweep = _parsed(lambda t: tuple(int(v) for v in t.replace(" ", "").split(",") if v),
                    "sweep", text)
    if list(sweep) != sorted(set(sweep)) or min(sweep, default=4) < 4:
        raise ConfigError(f"sweep must be strictly increasing from at least 4, got {text!r}")
    return sweep


def _parse_reference(text: str) -> tuple:
    if text == "closed":
        return ("closed",)
    for prefix in ("self", "spectral"):
        if text.startswith(prefix + ":"):
            m = _parsed(lambda t: int(t[len(prefix) + 1:]), "reference", text)
            if m < 4:
                raise ConfigError(f"reference resolution too small: {text!r}")
            return (prefix, m)
    raise ConfigError(
        f"bad reference {text!r}; expected closed, self:<M> or spectral:<M>")


def _solve(scheme: SchemeConfig, spec: ExperimentSpec, n: int, times=()):
    """Project, assemble and step one N-element run: (u0, trajectory), with
    the trajectory's profiles at times; run frees the inline operators."""
    grid = Grid(spec.domain[0], spec.domain[1], n)
    u0 = l2_project(grid, spec.initial)
    return u0, run(u0, spec.t0, spec.t_final, assemble_operators(grid, spec.alpha),
                   scheme, times)


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
    if kind == "self" and m <= max(cfg.sweep):    # a row would be its own reference
        raise ConfigError(f"self reference resolution {m} must exceed every sweep entry")
    for n in cfg.sweep:
        if m % n:
            raise ConfigError(
                f"reference resolution {m} must be a multiple of each sweep "
                f"entry (violated by N={n})")
    if kind == "spectral" and m & (m - 1):
        raise ConfigError(f"spectral reference resolution {m} must be a power of two")
    if kind == "self":
        # Not _solve, whose caller keeps u0: run lets go of this one.
        grid = Grid(spec.domain[0], spec.domain[1], m)
        traj = run(l2_project(grid, spec.initial), spec.t0, spec.t_final,
                   assemble_operators(grid, spec.alpha), cfg.scheme)
        return traj.final.node_values.copy()
    sg = SpectralGrid(spec.domain[0], spec.domain[1], m)
    return spectral_reference_solve(spec.initial(sg.points()), spec.alpha, spec.t0,
                                    spec.t_final, sg)


def _row_worker(scheme: SchemeConfig, spec: ExperimentSpec, n: int,
                ref_values: np.ndarray | None) -> RowResult:
    try:
        u0, traj = _solve(scheme, spec, n)
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
        C3=hamiltonian_ratio(u, u0, spec.alpha),
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
        # Imported here, so only a parallel sweep pays the ~16 ms import.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_row_worker, repeat(cfg.scheme), repeat(spec),
                                    cfg.sweep, repeat(ref_values)))
    else:
        results = [_row_worker(cfg.scheme, spec, n, ref_values) for n in cfg.sweep]

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


def emit_snapshot(u: FemFunction, path, reference=None) -> None:
    """Write the node profile of u: columns x, u(x)[, reference(x)]."""
    nodes = u.grid.nodes()
    cols = [nodes, u.node_values]
    if reference is not None:
        cols.append(np.asarray(reference(nodes), dtype=float))
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
    p_run.add_argument("--alpha")
    p_run.add_argument("--sweep", help="comma-separated element counts")
    dt_group = p_run.add_mutually_exclusive_group()
    dt_group.add_argument("--dt", help="explicit time step")
    dt_group.add_argument("--dt-rule",
                          help="'courant' or 'prop:<c>' (dt = c*dx)")
    p_run.add_argument("--tol-factor")
    p_run.add_argument("--reference",
                       help="closed, self:<M>, or spectral:<M>")
    p_run.add_argument("--out", help="output directory for the CSV table")
    p_run.add_argument("--jobs", default="1")

    p_snap = sub.add_parser("snapshot", help="write solution profiles")
    p_snap.add_argument("--experiment", required=True,
                        help=f"built-in name ({known}) or path to an INI file; "
                             "its sweep and reference keys apply to run only")
    p_snap.add_argument("--elements", required=True)
    p_snap.add_argument("--times", required=True,
                        help="comma-separated output times")
    p_snap.add_argument("--alpha")
    p_snap.add_argument("--out", default=".")

    p_verify = sub.add_parser("verify", help="operator identity suite")
    p_verify.add_argument("--alpha", required=True)
    p_verify.add_argument("--elements", default="64")
    return parser


def _out_dir(text: str) -> Path:
    """--out, checked to have a writable directory as nearest existing ancestor."""
    ancestor = Path(text).absolute()
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError(f"bad --out {text!r}: {ancestor} is no writable directory")
    return Path(text)


def _resolve_experiment(args) -> tuple[str, dict, dict]:
    """(base name, spec overrides, INI settings) from --experiment and --alpha.

    --experiment names a built-in experiment or an INI file; --alpha
    overrides the order either way.
    """
    path = Path(args.experiment)
    if path.suffix == ".ini" or path.is_file():
        base, overrides, settings = _load_ini(path)
    else:
        base, overrides, settings = args.experiment, {}, {}
    if args.alpha is not None:
        overrides["alpha"] = _parsed(float, "--alpha", args.alpha)
    return base, overrides, settings


def _scheme(settings: dict, dt: str | None = None, dt_rule: str | None = None,
            tol_factor: str | None = None) -> SchemeConfig:
    """The step settings of an experiment file, then of the flags given.

    --dt and --dt-rule each replace any step size the file gives.  Bad
    settings raise ConfigError, so they stop a command before any solve.
    """
    step = {key: settings[key] for key in _STEP_SETTINGS if key in settings}
    if dt is not None or dt_rule is not None:
        step = {key: value for key, value in step.items() if key == "tol_factor"}
    if dt is not None:
        step["dt_value"] = _parsed(float, "--dt", dt)
    elif dt_rule is not None and dt_rule != "courant":
        if not dt_rule.startswith("prop:"):
            raise ConfigError(f"bad --dt-rule {dt_rule!r}")
        step["dt_factor"] = _parsed(lambda t: float(t[5:]), "--dt-rule", dt_rule)
    if tol_factor is not None:
        step["tol_factor"] = _parsed(float, "--tol-factor", tol_factor)
    try:
        scheme = SchemeConfig(**step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # SchemeConfig admits a negative step, but every experiment runs forward.
    if scheme.dt_value is not None and scheme.dt_value < 0:
        raise ConfigError(f"dt_value must be positive, got {scheme.dt_value}")
    return scheme


def _resolve_run_config(args) -> RunConfig:
    base, overrides, settings = _resolve_experiment(args)
    spec = _resolve_spec(base, overrides)

    sweep = settings.get("sweep", spec.sweep)
    if args.sweep is not None:
        sweep = _parse_sweep(args.sweep)

    # Check the step settings and --jobs now, before any solve or output.
    scheme = _scheme(settings, args.dt, args.dt_rule, args.tol_factor)
    jobs = _parsed(int, "--jobs", args.jobs)
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")

    if args.reference is not None:
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
        out_dir=_out_dir(args.out) if args.out else None,
        jobs=jobs,
    )


def _cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    try:
        results = run_table(cfg)
    except FixedPointDivergence as exc:     # each row catches its own: the reference's
        kind, m = cfg.reference
        print(f"reference {kind}:{m} failed: {exc}", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    csv_text = table_csv(results)
    sys.stdout.write(csv_text)
    for res in results:
        if res.error:
            print(f"row N={res.n_elems} failed: {res.error}", file=sys.stderr)
    if cfg.out_dir is not None:
        out_path = cfg.out_dir / f"{cfg.base_name}-table.csv"
        _atomic_write(out_path, csv_text)
        print(f"wrote {out_path}", file=sys.stderr)
    if results and all(res.row is None for res in results):
        return EXIT_ALL_DIVERGED
    return EXIT_OK


def _cmd_snapshot(args) -> int:
    base, overrides, settings = _resolve_experiment(args)
    spec = _resolve_spec(base, overrides)
    scheme = _scheme(settings)
    times = _parsed(lambda t: [float(v) for v in t.split(",") if v], "--times", args.times)
    if not times:
        raise ConfigError("no output times given")
    elements = _parsed(int, "--elements", args.elements)
    try:
        times = [snap_time(t, spec.t0, spec.t_final) for t in times]
        Grid(spec.domain[0], spec.domain[1], elements)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    names: dict[str, float] = {}    # file name -> its time
    for t in times:
        name = f"{spec.name}-N{elements}-t{t:g}.txt"
        if name in names:
            raise ConfigError(f"--times {names[name]!r} and {t!r} both name {name}")
        names[name] = t

    out = _out_dir(args.out)
    try:
        _, traj = _solve(scheme, spec, elements, times)
    except FixedPointDivergence as exc:     # before any file is written
        print(f"snapshot N={elements} failed: {exc}", file=sys.stderr)
        return EXIT_ALL_DIVERGED
    for name, t in names.items():
        ref = None if spec.exact is None else partial(spec.exact, t=t)
        emit_snapshot(traj.profiles[t], out / name, reference=ref)
        print(f"wrote {out / name}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # Only the arguments map to a config error; a ValueError raised inside
    # the report is a defect and keeps its traceback.
    alpha = _parsed(float, "--alpha", args.alpha)
    elements = _parsed(int, "--elements", args.elements)
    try:
        fractional_order(alpha)
        Grid(0.0, 2.0 * np.pi, elements)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = operator_identity_report(alpha, elements)
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
