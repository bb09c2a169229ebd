"""Layer-boundary tracing for the benchmark.

A ``Tracer`` replaces selected names *where their caller looks them up*
(``fkdv.cli.run``, ``fkdv.stepper.apply_symbol``, ``numpy.fft.fft``, ...)
with wrappers that record one span per call: name, start, end, parent and,
for FFTs, the number of input points.  Spans are kept in memory;
``reduce_spans`` turns them into per-layer totals and self times after the run.

Nothing here imports numpy or fkdv at module level, so the arithmetic can be
tested without either.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute, span name).  Each entry is a lookup site: fkdv.cli
# imports these names into its own namespace, so the wrapper must replace
# them there, not in the defining module.
CLI_TARGETS = [
    ("fkdv.cli", "l2_project", "fem.l2_project"),
    ("fkdv.cli", "assemble_operators", "assembly.assemble_operators"),
    ("fkdv.cli", "run", "stepper.run"),
    ("fkdv.cli", "spectral_reference_solve", "spectral.solve"),
    ("fkdv.cli", "relative_error", "diagnostics.relative_error"),
    ("fkdv.cli", "mass_ratio", "diagnostics.mass_ratio"),
    ("fkdv.cli", "momentum_ratio", "diagnostics.momentum_ratio"),
    ("fkdv.cli", "hamiltonian_ratio", "diagnostics.hamiltonian_ratio"),
    ("fkdv.cli", "convergence_rate", "diagnostics.convergence_rate"),
    ("fkdv.stepper", "nonlinear_load", "stepper.nonlinear_load"),
    ("fkdv.stepper", "apply_symbol", "circulant.apply_symbol"),
    ("fkdv.assembly", "assemble_offset_blocks", "assembly.offset_blocks"),
    ("fkdv.assembly", "hurwitz_zeta", "assembly.zeta"),
]
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn")

# Root spans are called from fkdv.cli; their name prefix is their layer.  An
# FFT is attributed to the layer of its outermost enclosing span; per-layer
# FFT metrics are kept for the layers that do (or may come to do) FFT work.
LAYERS = ("fem", "assembly", "stepper", "spectral", "diagnostics")
FFT_LAYERS = ("stepper", "spectral", "assembly")


class TraceGuardError(RuntimeError):
    """A wrapped name is gone, or a predicted layer call never happened."""


def _size(array) -> int:
    size = getattr(array, "size", None)
    if size is None:
        import numpy as np
        size = np.size(array)
    return int(size)


class Tracer:
    """Installs span-recording wrappers; collects spans and run counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []     # (name, start, end, parent, points)
        self.steps = 0
        self.picard_iters = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, fft: bool = False, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              _size(args[0] if args else kwargs["a"]) if fft else 0)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _count_trajectory(self, traj) -> None:
        try:
            reports = traj.reports
            self.steps += traj.n_steps
            self.picard_iters += sum(r.iters for r in reports)
        except AttributeError as exc:
            raise TraceGuardError(
                f"fkdv.stepper.run no longer returns per-step reports: {exc}") from exc

    def _replace(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        """Wrap every target; raise TraceGuardError if one no longer exists."""
        try:
            for mod_name, attr, name in CLI_TARGETS:
                module = importlib.import_module(mod_name)
                if not callable(getattr(module, attr, None)):
                    raise TraceGuardError(
                        f"traced name {mod_name}.{attr} no longer exists")
                hook = self._count_trajectory if name == "stepper.run" else None
                self._replace(module, attr,
                              self._wrap(name, getattr(module, attr), on_return=hook))
            fft_module = importlib.import_module("numpy.fft")
            for attr in FFT_FUNCTIONS:
                if not callable(getattr(fft_module, attr, None)):
                    raise TraceGuardError(f"numpy.fft.{attr} no longer exists")
                self._replace(fft_module, attr,
                              self._wrap(f"fft.{attr}", getattr(fft_module, attr),
                                         fft=True))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlaps between them
    are counted once, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def root_layer(spans: list[tuple], idx: int) -> str:
    """Layer of the outermost span enclosing span ``idx`` (itself included)."""
    while spans[idx][3] >= 0:
        idx = spans[idx][3]
    name = spans[idx][0]
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "other"


def reduce_spans(spans: list[tuple], steps: int, picard_iters: int) -> dict[str, float]:
    """Per-layer totals, counts and self times for one traced table."""
    total: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
    calls = span_calls(spans)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    selfs = self_times(spans)
    stepper_self = sum(s for span, s in zip(spans, selfs) if span[0] == "stepper.run")
    diag = sum(v for k, v in total.items() if k.startswith("diagnostics."))
    run_s = t("stepper.run")
    m = {
        "fem.l2_project_s": t("fem.l2_project"),
        "assembly.assemble_operators_s": t("assembly.assemble_operators"),
        "assembly.offset_blocks_s": t("assembly.offset_blocks"),
        "assembly.zeta_s": t("assembly.zeta"),
        "assembly.zeta_calls": calls.get("assembly.zeta", 0),
        "stepper.run_s": run_s,
        "stepper.steps": steps,
        "stepper.picard_iters": picard_iters,
        "stepper.iters_per_step": picard_iters / steps if steps else 0.0,
        "stepper.iter_us": 1e6 * run_s / picard_iters if picard_iters else 0.0,
        "stepper.nonlinear_load_s": t("stepper.nonlinear_load"),
        "stepper.nonlinear_load_calls": calls.get("stepper.nonlinear_load", 0),
        "stepper.self_s": stepper_self,
        "circulant.apply_symbol_s": t("circulant.apply_symbol"),
        "circulant.apply_symbol_calls": calls.get("circulant.apply_symbol", 0),
        "spectral.solve_s": t("spectral.solve"),
        "diagnostics.s": diag,
        "fft.calls": 0,
        "fft.points": 0,
        "fft.s": 0.0,
    }
    for layer in FFT_LAYERS:
        for key in ("calls", "points", "s"):
            m[f"fft.{layer}.{key}"] = 0.0 if key == "s" else 0
    for idx, (name, start, end, _, points) in enumerate(spans):
        if not name.startswith("fft."):
            continue
        layer = root_layer(spans, idx)
        for prefix in ("fft.", f"fft.{layer}."):
            if prefix + "calls" in m:
                m[prefix + "calls"] += 1
                m[prefix + "points"] += points
                m[prefix + "s"] += end - start
    return m


def span_calls(spans: list[tuple]) -> dict[str, int]:
    """Number of calls per span name."""
    calls: dict[str, int] = {}
    for span in spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return calls
