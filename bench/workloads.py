"""The benchmark's workloads: fixed ``fkdv run`` command lines plus a seed rule.

Each workload is one convergence table, resolved exactly as the command line
resolves it and run in-process through ``fkdv.cli.run_table``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Span names that every table calls (see spans.CLI_TARGETS).
_COMMON = frozenset({
    "fem.l2_project", "assembly.assemble_operators", "assembly.offset_blocks",
    "assembly.zeta", "stepper.run", "stepper.nonlinear_load",
    "circulant.apply_symbol", "diagnostics.relative_error",
    "diagnostics.mass_ratio", "diagnostics.momentum_ratio",
    "diagnostics.hamiltonian_ratio", "diagnostics.convergence_rate",
    "fft.stepper",
})


@dataclass(frozen=True)
class Workload:
    """One table.  ``phases``/``period``/``window`` describe the seed rule.

    With ``phases > 1`` the seed picks a start time t0 = k * period / phases
    (k = seed mod phases) and the run covers [t0, t0 + window]; the closed
    forms are re-bound to the new times, so the reference moves with them.
    ``calls`` are span names the traced run must see; ``absent`` must not
    appear.  Names of the form ``fft.<layer>`` refer to FFTs attributed to
    that layer.
    """

    name: str
    argv: tuple[str, ...]
    calls: frozenset[str]
    absent: frozenset[str] = frozenset()
    phases: int = 1
    period: float = 0.0
    window: float = 0.0

    def phase(self, seed: int) -> int:
        return seed % self.phases

    def table_key(self, seed: int) -> str:
        return f"{self.name}/phase{self.phase(seed)}" if self.phases > 1 else self.name

    def config(self, cli, seed: int):
        """Resolve the command line as ``fkdv run`` does, then apply the seed."""
        cfg = cli._resolve_run_config(cli._build_parser().parse_args(list(self.argv)))
        if self.phases > 1:
            t0 = self.phase(seed) * self.period / self.phases
            cfg = replace(cfg, overrides={**cfg.overrides,
                                          "t0": t0, "t_final": t0 + self.window})
        return cfg


WORKLOADS = {w.name: w for w in [
    Workload(
        name="bo-table",
        argv=("run", "--experiment", "bo-one", "--sweep", "128,256,512,1024",
              "--jobs", "1"),
        calls=_COMMON, absent=frozenset({"spectral.solve", "fft.spectral"}),
        phases=12, period=120.0, window=120.0),
    Workload(
        name="sin-spectral",
        argv=("run", "--experiment", "frac-sin", "--sweep", "512,1024,2048",
              "--reference", "spectral:4096", "--jobs", "1"),
        calls=_COMMON | {"spectral.solve", "fft.spectral"}),
    Workload(
        name="tri-coarse",
        argv=("run", "--experiment", "frac-triangle", "--sweep", "16384,32768",
              "--dt", "0.01", "--reference", "self:65536", "--jobs", "1"),
        calls=_COMMON, absent=frozenset({"spectral.solve", "fft.spectral"})),
    # Seconds-long configuration for the self-tests; not in BENCHMARK.json.
    Workload(
        name="smoke",
        argv=("run", "--experiment", "bo-one", "--sweep", "16,32", "--jobs", "1"),
        calls=_COMMON, absent=frozenset({"spectral.solve", "fft.spectral"}),
        phases=12, period=120.0, window=6.0),
]}
