"""What a large solve holds: owned iterates and traced peaks per layer.

Sizes are counted in symbols: one complex (2, 2, N) array, 64 * N bytes.
tracemalloc counts the allocations themselves, so these bounds do not move
with the machine as a resident-set size does; they do follow the temporaries
that numpy's einsum, FFT and casts make.  They were measured with numpy
2.4.6 at N=16384: l2_project peaks at 2.40 against 2.53 (2.62 when an
apply without buffers made a product block of all N frequencies), the Courant
choose_dt at 2.13 against 2.50 (34.0 when its sup norm took all 17 * N
samples at once), C3's cubic term at 0.63 against 0.75 (2.00 with the whole
(E, 8) array), a dispersion assembly at 2.50 against 2.75, the step
operator at 3.00 against 3.50 (forming its two symbols), a step at 0.44
against 0.75 and a three-step run at 3.51 against 4.25.  The operator and
the run are measured with the record passed inline, as the CLI passes it,
so its dispersion blocks go once the step symbols exist; a run whose caller
keeps the record peaks at 4.01 against the same 4.25.

The subprocess tests hold the BLAS thread count fixed: at two threads no
product or sum of a solve or a diagnostic may wake a BLAS worker, and a table
must read the same at one thread and at two.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import fkdv
import fkdv.assembly
from fkdv.assembly import assemble_offset_blocks, assemble_operators, gram_symbol
from fkdv.circulant import PRODUCT_BLOCK, apply_symbol, block_symbol
from fkdv.diagnostics import hamiltonian_ratio
from fkdv.fem import (Grid, blocked_dot, cube_integral, l2_project, mass_bands, mass_norm,
                      mass_offset_blocks)
from fkdv.solutions import triangle_data
from fkdv.stepper import SchemeConfig, _step_symbols, _StepOperator, choose_dt, run

# The frac-triangle grid at the tri-coarse step; a symbol is 1 MiB here.
N = 16384
SYMBOL = 64 * N
# What a step operator owns, in symbols: (M - dt/2 D)^-1 and M + dt/2 D, a
# complex (2, N) FFT buffer (1/2) and its product block of PRODUCT_BLOCK
# frequencies (1/16 here), the right-hand side (1/4) and two iterates (1/2),
# besides the two 2x2 mass bands.  The operator record holds the dispersion
# blocks (1/2); one passed inline is freed once the step symbols exist.
PRODUCT_BLOCK_BYTES = PRODUCT_BLOCK * 32
OPERATOR_SYMBOLS = 2.0 + 1.25 + PRODUCT_BLOCK_BYTES / SYMBOL
BANDS_BYTES = 64
DISP_SYMBOLS = 0.5


def _owns(coeffs: np.ndarray) -> bool:
    return (coeffs.dtype == np.float64 and coeffs.flags.c_contiguous
            and coeffs.base is None)


def test_iterates_own_their_coefficients(grid64, ops64):
    # A real view of a complex FFT buffer would hold twice its own size.
    coeffs = np.random.default_rng(0).standard_normal(grid64.n_dofs)
    assert _owns(apply_symbol(block_symbol(mass_offset_blocks(grid64)), coeffs))
    u0 = l2_project(grid64, np.sin)
    a_inv, b_symbol = _step_symbols(ops64, 0.01)
    assert _owns(apply_symbol(a_inv, apply_symbol(b_symbol, u0.coeffs)))
    cfg = SchemeConfig(dt_value=0.01)
    traj = run(u0, 0.0, 0.05, ops64, cfg, times=[0.0, 0.02, 0.05])
    assert len(traj.profiles) == 3
    assert all(_owns(u.coeffs) for u in [traj.final, *traj.profiles.values()])


def _traced(fn, symbol_bytes: int = SYMBOL):
    """(result, peak, held): traced peak and retained growth in symbols."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, (peak - base) / symbol_bytes, (held - base) / symbol_bytes


def _array_bytes(obj) -> int:
    """Bytes of the arrays an object's attributes own, tuples included."""
    arrays = [v for value in vars(obj).values()
              for v in (value if isinstance(value, tuple) else (value,))
              if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays if a.base is None)


@pytest.fixture(scope="module")
def grid() -> Grid:
    return Grid(-10.0, 10.0, N)


@pytest.fixture
def tracing():
    """Trace from the test's start: the record's blocks must be traced
    when they are made for their release to count."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    yield
    if not was_tracing:
        tracemalloc.stop()


def test_traced_peaks_per_layer(grid, tracing):
    records = [assemble_operators(grid, 1.5)]
    cfg = SchemeConfig(dt_value=0.01)

    # The mass symbol, made in place into its inverse, the loads, the apply
    # buffers and the result; func is sampled per element block.
    u0, peak, _ = _traced(lambda: l2_project(grid, triangle_data))
    assert peak <= 2.53
    # The Courant step's sup norm evaluates one sample column of N points at
    # a time; all 17 columns at once held 34 symbols.
    _, peak, _ = _traced(lambda: choose_dt(u0, SchemeConfig(), 0.0, 0.1))
    assert peak <= 2.5
    # C3's cubic term evaluates, cubes and sums one element block at a time;
    # the whole (E, 8) array and its cube held 2 symbols.
    _, peak, _ = _traced(lambda: cube_integral(u0))
    assert peak <= 0.75
    # Forming the two symbols holds at most three at once; then the record,
    # passed inline, goes with its dispersion blocks, and the buffers come.
    operator, peak, held = _traced(
        lambda: _StepOperator(grid, 0.01, *_step_symbols(records.pop(), 0.01)))
    assert peak <= 3.5
    assert held == pytest.approx(OPERATOR_SYMBOLS - DISP_SYMBOLS, abs=0.01)
    norm = mass_norm(u0.coeffs, operator.bands)
    (u1, report, _), peak, held = _traced(lambda: operator.step(u0, norm, cfg, 1))
    assert report.iters > 1
    assert peak <= 0.75
    # The new state holds its own 16 * N bytes, a quarter symbol.
    assert held < 0.3
    assert _owns(u1.coeffs)


@pytest.mark.parametrize("kind", ["disp", "gram_half"])
def test_assembly_peak_is_its_blocks_and_a_symbol(grid, kind):
    # The blocks (1/2), the image tail's three (N, 2, 2) arrays and the
    # structure projection's mirror; the far field adds only its batches of
    # 2048 offsets, which held 4 symbols here in batches of 16384.
    blocks, peak, held = _traced(lambda: assemble_offset_blocks(grid, 1.5, kind))
    assert peak <= 2.75
    assert held == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("times", [(), (0.0,)])
def test_a_run_lets_go_of_a_u0_that_no_time_reads(grid64, ops64, monkeypatch, times):
    alive, refs = [], []
    step = _StepOperator.step

    def spy(self, *args):
        alive.append(refs[0]() is not None)
        return step(self, *args)

    def fresh_u0():
        u0 = l2_project(grid64, np.sin)
        refs.append(weakref.ref(u0))
        return u0

    monkeypatch.setattr(_StepOperator, "step", spy)
    traj = run(fresh_u0(), 0.0, 0.03, ops64, SchemeConfig(dt_value=0.01), times)
    # u^0 goes once the first step returns, unless u(t0) reads it; then it
    # is that profile, and lives as long as the trajectory.
    assert alive == [True, bool(times), bool(times)]
    assert refs[0]() is (traj.profiles[0.0] if times else None)
    assert list(traj.profiles) == list(times)


def test_a_run_frees_an_inline_record_before_its_buffers(grid64, monkeypatch):
    # run reads the record only for its step symbols and then drops its name
    # for it, so a record the caller holds no name for goes before the step
    # operator makes its buffers.
    alive, refs = [], []
    init, step = _StepOperator.__init__, _StepOperator.step

    def spy_init(self, *args):
        alive.append(refs[0]() is not None)
        init(self, *args)

    def spy_step(self, *args):
        alive.append(refs[0]() is not None)
        return step(self, *args)

    def fresh_record():
        ops = assemble_operators(grid64, 1.5)
        refs.append(weakref.ref(ops.disp_blocks))
        return ops

    monkeypatch.setattr(_StepOperator, "__init__", spy_init)
    monkeypatch.setattr(_StepOperator, "step", spy_step)
    run(l2_project(grid64, np.sin), 0.0, 0.02, fresh_record(), SchemeConfig(dt_value=0.01))
    assert alive == [False] * 3


_WORKER_CPU = """
import os, sys, time
from fkdv.assembly import assemble_operators
from fkdv.diagnostics import hamiltonian_ratio
from fkdv.fem import Grid, l2_project
from fkdv.solutions import triangle_data
from fkdv.stepper import SchemeConfig, run

def workers():
    main = str(os.getpid())
    return sum(int(open(f"/proc/self/task/{tid}/schedstat").read().split()[0])
               for tid in os.listdir("/proc/self/task") if tid != main)

def settled():
    # BLAS workers spin for a while after their last job, then sleep.
    before = workers()
    for _ in range(100):
        time.sleep(0.05)
        now, before = before, workers()
        if now == before:
            return now
    sys.exit("BLAS workers never went idle")

def project(n):
    return l2_project(Grid(-10.0, 10.0, n), triangle_data)

def prepared(name, n):
    # The call to measure; what it reads is made before the measurement.
    if name == "l2_project":
        return lambda: project(n)
    if name == "assemble_operators":
        return lambda: assemble_operators(Grid(-10.0, 10.0, n), 1.5)
    u0 = project(n)
    if name == "run":
        ops = assemble_operators(Grid(-10.0, 10.0, n), 1.5)
        return lambda: run(u0, 0.0, 0.05, ops, SchemeConfig(dt_value=0.01))
    return lambda: hamiltonian_ratio(u0, u0, 1.5)   # assembles the Gram blocks

for name, sizes in [("l2_project", (16384, 65536)), ("assemble_operators", (16384,)),
                    ("run", (16384, 65536)), ("hamiltonian_ratio", (16384, 65536))]:
    for n in sizes:
        call = prepared(name, n)
        start = settled()
        call()
        print(name, n, settled() - start)
"""

needs_two_cpus = pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="reads /proc on Linux; needs two CPUs for a second BLAS thread")


def _python(code: str, blas_threads: int, *args: str) -> str:
    """stdout of code run in a fresh interpreter at a fixed BLAS thread count."""
    src = str(Path(fkdv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_two_cpus
def test_projection_and_assembly_leave_blas_workers_asleep():
    # A BLAS worker that wakes touches its own buffers, which the process's
    # peak RSS then carries; the element blocks and far-field batches are
    # small enough for BLAS to keep on the calling thread, and every sum over
    # the mesh (the Picard stop's M-norm, C3's two terms) is taken per block,
    # so a run and the Hamiltonian leave them asleep too.
    worker_ns = {" ".join(line.split()[:2]): int(line.split()[2])
                 for line in _python(_WORKER_CPU, 2).splitlines()}
    assert len(worker_ns) == 7
    assert worker_ns == dict.fromkeys(worker_ns, 0)


_TABLE = """
import sys
from fkdv import cli
cfg = cli._resolve_run_config(cli._build_parser().parse_args(sys.argv[1:]))
for row in cli.run_table(cfg):
    print(repr(row))
"""


@needs_two_cpus
def test_a_table_is_the_same_at_any_blas_thread_count():
    # OpenBLAS splits a dot of more than 10000 floats across its threads, so
    # such a sum rounds by the thread count; the rows here have 32768 and
    # 65536 floats, and every full-precision field must match.
    argv = ("run", "--experiment", "frac-triangle", "--sweep", "16384,32768",
            "--dt", "0.01", "--reference", "self:65536", "--jobs", "1")
    one, two = (_python(_TABLE, threads, *argv) for threads in (1, 2))
    assert one.count("RowResult(") == 2
    assert one == two


def test_a_run_holds_only_its_step_operator(grid, tracing):
    u0 = l2_project(grid, triangle_data)
    cfg = SchemeConfig(dt_value=0.01)
    # The record goes in inline, as the CLI passes it, so its blocks go once
    # the step symbols exist.
    records = [assemble_operators(grid, 1.5)]
    traj, peak, held = _traced(lambda: run(u0, 0.0, 0.03, records.pop(), cfg))
    assert traj.n_steps == 3
    assert peak <= 4.25
    # The run returns its final state (1/4); the record is gone with it.
    assert held == pytest.approx(0.25 - DISP_SYMBOLS, abs=0.01)
    # A caller that keeps the record keeps its 0.5 symbol through the run,
    # under the same bound, unchanged by the run, and the run leaves it no
    # more than its final state.
    ops = assemble_operators(grid, 1.5)
    first = ops.disp_blocks.copy()
    traj, peak, held = _traced(lambda: run(u0, 0.0, 0.03, ops, cfg))
    assert peak <= 4.25
    assert held == pytest.approx(0.25, abs=0.01)
    assert _array_bytes(ops) == DISP_SYMBOLS * SYMBOL
    assert np.array_equal(ops.disp_blocks, first)
    # The step operator owns its two symbols, its buffers and the mass
    # bands, nothing more.
    operator = _StepOperator(grid, 0.01, *_step_symbols(ops, 0.01))
    assert _array_bytes(operator) == OPERATOR_SYMBOLS * SYMBOL + BANDS_BYTES
    assert operator.a_inv.nbytes == operator.b_symbol.nbytes == SYMBOL
    assert operator.fft[1].nbytes == PRODUCT_BLOCK_BYTES


def _full_array_norm(blocks: np.ndarray, coeffs: np.ndarray) -> float:
    """The M-norm from offsets 0 and 1 of the full (N, 2, 2) mass array,
    summed by the same blocked dot, so only the bands are under test."""
    nodal = coeffs.reshape(-1, 2)
    product = np.empty(nodal.shape)
    diag = blocked_dot(np.matmul(nodal, blocks[0], out=product), nodal)
    right = np.matmul(nodal, blocks[1], out=product)
    square = diag + 2.0 * (blocked_dot(right[:-1], nodal[1:]) + right[-1] @ nodal[0])
    return math.sqrt(max(float(square), 0.0))


@pytest.mark.parametrize("n", [4, 7, 1000, N])
def test_banded_norm_matches_the_full_mass_array(n: int):
    # The bands are the full array's offsets 0 and 1, so the M-norm keeps
    # its bits.
    grid = Grid(-10.0, 10.0, n)
    bands, blocks = mass_bands(grid), mass_offset_blocks(grid)
    assert np.array_equal(bands, blocks[:2])
    assert bands.nbytes == BANDS_BYTES
    coeffs = np.random.default_rng(n).standard_normal(grid.n_dofs)
    assert mass_norm(coeffs, bands) == _full_array_norm(blocks, coeffs)


def test_c3_assembles_the_gram_once_and_the_bundle_keeps_none(grid, monkeypatch):
    # The record holds only the dispersion blocks, and a run assembles
    # nothing; C3 assembles the Gram blocks on its call, through the module
    # name that the benchmark trace wraps, transforms them once for u and u0
    # and lets the symbol go on return.
    kinds = []
    assemble = fkdv.assembly.assemble_offset_blocks

    def counted(on, alpha, kind):
        kinds.append(kind)
        return assemble(on, alpha, kind)

    monkeypatch.setattr(fkdv.assembly, "assemble_offset_blocks", counted)
    ops = assemble_operators(grid, 1.5)
    assert kinds == ["disp"]
    u0 = l2_project(grid, triangle_data)
    u = run(u0, 0.0, 0.01, ops, SchemeConfig(dt_value=0.01)).final
    assert kinds == ["disp"]
    first = hamiltonian_ratio(u, u0, 1.5)
    assert kinds == ["disp", "gram_half"]
    assert _array_bytes(ops) == DISP_SYMBOLS * SYMBOL
    assert hamiltonian_ratio(u, u0, 1.5) == first
    assert kinds == ["disp", "gram_half", "gram_half"]
    # The symbol is the transform of the blocks, to the bit.
    assert np.array_equal(gram_symbol(grid, 1.5),
                          block_symbol(assemble(grid, 1.5, "gram_half")))
