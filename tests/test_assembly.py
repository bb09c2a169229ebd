"""Operator assembly: quadrature helpers, circulant algebra, matrix identities.

The dispersion and Gram matrices have two fully independent constructions
(real-space singular quadrature and Fourier mode sums); several tests here
pit them against each other so a wrong kernel constant or symbol power
cannot pass unnoticed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import zeta

from fkdv import assembly, circulant
from fkdv.assembly import (
    FractionalOrder,
    OperatorMatrices,
    assemble_offset_blocks,
    assemble_operators,
    frac_constant,
    frac_laplacian_pointwise,
    spectral_offset_blocks,
)
from fkdv.assembly import (
    _DERIV_TABLES,
    _EXPLICIT_IMAGE_SHELLS,
    _MULTIPOLE_ORDER,
    _NEAR_OFFSET,
    _VALUE_TABLES,
    _add_far_field,
    _image_tail_blocks,
    _kernel_binom,
    _pair_moments,
    _shape_fourier_f,
    _shape_fourier_g,
)
from fkdv.circulant import (
    apply_symbol,
    block_circulant_dense,
    block_symbol,
    invert_symbol,
)
from fkdv.fem import Grid, l2_project, mass_offset_blocks
from fkdv.quad import gauss_rule, geometric_edges

# ---------------------------------------------------------------------------
# quadrature helpers


def test_gauss_rule_polynomial_exactness():
    for npts in (1, 2, 4, 8):
        x, w = gauss_rule(npts)
        for deg in range(2 * npts):
            got = float(np.sum(w * x**deg))
            assert got == pytest.approx(1.0 / (deg + 1), abs=1e-14)


def test_gauss_rule_validation():
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_geometric_edges_bounds_and_ratio():
    edges = geometric_edges(0.01, 7.3)
    assert edges[0] == pytest.approx(0.01)
    assert edges[-1] == pytest.approx(7.3)
    ratios = edges[1:] / edges[:-1]
    assert np.all(ratios <= 2.0 + 1e-12)
    with pytest.raises(ValueError):
        geometric_edges(0.0, 1.0)
    with pytest.raises(ValueError):
        geometric_edges(1.0, 0.5)


# ---------------------------------------------------------------------------
# block-circulant algebra


def _random_blocks(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2, 2))


def test_dense_matches_naive_bookkeeping():
    n = 6
    blocks = _random_blocks(n, seed=11)
    dense = block_circulant_dense(blocks)
    naive = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for j in range(n):
            naive[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blocks[(j - i) % n]
    assert dense == pytest.approx(naive, abs=0.0)


def test_apply_routes_agree_with_dense():
    n = 8
    blocks = _random_blocks(n, seed=1)
    dense = block_circulant_dense(blocks)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(2 * n)
    want = dense @ v
    scale = np.linalg.norm(want)
    symbol = block_symbol(blocks)
    assert np.linalg.norm(apply_symbol(symbol, v) - want) < 1e-12 * scale


def test_invert_symbol_inverts_apply():
    n = 8
    blocks = _random_blocks(n, seed=3)
    blocks[0] += 10.0 * np.eye(2)  # keep every frequency block invertible
    symbol = block_symbol(blocks)
    inverse = invert_symbol(symbol)
    assert inverse == pytest.approx(np.linalg.inv(symbol), rel=1e-12)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(2 * n)
    x = apply_symbol(inverse, b)
    assert apply_symbol(symbol, x) == pytest.approx(b, abs=1e-10)


# ---------------------------------------------------------------------------
# mass matrix


def test_mass_block_zero_rationals():
    grid = Grid(0.0, 3.0, 6)
    blocks = mass_offset_blocks(grid)
    dx = grid.dx
    want = np.array([[26.0 / 35.0 * dx, 0.0], [0.0, 2.0 / 105.0 * dx]])
    assert blocks[0] == pytest.approx(want, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 512), st.integers(0, 2**32 - 1))
def test_banded_l2_norm_matches_symbol_apply(n: int, seed: int):
    grid = Grid(-1.0, 2.0, n)
    blocks = mass_offset_blocks(grid)
    ops = OperatorMatrices(grid, 1.5, blocks, np.zeros_like(blocks),
                           np.zeros_like(blocks))
    c = np.random.default_rng(seed).standard_normal(grid.n_dofs)
    want = math.sqrt(float(c @ apply_symbol(ops.mass_symbol, c)))
    assert ops.l2_norm(c) == pytest.approx(want, rel=1e-13)


def test_mass_matrix_spd(grid64):
    mass = block_circulant_dense(mass_offset_blocks(grid64))
    assert mass == pytest.approx(mass.T, abs=1e-14)
    assert np.linalg.eigvalsh(mass).min() > 0.0


def test_mass_row_sums_reproduce_trapezoid(grid64):
    # <u, 1> through the mass matrix collapses to dx * sum of node values:
    # this identity is why the scheme conserves the trapezoid mass exactly.
    mass = block_circulant_dense(mass_offset_blocks(grid64))
    ones = np.zeros(grid64.n_dofs)
    ones[0::2] = 1.0
    rng = np.random.default_rng(8)
    c = rng.standard_normal(grid64.n_dofs)
    got = float(ones @ (mass @ c))
    want = grid64.dx * float(np.sum(c[0::2]))
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# dispersion and Gram matrices


def test_dispersion_skew_symmetry(ops64):
    disp = block_circulant_dense(ops64.disp_blocks)
    scale = np.linalg.norm(disp)
    rng = np.random.default_rng(12)
    worst = max(
        abs(float(c @ (disp @ c))) / (float(c @ c) * scale)
        for c in rng.standard_normal((200, disp.shape[0]))
    )
    assert worst < 1e-9
    assert np.linalg.norm(disp + disp.T) / scale < 1e-10


def test_dispersion_annihilates_constants(ops64):
    const = np.zeros(ops64.grid.n_dofs)
    const[0::2] = 1.0
    disp = block_circulant_dense(ops64.disp_blocks)
    assert np.linalg.norm(disp @ const) / np.linalg.norm(disp) < 1e-9


def test_gram_symmetric_psd_with_constants_in_kernel(ops64):
    gram = block_circulant_dense(ops64.gram_blocks)
    assert np.linalg.norm(gram - gram.T) / np.linalg.norm(gram) < 1e-12
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() > -1e-10 * np.abs(eigs).max()
    const = np.zeros(ops64.grid.n_dofs)
    const[0::2] = 1.0
    assert np.linalg.norm(gram @ const) / np.linalg.norm(gram) < 1e-9


def test_symbol_application_matches_dense(ops64):
    rng = np.random.default_rng(21)
    v = rng.standard_normal(ops64.grid.n_dofs)
    for blocks, symbol in (
        (ops64.disp_blocks, ops64.disp_symbol),
        (ops64.mass_blocks, ops64.mass_symbol),
        (ops64.gram_blocks, ops64.gram_symbol),
    ):
        want = block_circulant_dense(blocks) @ v
        got = apply_symbol(symbol, v)
        scale = max(np.linalg.norm(want), 1e-300)
        assert np.linalg.norm(got - want) < 1e-12 * scale


def test_backends_agree_on_dispersion_blocks():
    grid = Grid(0.0, 2.0 * np.pi, 32)
    real = assemble_offset_blocks(grid, 1.5, "disp")
    spec = spectral_offset_blocks(grid, "disp", 1.5, m_modes=3000 * 32)
    rel = np.linalg.norm(real - spec) / np.linalg.norm(spec)
    assert rel < 1e-6


def test_backends_agree_on_gram_blocks():
    grid = Grid(0.0, 2.0 * np.pi, 32)
    real = assemble_offset_blocks(grid, 1.5, "gram_half")
    spec = spectral_offset_blocks(grid, "gram_half", 1.5, m_modes=3000 * 32)
    rel = np.linalg.norm(real - spec) / np.linalg.norm(spec)
    assert rel < 1e-6


def _multipole_inputs(n: int, alpha: float, kind: str):
    """(h, pair moments, kernel binomials) as assemble_offset_blocks builds them."""
    h = 2.0 * np.pi / n
    trial = _DERIV_TABLES / h if kind == "disp" else _VALUE_TABLES
    return (h, _pair_moments(_VALUE_TABLES, trial, h, _MULTIPOLE_ORDER),
            _kernel_binom(alpha, _MULTIPOLE_ORDER))


@pytest.mark.parametrize("kind", ["disp", "gram_half"])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 1.999])
@pytest.mark.parametrize("n", [4, 5, 9, 64, 1024])
def test_image_tail_matches_hurwitz_zeta_per_residue(n, alpha, kind):
    # Oracle: each order's two image sums evaluated by scipy's Hurwitz zeta
    # at every residue's own argument, no series.
    h, pair_mom, binom = _multipole_inputs(n, alpha, kind)
    shells = _EXPLICIT_IMAGE_SHELLS
    m_frac = np.arange(n) / n
    want = np.zeros((n, 2, 2))
    for k in range(_MULTIPOLE_ORDER + 1):
        p = 1.0 + alpha + k
        pos = zeta(p, shells + m_frac)
        neg = zeta(p, shells + 1.0 - m_frac) * (-1.0) ** k
        want += ((binom[k] * (n * h) ** (-p) * (pos + neg))[:, None, None]
                 * pair_mom[k])
    want *= -frac_constant(alpha)
    got = _image_tail_blocks(n, alpha, h, pair_mom, binom, shells)
    scale = np.max(np.abs(want), axis=0)
    assert np.all(scale > 0.0)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("n, chunk", [(5, None), (4096, None), (4096, 1000)])
@pytest.mark.parametrize("kind", ["disp", "gram_half"])
def test_far_field_matches_per_order_sum(kind, n, chunk, monkeypatch):
    # Oracle: every far offset of the explicit shells, one power per order,
    # scattered onto residues in offset order.  At N = 5 near offsets fall in
    # four shells; at N = 4096 the 8N offsets fill eight default batches, and
    # a batch of 1000 also splits each shell into five.
    if chunk is not None:
        monkeypatch.setattr(assembly, "_FAR_CHUNK", chunk)
    alpha = 1.5
    h, pair_mom, binom = _multipole_inputs(n, alpha, kind)
    shells = _EXPLICIT_IMAGE_SHELLS
    j = np.arange(-shells * n, shells * n)
    j = j[np.abs(j) > _NEAR_OFFSET]
    dist, sign = np.abs(j) * h, np.sign(j)
    contrib = np.zeros(j.shape + (2, 2))
    for k in range(_MULTIPOLE_ORDER + 1):
        contrib += ((binom[k] * sign ** k * dist ** (-1.0 - alpha - k))[:, None, None]
                    * pair_mom[k])
    want = np.zeros((n, 2, 2))
    np.add.at(want, j % n, -frac_constant(alpha) * contrib)
    got = np.zeros((n, 2, 2))
    _add_far_field(got, alpha, h, pair_mom, binom, shells)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_gram_symbol_is_square_of_half_order():
    # Semigroup property: the Gram of D^{alpha/2} must carry the multiplier
    # (|k|^{alpha/2})^2, not |k|^{alpha/2} or |k|^{2 alpha}.  Rebuild the
    # blocks by a direct mode sum with the squared half-order symbol.
    alpha = 1.5
    n, m_modes = 16, 5000
    grid = Grid(0.0, 2.0 * np.pi, n)
    ell = np.arange(-m_modes, m_modes + 1)
    ell = ell[ell != 0]
    theta = 2.0 * np.pi * ell / n
    k = 2.0 * np.pi * ell / grid.width
    basis = np.stack([_shape_fourier_f(theta), _shape_fourier_g(theta)])
    sigma = (np.abs(k) ** (alpha / 2.0)) ** 2
    phase = np.exp(-2.0j * np.pi * np.outer(np.arange(n), ell) / n)
    pref = grid.dx * grid.dx / grid.width
    direct = np.einsum(
        "ml,l,bl,al->mab", phase, pref * sigma, basis, basis.conj()
    ).real
    packaged = spectral_offset_blocks(grid, "gram_half", alpha, m_modes)
    rel = np.linalg.norm(direct - packaged) / np.linalg.norm(packaged)
    assert rel < 1e-10


# ---------------------------------------------------------------------------
# kernel constant


def test_frac_constant_at_one():
    assert frac_constant(1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_frac_constant_reflection_identity():
    # Independent route: int_0^inf (1 - cos z) z^{-1-a} dz equals
    # pi / (2 Gamma(1+a) sin(a pi / 2)), so c_a times twice that must be 1.
    for a in (1.0, 1.2, 1.5, 1.7, 1.95):
        closed = math.pi / (2.0 * math.gamma(1.0 + a) * math.sin(a * math.pi / 2.0))
        assert frac_constant(a) * 2.0 * closed == pytest.approx(1.0, abs=1e-12)


def test_frac_constant_against_numerical_kernel_integral():
    a = 1.5
    head, _ = scipy_quad(lambda z: (2.0 - 2.0 * np.cos(z)) / z ** (1.0 + a), 0.0, 50.0, limit=400)
    # Oscillatory tail: 2 z^{-1-a} integrates in closed form, the cos part
    # is bounded by the envelope and alternates, so 50 cycles suffice.
    tail = 2.0 / (a * 50.0**a)
    osc = sum(
        scipy_quad(lambda z: -2.0 * np.cos(z) / z ** (1.0 + a), x0, x0 + 2.0 * np.pi)[0]
        for x0 in 50.0 + 2.0 * np.pi * np.arange(40)
    )
    assert frac_constant(a) * (head + tail + osc) == pytest.approx(1.0, abs=1e-6)


def test_frac_constant_validation():
    for bad in (0.0, 2.0, -1.0, 2.4):
        with pytest.raises(ValueError):
            frac_constant(bad)


# ---------------------------------------------------------------------------
# pointwise principal value evaluation


def test_pointwise_symbol_on_projected_sine():
    grid = Grid(0.0, 2.0 * np.pi, 64)
    u = l2_project(grid, np.sin)
    pts = grid.nodes()[:8] + 0.37 * grid.dx
    # Tolerances sit close above the measured discretisation error, which
    # keeps them sensitive to even per-mille errors in the kernel constant.
    for alpha, tol in ((1.0, 1e-5), (1.5, 1e-4), (1.9, 5e-4)):
        got = frac_laplacian_pointwise(u, pts, alpha)
        assert np.max(np.abs(got - np.sin(pts))) < tol


def test_pointwise_rejects_nodes_above_order_one():
    grid = Grid(0.0, 2.0 * np.pi, 16)
    u = l2_project(grid, np.sin)
    with pytest.raises(ValueError):
        frac_laplacian_pointwise(u, grid.nodes()[3], 1.5)
    # At alpha = 1 the curvature jump is still integrable.
    val = frac_laplacian_pointwise(u, grid.nodes()[3], 1.0)
    assert np.isfinite(val)


# ---------------------------------------------------------------------------
# validation


def test_fractional_order_bounds():
    assert float(FractionalOrder(1.0)) == 1.0
    assert float(FractionalOrder(1.999)) == 1.999
    for bad in (0.9, 2.0, 2.5):
        with pytest.raises(ValueError):
            FractionalOrder(bad)


def test_spectral_blocks_validation():
    grid = Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        spectral_offset_blocks(grid, "disp", 1.5, m_modes=4)
    with pytest.raises(ValueError):
        spectral_offset_blocks(grid, "nonsense", 1.5, m_modes=64)


def test_assemble_accepts_wrapped_order():
    grid = Grid(0.0, 1.0, 8)
    ops = assemble_operators(grid, FractionalOrder(1.25))
    assert ops.alpha == 1.25


def test_identity_report_builds_no_dense_matrix(monkeypatch):
    # The structural checks read the 2x2 symbols, so the report has no size
    # limit; any dense 2N x 2N matrix or eigenproblem fails this test.
    def refuse(blocks):
        raise AssertionError("dense block-circulant matrix materialised")

    for module in (circulant, assembly):
        monkeypatch.setattr(module, "block_circulant_dense", refuse, raising=False)
    eigvalsh = np.linalg.eigvalsh

    def symbol_eigvalsh(a, *args, **kwargs):
        assert np.shape(a)[-2:] == (2, 2), "dense eigenproblem"
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", symbol_eigvalsh)
    report = assembly.operator_identity_report(1.5, 16)
    assert report["passed"], report["checks"]
