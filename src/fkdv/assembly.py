"""Assembly of the fractional-Laplacian Galerkin matrices.

The scheme needs three periodic operator matrices, all block-circulant on the
node lattice.  The mass <v_j, v_i> is local and free of alpha (fkdv.fem's); the
two fractional ones are assembled here, one offset at a time:

* disp       <D^alpha d/dx v_j, v_i>          (skew-symmetric)
* gram_half  <D^{alpha/2} v_j, D^{alpha/2} v_i> = <D^alpha v_j, v_i>

with D^alpha = (-Delta)^{alpha/2}, Fourier symbol |k|^alpha.

The real-space backend evaluates the singular pair integrals through the
symmetric difference form

    <D^beta p, v> = (c_beta / 2) * int int (p(x)-p(y)) (v(x)-v(y))
                                           / |x-y|^{1+beta} dx dy,

reduced to one-dimensional integrals of G(u) = int (p(x+u)-p(x)) (v(x+u)-v(x)) dx
against u^{-1-beta}.  G is piecewise polynomial on the mesh lattice and
vanishes like u^2 at the origin, so the singular panel is integrated by exact
fractional moments of the quotient G(u)/u^2 and every remaining panel is
analytic and handled by Gauss points.  Touching and overlapping basis pairs
are computed this way; well-separated pairs (including all periodic images)
use a multipole expansion of the kernel, whose image tails are one Taylor
polynomial in the node offset with Hurwitz zeta coefficients.  An independent
Fourier backend assembles the same matrices from the exact transforms of the
shape functions and serves as the cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.polynomial import polyval

from .circulant import apply_symbol, block_symbol
from .fem import (FemFunction, Grid, gauss_rule, hermite_interpolate,
                  mass_offset_blocks, node_shape_tables)

__all__ = [
    "fractional_order",
    "OperatorMatrices",
    "frac_constant",
    "assemble_offset_blocks",
    "spectral_offset_blocks",
    "assemble_operators",
    "gram_symbol",
    "frac_laplacian_pointwise",
    "operator_identity_report",
]

# Basis pairs closer than this many elements go through the singular pair
# quadrature; everything further is well separated and uses the multipole
# expansion, which converges like (2/|j|)^k there.
_NEAR_OFFSET = 8
_MULTIPOLE_ORDER = 20
_EXPLICIT_IMAGE_SHELLS = 4
# Terms of the image-tail series: 17 leave 4e-14 relative to direct zeta
# values, 20 reach their round-off (2e-15).
_TAIL_TERMS = 24
# Far offsets per batch, which bounds the Vandermonde matrix and its memory.
# BLAS keeps a (2048, 21) @ (21, 4) product on the calling thread, as on every
# grid up to N = 2048; a larger batch wakes a worker, whose buffers add RSS.
_FAR_CHUNK = 1 << 11
# Gauss points per segment of the basis-pair correlations (8 integrates the
# degree-6 products of cubics exactly) and per panel of the one-dimensional
# principal value integrals.
_INNER_PTS = 8
_PV_PTS = 7
# Periodic images summed explicitly by the pointwise evaluation; the
# mean-value tail correction covers the rest.
_POINTWISE_IMAGES = 16
# Fourier modes summed by the spectral backend per element, and per batch.
_MODES_PER_ELEMENT = 3000
_MODE_CHUNK = 1 << 18
# Euler-Maclaurin coefficients (2k)! / B_2k of the Cephes Hurwitz zeta.
_ZETA_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
            7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
            -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)


def fractional_order(alpha) -> float:
    """alpha as a float, checked to lie in [1, 2), the orders of the
    dispersion operator that the Galerkin operators support."""
    a = float(alpha)
    if not 1.0 <= a < 2.0:
        raise ValueError(f"alpha must lie in [1, 2), got {a}")
    return a


def frac_constant(alpha: float) -> float:
    """Normalisation c_alpha of the principal value kernel in one dimension.

    c_alpha = alpha 2^{alpha-1} Gamma((alpha+1)/2) / (sqrt(pi) Gamma(1-alpha/2))
    makes -c_alpha PV int (u(y)-u(x)) / |y-x|^{1+alpha} dy the operator with
    Fourier symbol |k|^alpha.  At alpha = 1 this is 1/pi.
    """
    a = float(alpha)
    if not 0.0 < a < 2.0:
        raise ValueError(f"frac_constant needs alpha in (0, 2), got {a}")
    return (a * 2.0 ** (a - 1.0) * math.gamma((a + 1.0) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(1.0 - a / 2.0)))


# ---------------------------------------------------------------------------
# shape tables
#
# The node-centred shapes (f, g) as two cubic pieces on [-h, 0] and [0, h]
# around their node (see fem.node_shape_tables), and their physical
# derivatives up to the factor 1/h.
_VALUE_TABLES = node_shape_tables(0)
_DERIV_TABLES = node_shape_tables(1)


def _eval_shape_tables(tables: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Evaluate a stack of shapes at physical offsets x from their node.

    tables: (S, 2, 4) piece coefficients, x: any shape; returns (S,) + x.shape.
    """
    t = np.asarray(x, dtype=float) / h
    out = np.zeros(tables.shape[:1] + t.shape)
    for piece, e in enumerate((-1, 0)):
        xi = t - e
        mask = (xi >= 0.0) & (xi <= 1.0) if e == 0 else (xi >= 0.0) & (xi < 1.0)
        out += np.where(mask[None], polyval(xi, tables[:, piece, :].T), 0.0)
    return out


def _correlations(u: np.ndarray, j: int, h: float,
                  test_tables: np.ndarray, trial_tables: np.ndarray) -> np.ndarray:
    """R[a, b, k] = int P_b(x + u_k) U_a(x) dx with the trial node at j*h.

    Exact for the piecewise-cubic shapes: segments split at every kink of
    either factor, Gauss rule of _INNER_PTS per segment.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    shift = j * h
    fixed = np.broadcast_to(np.array([-h, 0.0, h]), u.shape + (3,))
    moving = np.stack([shift - h - u, shift - u, shift + h - u], axis=-1)
    brk = np.concatenate([fixed, moving], axis=-1)
    brk = np.clip(brk, -h, h)
    brk = np.sort(brk, axis=-1)
    base_x, base_w = gauss_rule(_INNER_PTS)
    widths = np.diff(brk, axis=-1)                       # (K, 5)
    x = brk[..., :-1, None] + widths[..., None] * base_x  # (K, 5, _INNER_PTS)
    w = widths[..., None] * base_w
    uvals = _eval_shape_tables(test_tables, x, h)
    pvals = _eval_shape_tables(trial_tables, x + u[:, None, None] - shift, h)
    return np.einsum("aksq,bksq,ksq->abk", uvals, pvals, w)


def _near_pair_blocks(j: int, beta: float, h: float,
                      test_tables: np.ndarray, trial_tables: np.ndarray) -> np.ndarray:
    """<D^beta P_b(. - j h), U_a> for one lattice offset j, all four pairs.

    Valid for any offset but intended for |j| <= _NEAR_OFFSET where supports
    touch or overlap.
    """
    c_beta = frac_constant(beta)
    span = abs(j) + 2

    ip = _correlations(0.0, j, h, test_tables, trial_tables)[..., 0]

    def g_of(u):
        return (2.0 * ip[..., None]
                - _correlations(u, j, h, test_tables, trial_tables)
                - _correlations(-u, j, h, test_tables, trial_tables))

    # Singular panel [0, h], aligned with the polynomial pieces: there
    # G(u) = u^2 * Gt(u/h) with Gt a polynomial of degree <= 5; fit Gt from
    # samples away from the origin and integrate the fractional moments
    # exactly.
    tau = np.linspace(0.25, 1.0, 8)
    gt = g_of(tau * h) / (tau * h) ** 2                  # (2, 2, 8)
    vand = np.vander(tau, 6, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, gt.reshape(4, 8).T, rcond=None)
    inv_pow = 1.0 / (np.arange(6) + 2.0 - beta)
    total = h ** (2.0 - beta) * (inv_pow @ coef).reshape(2, 2)

    # Analytic panels from h up to span*h, aligned with the lattice pieces
    # of G and halved close to the singularity for margin.
    edges = [k * h for k in range(1, span + 1)]
    refined: list[float] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        refined.append(lo)
        if lo < 4.0 * h:
            refined.append(0.5 * (lo + hi))
    refined.append(edges[-1])
    base_x, base_w = gauss_rule(_PV_PTS)
    lo = np.asarray(refined[:-1])
    wid = np.diff(np.asarray(refined))
    upts = (lo[:, None] + wid[:, None] * base_x).ravel()
    wpts = (wid[:, None] * base_w).ravel()
    kernel = wpts * upts ** (-1.0 - beta)
    total = total + np.einsum("abk,k->ab", g_of(upts), kernel)

    # Beyond span*h both correlations vanish and G == 2 <P, U>.  The 1/2 in
    # front of the double integral is spent folding G onto the half line.
    total = total + 2.0 * ip * (span * h) ** (-beta) / beta
    return c_beta * total


def _shape_moments(tables: np.ndarray, h: float, kmax: int) -> np.ndarray:
    """moments[i, s] = int x^i S_s(x) dx over the support, i = 0..kmax."""
    npts = kmax // 2 + 4
    xg, wg = gauss_rule(npts)
    mom = np.zeros((kmax + 1, tables.shape[0]))
    for e in (-1, 0):
        x = (e + xg) * h
        vals = _eval_shape_tables(tables, x + (0.5e-12 * h), h)  # nudge off kinks
        powers = x[None, :] ** np.arange(kmax + 1)[:, None]
        mom += np.einsum("iq,sq,q->is", powers, vals, wg * h)
    return mom


def _pair_moments(test_tables: np.ndarray, trial_tables: np.ndarray,
                  h: float, kmax: int) -> np.ndarray:
    """M[k, a, b] = int int P_b(eta) U_a(xi) (eta - xi)^k deta dxi."""
    mom_u = _shape_moments(test_tables, h, kmax)
    mom_p = _shape_moments(trial_tables, h, kmax)
    out = np.zeros((kmax + 1, 2, 2))
    for k in range(kmax + 1):
        for i in range(k + 1):
            sign = -1.0 if (k - i) % 2 else 1.0
            out[k] += (math.comb(k, i) * sign
                       * np.einsum("b,a->ab", mom_p[i], mom_u[k - i]))
    return out


def _kernel_binom(beta: float, kmax: int) -> np.ndarray:
    """Taylor coefficients of (1 + r)^{-1-beta}: binom(-1-beta, k)."""
    coef = np.empty(kmax + 1)
    coef[0] = 1.0
    for k in range(1, kmax + 1):
        coef[k] = coef[k - 1] * (-(beta + k)) / k
    return coef


@partial(np.vectorize, otypes=[float])
def hurwitz_zeta(x: float, q: float) -> float:
    """zeta(x, q) = sum_{i >= 0} (q + i)^-x for x > 1, q > 0 (elementwise).

    The Cephes zeta (Moshier 1989) step for step: direct terms while i < 9 or
    q + i <= 9, then Euler-Maclaurin with twelve Bernoulli terms, to 2^-53.
    """
    if not (x > 1.0 and q > 0.0):
        raise ValueError(f"hurwitz_zeta needs x > 1 and q > 0, got x={x}, q={q}")
    s, w, i = math.pow(q, -x), q, 0
    while i < 9 or w <= 9.0:
        i, w = i + 1, w + 1.0
        b = math.pow(w, -x)
        s += b
        if abs(b / s) < 2.0 ** -53:
            return s
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_EM:
        a *= x + k
        b /= w
        t = a * b / coef
        s += t
        if abs(t / s) < 2.0 ** -53:
            break
        a, b, k = a * (x + (k + 1.0)), b / w, k + 2.0
    return s


def _add_far_field(blocks: np.ndarray, beta: float, h: float,
                   pair_mom: np.ndarray, binom: np.ndarray, shells: int) -> None:
    """Add the multipole blocks of the explicit shells' far offsets in place.

    Offset j = m + s n (-shells <= s < shells, |j| > _NEAR_OFFSET) carries
    sum_k binom[k] sign^k dist^(-1-beta-k) pair_mom[k], which is
    dist^(-1-beta) times a Vandermonde row of sign/dist applied to one
    (K+1, 4) table.  A batch holds at most _FAR_CHUNK offsets of one shell,
    so its residues m differ.  The near offsets of a shell sit at one end of
    its residues, so a batch's far residues form one contiguous run.
    """
    n = blocks.shape[0]
    table = -frac_constant(beta) * binom[:, None] * pair_mom.reshape(len(binom), 4)
    for s in range(-shells, shells):
        for lo in range(0, n, _FAR_CHUNK):
            j = np.arange(lo, min(lo + _FAR_CHUNK, n)) + s * n
            j = j[np.abs(j) > _NEAR_OFFSET]
            if not j.size:
                continue
            dist = np.abs(j) * h
            # Column k is x^k, formed as np.vander forms it: x^(k-1) * x.
            powers = np.empty((j.size, len(binom)))
            powers[:, 0] = 1.0
            np.divide(np.sign(j), dist, out=powers[:, 1])
            for k in range(2, len(binom)):
                np.multiply(powers[:, k - 1], powers[:, 1], out=powers[:, k])
            far = (powers @ table) * (dist ** (-1.0 - beta))[:, None]
            start = j[0] - s * n
            blocks[start:start + j.size] += far.reshape(-1, 2, 2)


def _image_tail_blocks(n: int, beta: float, h: float,
                       pair_mom: np.ndarray, binom: np.ndarray,
                       shells: int) -> np.ndarray:
    """Sum of the multipole blocks over all |images| beyond ``shells``.

    For residue m the remaining offsets are j = m + s n (s >= shells) and
    j = m - s n (s > shells).  Order k sums to zeta(p, c + y) + (-1)^k
    zeta(p, c - y) with p = 1 + beta + k, c = shells + 1/2, y = m/n - 1/2;
    as |y| <= 1/2 < c, zeta(p, c + y) = sum_r (p)_r / r! zeta(p + r, c) (-y)^r
    (DLMF 25.11), converging like (2c)^-r.  Only the powers r = k (mod 2)
    survive, so all orders fold into one polynomial in y.
    """
    k, r = np.ogrid[:len(binom), :_TAIL_TERMS + 1]
    p = 1.0 + beta + k
    zetas = hurwitz_zeta(1.0 + beta + np.arange(len(binom) + _TAIL_TERMS),
                         shells + 0.5)
    n_r = p + r - 1.0      # binom(n_r, r) = (p)_r / r! as scipy.special.binom forms it
    num = np.ones(n_r.shape)
    for i in range(1, _TAIL_TERMS + 1):
        num *= np.where(i <= r, i + n_r - r, 1.0)
    coef = np.where((k - r) % 2 == 0,
                    2.0 * (-1.0) ** k * binom[:, None] * (n * h) ** -p
                    * (num / np.cumprod(np.maximum(r, 1.0))) * zetas[k + r], 0.0)
    table = np.einsum("kr,kab->rab", coef, pair_mom).reshape(-1, 4)
    # Horner in y in one (n, 4) array, each step as polyval takes it:
    # table[-1] + 0 y, then table[i] + (previous) y.
    y = (np.arange(n) / n - 0.5)[:, None]
    out = np.multiply(y, 0.0, out=np.empty((n, 4)))
    out += table[-1]
    for row in table[-2::-1]:
        out *= y
        out += row
    out *= -frac_constant(beta)
    return out.reshape(n, 2, 2)


def _enforce_structure(blocks: np.ndarray, kind: str) -> np.ndarray:
    """Project onto exact (skew-)symmetry; the raw defect is quadrature noise.

    The mirrored blocks are the one copy made besides the result, and they
    hold the |blocks| and the defect once the result is formed.
    """
    n = blocks.shape[0]
    mirror = blocks[(-np.arange(n)) % n]
    sym = (np.subtract if kind == "disp" else np.add)(blocks, mirror.transpose(0, 2, 1))
    sym *= 0.5
    scale = np.max(np.abs(blocks, out=mirror)) or 1.0
    defect = np.max(np.abs(np.subtract(blocks, sym, out=mirror), out=mirror)) / scale
    if defect > 1e-6:
        raise RuntimeError(
            f"{kind} assembly lost its algebraic structure (defect {defect:.2e})")
    return sym


def assemble_offset_blocks(grid: Grid, alpha, kind: str) -> np.ndarray:
    """Offset blocks of one operator matrix via the real-space quadrature.

    Returns an (N, 2, 2) array; blocks[m] couples test node i to trial node
    i + m.  kind is 'disp' or 'gram_half'; the mass blocks are
    fkdv.fem.mass_offset_blocks.
    """
    if kind not in ("disp", "gram_half"):
        raise ValueError(f"unknown kind {kind!r}")
    a = fractional_order(alpha)
    n, h = grid.n_elems, grid.dx

    test_tables = _VALUE_TABLES
    if kind == "disp":
        trial_tables = _DERIV_TABLES / h
    else:
        trial_tables = _VALUE_TABLES

    blocks = np.zeros((n, 2, 2))
    for j in range(-_NEAR_OFFSET, _NEAR_OFFSET + 1):
        blocks[j % n] += _near_pair_blocks(j, a, h, test_tables, trial_tables)

    shells = _EXPLICIT_IMAGE_SHELLS
    pair_mom = _pair_moments(test_tables, trial_tables, h, _MULTIPOLE_ORDER)
    binom = _kernel_binom(a, _MULTIPOLE_ORDER)
    _add_far_field(blocks, a, h, pair_mom, binom, shells)
    blocks += _image_tail_blocks(n, a, h, pair_mom, binom, shells)
    return _enforce_structure(blocks, kind)


# ---------------------------------------------------------------------------
# Fourier backend

def _shape_fourier_f(theta: np.ndarray) -> np.ndarray:
    """Transform int f(y) exp(-i theta y) dy of the value shape (real, even)."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 0.05
    ts = np.where(small, 1.0, theta)
    s, c = np.sin(ts), np.cos(ts)
    exact = -12.0 * s / ts ** 3 + 24.0 * (1.0 - c) / ts ** 4
    t2 = theta * theta
    series = 1.0 + t2 * (-1.0 / 15.0 + t2 * (1.0 / 560.0 - t2 / 37800.0))
    return np.where(small, series, exact)


def _shape_fourier_g(theta: np.ndarray) -> np.ndarray:
    """Transform of the slope shape (purely imaginary, odd)."""
    theta = np.asarray(theta, dtype=float)
    small = np.abs(theta) < 0.05
    ts = np.where(small, 1.0, theta)
    s, c = np.sin(ts), np.cos(ts)
    exact = (2.0 * c + 4.0) / ts ** 3 - 6.0 * s / ts ** 4
    t2 = theta * theta
    series = theta * (1.0 / 30.0 + t2 * (-1.0 / 630.0 + t2 / 30240.0))
    return -2.0j * np.where(small, series, exact)


def spectral_offset_blocks(grid: Grid, alpha, kind: str) -> np.ndarray:
    """The offset blocks of assemble_offset_blocks(grid, alpha, kind) from
    the Fourier series of the shape functions.

    Sums sigma(k) vhat_b(k) conj(vhat_a(k)) over the modes k = 2 pi l / width,
    0 < |l| <= _MODES_PER_ELEMENT * N, folded onto node offsets by the FFT.
    Independent of the real-space backend in every ingredient.
    """
    if kind not in ("disp", "gram_half"):
        raise ValueError(f"unknown kind {kind!r}")
    n, h, width = grid.n_elems, grid.dx, grid.width
    m_modes = _MODES_PER_ELEMENT * n
    a = fractional_order(alpha)

    accum = np.zeros((n, 2, 2), dtype=complex)
    prefactor = h * h / width
    for start in range(-m_modes, m_modes + 1, _MODE_CHUNK):
        ell = np.arange(start, min(start + _MODE_CHUNK, m_modes + 1))
        ell = ell[ell != 0]
        if not ell.size:
            continue
        theta = 2.0 * np.pi * ell / n
        k = 2.0 * np.pi * ell / width
        basis = np.stack([_shape_fourier_f(theta),
                          _shape_fourier_g(theta)])          # (2, L)
        if kind == "gram_half":
            sigma = np.abs(k) ** a
        else:
            sigma = 1j * k * np.abs(k) ** a
        outer = np.einsum("l,bl,al->lab", prefactor * sigma,
                          basis, basis.conj())
        np.add.at(accum, ell % n, outer)
    blocks = np.fft.fft(accum, axis=0)
    imag = np.max(np.abs(blocks.imag)) / max(np.max(np.abs(blocks.real)), 1e-300)
    if imag > 1e-8:
        raise RuntimeError(f"spectral blocks unexpectedly complex ({imag:.2e})")
    return blocks.real


# ---------------------------------------------------------------------------
# operator record

@dataclass(frozen=True, eq=False)
class OperatorMatrices:
    """What a run reads for one (grid, alpha): the grid and the dispersion
    offset blocks.  A frozen value, so one record serves any number of runs;
    the Gram operator is not held, gram_symbol forms it on each call."""

    grid: Grid
    disp_blocks: np.ndarray


def assemble_operators(grid: Grid, alpha) -> OperatorMatrices:
    """Assemble the dispersion blocks of one (grid, alpha) into a record;
    the blocks are read-only, as the record is frozen."""
    blocks = assemble_offset_blocks(grid, alpha, "disp")
    blocks.flags.writeable = False
    return OperatorMatrices(grid, blocks)


def gram_symbol(grid: Grid, alpha) -> np.ndarray:
    """Symbol of the half-order Gram matrix, assembled and transformed anew."""
    return block_symbol(assemble_offset_blocks(grid, alpha, "gram_half"))


# ---------------------------------------------------------------------------
# pointwise principal value evaluation

def geometric_edges(start: float, stop: float) -> np.ndarray:
    """Panel edges from start to stop, growing geometrically, each panel at
    most twice the last: the kernel varies fastest near ``start``."""
    if not (stop > start > 0.0):
        raise ValueError("need 0 < start < stop")
    n = max(1, int(np.ceil(np.log(stop / start) / np.log(2.0))))
    return start * (stop / start) ** (np.arange(n + 1) / n)


def frac_laplacian_pointwise(u: FemFunction, x, alpha):
    """Pointwise D^alpha u(x) of a periodic Hermite function.

    Uses the symmetrised second difference

        D^alpha u(x) = -c_alpha int_0^inf (u(x+z) + u(x-z) - 2 u(x)) / z^{1+alpha} dz

    with the panel [0, z_1] up to the nearest node integrated in closed form
    (there the difference equals u''(x) z^2 exactly), geometric Gauss panels
    across the periodic images, and a mean-value tail correction beyond the
    last image.  Not defined at nodes themselves for alpha > 1, where the
    curvature jump makes the value infinite; nodes are rejected.
    """
    a = fractional_order(alpha)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_pointwise_single(u, xi, a) for xi in xs])
    return out if np.ndim(x) else float(out[0])


def _pointwise_single(u: FemFunction, x: float, alpha: float) -> float:
    grid = u.grid
    h, width = grid.dx, grid.width
    shells = _POINTWISE_IMAGES
    nodes = grid.nodes()
    images = nodes[None, :] + width * np.arange(-shells, shells + 1)[:, None]
    dist = np.unique(np.abs(images.ravel() - x))
    z1 = dist[0] if dist[0] > 1e-12 * h else (dist[1] if dist.size > 1 else h)
    if dist[0] <= 1e-9 * h and alpha > 1.0 + 1e-12:
        raise ValueError("pointwise value undefined at a node for alpha > 1")
    z_far = (shells + 0.5) * width
    breaks = dist[(dist > z1 * (1 + 1e-12)) & (dist < z_far)]

    total = u.second_deriv(x) * z1 ** (2.0 - alpha) / (2.0 - alpha)

    edges = [np.asarray([z1])]
    prev = z1
    for b in np.append(breaks, z_far):
        if b / prev > 2.0:
            edges.append(geometric_edges(prev, b)[1:])
        else:
            edges.append(np.asarray([b]))
        prev = b
    edge_arr = np.concatenate(edges)
    base_x, base_w = gauss_rule(_PV_PTS)
    lo = edge_arr[:-1]
    wid = np.diff(edge_arr)
    z = (lo[:, None] + wid[:, None] * base_x).ravel()
    w = (wid[:, None] * base_w).ravel()
    ux = u(np.asarray([x]))[0]
    second = u(x + z) + u(x - z) - 2.0 * ux
    total += float(np.sum(second * z ** (-1.0 - alpha) * w))

    mean = float(np.sum(u.coeffs[0::2])) * h / width
    total += 2.0 * (mean - ux) * z_far ** (-alpha) / alpha
    return -frac_constant(alpha) * total


# ---------------------------------------------------------------------------
# identity suite

def operator_identity_report(alpha, n_elems: int) -> dict:
    """Run the operator cross-checks for one (alpha, N) on [0, 2 pi].

    Returns {"checks": [{name, value, tol, passed}, ...], "passed": bool}.
    """
    a = fractional_order(alpha)
    grid = Grid(0.0, 2.0 * np.pi, n_elems)
    disp_blocks = assemble_offset_blocks(grid, a, "disp")
    gram_blocks = assemble_offset_blocks(grid, a, "gram_half")
    checks = []

    def record(name, value, tol):
        checks.append({"name": name, "value": float(value), "tol": tol,
                       "passed": bool(value <= tol)})

    # Each matrix is unitarily similar to the block diagonal of its 2x2
    # symbols, and its transpose to theirs conjugate-transposed; so Frobenius
    # norms (Parseval) and eigenvalues come from the symbols, at any N.
    norm = np.linalg.norm
    disp, gram = block_symbol(disp_blocks), block_symbol(gram_blocks)
    disp_t, gram_t = (s.conj().transpose(1, 0, 2) for s in (disp, gram))
    record("disp_skew_symmetry", norm(disp + disp_t) / norm(disp), 1e-10)
    mass_eigs = np.linalg.eigvalsh(block_symbol(mass_offset_blocks(grid)).transpose(2, 0, 1))
    record("mass_spd_min_eig_negative_part", max(0.0, -mass_eigs.min()), 0.0)
    record("gram_symmetry", norm(gram - gram_t) / norm(gram), 1e-12)
    gram_eigs = np.linalg.eigvalsh(gram.transpose(2, 0, 1))
    scale = np.abs(gram_eigs).max()
    record("gram_psd_negative_part", max(0.0, -gram_eigs.min()) / scale, 1e-10)
    const = np.zeros(grid.n_dofs)
    const[0::2] = 1.0
    record("gram_annihilates_constants",
           norm(apply_symbol(gram, const)) / norm(gram), 1e-10)

    disp_spec = spectral_offset_blocks(grid, a, "disp")
    record("disp_backend_agreement",
           np.linalg.norm(disp_blocks - disp_spec)
           / np.linalg.norm(disp_spec), 1e-6)
    gram_spec = spectral_offset_blocks(grid, a, "gram_half")
    record("gram_backend_agreement",
           np.linalg.norm(gram_blocks - gram_spec)
           / np.linalg.norm(gram_spec), 1e-6)

    # Fourier symbol acting on an interpolated plane wave.  A finer grid keeps
    # the interpolation error of sin(kx) below the quadrature tolerance.
    fine = Grid(grid.left, grid.right, max(512, n_elems))
    kphys = 2.0 * np.pi * max(1, round(4.0 / (fine.width / (2.0 * np.pi)))) / fine.width
    wave = hermite_interpolate(fine,
                               lambda t: np.sin(kphys * t),
                               lambda t: kphys * np.cos(kphys * t))
    # Probes near fixed fractions of the window, each at its offset inside
    # the element on the 512-element grid, so never on a node (where D^alpha
    # of the interpolant is infinite for alpha > 1) whatever N is.
    frac = np.array([0.11, 0.23, 0.371, 0.52, 0.683, 0.817])
    probe = fine.left + fine.dx * (np.floor(frac * fine.n_elems)
                                   + (frac * 512) % 1.0)
    got = frac_laplacian_pointwise(wave, probe, a)
    want = kphys ** a * np.sin(kphys * probe)
    record("pointwise_symbol_error",
           np.max(np.abs(got - want)) / kphys ** a, 1e-4)

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}
