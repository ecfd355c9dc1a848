"""Independent numerical oracles used to cross-check the package.

Everything here deliberately avoids the package's own algorithms:
eigenvalues come from a finite-difference Hamiltonian (dense tridiagonal,
Richardson-extrapolated), transforms from plain dense Simpson quadrature
and a dense Filon rule over every panel (no parity fold, Gauss-Legendre
panel moments), derivatives from high-order stencils,
half-periods from quadrature of the defining integral (the package uses
closed forms), the Airy boundary determinant from scipy's Airy
functions, and CSV bytes from formatting each value on its own (the
package formats blocks of rows with one %-format per block).

Five references are the package's own earlier paths.  Closed-court
levels come from an energy scan of each parity's boundary determinant,
stepped by a fifth of the local level spacing, with every sign change
refined by safeguarded Newton steps (the package solves for each level by
quantum number from the Airy phases); its constants are copies, so a change
to the package's leaves it as it is.  Infinite-well levels are listed
parity by parity in an open-ended loop, then sorted (the package lists them
in energy order up to a closed-form count), to show that the listing
changed no bit.  The third bounds a new path's rounding: closed-court eigenstates
from Airy values at every point of the x >= 0 half (the package evaluates
Airy functions at block starts only and sums each block's Taylor series).
The fourth does too: the position gap of a comparison on the whole mirrored
grid (the package takes it on the nodes x >= 0, where every quantity in it
is even).  The fifth is the Airy anchors' Taylor table, rebuilt as it was
when each local series carried its slope rows, to show that it changed no
bit.

The classical quantities also keep their earlier per-kind closed forms
(the package derives them all from one constant-force arc): the
potential, half-period, position and momentum CDFs, orbit, default
position grid and momentum density, each with a separate formula for the
bouncer, the infinite well and the closed court.
"""

import math

import numpy as np
from scipy import linalg, special
from scipy.integrate import simpson

from wellprob import airy, quantum
from wellprob.airy import airy_eval_many
from wellprob.classical import classical_position_density
from wellprob.model import PotentialKind, classical_state


def fd_eigenvalues(a, v0, e_max, hbar=1.0, mass=0.5, n=3000):
    """Dirichlet finite-difference eigenvalues below e_max, h^4 accurate.

    Solves the tridiagonal -hbar^2/2m psi'' + V0 |x|/a psi on (-a, a) at two
    resolutions and Richardson-extrapolates the h^2 error away.
    """

    def eigs(n_int):
        x = np.linspace(-a, a, n_int + 1)[1:-1]
        h = 2.0 * a / n_int
        diag = hbar ** 2 / (mass * h * h) + v0 * np.abs(x) / a
        off = -hbar ** 2 / (2.0 * mass * h * h) * np.ones(len(x) - 1)
        return linalg.eigh_tridiagonal(
            diag, off, select="v", select_range=(-1e30, e_max + 1.0))[0]

    w1 = eigs(n)
    w2 = eigs(2 * n)
    k = min(len(w1), len(w2))
    merged = (4.0 * w2[:k] - w1[:k]) / 3.0
    return merged[merged <= e_max]


def simpson_transform(x, psi, p_values, hbar=1.0):
    """Momentum wavefunction by dense Simpson on the oscillatory integrand."""
    out = np.empty(len(p_values), dtype=complex)
    for i, p in enumerate(p_values):
        out[i] = simpson(psi * np.exp(1j * p * x / hbar), x=x)
    return out / np.sqrt(2.0 * np.pi * hbar)


_TRANSFORM_CHUNK = 256  # momenta per dense phase block in panel_sums_dense


def panel_sums_dense(q, centers, rows):
    """sum_j rows[r, j] exp(i q_m c_j) for any q, one phase block at a time:
    the dense O(N M) reference for the chirp-z panel sums of the transform."""
    sums = np.empty((len(rows), len(q)), dtype=complex)
    for start in range(0, len(q), _TRANSFORM_CHUNK):
        block = slice(start, start + _TRANSFORM_CHUNK)
        sums[:, block] = rows @ np.exp(1.0j * np.outer(centers, q[block]))
    return sums


def filon_transform_full(grid, psi, p, hbar=1.0):
    """phi(p) by the transform's piecewise-quadratic Filon rule over every
    panel of the grid, with no use of parity: dense panel sums, and panel
    moments int_{-h}^{h} s^j exp(i q s) ds by 24-point Gauss-Legendre, exact
    to rounding while |q h| stays below a few (the transform's resolution
    rule keeps it below 0.16)."""
    h = grid[1] - grid[0]
    f_left, f_center, f_right = psi[0:-2:2], psi[1:-1:2], psi[2::2]
    rows = np.stack([f_center, (f_right - f_left) / (2.0 * h),
                     (f_right - 2.0 * f_center + f_left) / (2.0 * h * h)])
    q = np.asarray(p, dtype=float) / hbar
    s = h * _GL_NODES
    weighted = h * _GL_WEIGHTS * np.exp(1.0j * np.outer(q, s))
    moments = np.stack([weighted.sum(axis=1), weighted @ s, weighted @ (s * s)])
    sums = panel_sums_dense(q, grid[1:-1:2], rows)
    return (moments * sums).sum(axis=0) / math.sqrt(2.0 * math.pi * hbar)


def second_derivative_5pt(f, z, h=1e-3):
    """Five-point second-derivative stencil, truncation O(h^4)."""
    return (-f(z + 2 * h) + 16 * f(z + h) - 30 * f(z)
            + 16 * f(z - h) - f(z - 2 * h)) / (12.0 * h * h)


def boxcar_average_bruteforce(grid, values, window, points):
    """Moving average by direct per-point trapezoid integration."""
    out = np.empty(len(points))
    for i, c in enumerate(points):
        lo, hi = c - window / 2.0, c + window / 2.0
        xs = np.linspace(lo, hi, 2001)
        out[i] = np.trapezoid(np.interp(xs, grid, values), xs) / window
    return out


# ---------------------------------------------------------------------------
# half-period references: quadrature of sqrt(m/2) dx / sqrt(E - V(x))

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _gauss(f, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(_GL_WEIGHTS * f(mid + half * _GL_NODES)))


def tanh_sinh(f, a, b, tol=1e-12, max_level=12):
    """Double-exponential quadrature on (a, b); endpoint singularities OK."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t_max = 4.6  # exp(-(pi/4) sinh t) tail must clear 1e-13 for x^(-1/2) endpoints

    def node_sum(step, odd_only):
        k = np.arange(-int(t_max / step), int(t_max / step) + 1)
        if odd_only:
            k = k[np.abs(k) % 2 == 1]
        t = k * step
        u = 0.5 * math.pi * np.sinh(t)
        # place nodes by their exact distance from the nearest endpoint:
        # 1 -+ tanh(u) = 2/(1 + exp(+-2u)), which avoids the cancellation
        # that would otherwise wreck endpoint-singular integrands
        dist = half * 2.0 / (1.0 + np.exp(2.0 * np.abs(u)))
        xs = np.where(t < 0, a + dist, b - dist)
        w = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        inside = (xs > a) & (xs < b)
        return float(np.sum(w[inside] * f(xs[inside])))

    h = 1.0
    running = node_sum(h, odd_only=False)
    value = half * h * running
    for _ in range(1, max_level):
        h /= 2.0
        running += node_sum(h, odd_only=True)
        new_value = half * h * running
        if abs(new_value - value) <= tol * max(1.0, abs(new_value)):
            return new_value
        value = new_value
    return value


def _linear_segments(spec, energy):
    """Allowed region split into (x0, x1, turning) pieces on which V is linear.

    ``turning`` is the end of the piece where V = E (None if neither is).
    """
    c = spec.constants
    if spec.kind is PotentialKind.BOUNCER:
        height = energy / (c.mass * c.g)
        return [(0.0, height, height)]
    if spec.kind is PotentialKind.INFINITE_WELL:
        return [(-spec.a, spec.a, None)]
    return [(-spec.a, 0.0, None), (0.0, spec.a, None)]


def _raw_integrand(spec, energy):
    return lambda x: 1.0 / np.sqrt(energy - potential_by_kind(spec, x))


def half_period_quadrature(spec, energy):
    """tau by Gauss-Legendre per linear piece of V.

    Sloped pieces use u = sqrt(E - V), which removes the turning-point
    singularity and makes the integrand constant, so the rule is exact.
    u is taken as exactly 0 at a turning point: E - V(x_turn) evaluated in
    floating point is ~eps E, whose square root would move the limit off 0.
    """
    total = 0.0
    for x0, x1, turning in _linear_segments(spec, energy):
        v0, v1 = potential_by_kind(spec, x0), potential_by_kind(spec, x1)
        slope = (v1 - v0) / (x1 - x0)
        if slope == 0.0:
            total += _gauss(_raw_integrand(spec, energy), x0, x1)
            continue
        ua = 0.0 if x0 == turning else math.sqrt(energy - v0)
        ub = 0.0 if x1 == turning else math.sqrt(energy - v1)

        def transformed(u, _s=slope, _x0=x0, _v0=v0):
            x = _x0 + (energy - u * u - _v0) / _s
            return 2.0 * u / (abs(_s) * np.sqrt(energy - potential_by_kind(spec, x)))

        total += _gauss(transformed, min(ua, ub), max(ua, ub))
    return math.sqrt(spec.constants.mass / 2.0) * total


def half_period_tanh_sinh(spec, energy):
    """tau by tanh-sinh straight on the raw integrand of each linear piece."""
    total = sum(tanh_sinh(_raw_integrand(spec, energy), x0, x1)
                for x0, x1, _ in _linear_segments(spec, energy))
    return math.sqrt(spec.constants.mass / 2.0) * total


# ---------------------------------------------------------------------------
# Airy boundary determinant from scipy's Airy functions

def airy_cross(z1, z2):
    """Ai(z1) Bi(z2) - Ai(z2) Bi(z1) by direct products of scipy values."""
    ai1, _, bi1, _ = special.airy(z1)
    ai2, _, bi2, _ = special.airy(z2)
    return float(ai1 * bi2 - ai2 * bi1)


def closed_court_determinant(spec, energy, parity):
    """The closed court's boundary determinant at one energy, from scipy's Airy
    functions: Ai(z0) Bi(zw) - Ai(zw) Bi(z0) for odd states and
    Ai'(z0) Bi(zw) - Ai(zw) Bi'(z0) for even ones, with z0 = -sigma/rho at the
    origin and zw = (a - sigma)/rho at the wall."""
    c = spec.constants
    rho = (c.hbar ** 2 * spec.a / (2.0 * c.mass * spec.v0)) ** (1.0 / 3.0)
    sigma = energy * spec.a / spec.v0
    z0, zw = -sigma / rho, (spec.a - sigma) / rho
    if parity == "odd":
        return airy_cross(z0, zw)
    _, aip0, _, bip0 = special.airy(z0)
    aiw, _, biw, _ = special.airy(zw)
    return float(aip0 * biw - aiw * bip0)


# ---------------------------------------------------------------------------
# closed-court levels, one parity at a time

_SCAN_STEPS_PER_LEVEL = 5  # scan points per local level spacing pi hbar / tau
_NEWTON_MAX_ITERS = 64
_NEWTON_STEP_TOL = 4.0 * np.finfo(float).eps  # relative to |E|
_NEWTON_STALL_TOL = math.sqrt(np.finfo(float).eps)  # relative


def _scan_grid(spec, e_min, e_max):
    """Energies from e_min up to e_max in steps of pi hbar / (5 tau)."""
    pts = [e_min]
    e = e_min
    while e < e_max:
        step = math.pi * spec.constants.hbar / (
            _SCAN_STEPS_PER_LEVEL * classical_state(spec, e).tau)
        e = min(e + step, e_max)
        pts.append(e)
    return np.array(pts)


def _eigencondition_one_parity(spec, energies, parity):
    """The boundary determinant D and dD/dE for one parity, one Airy call per argument."""
    scales = quantum.AiryScales.from_spec(spec, np.asarray(energies, dtype=float))
    z0 = -scales.sigma / scales.rho
    ai1, bi1, aip1, bip1 = airy_eval_many(z0)
    ai2, bi2, aip2, bip2 = airy_eval_many((spec.a - scales.sigma) / scales.rho)
    if parity == "odd":
        det = ai1 * bi2 - ai2 * bi1
        d_dz = aip1 * bi2 + ai1 * bip2 - aip2 * bi1 - ai2 * bip1
    else:
        det = aip1 * bi2 - ai2 * bip1
        d_dz = z0 * (ai1 * bi2 - ai2 * bi1) + aip1 * bip2 - aip2 * bip1
    return det, d_dz * (-spec.a / (spec.v0 * scales.rho))


def roots_one_parity(spec, e_max, parity):
    """Every root of one parity in (V0, e_max]: a scan of that parity's
    determinant, then the safeguarded Newton iteration on all its brackets."""
    lo = spec.v0 * (1.0 + 1e-12) + 1e-300
    if e_max <= lo:
        return np.array([])
    grid = _scan_grid(spec, lo, e_max)
    vals = _eigencondition_one_parity(spec, grid, parity)[0]
    k = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    left, right, f_left, f_right = grid[k], grid[k + 1], vals[k], vals[k + 1]
    x = left - f_left * (right - left) / (f_right - f_left)
    sign_left = np.sign(f_left)
    last_step = np.full(len(x), np.inf)
    todo = np.arange(len(x))
    for _ in range(_NEWTON_MAX_ITERS):
        if not len(todo):
            break
        xs = x[todo]
        f, df = _eigencondition_one_parity(spec, xs, parity)
        keeps_left = np.sign(f) == sign_left[todo]
        lo = left[todo] = np.where(keeps_left, xs, left[todo])
        hi = right[todo] = np.where(keeps_left, right[todo], xs)
        step = f / df
        nxt = xs - step
        size = np.abs(step)
        done = (size <= _NEWTON_STEP_TOL * np.abs(xs)) | (
            (size >= last_step[todo]) & (size <= _NEWTON_STALL_TOL * np.abs(xs)))
        last_step[todo] = size
        x[todo] = np.where(done | ((nxt > lo) & (nxt < hi)), nxt, 0.5 * (lo + hi))
        todo = todo[~done]
    return x


def spectrum_one_parity_at_a_time(spec, e_max):
    """Both parities' levels in (V0, e_max] as (energy, parity, index)
    triples sorted by energy, each indexed by its rank within its parity."""
    levels = [(float(e), parity, i + 1) for parity in ("even", "odd")
              for i, e in enumerate(roots_one_parity(spec, e_max, parity))]
    levels.sort()
    return levels


def nearest_level_one_parity_at_a_time(spec, e_target, search_width):
    """The (energy, parity, index) of the level nearest e_target in
    (max(V0, e_target - w), e_target + w] from the whole spectrum below the
    window's top, or None."""
    lo = max(spec.v0, e_target - search_width)
    levels = [lv for lv in spectrum_one_parity_at_a_time(spec, e_target + search_width)
              if lv[0] > lo]
    return min(levels, key=lambda lv: abs(lv[0] - e_target)) if levels else None


# ---------------------------------------------------------------------------
# closed-court eigenstates, pointwise

def eigenstate_pointwise(spec, energy, parity, n_grid=12001):
    """The normalized psi of :func:`quantum.eigenstate_closed_court` from one
    Airy call on every point of the x >= 0 half, mirrored by parity."""
    odd = parity == "odd"
    if n_grid % 2 == 0:
        n_grid += 1
    scales = quantum.AiryScales.from_spec(spec, energy)
    x = np.linspace(-spec.a, spec.a, n_grid)
    z = (np.concatenate([[0.0], x[n_grid // 2 + 1:]]) - scales.sigma) / scales.rho
    ai, bi, aip, bip = airy_eval_many(z)
    psi = bi[0] * ai - ai[0] * bi if odd else bip[0] * ai - aip[0] * bi
    psi = np.concatenate([(-psi if odd else psi)[:0:-1], psi])
    return psi / math.sqrt(quantum._simpson_uniform(psi ** 2, x[1] - x[0]))


# ---------------------------------------------------------------------------
# the Airy anchors' Taylor table, built with each series and its slopes at once

def _local_series_with_slopes(z0, w, wp):
    """Taylor coefficients about z0 of the solutions of w'' = z w with values
    w and slopes wp, followed along axis 1 by those of their slopes."""
    degree = airy._TAYLOR_DEGREE
    c = np.empty((degree + 1,) + np.broadcast(z0, w).shape)
    c[0], c[1], c[2] = w, wp, 0.5 * z0 * w
    for k in range(1, degree - 1):
        c[k + 2] = (z0 * c[k] + c[k - 1]) / ((k + 1) * (k + 2))
    slope = np.zeros_like(c)
    slope[:-1] = np.arange(1.0, degree + 1).reshape((-1,) + (1,) * (c.ndim - 1)) * c[1:]
    return np.concatenate([c, slope], axis=1)


def taylor_table_with_slopes():
    """``airy._TAYLOR_TABLE`` as it was built when the local series always
    carried its slope rows: the same anchor steps, from the same start values."""
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    bi0, bip0 = math.sqrt(3.0) * ai0, -math.sqrt(3.0) * aip0
    anchors = airy._ANCHORS
    top_ai, _, top_aip, _ = airy._asym_pos(anchors[-1:])
    z = np.array([0.0, 0.0, 0.0, anchors[-1]])
    h = airy._ANCHOR_STEP * np.array([-1.0, -1.0, 1.0, -1.0])
    w = np.array([ai0, bi0, bi0, top_ai[0]])
    wp = np.array([aip0, bip0, bip0, top_aip[0]])
    steps = [np.concatenate([w, wp])]
    for _ in range(len(anchors) // 2):
        coef, t = _local_series_with_slopes(z, w, wp), np.concatenate([h, h])
        total = coef[-1]
        for c in coef[-2::-1]:
            total = total * t + c
        steps.append(total)
        w, wp = np.split(steps[-1], 2)
        z = z + h
    s = np.array(steps).T
    values = np.concatenate([s[[0, 1, 4, 5], ::-1],
                             np.stack([s[3, -2::-1], s[2, 1:], s[7, -2::-1], s[6, 1:]])], axis=1)
    return np.ascontiguousarray(
        _local_series_with_slopes(anchors, *np.split(values, 2)).transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# the position gap on the full mirrored grid

def _moving_average_full(grid, values, window, points):
    """Boxcar average from the cumulative trapezoid taken from the grid's start."""
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(grid))])
    upper = np.interp(points + 0.5 * window, grid, cum)
    lower = np.interp(points - 0.5 * window, grid, cum)
    return (upper - lower) / window


def position_gap_full_grid(state):
    """``compare_state``'s relative L2 position gap as it was taken on the
    state's whole grid: P_CL on every node, the boxcar average of the
    mirrored |psi|^2 over one window 2 pi hbar / p_minus, and trapezoids over
    the symmetric interior |x| <= a - window."""
    spec, energy = state.spec, state.energy
    window = 2.0 * math.pi * spec.constants.hbar / classical_state(spec, energy).p_minus
    pcl = classical_position_density(spec, energy, grid=state.grid)
    inside = (pcl.grid >= window - spec.a) & (pcl.grid <= spec.a - window)
    interior, cl = pcl.grid[inside], pcl.values[inside]
    avg = _moving_average_full(state.grid, state.psi ** 2, window, interior)
    return math.sqrt(float(np.trapezoid((avg - cl) ** 2, interior))
                     / float(np.trapezoid(cl ** 2, interior)))


# ---------------------------------------------------------------------------
# infinite-well levels, one parity at a time

def infinite_well_levels_loop(spec, e_max):
    """Every infinite-well level with energy <= e_max: each parity counted
    up from n = 1 until its energy passes e_max, then sorted by energy."""
    levels = []
    for parity in ("even", "odd"):
        n = 1
        while quantum.infinite_well_energy(spec, n, parity) <= e_max:
            levels.append(quantum.EigenLevel(energy=quantum.infinite_well_energy(spec, n, parity),
                                             parity=parity, index=n, residual=0.0,
                                             n=2 * n - (parity == "even")))
            n += 1
    levels.sort(key=lambda lv: lv.energy)
    return levels


# ---------------------------------------------------------------------------
# CSV reference: one value at a time, one joined line per row

def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv_rows(path, header, rows):
    """Write header and rows as LF-terminated CSV lines, every value
    formatted by itself: floats (numpy float64 included) with 17 significant
    digits, bools as true/false, anything else by str."""
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


# ---------------------------------------------------------------------------
# classical quantities, one closed form per potential kind

def _scalar_or_array(x, out):
    return float(out) if np.ndim(x) == 0 else out


def potential_by_kind(spec, x):
    """V(x): m g z above the floor, 0 in the infinite well, V0 |x| / a in
    the closed court; inf outside the allowed region."""
    xa = np.asarray(x, dtype=float)
    if spec.kind is PotentialKind.BOUNCER:
        mg = spec.constants.mass * spec.constants.g
        v = np.where(xa < 0.0, np.inf, mg * xa)
    elif spec.kind is PotentialKind.INFINITE_WELL:
        v = np.where(np.abs(xa) > spec.a, np.inf, 0.0)
    else:
        v = np.where(np.abs(xa) > spec.a, np.inf, spec.v0 * np.abs(xa) / spec.a)
    return _scalar_or_array(x, v)


def half_period_by_kind(spec, energy):
    """sqrt(2H/g) with H = E/(m g), 2a sqrt(m/(2E)), and
    sqrt(2m) (2a/V0) (sqrt(E) - sqrt(E - V0))."""
    c = spec.constants
    if spec.kind is PotentialKind.BOUNCER:
        height = energy / (c.mass * c.g)
        return math.sqrt(2.0 * height / c.g)
    if spec.kind is PotentialKind.INFINITE_WELL:
        return 2.0 * spec.a * math.sqrt(c.mass / (2.0 * energy))
    return (math.sqrt(2.0 * c.mass) * (2.0 * spec.a / spec.v0)
            * (math.sqrt(energy) - math.sqrt(energy - spec.v0)))


def p_minus_by_kind(spec, energy):
    """|p| at the walls for the closed court, 0 for the other kinds."""
    if spec.kind is PotentialKind.CLOSED_COURT:
        return math.sqrt(2.0 * spec.constants.mass * (energy - spec.v0))
    return 0.0


def position_cdf_by_kind(spec, energy, x):
    """Fraction of the period left of x from each kind's own time integral."""
    c = spec.constants
    xa = np.asarray(x, dtype=float)
    if spec.kind is PotentialKind.BOUNCER:
        height = energy / (c.mass * c.g)
        out = 1.0 - np.sqrt(np.clip((height - xa) / height, 0.0, 1.0))
    elif spec.kind is PotentialKind.INFINITE_WELL:
        out = np.clip((xa + spec.a) / (2.0 * spec.a), 0.0, 1.0)
    else:
        tau = half_period_by_kind(spec, energy)
        k = math.sqrt(2.0 * c.mass) * spec.a / spec.v0
        root_e_v = np.sqrt(np.clip(energy - spec.v0 * np.abs(xa) / spec.a, 0.0, None))
        t_from_wall = k * (root_e_v - math.sqrt(energy - spec.v0))
        out = np.where(xa <= 0.0, t_from_wall / tau, 1.0 - t_from_wall / tau)
        out = np.clip(np.where(np.abs(xa) > spec.a, np.where(xa > 0, 1.0, 0.0), out), 0.0, 1.0)
    return _scalar_or_array(x, out)


def momentum_cdf_by_kind(spec, energy, q):
    """Fraction of the period with momentum <= q: flat on [-p+, p+] for the
    bouncer, point masses at +-p+ for the infinite well, two flat bands for
    the closed court."""
    p_plus = math.sqrt(2.0 * spec.constants.mass * energy)
    qa = np.asarray(q, dtype=float)
    if spec.kind is PotentialKind.BOUNCER:
        out = np.clip((qa + p_plus) / (2.0 * p_plus), 0.0, 1.0)
    elif spec.kind is PotentialKind.INFINITE_WELL:
        out = np.where(qa < -p_plus, 0.0, np.where(qa < p_plus, 0.5, 1.0))
    else:
        p_minus = p_minus_by_kind(spec, energy)
        dp = p_plus - p_minus
        out = np.where(
            qa <= -p_plus, 0.0,
            np.where(qa <= -p_minus, (qa + p_plus) / (2.0 * dp),
                     np.where(qa < p_minus, 0.5,
                              np.where(qa < p_plus, 0.5 + (qa - p_minus) / (2.0 * dp), 1.0))))
    return _scalar_or_array(q, out)


def trajectory_by_kind(spec, energy, t):
    """(x, p) at time t: one parabola per period for the bouncer, two
    straight crossings for the infinite well, four half-crossings for the
    closed court (starting at x = -a moving right)."""
    c = spec.constants
    p_plus = math.sqrt(2.0 * c.mass * energy)
    p_minus = p_minus_by_kind(spec, energy)
    tau = half_period_by_kind(spec, energy)
    tr = np.mod(np.asarray(t, dtype=float), 2.0 * tau)
    if spec.kind is PotentialKind.BOUNCER:
        v0 = p_plus / c.mass
        x, p = v0 * tr - 0.5 * c.g * tr ** 2, c.mass * (v0 - c.g * tr)
    elif spec.kind is PotentialKind.INFINITE_WELL:
        first = tr < tau
        x = np.where(first, -spec.a + p_plus / c.mass * tr, spec.a - p_plus / c.mass * (tr - tau))
        p = np.where(first, p_plus, -p_plus)
    else:
        forward = tr < tau
        s = np.where(forward, tr, tr - tau)
        accel = spec.v0 / (spec.a * c.mass)
        rising = s < 0.5 * tau
        r = np.where(rising, s, s - 0.5 * tau)
        x_half = np.where(rising, -spec.a + (p_minus / c.mass) * r + 0.5 * accel * r ** 2,
                          (p_plus / c.mass) * r - 0.5 * accel * r ** 2)
        p_half = np.where(rising, p_minus + c.mass * accel * r, p_plus - c.mass * accel * r)
        x, p = np.where(forward, x_half, -x_half), np.where(forward, p_half, -p_half)
    return _scalar_or_array(t, x), _scalar_or_array(t, p)


def position_grid_by_kind(spec, energy, n_points=4001, apex_fraction=0.02):
    """Apex-graded nodes H (1 - (1 - s)^2) for the bouncer, a linspace for
    the infinite well, nodes uniform in u = sqrt(E - V) for the closed court."""
    if spec.kind is PotentialKind.BOUNCER:
        height = energy / (spec.constants.mass * spec.constants.g)
        s = np.linspace(0.0, 1.0 - apex_fraction, n_points)
        return height * (1.0 - (1.0 - s) ** 2)
    if spec.kind is PotentialKind.INFINITE_WELL:
        return np.linspace(-spec.a, spec.a, n_points)
    half_n = max(n_points // 2, 2)
    u = np.linspace(math.sqrt(energy - spec.v0), math.sqrt(energy), half_n)
    right = np.clip(spec.a * (energy - u ** 2) / spec.v0, 0.0, spec.a)[::-1]
    return np.concatenate([-right[::-1][:-1], right])


def momentum_density_by_kind(spec, energy):
    """The flat classical momentum density 1/(T |F|) per branch: one branch
    with F = m g for the bouncer, two with F = V0/a for the closed court."""
    c = spec.constants
    period = 2.0 * half_period_by_kind(spec, energy)
    if spec.kind is PotentialKind.BOUNCER:
        return 1.0 / (period * c.mass * c.g)
    return 2.0 / (period * spec.v0 / spec.a)
