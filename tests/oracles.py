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

One reference is the package's own earlier path, kept to show that a
faster one changed no bit: closed-court levels from one scan per parity,
two Airy calls per determinant evaluation and every bracket refined (the
package scans once for both parities and refines only what it returns).
"""

import math

import numpy as np
from scipy import linalg, special
from scipy.integrate import simpson

from wellprob import quantum
from wellprob.airy import airy_eval_many
from wellprob.model import PotentialKind, evaluate_potential


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
    return lambda x: 1.0 / np.sqrt(energy - evaluate_potential(spec, x))


def half_period_quadrature(spec, energy):
    """tau by Gauss-Legendre per linear piece of V.

    Sloped pieces use u = sqrt(E - V), which removes the turning-point
    singularity and makes the integrand constant, so the rule is exact.
    u is taken as exactly 0 at a turning point: E - V(x_turn) evaluated in
    floating point is ~eps E, whose square root would move the limit off 0.
    """
    total = 0.0
    for x0, x1, turning in _linear_segments(spec, energy):
        v0, v1 = evaluate_potential(spec, x0), evaluate_potential(spec, x1)
        slope = (v1 - v0) / (x1 - x0)
        if slope == 0.0:
            total += _gauss(_raw_integrand(spec, energy), x0, x1)
            continue
        ua = 0.0 if x0 == turning else math.sqrt(energy - v0)
        ub = 0.0 if x1 == turning else math.sqrt(energy - v1)

        def transformed(u, _s=slope, _x0=x0, _v0=v0):
            x = _x0 + (energy - u * u - _v0) / _s
            return 2.0 * u / (abs(_s) * np.sqrt(energy - evaluate_potential(spec, x)))

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

def _eigencondition_one_parity(spec, energies, parity):
    """D, |D| / envelope and dD/dE for one parity, one Airy call per argument."""
    scales = quantum.AiryScales.from_spec(spec, np.asarray(energies, dtype=float))
    z0 = -scales.sigma / scales.rho
    ai1, bi1, aip1, bip1 = airy_eval_many(z0)
    ai2, bi2, aip2, bip2 = airy_eval_many((spec.a - scales.sigma) / scales.rho)
    if parity == "odd":
        t1, t2 = ai1 * bi2, ai2 * bi1
        d_dz = aip1 * bi2 + ai1 * bip2 - aip2 * bi1 - ai2 * bip1
    else:
        t1, t2 = aip1 * bi2, ai2 * bip1
        d_dz = z0 * (ai1 * bi2 - ai2 * bi1) + aip1 * bip2 - aip2 * bip1
    det = t1 - t2
    return (det, np.abs(det) / np.maximum(np.abs(t1) + np.abs(t2), 1e-300),
            d_dz * (-spec.a / (spec.v0 * scales.rho)))


def roots_one_parity(spec, e_max, parity):
    """Every root of one parity in (V0, e_max]: a scan of that parity's
    determinant, then the safeguarded Newton iteration on all its brackets."""
    lo = spec.v0 * (1.0 + 1e-12) + 1e-300
    if e_max <= lo:
        return np.array([])
    grid = quantum._scan_grid(spec, lo, e_max)
    vals = _eigencondition_one_parity(spec, grid, parity)[0]
    k = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    left, right, f_left, f_right = grid[k], grid[k + 1], vals[k], vals[k + 1]
    x = left - f_left * (right - left) / (f_right - f_left)
    sign_left = np.sign(f_left)
    last_step = np.full(len(x), np.inf)
    todo = np.arange(len(x))
    for _ in range(quantum._NEWTON_MAX_ITERS):
        if not len(todo):
            break
        xs = x[todo]
        f, _, df = _eigencondition_one_parity(spec, xs, parity)
        keeps_left = np.sign(f) == sign_left[todo]
        lo = left[todo] = np.where(keeps_left, xs, left[todo])
        hi = right[todo] = np.where(keeps_left, right[todo], xs)
        step = f / df
        nxt = xs - step
        size = np.abs(step)
        done = (size <= quantum._NEWTON_STEP_TOL * np.abs(xs)) | (
            (size >= last_step[todo]) & (size <= quantum._NEWTON_STALL_TOL * np.abs(xs)))
        last_step[todo] = size
        x[todo] = np.where(done | ((nxt > lo) & (nxt < hi)), nxt, 0.5 * (lo + hi))
        todo = todo[~done]
    return x


def spectrum_one_parity_at_a_time(spec, e_max):
    """Both parities' levels in (V0, e_max], sorted by energy, each indexed by
    its rank within its parity, with residuals from one call per parity."""
    levels = []
    for parity in ("even", "odd"):
        roots = roots_one_parity(spec, e_max, parity)
        residuals = _eigencondition_one_parity(spec, roots, parity)[1]
        levels += [quantum.EigenLevel(energy=float(e), parity=parity, index=i + 1,
                                      residual=float(r))
                   for i, (e, r) in enumerate(zip(roots, residuals))]
    levels.sort(key=lambda lv: lv.energy)
    return levels


def nearest_level_one_parity_at_a_time(spec, e_target, search_width):
    """The level nearest e_target in (max(V0, e_target - w), e_target + w]
    from the whole spectrum below the window's top, or None."""
    lo = max(spec.v0, e_target - search_width)
    levels = [lv for lv in spectrum_one_parity_at_a_time(spec, e_target + search_width)
              if lv.energy > lo]
    return min(levels, key=lambda lv: abs(lv.energy - e_target)) if levels else None


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
