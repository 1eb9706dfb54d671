"""Special functions and quadrature primitives.

Everything downstream (kernel integrals, closed-form limits, implied-vol
machinery) is built on four primitives: the lower incomplete gamma
function, for a scalar or an array argument, the Gaussian hypergeometric
function on its z <= 0 branch, the standard normal CDF/PDF, and an adaptive
Gauss-Kronrod integrator that tolerates integrable power-law endpoint
singularities. Fixed Gauss-Jacobi and Gauss-Kronrod rules, mapped onto
geometric panels by one builder, serve integrals that are evaluated in bulk;
one map grades a fixed rule onto the VIX averaging window.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadSpec",
    "QuadratureError",
    "integrate",
    "integrate_err",
    "gauss_jacobi",
    "gauss_kronrod_15",
    "geometric_rule",
    "window_rule",
    "kronrod_bound",
    "lower_incomplete_gamma",
    "gauss_2f1",
    "normal_cdf",
    "normal_pdf",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# Panel splits after which a failing integral raises QuadratureError.
_MAX_SUBDIVISIONS = 4000


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature control: tolerances and the declared lower-endpoint law.

    ``singular_exponent`` is the power-law order alpha of the integrand at
    the lower limit, f(t) ~ (t - lo)^alpha with alpha in (-1, 0]; 0 declares
    no singularity.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    singular_exponent: float = 0.0

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0) or not (self.rel_tol > 0.0):
            raise ValueError("abs_tol and rel_tol must be positive")
        if not (-1.0 < self.singular_exponent <= 0.0):
            raise ValueError(
                "singular_exponent must lie in (-1, 0], got "
                f"{self.singular_exponent}"
            )


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance could not be reached.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(
            f"{message} (estimate={estimate!r}, error_bound={error_bound!r})"
        )
        self.estimate = estimate
        self.error_bound = error_bound


# 15-point Kronrod rule with embedded 7-point Gauss rule (positive half).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])           # 15 ascending
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G_IDX = np.arange(1, 15, 2)                                    # embedded Gauss
_G_WEIGHTS = np.concatenate([_WG[:-1], _WG[::-1]])
_GK_GAUSS_WEIGHTS = np.zeros(15)
_GK_GAUSS_WEIGHTS[_G_IDX] = _G_WEIGHTS
for _rule in (_GK_NODES, _GK_WEIGHTS, _GK_GAUSS_WEIGHTS):
    _rule.flags.writeable = False


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """One Gauss-Kronrod panel: returns (estimate, error_bound)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = center + half * _GK_NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape)
    if not np.all(np.isfinite(y)):
        raise ValueError(
            f"integrand not finite inside panel [{a!r}, {b!r}]; "
            "declare the singularity in QuadSpec if it sits at the lower limit"
        )
    resk = half * float(_GK_WEIGHTS @ y)
    resg = half * float(_G_WEIGHTS @ y[_G_IDX])
    # QUADPACK-style error estimate scaled by integrand roughness.
    resasc = half * float(_GK_WEIGHTS @ np.abs(y - resk / (b - a)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err


def _power_substitution(f, lo, hi, alpha):
    """Map a power-law lower endpoint onto w = (t - lo)^(alpha+1).

    The transformed integrand is bounded whenever f(t) ~ (t - lo)^alpha with
    alpha > -1. Below a distance floor (where floating point can no longer
    represent t distinctly from lo) the declared power law is continued
    analytically: f is probed at the floor and rescaled by the exact power
    ratio, so integrands that compute the distance from t never see a
    cancelled zero.
    """
    p = 1.0 / (1.0 + alpha)
    width = (hi - lo) ** (1.0 + alpha)
    # Floor only where t would be unrepresentable next to lo; at a lower
    # limit of zero the power map is exact down to subnormals.
    dist_floor = max(abs(lo) * 2.0 ** -27, 1e-290)

    def g(w):
        w = np.asarray(w, dtype=float)
        dist = w ** p
        clamped = dist < dist_floor
        t = lo + np.where(clamped, dist_floor, dist)
        # Unclamped: plain Jacobian p w^(p-1). Clamped: the probed value
        # carries (dist_floor)^alpha, so multiply by (dist/dist_floor)^alpha
        # times the Jacobian; the exponents combine to p*alpha + p - 1 = 0.
        scale = np.where(
            clamped,
            dist_floor ** -alpha * w ** (p * alpha + p - 1.0),
            w ** (p - 1.0),
        )
        return f(t) * p * scale

    return g, 0.0, width


def _adaptive(f, a, b, abs_tol, rel_tol):
    est, err = _gk15(f, a, b)
    panels = [(-err, a, b, est, err)]
    total, total_err = est, err
    n_sub = 1
    # Divergence sniffing: count how often the running total doubles.
    marker = abs(est) + 1e-300
    doublings = 0

    while total_err > max(abs_tol, rel_tol * abs(total)):
        if n_sub >= _MAX_SUBDIVISIONS:
            raise QuadratureError("quadrature tolerance not reached", total, total_err)
        neg_err, a0, b0, est0, err0 = heapq.heappop(panels)
        mid = 0.5 * (a0 + b0)
        if mid <= a0 or mid >= b0:
            # Panel at floating-point resolution; nothing more can be done.
            heapq.heappush(panels, (neg_err, a0, b0, est0, err0))
            break
        est1, err1 = _gk15(f, a0, mid)
        est2, err2 = _gk15(f, mid, b0)
        total += est1 + est2 - est0
        total_err += err1 + err2 - err0
        heapq.heappush(panels, (-err1, a0, mid, est1, err1))
        heapq.heappush(panels, (-err2, mid, b0, est2, err2))
        n_sub += 1
        if abs(total) > 2.0 * marker:
            marker = abs(total)
            doublings += 1
            if doublings > 50:
                raise ValueError(
                    "divergent refinement: integrand looks non-integrable "
                    "(undeclared endpoint blow-up?)"
                )

    if total_err > max(abs_tol, rel_tol * abs(total)):
        raise QuadratureError("quadrature tolerance not reached", total, total_err)
    return total, total_err


def integrate_err(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadSpec | None = None,
) -> tuple[float, float]:
    """Like :func:`integrate` but also returns the achieved error bound."""
    if spec is None:
        spec = QuadSpec()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if lo > hi:
        raise ValueError(f"lo must be <= hi, got [{lo!r}, {hi!r}]")
    if lo == hi:
        return 0.0, 0.0

    if spec.singular_exponent != 0.0:
        f, lo, hi = _power_substitution(f, lo, hi, spec.singular_exponent)
    return _adaptive(f, lo, hi, spec.abs_tol, spec.rel_tol)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadSpec | None = None,
) -> float:
    """Adaptively integrate ``f`` over [lo, hi].

    ``f`` must accept numpy arrays of abscissae and evaluate elementwise.
    A power-law singularity of order alpha in (-1, 0) at ``lo`` must be
    declared through ``spec``; it is removed by the substitution
    w = (t - lo)^(alpha+1) before the adaptive pass.

    Raises :class:`QuadratureError` when the tolerance cannot be met (the
    exception carries the best estimate), and ``ValueError`` for non-finite
    integrand values or refinement that diverges.
    """
    return integrate_err(f, lo, hi, spec)[0]


# gauss_jacobi polishes its nodes in fixed point: Python integers that hold
# a real r as r * 2**_POLISH_BITS. Double precision cannot do it: y = 2x - 1
# holds a node near x = 0 only to 1e-16 absolute, and the derivative weights
# then leave low moments off by up to 2e-15. Python integers keep 128 bits
# without importing decimal, which would add 0.4 MB to every process.
_POLISH_BITS = 128
_ONE = 1 << _POLISH_BITS


def _fixed(value: float) -> int:
    num, den = value.as_integer_ratio()
    return (num << _POLISH_BITS) // den


def _div(a: int, b: int) -> int:
    return (a << _POLISH_BITS) // b


# The fixed-point product of u and v is u * v >> _POLISH_BITS, written out
# where it is used: a 16-node rule makes about 1,700 of them, and one Python
# call per product was a sizeable share of the rule's build time.

def _jacobi_recurrence(a: int, n: int) -> list[tuple[int, int, int]]:
    """(A_m, B_m, C_m), m = 2..n, with P_m = (A_m y - B_m) P_(m-1) - C_m P_(m-2).

    The three-term recurrence of P^(0, alpha) on [-1, 1], in fixed point
    (a is alpha in fixed point).
    """
    bits, one = _POLISH_BITS, _ONE
    steps = []
    for m in range(2, n + 1):
        s = (2 * m << bits) + a
        c1 = 2 * m * ((m << bits) + a) * (s - 2 * one) >> bits
        c2 = ((s - one) * s >> bits) * (s - 2 * one) >> bits
        c3 = (s - one) * (a * a >> bits) >> bits
        c4 = 2 * (m - 1) * ((m - 1 << bits) + a) * s >> bits
        steps.append((_div(c2, c1), _div(c3, c1), _div(c4, c1)))
    return steps


def _polish_jacobi_node(a: int, n: int, steps: list[tuple[int, int, int]],
                        x: float) -> tuple[float, float]:
    """One Newton step towards a zero of P_n^(0, alpha)(2x - 1) from x.

    Returns the corrected node on [0, 1] and its weight
    1 / ((1 - y^2) P_n'(y)^2), both correctly rounded from fixed point.
    P_n and P_n' come from the recurrence ``steps``; P_n' at the corrected
    zero is extrapolated with P_n'' from the Jacobi equation
    (1 - y^2) P'' + (alpha - (alpha + 2) y) P' + n (n + alpha + 1) P = 0.
    """
    bits, one = _POLISH_BITS, _ONE
    y = 2 * _fixed(x) - one
    p0, p1 = one, ((a + 2 * one) * y >> bits) - a >> 1
    d0, d1 = 0, a + 2 * one >> 1
    for a_m, b_m, c_m in steps:
        lin = (a_m * y >> bits) - b_m
        p0, p1 = p1, (lin * p1 >> bits) - (c_m * p0 >> bits)
        d0, d1 = d1, (lin * d1 >> bits) + (a_m * p0 >> bits) - (c_m * d0 >> bits)
    step = -_div(p1, d1)
    jacobi_eq = ((a - ((a + 2 * one) * y >> bits)) * d1 >> bits) \
        + (n * ((n + 1 << bits) + a) * p1 >> bits)
    curvature = -_div(jacobi_eq, one - (y * y >> bits))
    y, slope = y + step, d1 + (curvature * step >> bits)
    weight = one / ((one - (y * y >> bits)) * (slope * slope >> bits) >> bits)
    return (one + y) / (2 * one), weight


@lru_cache(maxsize=32)
def gauss_jacobi(alpha: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for int_0^1 x^alpha f(x) dx, alpha > -1.

    Exact for polynomials f of degree below 2 * n_nodes. The nodes start as
    the eigenvalues of the Jacobi matrix of the weight x^alpha on [0, 1]
    (Golub-Welsch). Each is then mapped to y = 2x - 1, a zero of the Jacobi
    polynomial P_n^(0, alpha), and polished by one Newton step in 128-bit
    fixed point, from an eigenvalue good to about 1e-16, with each
    fixed-point product written inline rather than as a Python call. The
    weights come from the derivative formula 2^(alpha+1) / ((1 - y^2) P_n'(y)^2),
    whose gamma-function factor is 1 for P_n^(0, alpha), times 2^-(alpha+1)
    for the map to [0, 1]. The polished values are good far beyond double
    precision, so each returned node and weight is the double nearest the
    exact one (the tests check this against mpmath), and the low moments
    int_0^1 x^(alpha+k) dx are met to within about an ulp. Returns read-only
    (nodes, weights), ascending; cached because callers build one rule per
    Hurst exponent.
    """
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise ValueError(f"alpha must be finite and > -1, got {alpha!r}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes!r}")
    # Recurrence of the Jacobi polynomials P^(0, alpha) on [-1, 1], mapped to
    # [0, 1] by x = (1 + y)/2, which halves the whole Jacobi matrix plus I/2.
    k = np.arange(n_nodes, dtype=float)
    s = 2.0 * k + alpha
    diag = np.empty(n_nodes)
    diag[0] = alpha / (alpha + 2.0)
    diag[1:] = alpha ** 2 / (s[1:] * (s[1:] + 2.0))
    k1, s1 = k[1:], s[1:]
    off = np.sqrt(4.0 * k1 ** 2 * (k1 + alpha) ** 2 / (s1 ** 2 * (s1 + 1.0) * (s1 - 1.0)))
    jacobi = np.diag(0.5 * (1.0 + diag)) + np.diag(0.5 * off, 1) + np.diag(0.5 * off, -1)
    a = _fixed(alpha)
    steps = _jacobi_recurrence(a, n_nodes)
    polished = [_polish_jacobi_node(a, n_nodes, steps, float(x))
                for x in np.linalg.eigvalsh(jacobi)]
    nodes, weights = map(np.array, zip(*polished))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_kronrod_15() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 15-point Kronrod rule on [-1, 1] that :func:`integrate` uses.

    Returns read-only (nodes, kronrod_weights, gauss_weights), ascending;
    ``gauss_weights`` is its embedded 7-point Gauss rule on the same nodes,
    zero at the Kronrod-only ones, so the difference of the two sums
    estimates the error of the lower-order rule.
    """
    return _GK_NODES, _GK_WEIGHTS, _GK_GAUSS_WEIGHTS


def _doubling_edges(inner: float, outer: float) -> np.ndarray:
    """Edges inner 2^j, j = 0..ceil(log2(outer/inner)) - 1, then ``outer``.

    The count comes exactly from the binary exponents and mantissas, so every
    ratio of neighbouring edges is 2 except the last, which lies in (1, 2].
    """
    if not (0.0 < inner <= outer < math.inf):
        raise ValueError(f"need 0 < inner <= outer < inf, got {inner!r}, {outer!r}")
    (m_in, e_in), (m_out, e_out) = math.frexp(inner), math.frexp(outer)
    count = e_out - e_in + (m_out > m_in)
    edges = np.ldexp(inner, np.arange(count + 1))
    edges[-1] = outer
    return edges


def geometric_rule(x: np.ndarray, weights, inner: float,
                   outer: float) -> tuple[np.ndarray, np.ndarray]:
    """Map the rule (x, weights) on [-1, 1] onto panels that double in width
    from ``inner``, the last clipped at ``outer``.

    Panel j is [inner 2^j, inner 2^(j+1)]: no wider than its distance from
    0, so a singularity at or below 0 lies a panel width or more from its
    nodes. ``weights`` is one row or a stack of rows, each mapped alike
    (for example Kronrod and Kronrod minus Gauss). Returns nodes of shape
    (panels, n) and weights of shape (panels, n) or (rows, panels, n).
    """
    edges = _doubling_edges(inner, outer)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return mid + half * x, half * np.asarray(weights)[..., None, :]


def window_rule(T: float, delta: float, x: np.ndarray,
                weights) -> tuple[np.ndarray, np.ndarray]:
    """Map the rule (x, weights) on [-1, 1] onto the window [T, T + delta],
    graded at the scale T, for integrands rough like (s - T)^H at s = T.

    With u = (1 + x)/2 in [0, 1] and L = log1p(delta/T), the map is
    s - T = T expm1(u^2 L) = T((1 + delta/T)^(u^2) - 1): the log part spaces
    the nodes geometrically from the scale T up to delta, and the u^2 part
    smooths the roughness at s = T (Davis & Rabinowitz, variable
    substitutions for endpoint singularities). For T >> delta it tends to
    s - T = delta u^2. Returns the offsets s - T, ascending with x, and the
    weights times ds/dx = T L (1 + e) u, with e = expm1(u^2 L).
    """
    if not (0.0 < T < math.inf and 0.0 < delta < math.inf):
        raise ValueError(f"need positive finite T and delta, got {T!r}, {delta!r}")
    u = 0.5 * (1.0 + np.asarray(x, dtype=float))
    log_span = math.log1p(delta / T)
    e = np.expm1(u * u * log_span)
    return T * e, np.asarray(weights) * (T * log_span) * (1.0 + e) * u


def kronrod_bound(kronrod, gap):
    """Per-panel error bound: the Kronrod-Gauss gap, floored at 50 ulps of
    the panel's Kronrod value as in QUADPACK's qk15."""
    return np.maximum(np.abs(gap), 50.0 * 2.0 ** -52 * np.abs(kronrod))


# ---------------------------------------------------------------------------
# Lower incomplete gamma
# ---------------------------------------------------------------------------

_GAMMA_EPS = 1e-16
_GAMMA_MAX_ITER = 600
# Series below x = a + _SERIES_REACH, where it is cheaper than the continued
# fraction (measured, scalar and array) and, all terms positive, accurate.
_SERIES_REACH = 4.0
# The largest shape taken. The series prefactor x^a e^-x rounds to a few
# ulps at any x, and below x = a + 4 its x^a stays finite (104^100 < 1e202).
_SHAPE_MAX = 100.0


def _series_sum(a: float, x: float) -> tuple[float, int]:
    # sum_{n>=0} x^n / (a (a+1) ... (a+n)) and the number of terms it took.
    term = 1.0 / a
    total = term
    for n in range(1, _GAMMA_MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            return total, n + 1
    raise QuadratureError("incomplete gamma series did not converge", total, abs(term))


def _lig_series(a: float, x: float) -> float:
    # gamma(a,x) = x^a e^-x sum_{n>=0} x^n / (a (a+1) ... (a+n))
    return _series_sum(a, x)[0] * (x ** a * math.exp(-x))


def _uig_continued_fraction(a: float, x: float) -> float:
    # Modified Lentz evaluation of Gamma(a,x), valid for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            return math.exp(a * math.log(x) - x) * h
    raise QuadratureError("incomplete gamma continued fraction did not converge", h, 1.0)


@lru_cache(maxsize=64)
def _series_table(a: float, n_terms: int) -> np.ndarray:
    """The coefficients c_n = 1/((a+1)...(a+n)), n < ``n_terms``, of
    :func:`_lig_series_array`'s sum, c_0 = 1, as a read-only (q, b) table
    with b = ceil(sqrt(n_terms)) and q = ceil(n_terms / b): row j holds
    c_(jb) ... c_(jb+b-1), zero past the last term. Cached per shape and
    term count, as :func:`gauss_jacobi` caches its rules."""
    width = math.isqrt(n_terms - 1) + 1
    table = np.zeros(-(-n_terms // width) * width)
    table[0] = 1.0
    np.cumprod(1.0 / (a + np.arange(1.0, n_terms)), out=table[1:n_terms])
    table = table.reshape(-1, width)
    table.flags.writeable = False
    return table


def _block_sum(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n c_n x^n over a flat array x, c_n the entries of a (q, b)
    :func:`_series_table`, in baby-step giant-step blocks (Paterson &
    Stockmeyer 1973): the powers x^0 ... x^b by in-place multiplies, each
    block polynomial as one table row times the powers x^0 ... x^(b-1),
    and Horner's rule in x^b over the blocks. That is b + 3q - 1 numpy
    calls whatever the size of x (16 for the 19 terms at x near 1),
    against two per term for Horner's rule in x. With every c_n positive,
    the order changes only the rounding.

    The row times powers products are matrix-vector (BLAS-2), which time
    alike at one and two OpenBLAS threads. One matrix-matrix product for
    all blocks would save q - 1 calls, but a process's first BLAS-3 call
    makes OpenBLAS touch about 384 KB of its buffer (measured with numpy
    2.4), and the closed forms make no other.
    """
    n_blocks, width = table.shape
    # The powers x^0 ... x^(b-1), then x^b, then one block's values.
    work = np.empty((width + 2, x.size))
    powers, giant, block = work[:width], work[width], work[width + 1]
    powers[0] = 1.0
    powers[1] = x
    for k in range(2, width):
        np.multiply(powers[k - 1], x, out=powers[k])
    np.multiply(powers[-1], x, out=giant)
    total = np.dot(table[-1], powers)
    for row in table[-2::-1]:
        total *= giant
        total += np.dot(row, powers, out=block)
    return total


def _lig_series_array(a: float, x: np.ndarray, x_max: float) -> np.ndarray:
    """:func:`_lig_series` for an array of 0 <= x < a + 4 whose largest
    element is ``x_max``: its sum 1 + sum_{n>=1} c_n x^n by
    :func:`_block_sum`, one path for every size.

    Relative to its partial sum, the n-th term shrinks as x does (every
    term scales by (x/x_max)^k, k <= n), so the number of terms the series
    takes at x_max serves every element. The prefactor is the scalar
    path's, x^a e^-x (0 at x = 0).
    """
    flat = x.reshape(-1)
    total = _block_sum(_series_table(a, _series_sum(a, x_max)[1]), flat)
    prefactor = np.power(flat, a)
    prefactor *= np.exp(-flat)
    total *= prefactor
    total /= a
    return total.reshape(x.shape)


def lower_incomplete_gamma(a: float, x):
    """Lower incomplete gamma gamma(a, x) = int_0^x t^(a-1) e^-t dt.

    Standard (unnormalised) convention: nondecreasing in x with
    gamma(a, inf) = Gamma(a). Series expansion for x < a + 4, continued
    fraction for the complement otherwise. ``x`` may be a scalar, which
    returns a float, or an array, returned in its shape (an empty array
    gives an empty one): the series sums all elements below a + 4, zeros
    included, at once by :func:`_lig_series_array`, in baby-step
    giant-step blocks with one term count for the whole array, and only
    when some element lies at x >= a + 4 are the two sets masked apart;
    each such element takes the scalar continued fraction, so it equals the
    scalar result exactly. Both series paths form the prefactor as
    x^a e^-x, which rounds to a few ulps at any x, where exp(a log x - x)
    would carry a relative error growing like eps (a |log x| + x). The
    shape must lie in (0, 100], where x^a stays finite below a + 4.
    Raises :class:`QuadratureError` if any element fails to converge.
    """
    if not 0.0 < a <= _SHAPE_MAX:
        raise ValueError(f"shape parameter must lie in (0, {_SHAPE_MAX:g}], got {a!r}")
    if np.ndim(x) == 0:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("lower_incomplete_gamma requires finite arguments")
        if x < 0.0:
            raise ValueError(f"argument must be nonnegative, got {x!r}")
        if x == 0.0:
            return 0.0
        if x < a + _SERIES_REACH:
            return _lig_series(a, x)
        return math.gamma(a) - _uig_continued_fraction(a, x)

    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.zeros(x.shape)
    lo, hi = x.min(), x.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("lower_incomplete_gamma requires finite arguments")
    if lo < 0.0:
        raise ValueError(f"argument must be nonnegative, got {lo!r}")
    if hi < a + _SERIES_REACH:
        return _lig_series_array(a, x, float(hi))
    out = np.empty(x.shape)
    fraction = x >= a + _SERIES_REACH
    if lo < a + _SERIES_REACH:
        series = ~fraction
        below = x[series]
        out[series] = _lig_series_array(a, below, float(below.max()))
    out[fraction] = [math.gamma(a) - _uig_continued_fraction(a, v)
                     for v in x[fraction].tolist()]
    return out


# ---------------------------------------------------------------------------
# Gaussian hypergeometric function, z <= 0 branch
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 1000
# Within this distance of an integer b - a the connection formula's two terms
# grow like 1/distance and cancel (3e-14 relative error at 0.02, 8e-13 at
# 3e-4), so the Euler integral takes those points.
_DEGENERATE_GAP = 0.05


def _hyp_series(a: float, b: float, c: float, x: np.ndarray) -> np.ndarray:
    """Maclaurin sum of 2F1(a, b; c; x) for 0 <= x <= 1/2 and order-one
    parameters, one running term and partial sum per element.

    Each element leaves the sum once its term falls below half an ulp of its
    partial sum, so a value does not depend on the other elements.
    """
    out = np.empty(x.shape)
    left = np.arange(x.size)  # indices of the unconverged elements
    term = np.ones(x.shape)
    total = np.ones(x.shape)
    for n in range(_SERIES_MAX_TERMS):
        if left.size == 0:
            return out
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        total += term
        done = np.abs(term) <= 2.0 ** -53 * np.abs(total)
        if np.any(done):
            out[left[done]] = total[done]
            keep = ~done
            left, term, total, x = left[keep], term[keep], total[keep], x[keep]
    raise QuadratureError(
        "hypergeometric series did not converge", float(total[0]), float(abs(term[0]))
    )


def _reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), zero at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


# Composite Gauss-Legendre machinery for the Euler integral
#   2F1(a,b;c;z) = Gamma(c)/(Gamma(b)Gamma(c-b)) *
#                  int_0^1 t^(b-1) (1-t)^(c-b-1) (1-z t)^(-a) dt.
# Panels shrink geometrically towards each endpoint so the power-law factors
# and the (1 - z t) transition are resolved at every scale; the remaining
# endpoint slivers are added in closed form.
_EULER_CUT = 1e-20
# Flattened nodes and weights over all panels, distance from the endpoint.
_EULER_T, _EULER_W = (a.ravel() for a in geometric_rule(
    *np.polynomial.legendre.leggauss(20), _EULER_CUT, 0.5))


def _euler_2f1(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """2F1 for z <= 0, c > b > 0 by the composite Euler rule (2,640 nodes per
    point), one point at a time so that a value does not depend on the others.

    The left half runs t from 0, the right half from 1, where
    (1 - z t)^(-a) becomes (1 - z (1 - t'))^(-a); each half adds the
    closed-form sliver below the innermost panel edge.
    """
    t = _EULER_T
    left = _EULER_W * t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0)
    right = _EULER_W * t ** (c - b - 1.0) * (1.0 - t) ** (b - 1.0)
    left_sliver = _EULER_CUT ** b / b
    right_sliver = _EULER_CUT ** (c - b) / (c - b)
    prefactor = math.exp(math.lgamma(c) - math.lgamma(b) - math.lgamma(c - b))
    out = np.empty(z.shape)
    for i, zi in enumerate(z):
        near = float(np.dot(left, (1.0 - zi * t) ** (-a))) + left_sliver
        far = float(np.dot(right, (1.0 - zi * (1.0 - t)) ** (-a)))
        out[i] = prefactor * (near + far + (1.0 - zi) ** (-a) * right_sliver)
    return out


def gauss_2f1(a: float, b: float, c: float, z) -> float | np.ndarray:
    """Gaussian hypergeometric function 2F1(a, b; c; z) for z <= 0, c > b > 0.

    After the Pfaff transform F(a,b;c;z) = (1-z)^(-a) F(a, c-b; c; w),
    w = z/(z-1) in [0, 1): the series in w for w <= 1/2 (or any w when a is
    a nonpositive integer, where it is a polynomial), the connection formula
    in 1 - w = 1/(1-z) above, and the composite Euler integral where b - a is
    within 0.05 of an integer. Against 30-digit mpmath the relative
    error is below 1e-14 for order-one parameters and z down to -1e12, the
    edges of that band included. Accepts a scalar or array ``z``; every
    element is computed independently, so an array gives the same bits as
    its elements passed one at a time.
    """
    if not all(math.isfinite(v) for v in (a, b, c)):
        raise ValueError("gauss_2f1 parameters must be finite")
    if b <= 0.0 or c <= b:
        raise ValueError(f"gauss_2f1 requires c > b > 0, got b={b!r}, c={c!r}")

    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("gauss_2f1 argument must be finite")
    if np.any(z_arr > 0.0):
        raise ValueError("gauss_2f1 supports only the z <= 0 branch")

    shape = z_arr.shape
    z_arr = z_arr.ravel()
    one_minus_z = 1.0 - z_arr
    w = -z_arr / one_minus_z
    result = np.empty(z_arr.shape)
    near = (w <= 0.5) | (a <= 0.0 and a == math.floor(a))
    result[near] = one_minus_z[near] ** (-a) * _hyp_series(a, c - b, c, w[near])
    far = ~near
    if np.any(far):
        if abs(b - a - round(b - a)) < _DEGENERATE_GAP:
            result[far] = _euler_2f1(a, b, c, z_arr[far])
        else:
            v = 1.0 / one_minus_z[far]
            g1 = math.gamma(c) * math.gamma(b - a) * _reciprocal_gamma(c - a) / math.gamma(b)
            g2 = math.gamma(c) * math.gamma(a - b) * _reciprocal_gamma(a) / math.gamma(c - b)
            result[far] = (
                g1 * one_minus_z[far] ** (-a) * _hyp_series(a, c - b, a - b + 1.0, v)
                + g2 * one_minus_z[far] ** (-b) * _hyp_series(c - a, b, b - a + 1.0, v)
            )
    return float(result[0]) if scalar else result.reshape(shape)


# ---------------------------------------------------------------------------
# Standard normal law
# ---------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if math.isnan(x):
        raise ValueError("normal_cdf received NaN")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    if math.isnan(x):
        raise ValueError("normal_pdf received NaN")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)
