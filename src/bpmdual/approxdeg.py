"""Minimal pointwise-approximation degree of AND and the matching degree bound.

A symmetric approximant of AND_m is a univariate polynomial p with
|p(k)| <= eps for k = 0..m-1 and |p(m) - 1| <= eps.  Scaling p by p(m)
shows degree d < m suffices exactly when

    nu*(d) = max{ q(m) : deg q <= d, |q(k)| <= 1 for k = 0..m-1 }

reaches (1 - eps)/eps; degree m always suffices (exact interpolation).
For a (d+1)-point node set X in the grid, let q interpolate alternating
+-1 data on X; then V(X) = q(m) = sum_i prod_{j != i} (m - x_j)/|x_i - x_j|
bounds nu*(d) from above, and q/M, with M the largest |q| on the grid, is
feasible with value V(X)/M.  So V(X) < target proves d infeasible and
V(X)/M >= target proves it feasible; at the optimal X, M = 1.

Single-point exchange lowers V(X) until one of the two holds.  Doubles
cannot hold V(X) or the targets (they pass 2^900), so every verdict rests
on one enclosure: q at the scanned grid points and V(X) are formed as
float mantissa times 2^e, each step one correctly rounded IEEE operation,
under Higham's gamma_k error bound.  What the bound cannot decide is
settled in exact big-integer/rational arithmetic.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from ._errors import DomainError, NumericalFailure, SizeLimitError
from .bigraph import BipartiteGraph, all_graphs, complement, has_perfect_matching
from .polyspace import materialize

AND_M_MAX = 256  # direct-call cap; the degree-bound pipeline may exceed it
BPM_N_MAX = 64
ASSEMBLE_N_MAX = 3
DEFAULT_TOLERANCE = Fraction(1, 10**12)

_EXCHANGE_MAX_ITER = 4000
_LOG_MARGIN = 1e-9  # natural-log slack under which a swap asks the enclosure
_MEMO_SIZE = 1024
_BLOCK = 256  # rows of distances or terms per vectorized block
_U = 2.0**-53  # unit roundoff of IEEE double


# ---------------------------------------------------------------------------
# Witness polynomials


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Exact polynomial given by its values at degree + 1 distinct integer
    nodes in [0, m], sorted ascending; evaluated in Lagrange form."""

    m: int
    nodes: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError(f"nodes must be strictly increasing, got {self.nodes}")

    @classmethod
    def alternating(cls, m: int, nodes: Sequence[int]) -> UnivariatePolynomial:
        """The interpolant of +-1 data on sorted nodes, +1 at the largest."""
        d = len(nodes) - 1
        signs = tuple(Fraction(1 if (d - i) % 2 == 0 else -1) for i in range(d + 1))
        return cls(m, tuple(nodes), signs)

    @property
    def degree(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def _weights(self) -> tuple[list[int], int]:
        """Integer weights w_i and one denominator L with w_i / L = v_i / D_i.

        With s = x_d - x_0, the differences from x_i to the other nodes and
        to the free points y of [x_0, x_d] are 1..x_i - x_0 and 1..x_d - x_i,
        so |D_i| prod_y |x_i - y| C(s, x_i - x_0) = s!.  For v_i = n_i/den_i
        and V = lcm(den_i), L = s! V and w_i = sign(D_i) n_i (V / den_i)
        C(s, x_i - x_0) prod_y |x_i - y|: no gcd and no division by a big integer."""
        x0, span = self.nodes[0], self.nodes[-1] - self.nodes[0]
        nodes = set(self.nodes)
        free, binomials, c = [], [], 1
        for k in range(span + 1):  # c = C(s, k), one small step per point
            if x0 + k in nodes:
                binomials.append(c)
            else:
                free.append(x0 + k)
            c = c * (span - k) // (k + 1)
        dens = [v.denominator for v in self.values]
        lcm = math.lcm(*dens)
        d = self.degree
        weights = [
            (v.numerator if (d - i) % 2 == 0 else -v.numerator)
            * (lcm // den)
            * binomial
            * _product([abs(x - y) for y in free])
            for i, (x, v, den, binomial) in enumerate(zip(self.nodes, self.values, dens, binomials))
        ]
        return weights, math.factorial(span) * lcm

    def evaluate(self, t) -> Fraction:
        """p(t) = sum_i v_i omega(t) / ((t - x_i) D_i) at a rational point,
        exact.  For t = p/q, omega(t) / (t - x_i) = (W / (p - q x_i)) / q^d
        with W the product of the p - q x_j, so p(t) is one fraction over
        L q^d, reduced once; for sorted nodes sign(D_i) = (-1)^(d - i)."""
        t = Fraction(t)
        shifted = [t.numerator - t.denominator * x for x in self.nodes]
        if 0 in shifted:
            return Fraction(self.values[shifted.index(0)])
        omega = _product(shifted)
        weights, denominator = self._weights
        return Fraction(
            sum(w * (omega // s) for w, s in zip(weights, shifted)),
            denominator * t.denominator**self.degree,
        )

    def integer_values(self) -> list[Fraction]:
        return [self.evaluate(k) for k in range(self.m + 1)]


def _checked_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 3):
        raise DomainError(f"epsilon must lie in (0, 1/3], got {eps}")
    return eps


def _checked_and_args(m: int, eps) -> Fraction:
    """eps as a Fraction once m and eps are valid for one AND query."""
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    if m > AND_M_MAX:
        raise SizeLimitError("m", m, AND_M_MAX)
    return _checked_eps(eps)


def _in_regime(m: int, eps: Fraction) -> bool:
    """eps >= 2^(-m log2 m), the regime of the cited AND degree bound."""
    return m < 2 or _log2_fraction(eps) >= -m * math.log2(m)


def epsilon_prime(n: int, eps) -> Fraction:
    """Per-monomial error budget: eps * 2^(-2n) * (n+2)^(-(2n+2)), exact."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    return _checked_eps(eps) / (1 << (2 * n)) / Fraction((n + 2) ** (2 * n + 2))


def _log2_fraction(fr: Fraction) -> float:
    """log2 of a positive rational without overflowing float conversion."""
    if fr <= 0:
        raise ValueError("positive value required")
    return math.log2(fr.numerator) - math.log2(fr.denominator)


# ---------------------------------------------------------------------------
# Node sets: exact values and the equilibrium seed


def _product(factors: list[int]) -> int:
    """Product by a balanced pairwise tree, so that each big-integer
    multiplication pairs operands of similar size."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _equilibrium_mass(t: np.ndarray, c: float) -> np.ndarray:
    """Mass on [0, t] (t in [0, 1]) of the constrained equilibrium density
    on [-1, 1] for count = c m nodes on an m-point grid: 1/(2c) where the
    nodes fill the grid, |x| >= r = sqrt(1 - c^2), and (1/(pi c))
    arctan(c / sqrt(r^2 - x^2)) between (Rakhmanov 1996; Dragnev & Saff
    1997).  Closed form; half the mass lies on [0, 1]."""
    r = math.sqrt(1 - c * c)
    mass = (c - 1 + t) / (2 * c)
    inner = t < r
    t = t[inner]
    s = np.sqrt(r * r - t * t)
    mass[inner] = (
        t * np.arctan2(c, s) + c * np.arcsin(t / r) - np.arctan2(c * t, s)
    ) / (math.pi * c)
    return mass


def _equilibrium_int_points(right_end: int, count: int) -> list[int]:
    """count >= 2 strictly increasing integers in [0, right_end] at the
    quantiles i/(count - 1) of the constrained equilibrium density, its
    [-1, 1] mapped onto the grid."""
    m = right_end + 1
    x = np.linspace(-1.0, 1.0, m)
    half = _equilibrium_mass(np.abs(x), min(count / m, 1.0))
    cdf = 0.5 + np.where(x < 0, -half, half)
    raw = np.interp(np.linspace(0.0, 1.0, count), cdf, np.arange(m, dtype=np.float64))
    # rounded quantiles, then the least lift that makes x_i - i
    # nondecreasing and at most right_end - count + 1, so the points are
    # strictly increasing and end at or below right_end
    k = np.arange(count)
    xs = np.minimum(np.maximum.accumulate(np.rint(raw) - k), right_end - count + 1) + k
    if xs[0] < 0:
        raise ValueError(f"cannot place {count} points in [0, {right_end}]")
    return xs.astype(np.int64).tolist()


# ---------------------------------------------------------------------------
# The proven enclosure of q and V(X)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error of k rounded
    multiplications and divisions, and of summing k + 1 terms per |term|."""
    return k * _U / (1 - k * _U)


def _row_products(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row products of a 2-D array of integers in [1, 4096] whose width is
    a multiple of four (the workspace of `_distance_products`), as mantissa
    in [0.5, 1) times 2^exponent.  Groups of four multiply exactly (below
    2^48), frexp splits off exponents exactly, and mantissas multiply in
    chunks of 64, which cannot underflow: a row of k factors other than the
    padding ones takes at most k - 1 correctly rounded multiplications."""
    rows = len(a)
    a = a[:, 0::4] * a[:, 1::4] * a[:, 2::4] * a[:, 3::4]
    exp = np.zeros(rows, dtype=np.int64)
    while True:
        a, e = np.frexp(a)
        exp += e.sum(axis=1)
        if a.shape[1] == 1:
            return a[:, 0], exp
        a = _padded(a, 64).reshape(rows, -1, 64).prod(axis=2)


def _padded(a: np.ndarray, k: int) -> np.ndarray:
    """a with columns of ones appended up to a multiple of k."""
    out = np.ones((len(a), -(-a.shape[1] // k) * k))
    out[:, : a.shape[1]] = a
    return out


def _distance_products(xf: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """prod_j |r - x_j| over the nodes xf for each row r of [xf; ys], as
    mantissa and exponent.  A node's own distance counts as 1, so the node
    rows give |D_i| and the point rows |omega(y)|.  Blocks of rows go
    through one workspace whose padding columns stay ones."""
    rows = np.concatenate([xf, ys])
    work = np.ones((min(len(rows), _BLOCK), -(-len(xf) // 4) * 4))
    mants, exps = [], []
    for start in range(0, len(rows), _BLOCK):
        r = rows[start : start + _BLOCK]
        block = work[: len(r)]
        dist = block[:, : len(xf)]
        np.subtract(r[:, None], xf[None, :], out=dist)
        np.abs(dist, out=dist)
        own = np.arange(min(len(r), len(xf) - start))  # node rows of this block
        dist[own, own + start] = 1.0
        mant, exp = _row_products(block)
        mants.append(mant)
        exps.append(exp)
    return np.concatenate(mants), np.concatenate(exps)


def _enclose(xf: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Proven bounds (s, err, e): q(y) lies in [s - err, s + err] * 2^e for
    each y in ys off the sorted nodes xf, q the interpolant of alternating
    data ending with +1; |D_i| and |omega(y)| come from one pass of
    `_distance_products`.

    Each term |t_i| = |omega(y)| / |y - x_i| / |D_i| takes d roundings for
    omega, d - 1 for |D_i|, one for 1/dm_i and two for the division and
    the product, so |t_i^ - t_i| <= gamma_{2d+2} |t_i| (Higham, lemma
    3.1); summing d + 1 signed terms adds gamma_d sum|t_i^| (ch. 4), in all
    (gamma_{2d+2}(1 + gamma_d) + gamma_d) sum|t_i|.  Terms are scaled by
    2^-e, e the largest exponent, and those that underflow to subnormals
    lose at most 2^-1074 each.
    """
    d = len(xf) - 1
    # the factor 1 + 2^-20 covers using the computed sum of |t_i^| for the
    # exact one (a (1 - gamma)^-2 factor) and the rounding of `err` itself
    coeff = (_gamma(2 * d + 2) * (1 + _gamma(d)) + _gamma(d)) * (1 + 2.0**-20)
    underflow = (d + 1) * 2.0**-1073
    mant, exp = _distance_products(xf, ys)
    dm, de, wm, we = mant[: d + 1], exp[: d + 1], mant[d + 1 :], exp[d + 1 :]
    low = de.min()
    inv = np.ldexp(1.0 / dm, low - de)
    work = np.empty((min(len(ys), _BLOCK), d + 1))
    total, abs_total = np.empty(len(ys)), np.empty(len(ys))
    for start in range(0, len(ys), _BLOCK):
        stop = start + _BLOCK
        y = ys[start:stop]
        terms = work[: len(y)]
        np.subtract(y[:, None], xf[None, :], out=terms)
        np.divide(wm[start:stop, None], terms, out=terms)
        terms *= inv
        terms.sum(axis=1, out=total[start:stop])
        np.abs(terms, out=terms).sum(axis=1, out=abs_total[start:stop])
    # omega(y) changes sign once per node above y
    above = len(xf) - np.searchsorted(xf, ys)
    return np.where(above % 2, -total, total), coeff * abs_total + underflow, we - low


def _magnitude_bounds(s: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on |value| from [s - err, s + err], rounded outward."""
    lo = np.maximum(np.nextafter(np.abs(s) - err, -np.inf), 0.0)
    return lo, np.nextafter(np.abs(s) + err, np.inf)


def _scaled_fraction(x: float, e: int) -> Fraction:
    return Fraction(float(x)) * Fraction(2) ** int(e)


def _value_bounds(m: int, xf: np.ndarray) -> tuple[Fraction, Fraction]:
    """Proven lower and upper bounds on V(X) for the nodes xf."""
    s, err, e = _enclose(xf, np.array([float(m)]))
    lo, hi = _magnitude_bounds(s, err)
    return _scaled_fraction(lo[0], e[0]), _scaled_fraction(hi[0], e[0])


# ---------------------------------------------------------------------------
# The exchange engine


def _term_logs(m: int, xf: np.ndarray) -> np.ndarray:
    """ln of each term prod_{j != i} (m - x_j)/|x_i - x_j| of V(X) on the
    sorted nodes xf, in floats.  The sums of ln|x_i - x_j| over j are one
    real-FFT convolution of the node indicator with ln|t| (ln 1 = 0 at
    t = 0), circular over a power of two >= 2m - 1 so no difference wraps."""
    size = 1 << (2 * m - 2).bit_length()
    idx = xf.astype(np.int64)
    t = np.arange(size)
    kernel = np.fft.rfft(np.log(np.maximum(np.minimum(t, size - t), 1)))
    gaps = np.fft.irfft(np.fft.rfft(np.bincount(idx, minlength=size)) * kernel, size)[idx]
    log_m = np.log(m - xf)
    return log_m.sum() - log_m - gaps


@dataclass(frozen=True)
class _Scan:
    """What one enclosure pass proved about the current node set."""

    violations: list[tuple[int, int]]  # (grid point, sign of q) with |q| > 1, strongest first
    verdict: bool | None  # nu*(d) >= target, or None when the scan did not decide it


class _Exchange:
    """Single-point exchange minimizing V(X).

    The state is m, the sorted nodes as float64 (`_xf`; grid points are
    integers far below 2^53) and the log of each term of V(X) from
    `_term_logs`; nothing is cached.  A swap builds the next state as new
    arrays in O(d) vector work and adopts it only when V falls, so nothing
    is ever rolled back.  The logs only steer: verdicts come from
    `find_violations`, the engine's only route to exact arithmetic, and a
    swap too close to call in logs asks the enclosure of V for both sets.
    """

    def __init__(self, m: int, xs: Sequence[int]):
        self.m = m
        self._xf = np.array(sorted(xs), dtype=np.float64)
        self._term_logs = _term_logs(m, self._xf)

    @property
    def xs(self) -> list[int]:
        """The nodes as sorted Python ints."""
        return self._xf.astype(np.int64).tolist()

    def logv(self) -> float:
        return _log_sum(self._term_logs)

    def find_violations(self, target: Fraction) -> _Scan:
        """Enclose q at every free grid point and V(X).

        If no point is a proven violation |q| > 1, the points the bound
        leaves undecided are settled by the exact interpolant, built once
        if at all.  The verdict is infeasible if the bound on V(X) lies
        below the target, feasible if V(X)/M >= target with M the proven
        grid maximum of |q| (1 once every free point is proven within
        [-1, 1]).  Only when nothing is left to swap and V(X) straddles the
        target is V(X) = q(m) computed exactly."""
        points = np.setdiff1d(np.arange(float(self.m)), self._xf, assume_unique=True)
        ys = np.append(points, float(self.m))
        s, err, e = _enclose(self._xf, ys)
        lo, hi = _magnitude_bounds(s, err)
        v_lo, v_hi = _scaled_fraction(lo[-1], e[-1]), _scaled_fraction(hi[-1], e[-1])
        s, e, lo, hi = s[:-1], e[:-1], lo[:-1], hi[:-1]
        # comparisons with 1 survive ldexp's overflow and underflow
        proven = np.ldexp(lo, e) > 1
        unsettled = np.ldexp(hi, e) > 1  # not proven within [-1, 1]
        idx = np.nonzero(proven)[0]
        idx = idx[np.argsort(-(np.log(lo[idx]) + e[idx] * math.log(2.0)), kind="stable")]
        violations = [(int(points[i]), 1 if s[i] > 0 else -1) for i in idx]
        q = cache(lambda: UnivariatePolynomial.alternating(self.m, self.xs))
        if not violations:
            for i in np.nonzero(unsettled)[0]:
                qv = q().evaluate(int(points[i]))
                if abs(qv) > 1:
                    violations.append((int(points[i]), 1 if qv > 0 else -1))
                else:
                    unsettled[i] = False
        max_q = Fraction(1)
        if unsettled.any():
            mant, exp = np.frexp(hi[unsettled])
            exp = exp + e[unsettled]
            top = exp.max()
            max_q = _scaled_fraction(mant[exp == top].max(), top)
        verdict = None
        if v_hi < target:
            verdict = False
        elif v_lo >= target * max_q:
            verdict = True
        elif not violations:  # max_q = 1: q itself is feasible
            verdict = q().evaluate(self.m) >= target
        return _Scan(violations, verdict)

    def _replaced(self, pos: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        """The state (nodes, term logs) of the node set with the node at
        index pos swapped for grid point y, built as new arrays in O(d)
        vector work; the current state is left as it is."""
        xf = self._xf
        xr = xf[pos]
        ins = int(np.searchsorted(xf, y) - (xr < y))  # y's slot once xr is out
        log_y = np.log(np.abs(xf - y))
        gap_r = np.abs(xf - xr)
        gap_r[pos] = 1.0
        log_m_y = math.log(self.m - y)
        log_m_r = math.log(self.m - xr)
        # every other term gains log(m - y) - log|x_j - y| and loses the
        # same for x_r; slot pos is overwritten by the new node's own term
        logs = self._term_logs + (np.log(gap_r) - log_y + (log_m_y - log_m_r))
        own = np.log(self.m - xf).sum() - log_m_r - (log_y.sum() - log_y[pos])
        xf = xf.copy()
        if ins > pos:
            logs[pos:ins] = logs[pos + 1 : ins + 1]
            xf[pos:ins] = xf[pos + 1 : ins + 1]
        elif ins < pos:
            logs[ins + 1 : pos + 1] = logs[ins:pos]
            xf[ins + 1 : pos + 1] = xf[ins:pos]
        logs[ins] = own
        xf[ins] = y
        return xf, logs

    def swap_toward(self, y: int, s: int) -> bool:
        """Exchange y (where sign(q(y)) = s) into the node set so that V
        strictly decreases.

        Dropping the alternation neighbour whose sign matches s keeps the
        data alternating, and then V falls by (|q(y)| - 1) |L_y(m)| > 0, so
        for a fresh violation the drop always succeeds.  Returns False, with
        the state unchanged, when V does not fall: a scan's entry whose sign
        went stale.
        """
        pos = int(np.searchsorted(self._xf, y))
        d = len(self._xf) - 1
        if 0 < pos <= d:  # y lies between nodes pos - 1 and pos
            near, other = pos, pos - 1
        else:  # y lies past an end: the end node next to it, or the far one
            near, other = (0, d) if pos == 0 else (d, 0)
        drop = near if s == (1 if (d - near) % 2 == 0 else -1) else other
        xf, logs = self._replaced(drop, y)
        before_log, after_log = self.logv(), _log_sum(logs)
        if after_log < before_log - _LOG_MARGIN or (
            after_log < before_log + _LOG_MARGIN
            and _value_bounds(self.m, xf)[1] < _value_bounds(self.m, self._xf)[0]
        ):
            self._xf, self._term_logs = xf, logs
            return True
        return False


def _log_sum(logs: np.ndarray) -> float:
    """log(sum(exp(logs))) without overflow."""
    peak = logs.max()
    return float(peak + np.log(np.exp(logs - peak).sum()))


def _probe(engine: _Exchange, target: Fraction) -> bool:
    """Exchange on the engine's node set until a scan proves whether
    nu*(d) reaches the target; the engine keeps the nodes that proved it.
    No probe needs the optimum.  Each round swaps in the scan's violations,
    skipping entries gone stale.  No entry can be a node by its turn: a
    scan's violations are distinct free points, and a swap brings in only
    its own."""
    d = len(engine._xf) - 1
    for _ in range(_EXCHANGE_MAX_ITER):
        scan = engine.find_violations(target)
        if scan.verdict is not None:
            return scan.verdict
        # a list, not a generator, so that every swap runs
        if not any([engine.swap_toward(y, s) for y, s in scan.violations]):
            raise NumericalFailure(f"exchange stalled at m={engine.m}, d={d}")
    raise NumericalFailure(f"exchange did not converge at m={engine.m}, d={d}")


def _search(m: int, target: Fraction) -> tuple[int, list[int]]:
    """Least degree whose best approximation error meets the target ratio
    (callers pass (1 - eps)/eps >= 2), and the node set that proved it
    feasible (empty for m).

    The search probes the least degree whose equilibrium seed has V(X) at
    or above the target, found by bisection, then walks down while probes
    stay feasible or up until one is, on proven verdicts alone.  Each
    degree's seed is built once per call: bisection only reads its ln V(X),
    and each walk moves d one way, so no degree is probed twice.
    """
    if Fraction((1 << m) - 1) < target:
        return m, []  # even full alternation cannot reach the target
    log_target = _log2_fraction(target) * math.log(2.0)

    @cache
    def seed(d: int) -> _Exchange:
        return _Exchange(m, _equilibrium_int_points(m - 1, d + 1))

    # ln V(X) on a seed estimates ln nu*(d) with no scan: V(X) bounds
    # nu*(d) from above, and the seed lies near the optimum.  The estimate
    # never decreases with d, so bisection finds where it first reaches the
    # target.  ln nu*(0) = 0 and ln nu*(m - 1) = ln(2^m - 1): degree 0 is
    # infeasible and degree m - 1 feasible, so both walks end in range
    d = bisect_left(range(m - 1), True, lo=1, key=lambda d: seed(d).logv() >= log_target)
    engine = seed(d)
    if _probe(engine, target):
        while d > 1 and _probe(below := seed(d - 1), target):
            d, engine = d - 1, below
    else:
        d += 1
        while not _probe(engine := seed(d), target):
            d += 1
    return d, engine.xs


@lru_cache(maxsize=_MEMO_SIZE)
def _min_feasible_degree(m: int, target: Fraction) -> int:
    """The degree `_search` finds, memoized: the engine's one cache across
    calls holds no node sets, and the degree depends on (m, target) alone."""
    return _search(m, target)[0]


def and_feasibility_target(eps: Fraction) -> Fraction:
    """Required growth ratio (1 - eps)/eps for a symmetric AND approximant."""
    return (1 - eps) / eps


def min_and_approx_degree(m: int, eps, tolerance: Fraction = DEFAULT_TOLERANCE) -> int:
    """Least degree of a univariate p with |p(k)| <= eps (k < m), |p(m)-1| <= eps.

    Decided by proven bounds on nu*(d) on both sides of the answer, so no
    slack enters the decision; `tolerance` is accepted and has no effect
    (reported degrees are tolerance-stable).
    """
    eps = _checked_and_args(m, eps)
    if not _in_regime(m, eps):
        warnings.warn(
            f"epsilon below the cited regime 2^(-m log2 m) for m={m}; computing anyway",
            stacklevel=2,
        )
    return _min_feasible_degree(m, and_feasibility_target(eps))


# ---------------------------------------------------------------------------
# Witness construction


def build_and_approximant(m: int, eps) -> UnivariatePolynomial:
    """A certified witness for min_and_approx_degree(m, eps).

    The witness is the alternating interpolant q on the node set that
    proved the degree feasible, scaled by eps/M with M its exact grid
    maximum (or by 1/q(m) where that overshoots), and is checked at every
    integer point in exact arithmetic against eps itself, without slack.
    """
    eps = _checked_and_args(m, eps)
    degree, nodes = _search(m, and_feasibility_target(eps))
    if degree >= m:
        poly = UnivariatePolynomial(m, tuple(range(m + 1)), (Fraction(0),) * m + (Fraction(1),))
        values = poly.integer_values()
    else:
        alternating = UnivariatePolynomial.alternating(m, nodes)
        q = alternating.integer_values()
        grid_max = max(abs(v) for v in q[:m])
        scale = eps / grid_max if q[m] / grid_max <= (1 + eps) / eps else 1 / q[m]
        poly = UnivariatePolynomial(m, alternating.nodes, tuple(scale * s for s in alternating.values))
        values = [scale * v for v in q]
    _check_witness(values, eps)
    return poly


def _check_witness(values: Sequence[Fraction], eps: Fraction) -> None:
    """Raise NumericalFailure unless |p(k)| <= eps for k < m and
    |p(m) - 1| <= eps, for values = p(0), ..., p(m); exact, no slack."""
    m = len(values) - 1
    for k in range(m):
        if abs(values[k]) > eps:
            raise NumericalFailure(f"witness violates |p({k})| <= eps")
    if abs(values[m] - 1) > eps:
        raise NumericalFailure("witness violates |p(m) - 1| <= eps")


# ---------------------------------------------------------------------------
# Multilinear duality


def dualize_polynomial(p: dict) -> dict:
    """p*(x) = 1 - p(1-x) for a multilinear coefficient map.

    Keys are collections of variable indices (frozensets in the result);
    coefficients may be int or Fraction and are preserved exactly.
    """
    acc: dict[frozenset, object] = {}
    for key, a in p.items():
        s = tuple(sorted(frozenset(key)))
        for size in range(len(s) + 1):
            sign = -1 if size % 2 else 1
            for sub in combinations(s, size):
                t = frozenset(sub)
                acc[t] = acc.get(t, 0) + sign * a
    out = {t: -v for t, v in acc.items()}
    out[frozenset()] = out.get(frozenset(), 0) + 1
    return {t: v for t, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# The matching-function degree bound


@dataclass(frozen=True)
class DegreeBoundReport:
    """Computed approximate-degree upper bound for the matching function."""

    n: int
    epsilon: Fraction
    epsilon_prime: Fraction
    and_degree: int
    threshold: int  # ceil(n^1.5): monomials below it are kept exact
    overall_bound: int
    certified: bool  # always True: a verdict the enclosure cannot prove raises NumericalFailure
    eps_in_regime: bool


def _ceil_n_to_3_2(n: int) -> int:
    cube = n**3
    root = math.isqrt(cube)
    return root if root * root == cube else root + 1


def bpm_degree_bound(n: int, eps) -> DegreeBoundReport:
    """Degree bound report: exact monomials below ceil(n^1.5), one AND
    approximant at the worst monomial size n^2 with budget epsilon_prime."""
    eps = Fraction(eps)
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    if n > BPM_N_MAX:
        raise SizeLimitError("n", n, BPM_N_MAX)
    ep = epsilon_prime(n, eps)
    m = n * n
    degree = _min_feasible_degree(m, and_feasibility_target(ep))
    threshold = _ceil_n_to_3_2(n)
    return DegreeBoundReport(
        n=n,
        epsilon=eps,
        epsilon_prime=ep,
        and_degree=degree,
        threshold=threshold,
        overall_bound=max(threshold, degree),
        certified=True,
        eps_in_regime=_in_regime(m, ep),
    )


# ---------------------------------------------------------------------------
# End-to-end approximant at tiny n


class BpmStarApproximant:
    """Pointwise approximant of the dual matching indicator on all inputs.

    Monomials with fewer than n^1.5 edges are kept exact; each larger
    monomial is replaced by the symmetric AND witness at its own size,
    evaluated at the count of its present edges.
    """

    def __init__(self, n: int, eps):
        eps = Fraction(eps)
        if n > ASSEMBLE_N_MAX:
            raise SizeLimitError("n", n, ASSEMBLE_N_MAX)
        self.n = n
        self.epsilon = eps
        self.epsilon_prime = epsilon_prime(n, eps)
        poly = materialize(n)
        cube = n**3
        self.exact_terms: dict[int, int] = {}
        self.approx_terms: list[tuple[int, int, int]] = []
        sizes = set()
        for mask, c in poly.sorted_items():
            size = mask.bit_count()
            if size * size < cube:
                self.exact_terms[mask] = c
            else:
                self.approx_terms.append((mask, c, size))
                sizes.add(size)
        self.witnesses: dict[int, UnivariatePolynomial] = {}
        self.value_tables: dict[int, list[Fraction]] = {}
        for size in sorted(sizes):
            w = build_and_approximant(size, self.epsilon_prime)
            self.witnesses[size] = w
            self.value_tables[size] = w.integer_values()
        exact_deg = max((m.bit_count() for m in self.exact_terms), default=0)
        approx_deg = max((w.degree for w in self.witnesses.values()), default=0)
        self.degree = max(exact_deg, approx_deg)
        self.max_error = self._certify()

    def evaluate(self, x: BipartiteGraph) -> Fraction:
        xm = x.mask
        total = Fraction(
            sum(c for mask, c in self.exact_terms.items() if mask & ~xm == 0)
        )
        for mask, c, size in self.approx_terms:
            total += c * self.value_tables[size][(mask & xm).bit_count()]
        return total

    def dual_evaluate(self, x: BipartiteGraph) -> Fraction:
        """1 - A(1 - x): approximates the matching indicator itself."""
        return 1 - self.evaluate(complement(x))

    def _max_error(self, error) -> Fraction:
        """Largest error(x) over every graph on n + n vertices."""
        return max(map(error, all_graphs(self.n)))

    def _certify(self) -> Fraction:
        worst = self._max_error(
            lambda x: abs(self.evaluate(x) - (0 if has_perfect_matching(complement(x)) else 1))
        )
        if worst > self.epsilon:
            raise NumericalFailure(
                f"assembled approximant misses the budget: {worst} > {self.epsilon}"
            )
        return worst

    def dual_max_error(self) -> Fraction:
        return self._max_error(
            lambda x: abs(self.dual_evaluate(x) - (1 if has_perfect_matching(x) else 0))
        )


def assemble_bpm_approximant(n: int, eps) -> BpmStarApproximant:
    """Build and exhaustively certify the dual-side approximant (n <= 3)."""
    return BpmStarApproximant(n, eps)
