"""Minimal pointwise-approximation degree of AND and the matching degree bound.

A symmetric approximant of AND_m is a univariate polynomial p with
|p(k)| <= eps for k = 0..m-1 and |p(m) - 1| <= eps.  Scaling p by p(m)
shows degree d < m suffices exactly when

    nu*(d) = max{ q(m) : deg q <= d, |q(k)| <= 1 for k = 0..m-1 }

reaches (1 - eps)/eps; degree m always suffices (exact interpolation).
Writing the optimum over (d+1)-point node sets X in the grid,

    nu*(d) = min_X V(X),    V(X) = sum_i prod_{j != i} (m - x_j)/|x_i - x_j|,

because any feasible q has q(m) = sum_i L_i(m) q(x_i) <= V(X).  A set X is
optimal exactly when its alternating +-1 interpolant stays within [-1, 1]
on the whole grid, which makes that interpolant feasible with value V(X).

The minimum is found by single-point exchange, the dual-simplex
specialization of the feasibility LP.  Double precision cannot represent
the epsilon values the matching bound feeds in (they reach 1e-275), so the
descent runs on float logarithms and every decision inside the float
margin, plus the final optimality certificate, is settled in exact
big-integer/rational arithmetic.  Above the exchange size cap the same
descent runs without the exact end-game; its upper bounds keep
"infeasible" verdicts rigorous and the feasible side is reported
uncertified.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from ._errors import DomainError, NumericalFailure, SizeLimitError
from .bigraph import BipartiteGraph, complement, has_perfect_matching
from .oracle import bpm_star_value
from .polyspace import materialize

AND_M_MAX = 256  # direct-call cap; the degree-bound pipeline may exceed it
AND_M_HARD_MAX = 4096
EXCHANGE_M_MAX = 1024  # largest grid the certified exchange engine runs on
BPM_N_MAX = 64
ASSEMBLE_N_MAX = 3
DEFAULT_TOLERANCE = Fraction(1, 10**12)

_EXCHANGE_MAX_ITER = 4000
_LOG_MARGIN = 1e-6  # natural-log slack under which verdicts escalate to exact
_WARM_START_MAX = 192  # farthest exchanged degree a probe adapts instead of reseeding
_MEMO_SIZE = 1024


# ---------------------------------------------------------------------------
# Witness polynomials


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Exact polynomial in the Chebyshev basis mapped onto [0, m]."""

    m: int
    coefficients: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        last = 0
        for i, c in enumerate(self.coefficients):
            if c != 0:
                last = i
        return last

    def evaluate(self, t) -> Fraction:
        """Clenshaw evaluation at a rational point; exact."""
        u = 2 * Fraction(t) / self.m - 1
        b1 = Fraction(0)
        b2 = Fraction(0)
        for c in reversed(self.coefficients[1:]):
            b1, b2 = c + 2 * u * b1 - b2, b1
        c0 = self.coefficients[0] if self.coefficients else Fraction(0)
        return c0 + u * b1 - b2

    def integer_values(self) -> list[Fraction]:
        return [self.evaluate(k) for k in range(self.m + 1)]


def epsilon_prime(n: int, eps) -> Fraction:
    """Per-monomial error budget: eps * 2^(-2n) * (n+2)^(-(2n+2)), exact."""
    eps = Fraction(eps)
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    if not 0 < eps <= Fraction(1, 3):
        raise DomainError(f"epsilon must lie in (0, 1/3], got {eps}")
    return eps / (1 << (2 * n)) / Fraction((n + 2) ** (2 * n + 2))


def _log2_int(v: int) -> float:
    b = v.bit_length()
    if b <= 53:
        return math.log2(v)
    return math.log2(v >> (b - 53)) + (b - 53)


def _log2_fraction(fr: Fraction) -> float:
    """log2 of a positive rational without overflowing float conversion."""
    if fr <= 0:
        raise ValueError("positive value required")
    return _log2_int(fr.numerator) - _log2_int(fr.denominator)


# ---------------------------------------------------------------------------
# Node sets: exact values and the Chebyshev seed


def _product(factors: list[int]) -> int:
    """Product by a balanced pairwise tree, so that each big-integer
    multiplication pairs operands of similar size."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _abs_denominators(xs: Sequence[int]) -> list[int]:
    """|prod_{j != i} (x_i - x_j)| for each node, as exact integers."""
    return [abs(_product([xi - xj for xj in xs if xj != xi])) for xi in xs]


def _value_exact(m: int, xs: Sequence[int], abs_d: Sequence[int]) -> Fraction:
    """V(X): value at m of the alternating interpolant, exact and positive."""
    omega = math.prod([m - xj for xj in xs])
    return sum(Fraction(omega // (m - xi), d) for xi, d in zip(xs, abs_d))


def _q_exact(xs: Sequence[int], abs_d: Sequence[int], sigma_last: int, y: int) -> Fraction:
    """Exact value at grid point y of the interpolant through (x_i, sigma_i).

    The data alternates and ends with sigma_last at the largest node; for
    sorted nodes, sign(prod_{j != i}(x_i - x_j)) also alternates, so each
    term is sigma_last * omega(y) / ((y - x_i) |D_i|).
    """
    omega = math.prod([y - xj for xj in xs])
    total = sum(Fraction(omega // (y - xi), d) for xi, d in zip(xs, abs_d))
    return sigma_last * total


def _chebyshev_int_points(right_end: int, count: int) -> list[int]:
    """count strictly increasing integers in [0, right_end], Chebyshev-spread."""
    if count == 1:
        return [right_end]
    raw = [
        0.5 * (1 - math.cos(math.pi * i / (count - 1))) * right_end
        for i in range(count)
    ]
    xs = [round(v) for v in raw]
    for i in range(1, count):
        xs[i] = max(xs[i], xs[i - 1] + 1)
    xs[-1] = min(xs[-1], right_end)
    for i in range(count - 2, -1, -1):
        xs[i] = min(xs[i], xs[i + 1] - 1)
    if xs[0] < 0:
        raise ValueError(f"cannot place {count} points in [0, {right_end}]")
    return xs


# ---------------------------------------------------------------------------
# The exchange engine (exact-certified for m <= EXCHANGE_M_MAX)


class _Exchange:
    """Single-point exchange minimizing V(X).

    Next to the sorted node list it keeps float state: the nodes as float64
    (`_xf`), the log of each term of V(X) and the running sum of
    log(m - x_j).  A swap updates every term in place with two O(d) log
    vectors and shifts one slot into sorted order, and every float scan
    re-derives that state from its own d x d row sums, so rounding drift
    never outlives one batch of swaps.  The exact integer denominators are
    recomputed lazily whenever a decision falls inside the float margin or
    a certificate is required, so the descent itself runs at float speed.
    """

    def __init__(self, m: int, xs: Sequence[int]):
        self.m = m
        self.xs = sorted(xs)
        self._abs_d: list[int] | None = None
        self._derive_logs()

    @property
    def abs_d(self) -> list[int]:
        if self._abs_d is None:
            self._abs_d = _abs_denominators(self.xs)
        return self._abs_d

    def _derive_logs(self) -> np.ndarray:
        """Recompute the float state from the node list; returns the row
        sums log |D_i| = sum_{j != i} log |x_i - x_j|."""
        xf = np.array(self.xs, dtype=np.float64)
        diff = np.abs(xf[:, None] - xf[None, :])
        np.fill_diagonal(diff, 1.0)
        log_d = np.log(diff).sum(axis=1)
        log_m = np.log(self.m - xf)
        self._xf = xf
        self._log_m_sum = float(log_m.sum())
        self._term_logs = self._log_m_sum - log_m - log_d
        return log_d

    def value_exact(self) -> Fraction:
        return _value_exact(self.m, self.xs, self.abs_d)

    def logv(self) -> float:
        peak = self._term_logs.max()
        return float(peak + np.log(np.exp(self._term_logs - peak).sum()))

    def _float_scan(
        self, stride: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per free grid point: scaled signed q, scaled error bound, log scale.

        |q(y)| = |q_scaled| * e^peak with the peak kept separate so nothing
        overflows; the error bound covers float rounding of the scaled sum.
        A stride > 1 samples every stride-th free point (cheap bulk passes).
        """
        # Re-deriving here bounds the drift of the swap updates: between two
        # scans at most one batch of swaps (no more than the free points)
        # accumulates, and every verdict inside _LOG_MARGIN goes to exact.
        log_d = self._derive_logs()
        xs = np.array(self.xs, dtype=np.int64)
        free = np.setdiff1d(np.arange(self.m, dtype=np.int64), xs, assume_unique=True)
        if stride > 1:
            free = free[:: stride]
        if free.size == 0:
            return free, np.empty(0), np.empty(0), np.empty(0)
        dist = free[:, None].astype(np.float64) - self._xf[None, :]
        log_abs_dist = np.log(np.abs(dist))
        log_omega = log_abs_dist.sum(axis=1)
        # term(y, i) = |omega(y)| / (|y - x_i| * |D_i|) signed by sign(y - x_i);
        # the global omega sign flips once per node above y.
        term_log = log_omega[:, None] - log_abs_dist - log_d[None, :]
        peak = term_log.max(axis=1)
        scaled = np.exp(term_log - peak[:, None])
        omega_sign = np.where((xs[None, :] > free[:, None]).sum(axis=1) % 2, -1.0, 1.0)
        q_scaled = (scaled * np.sign(dist)).sum(axis=1) * omega_sign
        # covers summation rounding and the log-accumulation error of the
        # term magnitudes (log sums reach ~2e4, so ~1e-12 relative per term)
        err_scaled = scaled.sum(axis=1) * len(self.xs) * 2.0**-45
        return free, q_scaled, err_scaled, peak

    def find_violations(
        self, float_only: bool = False, stride: int = 1
    ) -> tuple[list[tuple[int, int]], float]:
        """(grid point, sign of q) pairs with |q| > 1, strongest first, and
        an upper bound on ln max |q| over the scanned points (at least 0,
        since |q| = 1 on the nodes).

        Points whose cancellation exceeds float resolution are settled in
        exact arithmetic, but only once no float-confirmed violation is
        left: they matter solely for the final optimality certificate.
        With float_only the exact escalation is skipped entirely (used
        where certification is out of budget).
        """
        free, q_scaled, err_scaled, peak = self._float_scan(stride)
        if free.size == 0:
            return [], 0.0
        # |q| > 1 iff log|q_scaled| + peak > 0; err covers float rounding.
        with np.errstate(divide="ignore"):
            log_hi = np.log(np.abs(q_scaled) + err_scaled) + peak
            log_lo = np.log(np.maximum(np.abs(q_scaled) - err_scaled, 0.0)) + peak
        candidates: list[tuple[float, int, int]] = []
        suspicious = np.nonzero(log_hi > 0)[0]
        for idx in suspicious:
            if log_lo[idx] > 1e-12:
                candidates.append(
                    (float(log_lo[idx]), int(free[idx]), 1 if q_scaled[idx] > 0 else -1)
                )
        if not candidates and not float_only:
            for idx in suspicious:
                qv = _q_exact(self.xs, self.abs_d, 1, int(free[idx]))
                if abs(qv) > 1:
                    candidates.append(
                        (
                            _log2_fraction(abs(qv)) * math.log(2.0),
                            int(free[idx]),
                            1 if qv > 0 else -1,
                        )
                    )
        candidates.sort(reverse=True)
        return [(y, s) for _, y, s in candidates], max(float(log_hi.max()), 0.0)

    def _replace(self, pos: int, y: int) -> None:
        """Swap node at index pos for grid point y; float-only bookkeeping
        in O(d) vector work."""
        xr = self.xs.pop(pos)
        ins = bisect_left(self.xs, y)
        self.xs.insert(ins, y)
        self._abs_d = None
        xf, logs = self._xf, self._term_logs
        log_y = np.log(np.abs(xf - y))
        gap_r = np.abs(xf - xr)
        gap_r[pos] = 1.0
        log_m_y = math.log(self.m - y)
        log_m_r = math.log(self.m - xr)
        # every other term gains log(m - y) - log|x_j - y| and loses the
        # same for x_r; slot pos is overwritten by the new node's own term
        logs += np.log(gap_r) - log_y + (log_m_y - log_m_r)
        own = self._log_m_sum - log_m_r - (log_y.sum() - log_y[pos])
        self._log_m_sum += log_m_y - log_m_r
        if ins > pos:
            logs[pos:ins] = logs[pos + 1 : ins + 1]
            xf[pos:ins] = xf[pos + 1 : ins + 1]
        elif ins < pos:
            logs[ins + 1 : pos + 1] = logs[ins:pos]
            xf[ins + 1 : pos + 1] = xf[ins:pos]
        logs[ins] = own
        xf[ins] = y

    def swap_toward(self, y: int, s: int, float_only: bool = False) -> bool:
        """Exchange y (where sign(q(y)) = s) into the node set so that V
        strictly decreases.

        Dropping the alternation neighbour whose sign matches s keeps the
        data alternating, and then V falls by (|q(y)| - 1) |L_y(m)| > 0, so
        for a fresh violation the first drop always succeeds.  The other
        neighbour covers batch entries whose sign went stale; returns False,
        with the state restored, when neither lowers V.
        """
        before_log = self.logv()
        before_exact: Fraction | None = None
        pos = bisect_left(self.xs, y)
        d = len(self.xs) - 1
        if 0 < pos <= d:
            sign_right = 1 if (d - pos) % 2 == 0 else -1
            order = [pos, pos - 1] if sign_right == s else [pos - 1, pos]
        elif pos == 0:
            order = [0, d] if s == (1 if d % 2 == 0 else -1) else [d, 0]
        else:
            order = [d, 0] if s == 1 else [0, d]
        saved_xs = list(self.xs)
        saved_logs = self._term_logs.copy()
        saved_xf = self._xf.copy()
        saved_log_m_sum = self._log_m_sum
        for drop in order:
            self._replace(drop, y)
            after_log = self.logv()
            if after_log < before_log - _LOG_MARGIN:
                return True
            if not float_only and after_log < before_log + _LOG_MARGIN:
                if before_exact is None:
                    before_exact = _value_exact(
                        self.m, saved_xs, _abs_denominators(saved_xs)
                    )
                if self.value_exact() < before_exact:
                    return True
            self.xs[:] = saved_xs
            self._abs_d = None
            self._term_logs[:] = saved_logs
            self._xf[:] = saved_xf
            self._log_m_sum = saved_log_m_sum
        return False

    def exchange_batch(self, violations: list[tuple[int, int]], float_only: bool) -> bool:
        """Swap in the violations of one scan, skipping entries gone stale;
        True if V went down."""
        xs = self.xs
        progressed = False
        # float-only batches are capped: entries go stale as swaps land
        for y, s in violations[: 256 if float_only else None]:
            i = bisect_left(xs, y)
            if (i == len(xs) or xs[i] != y) and self.swap_toward(y, s, float_only):
                progressed = True
        return progressed


def _best_deletion(m: int, xs: list[int]) -> list[int]:
    """Node set minus the node whose removal raises V the least."""
    out = sorted(xs)
    xf = np.array(out, dtype=np.float64)
    log_m = np.log(m - xf)
    diff = np.abs(xf[:, None] - xf[None, :])
    np.fill_diagonal(diff, 1.0)
    log_diff = np.log(diff)
    terms = log_m.sum() - log_m - log_diff.sum(axis=1)
    # removing node i shifts every other term j by log|x_j - x_i| - log(m - x_i)
    shifted = terms[:, None] + log_diff - log_m[None, :]
    np.fill_diagonal(shifted, -np.inf)
    peak = shifted.max(axis=0)
    logv = peak + np.log(np.exp(shifted - peak[None, :]).sum(axis=0))
    out.pop(int(np.argmin(logv)))
    return out


def _adapt_set(m: int, xs: list[int], size: int) -> list[int]:
    """Resize a node set by greedy best insertions or deletions."""
    out = sorted(xs)
    while len(out) < size:
        out = _best_insertion(m, out)
    while len(out) > size:
        out = _best_deletion(m, out)
    return out


def _best_insertion(m: int, xs: list[int]) -> list[int]:
    """Node set plus the free grid point whose insertion minimizes V (the
    grid must have one).  One O((m - |X|) |X|) float pass."""
    xs_arr = np.array(sorted(xs), dtype=np.int64)
    free = np.setdiff1d(np.arange(m, dtype=np.int64), xs_arr, assume_unique=True)
    xf = xs_arr.astype(np.float64)
    diff = np.abs(xf[:, None] - xf[None, :])
    np.fill_diagonal(diff, 1.0)
    base_terms = np.log(m - xf).sum() - np.log(m - xf) - np.log(diff).sum(axis=1)
    dist = np.abs(free[:, None].astype(np.float64) - xf[None, :])
    log_dist = np.log(dist)
    log_m_y = np.log((m - free).astype(np.float64))
    # existing terms gain log(m - y) - log|x_i - y|; the new node's own term
    # is sum log(m - x_j) - sum log|y - x_j|
    shifted = base_terms[None, :] + log_m_y[:, None] - log_dist
    own = np.log(m - xf).sum() - log_dist.sum(axis=1)
    all_terms = np.concatenate([shifted, own[:, None]], axis=1)
    peak = all_terms.max(axis=1)
    logv = peak + np.log(np.exp(all_terms - peak[:, None]).sum(axis=1))
    best = int(free[np.argmin(logv)])
    return sorted(xs + [best])


@dataclass(frozen=True)
class _Probe:
    """Outcome of the exchange on one degree d."""

    feasible: bool  # nu*(d) >= target
    value: float  # ln nu*(d) estimate: midpoint of the proven float bounds
    nodes: tuple[int, ...]
    optimal: bool  # ended at a certified optimum


class _Solver:
    """Least feasible degree on one grid m for one target ratio.

    A probe runs the exchange on one degree d only until its side of the
    target is proven: V(X) bounds nu*(d) from above, and the alternating
    interpolant divided by its grid maximum M is feasible, so V(X)/M bounds
    it from below.  "Infeasible" always rests on an exact V(X) < target.
    A probe adapts the node set of the nearest degree already exchanged on
    in this call, or starts from Chebyshev points; nothing outlives the
    call.
    """

    def __init__(self, m: int, target: Fraction):
        self.m = m
        self.target = target
        self.log_target = _log2_fraction(target) * math.log(2.0)
        self.certify = m <= EXCHANGE_M_MAX
        self.exchanged: dict[int, list[int]] = {}

    def _seed(self, d: int) -> list[int]:
        near = min(self.exchanged, key=lambda k: abs(k - d), default=None)
        if near is not None and abs(near - d) <= _WARM_START_MAX:
            return _adapt_set(self.m, self.exchanged[near], d + 1)
        return _chebyshev_int_points(self.m - 1, d + 1)

    def _below_target(self, engine: _Exchange, upper: float) -> bool:
        """Exact V(X) < target, evaluated only when the float value allows it."""
        if upper >= self.log_target + _LOG_MARGIN:
            return False
        return engine.value_exact() < self.target

    def probe(self, d: int, optimum: bool = False) -> _Probe:
        """Exchange on degree d until its side of the target is proven or,
        with `optimum`, until no violation is left.

        Above the exchange cap the scans are float-only; after the seed
        scan they sample every fourth free point until that finds nothing
        to swap, and a full scan without progress ends the probe.
        """
        engine = _Exchange(self.m, self._seed(d))
        float_only = not self.certify
        bulk = float_only
        lower = -math.inf
        stride = 1
        for _ in range(_EXCHANGE_MAX_ITER):
            violations, log_max_q = engine.find_violations(float_only, stride)
            upper = engine.logv()
            if stride == 1:
                lower = max(lower, upper - log_max_q)
            settled = stride == 1 and not violations
            if not optimum and not settled:
                if self._below_target(engine, upper):
                    return _Probe(False, (lower + upper) / 2, tuple(engine.xs), False)
                if lower >= self.log_target + _LOG_MARGIN:
                    return _Probe(True, (lower + upper) / 2, tuple(engine.xs), False)
            if engine.exchange_batch(violations, float_only):
                self.exchanged[d] = list(engine.xs)
                stride = 4 if bulk else 1
                continue
            if stride > 1:
                stride, bulk = 1, False
                continue
            if self.certify and not settled:
                raise NumericalFailure(f"exchange stalled at m={self.m}, d={d}")
            # settled, or a float-only descent that cannot progress
            if self.certify:
                feasible = engine.value_exact() >= self.target
            else:
                feasible = not self._below_target(engine, upper)
            return _Probe(feasible, (lower + upper) / 2, tuple(engine.xs), self.certify)
        raise NumericalFailure(f"exchange did not converge at m={self.m}, d={d}")

    def seed_estimate(self, d: int) -> tuple[bool, float]:
        """Whether ln nu*(d) - ln target looks nonnegative, and its float
        estimate from one scan of the Chebyshev seed: the midpoint of ln V
        and ln V/M, which tracks the optimum within a few units where V and
        V/M lie hundreds apart."""
        engine = _Exchange(self.m, _chebyshev_int_points(self.m - 1, d + 1))
        log_max_q = engine.find_violations(float_only=True)[1]
        g = engine.logv() - log_max_q / 2 - self.log_target
        return g >= 0, g

    def least_degree(self) -> tuple[int, bool, tuple[int, ...]]:
        """Locate the crossing on the seed estimates, decide it with probes
        starting there, and exchange the answer to its certified optimum."""
        # ln nu*(0) = 0 and ln nu*(m - 1) = ln(2^m - 1)
        ends = (0, -self.log_target, self.m - 1, self.m * math.log(2.0) - self.log_target)
        start = _least_crossing(self.seed_estimate, *ends)
        probes: dict[int, _Probe] = {}

        def decide(d: int) -> tuple[bool, float]:
            probes[d] = self.probe(d)
            return probes[d].feasible, probes[d].value - self.log_target

        hi = _least_crossing(decide, *ends, first=start)
        best = probes.get(hi)
        if best is None or (self.certify and not best.optimal):
            best = self.probe(hi, optimum=True)
            if not best.feasible:
                raise NumericalFailure(
                    f"feasible verdict at m={self.m}, d={hi} failed its certificate"
                )
        return hi, self.certify, best.nodes


def _least_crossing(evaluate, lo: int, g_lo: float, hi: int, g_hi: float,
                    first: int | None = None) -> int:
    """Least d in (lo, hi] with evaluate(d) = (True, g), for g an estimate of
    an increasing convex curve that crosses 0 between the ends.

    Illinois regula falsi: the end kept twice in a row has its g halved, so
    the convex curve cannot stall the bracket on one side.  The ends are
    never evaluated; `first` forces the first point.
    """
    kept = 0  # +1 after a True verdict, -1 after a False one
    d = first
    while hi - lo > 1:
        if d is None or not lo < d < hi:
            d = lo + math.ceil(-g_lo * (hi - lo) / (g_hi - g_lo))
            d = min(max(d, lo + 1), hi - 1)
        above, g = evaluate(d)
        if above:
            hi, g_hi = d, max(g, _LOG_MARGIN)
            if kept > 0:
                g_lo /= 2
            kept = 1
        else:
            lo, g_lo = d, min(g, -_LOG_MARGIN)
            if kept < 0:
                g_hi /= 2
            kept = -1
        d = None
    return hi


@lru_cache(maxsize=_MEMO_SIZE)
def _min_feasible_degree(m: int, target: Fraction) -> tuple[int, bool, tuple[int, ...]]:
    """Least degree whose best approximation error meets the target ratio
    (callers pass (1 - eps)/eps >= 2), whether it is certified, and the node
    set the answer was decided on (optimal when certified; empty for m).

    The engine's one cache: the result depends on (m, target) alone.
    """
    if Fraction((1 << m) - 1) < target:
        return m, True, ()  # even full alternation cannot reach the target
    return _Solver(m, target).least_degree()


def and_feasibility_target(eps: Fraction) -> Fraction:
    """Required growth ratio (1 - eps)/eps for a symmetric AND approximant."""
    return (1 - eps) / eps


def min_and_approx_degree(
    m: int,
    eps,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    _allow_large: bool = False,
) -> int:
    """Least degree of a univariate p with |p(k)| <= eps (k < m), |p(m)-1| <= eps.

    Decided through the exact alternation-set optimum; `tolerance` is the
    certification slack applied when witnesses are rebuilt and has no
    effect on the exact decision (reported degrees are tolerance-stable).
    """
    eps = Fraction(eps)
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    cap = AND_M_HARD_MAX if _allow_large else AND_M_MAX
    if m > cap:
        raise SizeLimitError("m", m, cap)
    if not 0 < eps <= Fraction(1, 3):
        raise DomainError(f"epsilon must lie in (0, 1/3], got {eps}")
    if m >= 2 and _log2_fraction(eps) < -m * math.log2(m):
        warnings.warn(
            f"epsilon below the cited regime 2^(-m log2 m) for m={m}; computing anyway",
            stacklevel=2,
        )
    return _min_feasible_degree(m, and_feasibility_target(eps))[0]


# ---------------------------------------------------------------------------
# Witness construction


def _newton_coefficients(xs: Sequence[int], values: Sequence[Fraction]) -> list[Fraction]:
    coeffs = [Fraction(v) for v in values]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    return coeffs


def _newton_to_monomial(xs: Sequence[int], newton: Sequence[Fraction]) -> list[Fraction]:
    result = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        # result = result * (x - xs[k]) + newton[k]
        shifted = [Fraction(0)] + result
        for i, c in enumerate(result):
            shifted[i] -= xs[k] * c
        shifted[0] += newton[k]
        result = shifted
    return result


def _monomial_to_chebyshev(mono: Sequence[Fraction], m: int) -> list[Fraction]:
    """Coefficients of p(x) in the Chebyshev basis T_j(2x/m - 1)."""
    # substitute x = m (u + 1)/2 to get a polynomial in u on [-1, 1]
    deg = len(mono) - 1
    in_u = [Fraction(0)] * (deg + 1)
    half_m = Fraction(m, 2)
    for k, a in enumerate(mono):
        scale = a * half_m**k
        for j in range(k + 1):
            in_u[j] += scale * math.comb(k, j)
    # accumulate u^k expressed in the Chebyshev basis
    out = [Fraction(0)] * (deg + 1)
    power = [Fraction(1)]  # u^0 = T_0
    for k in range(deg + 1):
        for j, c in enumerate(power):
            out[j] += in_u[k] * c
        if k == deg:
            break
        nxt = [Fraction(0)] * (len(power) + 1)
        for j, c in enumerate(power):
            if c == 0:
                continue
            if j == 0:
                nxt[1] += c
            else:
                nxt[j + 1] += c / 2
                nxt[j - 1] += c / 2
        power = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def build_and_approximant(
    m: int, eps, tolerance: Fraction = DEFAULT_TOLERANCE
) -> UnivariatePolynomial:
    """A certified witness for min_and_approx_degree(m, eps).

    The witness interpolates the optimal alternation structure exactly, is
    converted to the Chebyshev basis, and is re-verified at every integer
    point in exact arithmetic with relative slack `tolerance`.
    """
    eps = Fraction(eps)
    if m < 1:
        raise DomainError(f"m must be at least 1, got {m}")
    if m > AND_M_MAX:
        raise SizeLimitError("m", m, AND_M_MAX)
    if not 0 < eps <= Fraction(1, 3):
        raise DomainError(f"epsilon must lie in (0, 1/3], got {eps}")
    target = and_feasibility_target(eps)
    degree, _, nodes = _min_feasible_degree(m, target)
    if degree >= m:
        xs = list(range(m + 1))
        values = [Fraction(0)] * m + [Fraction(1)]
    else:
        xs = list(nodes)
        v = _value_exact(m, xs, _abs_denominators(xs))
        scale = eps if v <= (1 + eps) / eps else 1 / v
        d = len(xs) - 1
        values = [scale * (1 if (d - i) % 2 == 0 else -1) for i in range(d + 1)]
    newton = _newton_coefficients(xs, values)
    mono = _newton_to_monomial(xs, newton)
    poly = UnivariatePolynomial(m, tuple(_monomial_to_chebyshev(mono, m)))
    slack = eps * (1 + tolerance)
    for k in range(m):
        if abs(poly.evaluate(k)) > slack:
            raise NumericalFailure(f"witness violates |p({k})| <= eps")
    if abs(poly.evaluate(m) - 1) > slack:
        raise NumericalFailure("witness violates |p(m) - 1| <= eps")
    return poly


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
    out: dict[frozenset, object] = {}
    for t, v in acc.items():
        out[t] = -v
    empty = frozenset()
    out[empty] = out.get(empty, 0) + 1
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
    certified: bool  # False when the size forced the heuristic engine
    eps_in_regime: bool


def _ceil_n_to_3_2(n: int) -> int:
    cube = n**3
    root = math.isqrt(cube)
    return root if root * root == cube else root + 1


def bpm_degree_bound(n: int, eps) -> DegreeBoundReport:
    """Degree bound report: exact monomials below ceil(n^1.5), one AND
    approximant at the worst monomial size n^2 with budget epsilon_prime."""
    eps = Fraction(eps)
    if not 1 <= n <= BPM_N_MAX:
        raise SizeLimitError("n", n, BPM_N_MAX)
    ep = epsilon_prime(n, eps)
    m = n * n
    in_regime = m < 2 or _log2_fraction(ep) >= -m * math.log2(m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        degree, certified, _ = _min_feasible_degree(m, and_feasibility_target(ep))
    threshold = _ceil_n_to_3_2(n)
    return DegreeBoundReport(
        n=n,
        epsilon=eps,
        epsilon_prime=ep,
        and_degree=degree,
        threshold=threshold,
        overall_bound=max(threshold, degree),
        certified=certified,
        eps_in_regime=in_regime,
    )


# ---------------------------------------------------------------------------
# End-to-end approximant at tiny n


@dataclass(frozen=True)
class ApproximantReport:
    n: int
    epsilon: Fraction
    epsilon_prime: Fraction
    degree: int
    max_error: Fraction
    dual_max_error: Fraction
    exact_term_count: int
    approximated_term_count: int


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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

    def _certify(self) -> Fraction:
        worst = Fraction(0)
        for mask in range(1 << (self.n * self.n)):
            x = BipartiteGraph.from_mask(self.n, mask)
            err = abs(self.evaluate(x) - bpm_star_value(x))
            if err > worst:
                worst = err
        if worst > self.epsilon:
            raise NumericalFailure(
                f"assembled approximant misses the budget: {worst} > {self.epsilon}"
            )
        return worst

    def dual_max_error(self) -> Fraction:
        worst = Fraction(0)
        for mask in range(1 << (self.n * self.n)):
            x = BipartiteGraph.from_mask(self.n, mask)
            err = abs(self.dual_evaluate(x) - (1 if has_perfect_matching(x) else 0))
            if err > worst:
                worst = err
        return worst

    def report(self) -> ApproximantReport:
        return ApproximantReport(
            n=self.n,
            epsilon=self.epsilon,
            epsilon_prime=self.epsilon_prime,
            degree=self.degree,
            max_error=self.max_error,
            dual_max_error=self.dual_max_error(),
            exact_term_count=len(self.exact_terms),
            approximated_term_count=len(self.approx_terms),
        )


def assemble_bpm_approximant(n: int, eps) -> BpmStarApproximant:
    """Build and exhaustively certify the dual-side approximant (n <= 3)."""
    return BpmStarApproximant(n, eps)
