"""Approximation-degree tests: exact feasibility decisions, witnesses,
duality, and the assembled end-to-end approximant."""

import gc
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from bpmdual import approxdeg
from bpmdual._errors import DomainError, NumericalFailure, SizeLimitError
from bpmdual.approxdeg import (
    BpmStarApproximant,
    DegreeBoundReport,
    UnivariatePolynomial,
    _Exchange,
    _check_witness,
    _distance_products,
    _enclose,
    _equilibrium_int_points,
    _equilibrium_mass,
    _log_sum,
    _min_feasible_degree,
    _product,
    _search,
    _term_logs,
    and_feasibility_target,
    assemble_bpm_approximant,
    bpm_degree_bound,
    build_and_approximant,
    dualize_polynomial,
    epsilon_prime,
    min_and_approx_degree,
)
from bpmdual.bigraph import BipartiteGraph, all_graphs, has_perfect_matching
from bpmdual.oracle import bpm_star_value

THIRD = Fraction(1, 3)


def barycentric(nodes, values, t):
    """Reference evaluator, independent of the package's: barycentric
    weights v_i / prod_{j != i} (x_i - x_j), each a plain product."""
    t = Fraction(t)
    if t in nodes:
        return Fraction(values[nodes.index(t)])
    weights = [
        Fraction(v) / math.prod([xi - xj for xj in nodes if xj != xi])
        for xi, v in zip(nodes, values)
    ]
    omega = math.prod([t - x for x in nodes])
    return omega * sum(w / (t - x) for x, w in zip(nodes, weights))


def _abs_denominators(xs):
    """|prod_{j != i} (x_i - x_j)| for each node, as exact integers: the
    reference for the weights of `UnivariatePolynomial` and for the
    float denominators and term logs of the engine."""
    return [abs(_product([xi - xj for xj in xs if xj != xi])) for xi in xs]


def alternating_data(nodes):
    """+-1 data on sorted nodes, +1 at the largest."""
    d = len(nodes) - 1
    return [(-1) ** (d - i) for i in range(d + 1)]


def brute_nu(m, d):
    """Independent oracle: enumerate all node subsets."""
    return min(
        barycentric(xs, alternating_data(xs), m) for xs in combinations(range(m), d + 1)
    )


def _chebyshev_int_points(right_end: int, count: int) -> list[int]:
    """count strictly increasing integers in [0, right_end], Chebyshev-spread."""
    if count == 1:
        return [right_end]
    raw = [
        0.5 * (1 - math.cos(math.pi * i / (count - 1))) * right_end
        for i in range(count)
    ]
    return _separated(raw, right_end)


def _separated(raw, right_end: int) -> list[int]:
    """Round raw ascending points, then push colliding ones apart in two
    loops: the reference for `_equilibrium_int_points`' numpy scans."""
    xs = [round(v) for v in raw]
    count = len(xs)
    for i in range(1, count):
        xs[i] = max(xs[i], xs[i - 1] + 1)
    xs[-1] = min(xs[-1], right_end)
    for i in range(count - 2, -1, -1):
        xs[i] = min(xs[i], xs[i + 1] - 1)
    if xs[0] < 0:
        raise ValueError(f"cannot place {count} points in [0, {right_end}]")
    return xs


def exchange_to_optimum(m, d):
    """Drive the exchange from the Chebyshev seed until no grid point has
    |q| > 1, which makes the node set optimal."""
    engine = _Exchange(m, _chebyshev_int_points(m - 1, d + 1))
    while violations := engine.find_violations(Fraction(2)).violations:
        assert any([engine.swap_toward(y, s) for y, s in violations])
    return engine


def brute_min_degree(m, eps):
    target = (1 - eps) / eps
    if m == 1:
        return 0 if target <= 1 else 1
    for d in range(1, m):
        if brute_nu(m, d) >= target:
            return d
    return m


class TestEpsilonPrime:
    def test_values(self):
        assert epsilon_prime(2, THIRD) == Fraction(1, 196608)
        assert epsilon_prime(1, THIRD) == Fraction(1, 972)
        assert epsilon_prime(4, THIRD) == THIRD * Fraction(1, 2**8) * Fraction(1, 6**10)

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_prime(2, Fraction(1, 2))
        with pytest.raises(DomainError):
            epsilon_prime(2, Fraction(0))
        with pytest.raises(DomainError):
            epsilon_prime(0, THIRD)


class TestMinAndApproxDegree:
    def test_spec_values(self):
        assert [min_and_approx_degree(m, THIRD) for m in (1, 2, 3, 4)] == [1, 1, 1, 2]

    @pytest.mark.parametrize("eps", [THIRD, Fraction(1, 10), Fraction(1, 100)])
    def test_matches_brute_force(self, eps):
        for m in range(1, 10):
            assert min_and_approx_degree(m, eps) == brute_min_degree(m, eps), (m, eps)

    def test_tiny_epsilon_matches_brute_force(self):
        eps = Fraction(1, 75_000_000)
        for m in range(1, 10):
            assert min_and_approx_degree(m, eps) == brute_min_degree(m, eps), m

    @pytest.mark.parametrize("eps", [THIRD, Fraction(1, 10), Fraction(1, 100)])
    def test_monotone_in_m(self, eps):
        degrees = [min_and_approx_degree(m, eps) for m in range(1, 65)]
        assert all(a <= b for a, b in zip(degrees, degrees[1:]))

    def test_nonincreasing_in_eps(self):
        for m in (4, 16, 64):
            d_loose = min_and_approx_degree(m, THIRD)
            d_mid = min_and_approx_degree(m, Fraction(1, 10))
            d_tight = min_and_approx_degree(m, Fraction(1, 100))
            assert d_loose <= d_mid <= d_tight

    def test_sqrt_scaling_law(self):
        degrees = {m: min_and_approx_degree(m, THIRD) for m in (8, 16, 32, 64, 128, 256)}
        for m in (8, 16, 32, 64):
            ratio = degrees[4 * m] / degrees[m]
            assert 1.5 <= ratio <= 2.8, (m, ratio)

    def test_tolerance_stability(self):
        for m in (3, 4, 16, 64):
            a = min_and_approx_degree(m, THIRD, tolerance=Fraction(1, 10**9))
            b = min_and_approx_degree(m, THIRD, tolerance=Fraction(1, 10**12))
            assert a == b

    def test_feasibility_downward_closed(self):
        # if degree d reaches the target ratio, so does every larger degree
        for m in (5, 8):
            values = [brute_nu(m, d) for d in range(1, m)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            d_star = min_and_approx_degree(m, THIRD)
            target = and_feasibility_target(THIRD)
            for d in range(d_star, m):
                assert values[d - 1] >= target

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            min_and_approx_degree(257, THIRD)

    def test_exchange_optimum_matches_enumeration(self):
        for m in range(2, 10):
            for d in range(1, m):
                engine = exchange_to_optimum(m, d)
                assert len(engine.xs) == d + 1
                q = UnivariatePolynomial.alternating(m, engine.xs)
                assert q.evaluate(m) == brute_nu(m, d), (m, d)

    @pytest.mark.parametrize("offset", [-7, -3, -1, 2, 6])
    @pytest.mark.parametrize("eps", [THIRD, Fraction(1, 1000)])
    def test_walk_from_either_side(self, monkeypatch, eps, offset):
        # the seed estimates cross at the answer or one below it on every
        # grid here, so each walk takes one step; forced starts walk farther
        ms = [*range(2, 40), 100, 256]
        expected = [min_and_approx_degree(m, eps) for m in ms]
        for m, d_star in zip(ms, expected):
            monkeypatch.setattr(
                approxdeg, "bisect_left",
                lambda seq, x, lo, key: min(max(d_star + offset, lo), len(seq)),
            )
            assert _search(m, and_feasibility_target(eps))[0] == d_star, (m, eps, offset)

    def test_degrees_with_every_swap_decided_by_the_enclosure(self, monkeypatch):
        # a log margin of 1e3 sends every swap decision through the
        # enclosure of V; the degrees must not change
        queries = [(m, eps) for m in range(2, 65) for eps in (THIRD, Fraction(1, 1000))]
        expected = [min_and_approx_degree(m, eps) for m, eps in queries]
        bounds_calls = []
        value_bounds = approxdeg._value_bounds
        monkeypatch.setattr(approxdeg, "_LOG_MARGIN", 1e3)
        monkeypatch.setattr(approxdeg, "_value_bounds",
                            lambda *args: bounds_calls.append(1) or value_bounds(*args))
        found = [_search(m, and_feasibility_target(eps))[0] for m, eps in queries]
        assert found == expected
        assert bounds_calls

    @pytest.mark.parametrize("m", [16, 32, 64, 100, 256])
    @pytest.mark.parametrize("eps", [THIRD, Fraction(1, 1000)])
    def test_each_degree_seeded_once(self, monkeypatch, m, eps):
        # bisection only reads a seed's ln V(X), and each walk moves one
        # way, so one search builds the seed of each degree it visits once
        expected = min_and_approx_degree(m, eps)
        counts = []
        points = approxdeg._equilibrium_int_points
        monkeypatch.setattr(approxdeg, "_equilibrium_int_points",
                            lambda right_end, count: counts.append(count) or points(right_end, count))
        assert _search(m, and_feasibility_target(eps))[0] == expected
        assert expected + 1 in counts
        assert len(counts) == len(set(counts)), sorted(counts)

    def test_out_of_regime_warns(self):
        with pytest.warns(UserWarning):
            min_and_approx_degree(4, Fraction(1, 10**9))


def contiguous_run(xs, start, step):
    """How many consecutive grid points from `start` in steps of `step` are
    nodes."""
    nodes, k = set(xs), 0
    while start + k * step in nodes:
        k += 1
    return k


class TestEquilibriumSeed:
    @staticmethod
    def check_points(xs, right_end, count):
        assert len(xs) == count
        assert all(isinstance(x, int) for x in xs)
        assert 0 <= xs[0] and xs[-1] <= right_end
        assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_distinct_points_in_range(self):
        for m in range(2, 65):
            for count in range(2, m + 1):
                self.check_points(_equilibrium_int_points(m - 1, count), m - 1, count)
        for count in (2, 26, 508, 676):
            self.check_points(_equilibrium_int_points(675, count), 675, count)

    @pytest.mark.parametrize("m", [2, 3, 17, 64, 676])
    def test_full_grid(self, m):
        # c = 1 puts every node in the saturated region, where r = 0
        assert _equilibrium_int_points(m - 1, m) == list(range(m))

    def test_symmetric(self):
        for m, counts in [*((m, range(2, m + 1)) for m in range(2, 65)), (676, (26, 508))]:
            for count in counts:
                xs = _equilibrium_int_points(m - 1, count)
                assert all(abs(a + b - (m - 1)) <= 1 for a, b in zip(xs, xs[::-1])), (m, count)

    def test_saturated_ends_at_4096(self):
        # the node set that proves the n = 64 degree fills [0, 335] and [3760, 4095]
        xs = _equilibrium_int_points(4095, 2214)
        assert contiguous_run(xs, 0, 1) >= 300
        assert contiguous_run(xs, 4095, -1) >= 300

    def test_placement_matches_loops(self):
        # the same quantiles, separated by the Python loops
        def reference(right_end, count):
            m = right_end + 1
            x = np.linspace(-1.0, 1.0, m)
            half = _equilibrium_mass(np.abs(x), min(count / m, 1.0))
            cdf = 0.5 + np.where(x < 0, -half, half)
            raw = np.interp(np.linspace(0.0, 1.0, count), cdf, np.arange(m, dtype=np.float64))
            return _separated(raw.tolist(), right_end)

        cases = [(m, count) for m in range(2, 65) for count in range(2, m + 1)]
        cases += [(m, count) for m in (676, 4096) for count in range(2, m + 1, 97)]
        for m, count in cases:
            assert _equilibrium_int_points(m - 1, count) == reference(m - 1, count), (m, count)

    def test_seed_estimate_never_decreases(self):
        # the degree search bisects on ln V(X) of the seeds, which is sound
        # only if the estimate never falls as the degree grows
        for m in range(2, 65):
            logs = [_Exchange(m, _equilibrium_int_points(m - 1, d + 1)).logv()
                    for d in range(1, m)]
            assert all(a <= b for a, b in zip(logs, logs[1:])), m

    @pytest.mark.parametrize("c", [0.003, 0.1, 0.54, 0.9, 1.0])
    def test_mass_matches_trapezoid(self, c):
        # trapezoid rule over the density: on |x| < r in x = r sin(theta),
        # which resolves the steep rise near r for small c, then 1/(2c)
        r = math.sqrt(1 - c * c)
        ts = np.array([0.0, 0.25 * r, 0.5 * r, 0.9 * r, 0.999 * r, r, (1 + r) / 2, 1.0])
        for t, mass in zip(ts, _equilibrium_mass(ts, c)):
            top = math.asin(min(t / r, 1.0)) if r > 0 else 0.0
            theta = np.linspace(0.0, top, 200_001)
            w = r * np.cos(theta)  # both sqrt(r^2 - x^2) and dx/dtheta
            reference = np.trapezoid(np.arctan2(c, w) / (math.pi * c) * w, theta)
            reference += max(t - r, 0.0) / (2 * c)
            assert mass == pytest.approx(reference, abs=1e-6), (c, t)
        assert _equilibrium_mass(np.array([1.0]), c)[0] == pytest.approx(0.5, abs=1e-12)


def float_state(engine):
    return list(engine.xs), engine._term_logs.copy(), engine._xf.copy()


class TestExchangeBookkeeping:
    @pytest.mark.parametrize("m, d", [(676, 506), (64, 10)])
    def test_replace_tracks_recomputation(self, m, d):
        rng = random.Random(m + d)
        engine = _Exchange(m, rng.sample(range(m), d + 1))
        for _ in range(2000):
            free = sorted(set(range(m)) - set(engine.xs))
            engine._xf, engine._term_logs = engine._replaced(rng.randrange(d + 1), rng.choice(free))
        assert engine.xs == sorted(set(engine.xs)) and len(engine.xs) == d + 1
        assert np.array_equal(engine._xf, np.array(engine.xs, dtype=np.float64))
        fresh = _Exchange(m, engine.xs)
        np.testing.assert_allclose(engine._term_logs, fresh._term_logs, rtol=0, atol=1e-9)

    def test_failed_swap_restores_state(self):
        # no swap lowers V below the optimum, so every attempt must fail
        m, d = 64, 10
        engine = exchange_to_optimum(m, d)
        before = float_state(engine)
        for y in sorted(set(range(m)) - set(engine.xs)):
            for s in (1, -1):
                assert not engine.swap_toward(y, s)
                xs, logs, xf = float_state(engine)
                assert xs == before[0]
                assert np.array_equal(logs, before[1])
                assert np.array_equal(xf, before[2])

    def test_near_tie_rejects_at_optimum(self, monkeypatch):
        # with a log margin of 1e3 every swap is decided by the enclosure
        # of V: the exchange must still reach the optimum, and there reject
        # every swap with the state untouched
        bounds_calls = []
        value_bounds = approxdeg._value_bounds
        monkeypatch.setattr(approxdeg, "_LOG_MARGIN", 1e3)
        monkeypatch.setattr(approxdeg, "_value_bounds",
                            lambda *args: bounds_calls.append(1) or value_bounds(*args))
        self.test_failed_swap_restores_state()
        assert len(bounds_calls) >= 2 * 2 * (64 - 11)  # two per rejected swap

    def test_near_tie_encloses_both_node_sets(self, monkeypatch):
        # at the optimum every near-tie swap builds |D_i| twice, for the
        # candidate set and for the current one: nothing is held between calls
        monkeypatch.setattr(approxdeg, "_LOG_MARGIN", 1e3)
        engine = exchange_to_optimum(64, 10)
        calls = []
        distance_products = approxdeg._distance_products
        monkeypatch.setattr(approxdeg, "_distance_products",
                            lambda xf, ys: calls.append(1) or distance_products(xf, ys))
        for y in sorted(set(range(64)) - set(engine.xs)):
            for s in (1, -1):
                assert not engine.swap_toward(y, s)
        assert len(calls) == 2 * 2 * (64 - 11) == 212

    def test_denominators_built_by_scans_not_clear_swaps(self, monkeypatch):
        calls = []
        distance_products = approxdeg._distance_products
        monkeypatch.setattr(approxdeg, "_distance_products",
                            lambda xf, ys: calls.append(1) or distance_products(xf, ys))
        engine = _Exchange(64, range(0, 64, 6))  # equispaced: q overshoots
        assert not calls  # the term logs do not read the enclosure
        violations = engine.find_violations(Fraction(2)).violations
        assert violations and len(calls) == 1
        assert engine.swap_toward(*violations[0]) and len(calls) == 1
        engine.find_violations(Fraction(2))
        assert len(calls) == 2
        optimum = exchange_to_optimum(64, 10)
        calls.clear()
        free = min(set(range(64)) - set(optimum.xs))
        assert not optimum.swap_toward(free, 1) and not optimum.swap_toward(free, -1)
        assert not calls
        optimum.find_violations(Fraction(2))
        assert len(calls) == 1  # a re-scan of an unchanged set builds again

    def test_denominators_built_once_per_scan_and_for_no_estimate(self, monkeypatch):
        # n = 32 at eps = 1/3 estimates several seeds, probes, and swaps,
        # and every one of its scans faces no near tie
        calls, scans = [], []
        distance_products = approxdeg._distance_products
        find_violations = _Exchange.find_violations
        monkeypatch.setattr(approxdeg, "_distance_products",
                            lambda xf, ys: calls.append(1) or distance_products(xf, ys))
        monkeypatch.setattr(_Exchange, "find_violations",
                            lambda self, target: scans.append(1) or find_violations(self, target))
        assert _search(32 * 32, and_feasibility_target(epsilon_prime(32, THIRD)))[0] == 715
        assert len(calls) == len(scans) == 5

    @pytest.mark.parametrize("m, count", [(4096, 2213), (676, 507), (64, 11)])
    def test_term_logs_match_exact_integers(self, m, count):
        # the FFT log-sum stays far inside the 1e-9 log margin that sends
        # close swaps to the enclosure
        xs = _equilibrium_int_points(m - 1, count)
        log_m = [math.log(m - x) for x in xs]
        total = math.fsum(log_m)
        abs_d = _abs_denominators(xs)
        exact = np.array([total - lm - math.log(ad) for lm, ad in zip(log_m, abs_d)])
        logs = _term_logs(m, np.array(xs, dtype=np.float64))
        np.testing.assert_allclose(logs, exact, rtol=0, atol=1e-10)
        assert _log_sum(logs) == pytest.approx(_log_sum(exact), rel=0, abs=1e-10)

    def test_matching_neighbour_lowers_v(self):
        # swap_toward drops only the neighbour whose sign matches: for every
        # fresh violation that one drop must lower V
        swaps = 0
        for m in range(3, 41):
            for d in range(1, m - 1):
                xs = _equilibrium_int_points(m - 1, d + 1)
                for y, s in _Exchange(m, xs).find_violations(Fraction(2)).violations:
                    assert _Exchange(m, xs).swap_toward(y, s), (m, d, y, s)
                    swaps += 1
        assert swaps > 600

    def test_abs_denominators_match_naive_product(self):
        rng = random.Random(5)
        for size in [1, 2, 3, 4, 7, 8, 33, 100]:
            xs = sorted(rng.sample(range(4096), size))
            naive = [abs(math.prod(xi - xj for xj in xs if xj != xi)) for xi in xs]
            assert _abs_denominators(xs) == naive


class TestExactEvaluator:
    """UnivariatePolynomial.evaluate against the barycentric reference."""

    @staticmethod
    def check(poly):
        # the grid, points between its integers, past m and below 0, and
        # Fraction(6, 2), which is 3 (a node when 3 is one)
        m = poly.m
        for t in [*range(m + 1), Fraction(1, 3), Fraction(2 * m + 1, 2), m + 3,
                  -1, Fraction(-7, 2), Fraction(6, 2)]:
            assert poly.evaluate(t) == barycentric(poly.nodes, poly.values, t), (poly, t)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rational_data(self, seed):
        rng = random.Random(seed)
        m = rng.randrange(1, 40)
        nodes = tuple(sorted(rng.sample(range(m + 1), rng.randrange(1, m + 2))))
        values = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in nodes)
        self.check(UnivariatePolynomial(m, nodes, values))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_alternating_data(self, seed):
        rng = random.Random(100 + seed)
        m = rng.randrange(2, 60)
        nodes = sorted(rng.sample(range(m), rng.randrange(1, m)))
        poly = UnivariatePolynomial.alternating(m, nodes)
        assert list(poly.values) == alternating_data(nodes)
        self.check(poly)

    @pytest.mark.parametrize("m", [1, 2, 5, 17])
    def test_degree_m_and_interpolant(self, m):
        # values 0, ..., 0, 1 on every grid point: the degree-m witness
        values = (Fraction(0),) * m + (Fraction(1),)
        self.check(UnivariatePolynomial(m, tuple(range(m + 1)), values))

    @pytest.mark.parametrize("m, nodes", [
        (30, (5, 8, 9, 13, 20)),  # the span starts above 0 and ends before m
        (9, (4,)),  # a single node: degree 0
        (6, (1, 3, 4)),  # Fraction(6, 2) is the node 3
        (12, (2, 3, 4, 5)),  # no free point in the span
    ])
    def test_values_with_different_denominators(self, m, nodes):
        values = tuple(Fraction((-1) ** k * (k + 2), 2 * k + 3) for k in range(len(nodes)))
        self.check(UnivariatePolynomial(m, nodes, values))

    @pytest.mark.parametrize("seed", range(4))
    def test_weights_over_the_span_factorial(self, seed):
        # w_i |D_i| = sign(D_i) n_i (V / den_i) s! and L = s! V, with
        # s = x_d - x_0 the span of the nodes and V the lcm of den_i
        rng = random.Random(200 + seed)
        for size in [1, 2, 3, 5, 17, 100]:
            start = rng.randrange(50)
            nodes = tuple(sorted(rng.sample(range(start, start + 3 * size), size)))
            values = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in nodes)
            weights, denominator = UnivariatePolynomial(nodes[-1] + 5, nodes, values)._weights
            lcm = math.lcm(*(v.denominator for v in values))
            span_factorial = math.factorial(nodes[-1] - nodes[0])
            assert denominator == span_factorial * lcm
            d = size - 1
            for i, (w, ad, v) in enumerate(zip(weights, _abs_denominators(nodes), values)):
                sign = (-1) ** (d - i)
                assert w * ad == sign * v.numerator * (lcm // v.denominator) * span_factorial

    def test_unsorted_nodes_rejected(self):
        # the sign rule of the evaluator holds for ascending nodes only
        with pytest.raises(ValueError):
            UnivariatePolynomial(4, (0, 3, 1), (Fraction(1),) * 3)

    def test_witness_values_match_reference(self):
        for m, eps in [(7, THIRD), (40, Fraction(1, 10)), (64, Fraction(1, 1000))]:
            self.check(build_and_approximant(m, eps))


def scaled(x, e):
    return Fraction(float(x)) * Fraction(2) ** int(e)


def exact_bracket(xs, abs_d, y, k):
    """Integers lo < hi with lo / 2^k <= q(y) <= hi / 2^k for the alternating
    interpolant q ending with +1: each term omega(y) / ((y - x_i) |D_i|) is
    floored at scale 2^k, which puts the sum within d + 1 units above."""
    omega = math.prod([y - x for x in xs])
    total = 0
    for x, d in zip(xs, abs_d):
        n = omega // (y - x) << max(k, 0)
        total += n // (d << max(-k, 0))
    return total, total + len(xs)


class TestEnclosure:
    """Every exact q(y) and V(X) = q(m) lies inside its float enclosure."""

    @staticmethod
    def enclosures(xs, ys):
        xf = np.array(xs, dtype=np.float64)
        s, err, e = _enclose(xf, np.array(ys, dtype=np.float64))
        return [
            (scaled(s[i] - err[i], e[i]), scaled(s[i] + err[i], e[i]), e[i]) for i in range(len(ys))
        ]

    @pytest.mark.parametrize("m, d", [(64, 10), (676, 507)])
    def test_exact_values_inside(self, m, d):
        rng = random.Random(m + d)
        xs = sorted(rng.sample(range(m), d + 1))
        ys = sorted(set(range(m)) - set(xs))
        if m > 64:
            ys = rng.sample(ys, 40)
        abs_d = _abs_denominators(xs)
        q = UnivariatePolynomial.alternating(m, xs)
        for y, (lo, hi, _) in zip(ys + [m], self.enclosures(xs, ys + [m])):
            exact = q.evaluate(y)
            assert lo <= exact <= hi, y
            # the bracket the m = 4096 test relies on holds the exact value
            b_lo, b_hi = exact_bracket(xs, abs_d, y, 64)
            assert Fraction(b_lo, 2**64) <= exact <= Fraction(b_hi, 2**64)

    def test_chebyshev_seed_at_4096(self):
        m = 4096
        xs = _chebyshev_int_points(m - 1, 2213)
        rng = random.Random(4096)
        ys = rng.sample(sorted(set(range(m)) - set(xs)), 30) + [m]
        abs_d = _abs_denominators(xs)
        for y, (lo, hi, e) in zip(ys, self.enclosures(xs, ys)):
            k = 200 - int(e)  # bracket 2^-200 wide relative to the enclosure's scale
            b_lo, b_hi = exact_bracket(xs, abs_d, y, k)
            assert lo <= Fraction(b_lo) / Fraction(2) ** k
            assert Fraction(b_hi) / Fraction(2) ** k <= hi, y

    def test_distance_products_match_fresh_padded_copies_at_4096(self):
        # one pass over the rows [nodes; free points; m] through one reused
        # workspace has the bits of |D_i| and |omega(y)| each formed on a
        # fresh padded copy of its own blocks: 2213 nodes leave a ragged
        # column group, and the block at row 2048 holds the last 165 node
        # rows and the first 91 point rows
        def padded(a, k):
            out = np.ones((len(a), -(-a.shape[1] // k) * k))
            out[:, : a.shape[1]] = a
            return out

        def products(rows, own):
            mants, exps = [], []
            for start in range(0, len(rows), 256):
                dist = np.abs(rows[start : start + 256, None] - xf[None, :])
                if own:
                    dist[np.arange(len(dist)), np.arange(len(dist)) + start] = 1.0
                a = padded(dist, 4)
                a = a[:, 0::4] * a[:, 1::4] * a[:, 2::4] * a[:, 3::4]
                exp = np.zeros(len(a), dtype=np.int64)
                while True:
                    a, e = np.frexp(a)
                    exp += e.sum(axis=1)
                    if a.shape[1] == 1:
                        break
                    a = padded(a, 64).reshape(len(a), -1, 64).prod(axis=2)
                mants.append(a[:, 0])
                exps.append(exp)
            return np.concatenate(mants), np.concatenate(exps)

        xf = np.array(_chebyshev_int_points(4095, 2213), dtype=np.float64)
        ys = np.append(np.setdiff1d(np.arange(4096.0), xf), 4096.0)
        assert 2048 < len(xf) < 2048 + 256 < len(xf) + len(ys)
        mant, exp = _distance_products(xf, ys)
        for half, (ref_mant, ref_exp) in [
            (slice(None, len(xf)), products(xf, own=True)),
            (slice(len(xf), None), products(ys, own=False)),
        ]:
            assert mant[half].tobytes() == ref_mant.tobytes()
            assert exp[half].tobytes() == ref_exp.tobytes()

    def test_tie_at_4096_settled_exactly(self, monkeypatch):
        # |q(2048)| = 1 exactly on this seed, so no float bound decides it
        engine = _Exchange(4096, _chebyshev_int_points(4095, 2213))
        (lo, hi, _), = self.enclosures(engine.xs, [2048])
        assert lo < -1 < hi or lo < 1 < hi
        assert abs(UnivariatePolynomial.alternating(4096, engine.xs).evaluate(2048)) == 1
        # a full scan settles such a tie exactly: the one free point of this
        # node set is q(2) = -1
        engine = _Exchange(4, [0, 1, 3])
        assert UnivariatePolynomial.alternating(4, engine.xs).evaluate(2) == -1
        (lo, hi, _), = self.enclosures(engine.xs, [2])
        assert lo < -1 < hi
        # the centre of the enclosure at 2 is exactly -1, so only its upper
        # bound marks the point undecided and sends it to the exact evaluator
        points = []
        evaluate = UnivariatePolynomial.evaluate
        monkeypatch.setattr(UnivariatePolynomial, "evaluate",
                            lambda poly, t: points.append(t) or evaluate(poly, t))
        scan = engine.find_violations(Fraction(5))
        assert scan.violations == [] and scan.verdict is True
        assert 2 in points

    def test_settled_violation_by_any_margin(self, monkeypatch):
        # the exact settling counts |q| > 1 as a violation however small the
        # excess: at the undecided point 2 of this node set, an exact value
        # 2^-100 beyond -1 must come back as a violation of sign -1
        engine = _Exchange(4, [0, 1, 3])
        evaluate = UnivariatePolynomial.evaluate
        monkeypatch.setattr(
            UnivariatePolynomial, "evaluate",
            lambda poly, t: evaluate(poly, t) - Fraction(1, 2**100) if t == 2 else evaluate(poly, t),
        )
        assert engine.find_violations(Fraction(5)).violations == [(2, -1)]

    def test_feasible_verdict_needs_the_lower_bound(self):
        # at the optimum max_q = 1 and V(X) is exact; a target 2^-60 above
        # it lies inside the enclosure of V, so only its lower bound may
        # prove feasibility, and the exact V then refutes it
        engine = exchange_to_optimum(64, 10)
        v = UnivariatePolynomial.alternating(64, engine.xs).evaluate(64)
        target = v * (1 + Fraction(1, 2**60))
        (lo, hi, _), = self.enclosures(engine.xs, [64])
        assert lo < v < target < hi
        scan = engine.find_violations(target)
        assert scan.violations == [] and scan.verdict is False
        assert engine.find_violations(v).verdict is True


class TestBuildAndApproximant:
    def test_m1_is_identity(self):
        poly = build_and_approximant(1, THIRD)
        assert poly.degree == 1
        assert poly.evaluate(0) == 0
        assert poly.evaluate(1) == 1

    def test_m2_witness(self):
        poly = build_and_approximant(2, THIRD)
        assert poly.degree == 1
        assert poly.evaluate(0) == Fraction(-1, 3)
        assert poly.evaluate(1) == Fraction(1, 3)
        assert poly.evaluate(2) == 1

    def test_m4_certified(self):
        poly = build_and_approximant(4, THIRD)
        assert poly.degree == 2 == min_and_approx_degree(4, THIRD)
        for k in range(4):
            assert abs(poly.evaluate(k)) <= THIRD
        assert abs(poly.evaluate(4) - 1) <= THIRD

    def test_history_independent(self):
        eps = Fraction(1, 10)
        cold = build_and_approximant(40, eps).integer_values()
        for m, other in [(41, eps), (39, THIRD), (40, Fraction(1, 1000)), (128, eps)]:
            min_and_approx_degree(m, other)
        assert build_and_approximant(40, eps).integer_values() == cold

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 9])
    @pytest.mark.parametrize("eps", [THIRD, Fraction(1, 10)])
    def test_witness_meets_constraints_at_minimal_degree(self, m, eps):
        poly = build_and_approximant(m, eps)
        assert poly.degree == min_and_approx_degree(m, eps)
        for k in range(m):
            assert abs(poly.evaluate(k)) <= eps
        assert abs(poly.evaluate(m) - 1) <= eps


class TestCheckWitness:
    EPS = Fraction(1, 3)

    def test_values_at_eps_pass(self):
        _check_witness([self.EPS, -self.EPS, 1 - self.EPS], self.EPS)
        _check_witness([Fraction(0), 1 + self.EPS], self.EPS)

    @pytest.mark.parametrize("k", [0, 1])
    def test_grid_value_just_above_eps_raises(self, k):
        values = [Fraction(0), Fraction(0), Fraction(1)]
        values[k] = -self.EPS * (1 + Fraction(1, 2**100))
        with pytest.raises(NumericalFailure, match=f"p\\({k}\\)"):
            _check_witness(values, self.EPS)

    def test_value_at_m_just_off_raises(self):
        over = self.EPS * (1 + Fraction(1, 2**100))
        for top in (1 + over, 1 - over):
            with pytest.raises(NumericalFailure, match="p\\(m\\)"):
                _check_witness([Fraction(0), top], self.EPS)


class TestDualize:
    def test_and_becomes_or(self):
        p = {frozenset({0, 1}): 1}
        assert dualize_polynomial(p) == {
            frozenset({0}): 1,
            frozenset({1}): 1,
            frozenset({0, 1}): -1,
        }

    def test_constant_one_to_zero(self):
        assert dualize_polynomial({frozenset(): 1}) == {}

    def test_involution(self):
        import random

        rng = random.Random(7)
        vars_ = [0, 1, 2]
        p = {}
        for size in range(4):
            for sub in combinations(vars_, size):
                c = rng.randint(-3, 3)
                if c:
                    p[frozenset(sub)] = c
        assert dualize_polynomial(dualize_polynomial(p)) == p

    def test_degree_does_not_increase(self):
        p = {frozenset({0, 1, 2}): 2, frozenset({1}): -1}
        q = dualize_polynomial(p)
        assert max(len(k) for k in q) <= 3

    def test_pointwise_error_preserved(self):
        # On every Boolean input, |f*(x) - p*(x)| = |f(1-x) - p(1-x)|.
        p = {frozenset(): Fraction(1, 5), frozenset({0, 1}): Fraction(2, 3)}
        q = dualize_polynomial(p)

        def eval_map(poly, bits):
            return sum(
                c for key, c in poly.items() if all(bits[i] for i in key)
            )

        for mask in range(4):
            bits = [(mask >> i) & 1 for i in range(2)]
            flipped = [1 - b for b in bits]
            lhs = 1 - eval_map(p, flipped)
            assert eval_map(q, bits) == lhs


class TestDegreeBound:
    def test_n1(self):
        report = bpm_degree_bound(1, THIRD)
        assert report.overall_bound == 1
        assert report.and_degree == 1
        assert report.threshold == 1

    def test_n2_pipeline(self):
        report = bpm_degree_bound(2, THIRD)
        assert report.threshold == 3  # ceil(2^1.5)
        assert report.epsilon_prime == Fraction(1, 196608)
        assert report.and_degree == min_and_approx_degree(4, Fraction(1, 196608))
        assert report.overall_bound == max(report.threshold, report.and_degree)

    def test_invariant_fields(self):
        report = bpm_degree_bound(3, THIRD)
        assert report.overall_bound == max(report.threshold, report.and_degree)
        assert report.epsilon_prime == epsilon_prime(3, THIRD)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            bpm_degree_bound(65, THIRD)

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one(self, n):
        with pytest.raises(DomainError, match=f"n must be at least 1, got {n}"):
            bpm_degree_bound(n, THIRD)

    def test_memo_keeps_only_the_degree(self):
        # a warm-up search allocates numpy's lazy state first; then a cold
        # search leaves only its memo entry, the key and an int, and no node
        # set; collections keep garbage cycles out of the count
        bpm_degree_bound(32, THIRD)
        _min_feasible_degree.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            report = bpm_degree_bound(32, THIRD)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.and_degree == 715
        assert _min_feasible_degree.cache_info().currsize == 1
        assert kept < 2048


class TestAssemble:
    def test_n1_exact(self):
        approx = assemble_bpm_approximant(1, THIRD)
        assert approx.max_error == 0
        assert approx.degree == 1
        assert approx.evaluate(BipartiteGraph.complete(1)) == 1
        assert approx.evaluate(BipartiteGraph.empty(1)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certified_error_within_budget(self, n):
        approx = assemble_bpm_approximant(n, THIRD)
        assert approx.max_error <= THIRD
        assert approx.degree == bpm_degree_bound(n, THIRD).overall_bound

    def test_dual_preserves_error_exactly(self):
        approx = assemble_bpm_approximant(2, THIRD)
        from bpmdual.bigraph import complement

        for x in all_graphs(2):
            dual_err = abs(
                approx.dual_evaluate(x) - (1 if has_perfect_matching(x) else 0)
            )
            primal_err = abs(
                approx.evaluate(complement(x)) - bpm_star_value(complement(x))
            )
            assert dual_err == primal_err

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            assemble_bpm_approximant(4, THIRD)
