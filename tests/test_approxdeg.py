"""Approximation-degree tests: exact feasibility decisions, witnesses,
duality, and the assembled end-to-end approximant."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from bpmdual._errors import DomainError, SizeLimitError
from bpmdual.approxdeg import (
    BpmStarApproximant,
    DegreeBoundReport,
    UnivariatePolynomial,
    _Exchange,
    _Solver,
    _abs_denominators,
    _min_feasible_degree,
    _value_exact,
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


def brute_nu(m, d):
    """Independent oracle: enumerate all node subsets."""
    return min(
        _value_exact(m, xs, _abs_denominators(xs))
        for xs in combinations(range(m), d + 1)
    )


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
                probe = _Solver(m, Fraction(2)).probe(d, optimum=True)
                assert probe.optimal
                nodes = list(probe.nodes)
                assert len(nodes) == d + 1
                nu = _value_exact(m, nodes, _abs_denominators(nodes))
                assert nu == brute_nu(m, d), (m, d)

    def test_out_of_regime_warns(self):
        with pytest.warns(UserWarning):
            min_and_approx_degree(4, Fraction(1, 10**9))


def float_state(engine):
    return list(engine.xs), engine._term_logs.copy(), engine._xf.copy(), engine._log_m_sum


class TestExchangeBookkeeping:
    @pytest.mark.parametrize("m, d", [(676, 506), (64, 10)])
    def test_replace_tracks_recomputation(self, m, d):
        rng = random.Random(m + d)
        engine = _Exchange(m, rng.sample(range(m), d + 1))
        for _ in range(2000):
            free = sorted(set(range(m)) - set(engine.xs))
            engine._replace(rng.randrange(d + 1), rng.choice(free))
        assert engine.xs == sorted(set(engine.xs)) and len(engine.xs) == d + 1
        assert np.array_equal(engine._xf, np.array(engine.xs, dtype=np.float64))
        fresh = _Exchange(m, engine.xs)
        np.testing.assert_allclose(engine._term_logs, fresh._term_logs, rtol=0, atol=1e-9)
        assert engine._log_m_sum == pytest.approx(fresh._log_m_sum, rel=0, abs=1e-9)

    def test_failed_swap_restores_state(self):
        # no swap lowers V below the optimum, so every attempt must fail
        m, d = 64, 10
        engine = _Exchange(m, _Solver(m, Fraction(2)).probe(d, optimum=True).nodes)
        before = float_state(engine)
        for y in sorted(set(range(m)) - set(engine.xs)):
            for s in (1, -1):
                for float_only in (False, True):
                    assert not engine.swap_toward(y, s, float_only)
                    xs, logs, xf, log_m_sum = float_state(engine)
                    assert xs == before[0]
                    assert np.array_equal(logs, before[1])
                    assert np.array_equal(xf, before[2])
                    assert log_m_sum == before[3]

    def test_abs_denominators_match_naive_product(self):
        rng = random.Random(5)
        for size in [1, 2, 3, 4, 7, 8, 33, 100]:
            xs = sorted(rng.sample(range(4096), size))
            naive = [abs(math.prod(xi - xj for xj in xs if xj != xi)) for xi in xs]
            assert _abs_denominators(xs) == naive


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
        _min_feasible_degree.cache_clear()
        cold = build_and_approximant(40, eps).coefficients
        _min_feasible_degree.cache_clear()
        for m, other in [(41, eps), (39, THIRD), (40, Fraction(1, 1000)), (128, eps)]:
            min_and_approx_degree(m, other)
        assert build_and_approximant(40, eps).coefficients == cold
        assert build_and_approximant(40, eps).coefficients == cold  # memo hit

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 9])
    @pytest.mark.parametrize("eps", [THIRD, Fraction(1, 10)])
    def test_witness_meets_constraints_at_minimal_degree(self, m, eps):
        poly = build_and_approximant(m, eps)
        assert poly.degree == min_and_approx_degree(m, eps)
        for k in range(m):
            assert abs(poly.evaluate(k)) <= eps
        assert abs(poly.evaluate(m) - 1) <= eps


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
        assert report.and_degree == min_and_approx_degree(
            4, Fraction(1, 196608), _allow_large=True
        )
        assert report.overall_bound == max(report.threshold, report.and_degree)

    def test_invariant_fields(self):
        report = bpm_degree_bound(3, THIRD)
        assert report.overall_bound == max(report.threshold, report.and_degree)
        assert report.epsilon_prime == epsilon_prime(3, THIRD)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            bpm_degree_bound(65, THIRD)


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
