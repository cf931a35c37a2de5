"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (run with -s to see them inline).
Criteria involving large computations cache shared state at module scope.
Frozen constants (monomial counts, degree-table values, the ratio constant
C) were computed once with this package's oracles and pinned.
"""

import math
import time
from fractions import Fraction

import numpy as np

from bpmdual._errors import PreconditionError
from bpmdual.bigraph import (
    BipartiteGraph,
    all_graphs,
    hetyei_conditions,
)
from bpmdual.coeff import binomial, block_coefficient, dual_coefficient, sequence_coefficient
from bpmdual.oracle import (
    _chi_sum_raw,
    bpm_star_value,
    coefficient_table,
    elementary_sum_coefficient,
    mc_chi_sum_coefficient,
    mobius_coefficient,
    permitted_sum_coefficient,
    star_table,
    zeta_transform,
)
from bpmdual.ordered import block_decompose, is_degenerate, is_sorted_ordered
from bpmdual.polyspace import (
    enumerate_sequences,
    evaluate,
    materialize,
    max_abs_coefficient,
    monomial_count,
)
from bpmdual.sensitivity import construct_path_input, sensitivity_at

THIRD = Fraction(1, 3)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_c01_exhaustive_coefficient_equality():
    started = time.time()
    checked = 0
    for n in (1, 2, 3, 4):
        table = coefficient_table(n)
        for mask in range(1 << (n * n)):
            expected = table.terms.get(mask, 0)
            got = dual_coefficient(BipartiteGraph.from_mask(n, mask))
            if got != expected:
                _report(1, False, f"mismatch at n={n}, mask={mask}: {got} != {expected}")
            checked += 1
    elapsed = time.time() - started
    _report(
        1,
        elapsed < 60.0,
        f"closed form == inversion table on {checked} graphs (n<=4) in {elapsed:.1f}s",
    )


def test_c02_representation_identity():
    # Direct evaluation at n <= 3; at n = 4 the subset-sum transform of the
    # materialized table is the evaluation at every input simultaneously,
    # spot-checked by 512 direct evaluate() calls.
    for n in (1, 2, 3):
        poly = materialize(n)
        for x in all_graphs(n):
            if evaluate(poly, x) != bpm_star_value(x):
                _report(2, False, f"evaluation mismatch at n={n}, x={x.mask}")
    n = 4
    poly = materialize(n)
    size = 1 << 16
    coeffs = np.zeros(size, dtype=np.int64)
    for mask, c in poly.terms.items():
        coeffs[mask] = c
    ok = np.array_equal(zeta_transform(coeffs, 16), star_table(4))
    rng = np.random.default_rng(20260808)
    for mask in rng.integers(0, size, size=512):
        x = BipartiteGraph.from_mask(4, int(mask))
        if evaluate(poly, x) != bpm_star_value(x):
            ok = False
            break
    _report(2, ok, "evaluate(materialize(n), x) == BPM*(x) for all x, n <= 4")


def test_c03_oracle_concordance():
    checked = 0
    for n in (1, 2, 3):
        for g in all_graphs(n):
            if g.edge_count == 0:
                continue
            reference = mobius_coefficient(g)
            if mc_chi_sum_coefficient(g) != reference:
                _report(3, False, f"chi-sum mismatch at n={n}, mask={g.mask}")
            try:
                if elementary_sum_coefficient(g) != reference:
                    _report(3, False, f"elementary-sum mismatch at n={n}, mask={g.mask}")
            except PreconditionError:
                pass
            if is_sorted_ordered(g) and permitted_sum_coefficient(g) != reference:
                _report(3, False, f"permitted-sum mismatch at n={n}, mask={g.mask}")
            checked += 1
    # the documented empty-graph anomaly of the sign-sum oracle
    anomaly = _chi_sum_raw(BipartiteGraph.empty(2))
    truth = coefficient_table(2).constant_term
    ok = anomaly == -1 and truth == 0
    _report(3, ok, f"oracles agree on {checked} nonempty graphs; empty-graph sign sum = {anomaly} vs true {truth}")


def test_c04_monomial_counts():
    ok = monomial_count(2) == 9
    detail = [f"count(2)={monomial_count(2)}"]
    for n in range(2, 8):
        count = monomial_count(n)
        lower = math.factorial(n) ** 2
        upper = (n + 2) ** (2 * n + 2)
        if not lower <= count <= upper:
            _report(4, False, f"count({n})={count} outside [{lower}, {upper}]")
    for n in (1, 2, 3, 4):
        if monomial_count(n) != len(coefficient_table(n)):
            _report(4, False, f"sequence count != table count at n={n}")
    detail.append("bounds hold for 2<=n<=7; sequence==table for n<=4")
    _report(4, ok, "; ".join(detail))


def test_c05_coefficient_magnitudes():
    for n in range(2, 9):
        value = max_abs_coefficient(n)
        lower = binomial(n - 1, n // 2)
        upper = 1 << (2 * n)
        if not lower <= value <= upper:
            _report(5, False, f"max|a*|({n})={value} outside [{lower}, {upper}]")
    _report(5, True, "biclique lower and 4^n upper bounds hold for 2<=n<=8")


def test_c06_block_machinery():
    checked = 0
    for n in range(1, 7):
        for s in enumerate_sequences(n):
            if is_degenerate(s):
                continue
            blocks, (a, b) = block_decompose(s)
            product = binomial(a, b)
            for blk in blocks:
                product *= block_coefficient(blk)
            if product != sequence_coefficient(s):
                _report(6, False, f"block product mismatch for {s}")
            if n <= 4 and product != mobius_coefficient(s.decode()):
                _report(6, False, f"block product != inversion oracle for {s}")
            checked += 1
    _report(6, True, f"block products match on {checked} non-degenerate sequences, n <= 6")


def test_c07_hetyei_equivalence():
    checked = 0
    for n in (1, 2, 3):
        for g in all_graphs(n):
            if not hetyei_conditions(g).all_equal():
                _report(7, False, f"conditions disagree at n={n}, mask={g.mask}")
            checked += 1
    _report(7, True, f"all five conditions agree on {checked} graphs (n <= 3)")


def test_c08_sensitivity():
    for n in (2, 4, 6):
        count = sensitivity_at(construct_path_input(n)).count
        expected = (n // 2) * (n // 2 + 1)
        if count != expected:
            _report(8, False, f"even n={n}: measured {count} != {expected}")
    for n in (3, 5):
        count = sensitivity_at(construct_path_input(n)).count
        bound = ((n - 1) // 2 + 1) ** 2
        if count < bound:
            _report(8, False, f"odd n={n}: measured {count} < {bound}")
    _report(8, True, "even counts equal (n/2)(n/2+1); odd counts meet the square bound")


def test_c09_and_approximate_degree():
    from bpmdual.approxdeg import min_and_approx_degree

    degrees = [min_and_approx_degree(m, THIRD) for m in (1, 2, 3, 4)]
    if degrees != [1, 1, 1, 2]:
        _report(9, False, f"degrees for m=1..4 are {degrees}, expected [1, 1, 1, 2]")
    grid = [min_and_approx_degree(m, THIRD) for m in range(1, 257)]
    if any(a > b for a, b in zip(grid, grid[1:])):
        _report(9, False, "degree not monotone in m")
    for m in (8, 16, 32, 64):
        ratio = grid[4 * m - 1] / grid[m - 1]
        if not 1.5 <= ratio <= 2.8:
            _report(9, False, f"scaling ratio d({4*m})/d({m}) = {ratio:.3f} outside [1.5, 2.8]")
    stable = all(
        min_and_approx_degree(m, THIRD, tolerance=Fraction(1, 10**9))
        == min_and_approx_degree(m, THIRD, tolerance=Fraction(1, 10**12))
        for m in (1, 4, 16, 64, 256)
    )
    if not stable:
        _report(9, False, "degrees unstable under tolerance 1e-9 vs 1e-12")
    _report(9, True, f"m=1..4 degrees {degrees}; monotone on 1..256; ratios within [1.5, 2.8]; tolerance-stable")


# Degree-bound table values computed by this package and frozen.  Every
# entry, n = 64 included, is certified: the degree is proven feasible and
# the one below it proven infeasible.  The ratio constant C is the row
# maximum, frozen with headroom.
EXPECTED_TABLE = {4: 16, 8: 64, 16: 225, 32: 715}
N64_DEGREE = 2213
RATIO_CONSTANT_C = 1.80


def test_c10_end_to_end_approximant():
    from bpmdual.approxdeg import assemble_bpm_approximant, bpm_degree_bound

    for n in (1, 2, 3):
        approx = assemble_bpm_approximant(n, THIRD)
        if approx.max_error > THIRD:
            _report(10, False, f"n={n}: assembled error {approx.max_error} > 1/3")
        dual_err = approx.dual_max_error()
        if dual_err != approx.max_error:
            _report(10, False, f"n={n}: dualization changed the error profile")
        bound = bpm_degree_bound(n, THIRD).overall_bound
        if approx.degree != min(bound, n * n):
            _report(10, False, f"n={n}: degree {approx.degree} != reported bound {bound}")
    ratios = {}
    for n in sorted(EXPECTED_TABLE) + [64]:
        report = bpm_degree_bound(n, THIRD)
        if n in EXPECTED_TABLE:
            if report.overall_bound != EXPECTED_TABLE[n] or not report.certified:
                _report(
                    10,
                    False,
                    f"n={n}: bound {report.overall_bound} (certified="
                    f"{report.certified}) != frozen {EXPECTED_TABLE[n]}",
                )
        elif report.overall_bound != N64_DEGREE or not report.certified:
            _report(
                10,
                False,
                f"n=64: bound {report.overall_bound} (certified="
                f"{report.certified}) != frozen {N64_DEGREE}",
            )
        ratios[n] = report.overall_bound / (n**1.5 * math.sqrt(math.log2(n)))
    if any(r > RATIO_CONSTANT_C for r in ratios.values()):
        _report(10, False, f"ratio exceeds C={RATIO_CONSTANT_C}: {ratios}")
    pretty = {n: round(r, 3) for n, r in ratios.items()}
    _report(10, True, f"assembled approximants certified (n<=3); table ratios {pretty} <= {RATIO_CONSTANT_C}")


def test_c11_reproducibility():
    from bpmdual.cli import run

    import io
    from contextlib import redirect_stdout

    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(["poly", "--n", "3"])
        assert code == 0
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(11, ok, "poly --n 3 output is byte-identical across runs")
