"""Mutation check: does the test suite notice a deliberate one-line fault?

    python3 scripts/mutants.py

Each entry of MUTANTS replaces one exact piece of text in one source file.
The script copies this checkout into a temporary directory (under $TMPDIR),
checks that each mutant's text occurs exactly once, runs the unmutated
tests once, then applies one mutant at a time and runs pytest with -x on
the mutant's module test file and the shared test files.  A mutant is
killed when pytest fails.  Every run fixes hypothesis's seed, so verdicts
repeat from run to run.  Nothing in this checkout is modified.

Some mutants cannot change any outcome that a test can see: a rounding
constant cut below what the error analysis needs but still above the float
error of every case the tests meet, or a search step that the degree walk
corrects.  They are marked as expected survivors.  The script prints one
table row per mutant and exits 1 if a mutant survives that should have
been killed, or if an expected survivor is killed (the list is then out
of date).  It needs pytest and hypothesis, and stays out of the tier-1
suite (CI runs it as a step of its own): one mutant costs one run of its
test files, up to about 25 s, about 5.5 min in all.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The files every mutant runs besides its module's own test file.
SHARED_TESTS = ("tests/test_acceptance.py", "tests/test_properties.py", "tests/test_cli.py")
MODULE_TESTS = {
    "approxdeg.py": "tests/test_approxdeg.py",
    "oracle.py": "tests/test_oracle.py",
    "coeff.py": "tests/test_coeff.py",
    "ordered.py": "tests/test_ordered.py",
    "bigraph.py": "tests/test_bigraph.py",
    "polyspace.py": "tests/test_polyspace.py",
}


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/bpmdual
    old: str
    new: str
    reason: str  # what the fault would break
    survives: bool = False  # no test outcome can change


MUTANTS = [
    # --- approxdeg: the enclosure
    Mutant("zero-bound", "approxdeg.py",
           "errs.append(coeff * np.abs(terms, out=terms).sum(axis=1) + underflow)",
           "errs.append(0.0 * terms.sum(axis=1))",
           "the enclosure claims the float value is exact"),
    Mutant("gamma-d-only", "approxdeg.py",
           "coeff = (_gamma(2 * d + 2) * (1 + _gamma(d)) + _gamma(d)) * (1 + 2.0**-20)",
           "coeff = _gamma(d) * (1 + 2.0**-20)",
           "the enclosure coefficient drops the product error, about 3x too small",
           survives=True),
    Mutant("gamma-halved", "approxdeg.py",
           "return k * _U / (1 - k * _U)", "return k * _U / 2 / (1 - k * _U)",
           "every gamma_k is half of Higham's bound", survives=True),
    Mutant("no-underflow-term", "approxdeg.py",
           "underflow = (d + 1) * 2.0**-1073", "underflow = 0.0",
           "terms that underflow to subnormals lose precision unbounded", survives=True),
    Mutant("no-slack-factor", "approxdeg.py",
           "* (1 + 2.0**-20)\n", "\n",
           "the bound uses the computed sum of |t_i| for the exact one", survives=True),
    Mutant("lower-bound-not-rounded-down", "approxdeg.py",
           "lo = np.maximum(np.nextafter(np.abs(s) - err, -np.inf), 0.0)",
           "lo = np.maximum(np.abs(s) - err, 0.0)",
           "the lower bound on |q| can round up past the true value", survives=True),
    # --- approxdeg: the verdicts and the settling
    Mutant("feasible-from-upper-bound", "approxdeg.py",
           "elif v_lo >= target * max_q:", "elif v_hi >= target * max_q:",
           "'feasible' is read from the upper bound on V(X)"),
    Mutant("infeasible-from-lower-bound", "approxdeg.py",
           "if v_hi < target:", "if v_lo < target:",
           "'infeasible' is read from the lower bound on V(X)"),
    Mutant("grid-maximum-ignored", "approxdeg.py",
           "elif v_lo >= target * max_q:", "elif v_lo >= target:",
           "'feasible' ignores the grid maximum of |q|"),
    Mutant("violations-from-centre", "approxdeg.py",
           "proven = np.ldexp(lo, e) > 1", "proven = np.ldexp(np.abs(s), e) > 1",
           "violations are taken from the centre of the enclosure, unproven"),
    Mutant("unsettled-from-centre", "approxdeg.py",
           "unsettled = np.ldexp(hi, e) > 1", "unsettled = np.ldexp(np.abs(s), e) > 1",
           "near-ties skip the exact settling"),
    Mutant("settle-slack", "approxdeg.py",
           "if abs(qv) > 1:", "if abs(qv) > 1 + Fraction(1, 10**6):",
           "the exact settling lets |q| up to 1 + 1e-6 pass as within [-1, 1]"),
    Mutant("near-tie-against-itself", "approxdeg.py",
           "_value_bounds(self.m, self._xf)[0]", "_value_bounds(self.m, xf)[0]",
           "a near tie compares the candidate set with itself, so no near-tie swap is adopted"),
    # --- approxdeg: the witness check
    Mutant("witness-slack", "approxdeg.py",
           "if abs(values[k]) > eps:", "if abs(values[k]) > eps * (1 + Fraction(1, 10**6)):",
           "the witness check accepts |p(k)| up to eps (1 + 1e-6)"),
    Mutant("witness-top-slack", "approxdeg.py",
           "if abs(values[m] - 1) > eps:", "if abs(values[m] - 1) > eps * (1 + Fraction(1, 10**6)):",
           "the witness check accepts |p(m) - 1| up to eps (1 + 1e-6)"),
    # --- approxdeg: the probe and the degree search
    Mutant("probe-generator", "approxdeg.py",
           "any([engine.swap_toward(y, s) for y, s in scan.violations])",
           "any(engine.swap_toward(y, s) for y, s in scan.violations)",
           "a scan feeds only its first adopted swap, so a probe takes more scans"),
    Mutant("walk-stops-at-2", "approxdeg.py",
           "while d > 1 and", "while d > 2 and",
           "the downward walk never probes degree 1"),
    Mutant("bisection-from-2", "approxdeg.py",
           "lo=1, key=", "lo=2, key=",
           "the bisection never looks at degree 1"),
    Mutant("strict-crossing", "approxdeg.py",
           ">= log_target)", "> log_target)",
           "an estimate exactly at the target counts as below it; the walk corrects the start",
           survives=True),
    # --- oracle: the lattice sweeps and the Mobius dtype
    Mutant("block-sweep-operands", "oracle.py",
           "op(view[:, 1], view[:, 0], out=view[:, 1])",
           "op(view[:, 0], view[:, 1], out=view[:, 1])",
           "the in-cache sweep of the low bits swaps its operands"),
    Mutant("in-place-sweep-target", "oracle.py",
           "op(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])",
           "op(view[:, 1, :], view[:, 0, :], out=view[:, 0, :])",
           "the sweep of the high bits writes the bit-off half"),
    Mutant("block-bits-off-by-one", "oracle.py",
           "inside = low + count.bit_length() - 1", "inside = low + count.bit_length() - 2",
           "one lattice bit inside a block is swept twice, or never"),
    Mutant("closure-upwards", "oracle.py",
           "_in_place_sweep(words[::-1], range(max(0, bits - 6)), np.bitwise_or)",
           "_in_place_sweep(words, range(max(0, bits - 6)), np.bitwise_or)",
           "the packed BPM* closure runs up the word index, not down"),
    Mutant("in-word-closure-upwards", "oracle.py",
           "np.right_shift(chunk, shift, out=tmp)", "np.left_shift(chunk, shift, out=tmp)",
           "inside a word the closure ORs in the position below, not above"),
    Mutant("zeta-or", "oracle.py",
           "return _lattice_sweep(values.copy(), bits, np.add)",
           "return _lattice_sweep(values.copy(), bits, np.bitwise_or)",
           "subset sums become subset ORs"),
    Mutant("mobius-uint8", "oracle.py",
           "np.result_type(values.dtype, np.int32)", "np.uint8",
           "the Mobius transform wraps negative coefficients"),
    Mutant("mobius-int8", "oracle.py",
           "np.result_type(values.dtype, np.int32)", "np.int8",
           "int8 holds every intermediate at n <= 5 (within +-9), but only int32 rests on"
           " the independent 2^25 bound; a dtype assertion catches it"),
    # --- oracle: the coefficient table's int8 superblocks and int32 blocks
    Mutant("block-buffer-int16", "oracle.py",
           "buf = np.empty(block, dtype=np.int32)", "buf = np.empty(block, dtype=np.int16)",
           "the per-block transform wraps coefficients beyond 2^15 (none at n <= 5)"),
    Mutant("block-offset-dropped", "oracle.py",
           "masks.append(offsets + ((a << super_bits) + start))",
           "masks.append(offsets + (a << super_bits))",
           "every block's nonzeros are reported as masks of its superblock's first block"),
    Mutant("superblock-offset-dropped", "oracle.py",
           "masks.append(offsets + ((a << super_bits) + start))", "masks.append(offsets + start)",
           "every superblock's nonzeros are reported as masks of the first superblock"),
    # --- oracle: the pruned sweeps of a block
    Mutant("prune-first-entry-only", "oracle.py",
           "live = np.flatnonzero(rows.any(axis=1))", "live = np.flatnonzero(rows[:, 0])",
           "a row is kept only when its first entry is nonzero"),
    Mutant("prune-position-in-parent-dropped", "oracle.py",
           "offsets = offsets[live >> (top - k)] + ((live & ((1 << (top - k)) - 1)) << k)",
           "offsets = offsets[live >> (top - k)]",
           "a kept row's offset loses its position within its parent row"),
    Mutant("prune-sweep-one-bit-late", "oracle.py",
           "range(k, top), np.subtract)", "range(k + 1, top), np.subtract)",
           "the lowest bit of each pruning step is never swept"),
    Mutant("superblock-signs-swapped", "oracle.py",
           "op = np.subtract if (a ^ sub).bit_count() & 1 else np.add",
           "op = np.add if (a ^ sub).bit_count() & 1 else np.subtract",
           "inclusion-exclusion over the bits above a superblock takes the wrong signs"),
    Mutant("high-sweeps-one-bit-late", "oracle.py",
           "_in_place_sweep(acc, range(block_bits, super_bits), np.subtract)",
           "_in_place_sweep(acc, range(block_bits + 1, super_bits), np.subtract)",
           "the lowest lattice bit above a block is never swept"),
    # --- oracle: verify's superblock walk over the closed form
    Mutant("verify-top-bits-outside", "oracle.py",
           "inside = (keys >> super_bits & ~a) == 0", "inside = (keys >> super_bits & a) == 0",
           "a superblock sums the terms whose top bits avoid its own, not lie inside them"),
    Mutant("verify-superblock-offset-dropped", "oracle.py",
           "_unpack(star, a << super_bits, span)", "_unpack(star, 0, span)",
           "every superblock is compared with the BPM* bits of the first"),
    Mutant("verify-key-intersection", "oracle.py",
           "for m in table.keys() | terms.keys()", "for m in table.keys() & terms.keys()",
           "a term that only one side has is never counted"),
    # --- ordered: the chain test and run lengths of the closed form's profile
    Mutant("chain-test-reversed", "ordered.py",
           "if prev & ~row:", "if row & ~prev:",
           "a row that grows is taken as breaking the chain"),
    Mutant("single-first-run-merged", "ordered.py",
           "if row != prev and count:", "if row != prev and count > 1:",
           "a first run of one row is merged into the next run"),
    Mutant("closed-form-first-branch", "coeff.py",
           "if d <= prev_k:", "if d < prev_k:",
           "a block with d_i = k_{i-1} takes the general branch"),
    Mutant("closed-form-zero-branch", "coeff.py",
           "elif k < d:", "elif k <= d:",
           "a block with k_i = d_i is taken as zero"),
    Mutant("closed-form-sign", "coeff.py",
           "value *= -_PASCAL[", "value *= _PASCAL[",
           "the general branch loses its sign"),
    Mutant("closed-form-inner-binomial", "coeff.py",
           "_PASCAL[k - prev_k - 1][d - prev_k - 1]", "_PASCAL[k - prev_k][d - prev_k - 1]",
           "the second binomial of f has the wrong top"),
    Mutant("closed-form-last-factor", "coeff.py",
           "_PASCAL[n - prev_k - 1][n - pairs[-1][0]]", "_PASCAL[n - prev_k][n - pairs[-1][0]]",
           "the closing binomial has the wrong top"),
    # --- polyspace: the per-term edge writer of both dumps
    Mutant("writer-row-shift", "polyspace.py",
           "if r := mask >> (i * n) & full:", "if r := mask >> i & full:",
           "row i is read at bit i instead of bit i * n"),
    Mutant("writer-key-without-row", "polyspace.py",
           "[{} for _ in range(n)]", "[{}] * n",
           "a row text is reused for every row with the same row mask"),
    Mutant("writer-constant-term-blank", "polyspace.py",
           "{edges or '-'}", "{edges}",
           "the constant term's TSV line has no edge field"),
    # --- bigraph: from_mask
    Mutant("from-mask-unmasked-rows", "bigraph.py",
           "tuple([mask >> s & full for s in _ROW_SHIFTS[n]])",
           "tuple([mask >> s for s in _ROW_SHIFTS[n]])",
           "rows keep the bits of the rows above them"),
    Mutant("from-mask-row-offset", "bigraph.py",
           "tuple(i * n for i in range(n))", "tuple(i * (n - 1) for i in range(n))",
           "rows are read at the wrong offsets"),
    Mutant("from-mask-range-one-bit-wide", "bigraph.py",
           "if mask >> n * n:", "if mask >> n * n + 1:",
           "a mask with a bit at n^2 is cut to n^2 bits, not refused"),
]


def copy_checkout(work: Path) -> Path:
    """This checkout's files, without git data or caches, under work."""
    dest = work / "checkout"
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".perfbench_work", ".hypothesis"))
    return dest


def check_texts(mutants: list[Mutant], checkout: Path) -> list[str]:
    """One message per mutant whose text does not occur exactly once."""
    problems = []
    for mutant in mutants:
        count = (checkout / "src" / "bpmdual" / mutant.file).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}")
    return problems


def run_tests(checkout: Path, tests: list[str]) -> bool:
    """True if pytest passes on the given test paths of the copy."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return result.returncode == 0


def tests_for(mutant: Mutant) -> list[str]:
    return [MODULE_TESTS[mutant.file], *SHARED_TESTS]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        checkout = copy_checkout(Path(tmp))
        problems = check_texts(MUTANTS, checkout)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 2
        baseline = sorted({p for m in MUTANTS for p in tests_for(m)})
        if not run_tests(checkout, baseline):
            print("error: the unmutated tests fail", file=sys.stderr)
            return 2

        print("| mutant | file | result | expected | s |")
        print("|---|---|---|---|---|")
        mismatches = 0
        for mutant in MUTANTS:
            path = checkout / "src" / "bpmdual" / mutant.file
            source = path.read_text()
            path.write_text(source.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                killed = not run_tests(checkout, tests_for(mutant))
            finally:
                path.write_text(source)
            seconds = time.perf_counter() - start
            expected = "survives" if mutant.survives else "killed"
            result = "killed" if killed else "survives"
            mismatches += result != expected
            print(f"| {mutant.name} | {mutant.file} | {result} | {expected} | {seconds:.1f} |",
                  flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
