"""Command-line interface.

Subcommands: coeff, poly, verify, count, sens, apxdeg, eval.  Graph files
use the text format of `bigraph.parse_graph` (first line n, then n rows of
0/1 characters); polynomial files are the TSV or JSON dumps produced by
`poly`.  Exit codes: 0 success, 1 verification failure, 2 usage or input
errors (including size caps, which print the configured limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from ._errors import BpmDualError, SizeLimitError
from .bigraph import BipartiteGraph, parse_graph
from .coeff import dual_coefficient
from .ordered import canonical_sort, is_totally_ordered
from .polyspace import DualPolynomial, bound_report, evaluate, materialize, tsv_side_size
from .sensitivity import construct_path_input, sensitivity_at

CAPS_NOTE = (
    "size caps: coeff oracles n<=4 (permitted n<=5); poly n<=5; verify n<=4 "
    "(n=5 with --huge); count n<=40; sens n<=16; apxdeg n<=64, --assemble n<=3"
)


def _read_graph(path: str) -> BipartiteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _side_size(text: str) -> int:
    """argparse type of every --n: a positive integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"n must be an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("n must be at least 1")
    return n


def _rational(text: str) -> Fraction:
    """argparse type of p/q literals; floats are never parsed."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational p/q with q != 0, got {text!r}"
        ) from None


def _cmd_coeff(args) -> int:
    g = _read_graph(args.graph)
    method = args.method
    if method == "formula":
        print(dual_coefficient(g))
        return 0
    from . import oracle  # numpy: loaded only by the oracle methods

    if method == "mobius":
        value = oracle.mobius_coefficient(g)
    elif method == "chisum":
        value = oracle.mc_chi_sum_coefficient(g)
    elif method == "elemsum":
        value = oracle.elementary_sum_coefficient(g)
    elif is_totally_ordered(g):  # permitted
        value = oracle.permitted_sum_coefficient(canonical_sort(g)[0])
    else:  # not totally ordered: the coefficient is identically zero
        value = 0
    print(value)
    return 0


def _cmd_poly(args) -> int:
    poly = materialize(args.n)
    text = poly.to_json() if args.format == "json" else poly.to_tsv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if args.format == "json":
            sys.stdout.write("\n")
    return 0


def _cmd_verify(args) -> int:
    from .oracle import verify_counts

    failures, eval_failures = verify_counts(args.n, args.huge, materialize)
    size = 1 << (args.n * args.n)
    print(f"{size} coefficients compared against the closed form; {failures} mismatches")
    print(f"{size} evaluation points checked against the matching oracle; {eval_failures} mismatches")
    if failures or eval_failures:
        print("FAIL")
        return 1
    print("OK")
    return 0


def _cmd_count(args) -> int:
    report = bound_report(args.n)
    print(f"n\t{report.n}")
    print(f"monomial_count\t{report.monomial_count}")
    print(f"count_lower_(n!)^2\t{report.count_lower}")
    print(f"count_upper_(n+2)^(2n+2)\t{report.count_upper}")
    print(f"max_abs_coefficient\t{report.max_abs_coefficient}")
    print(f"coeff_lower_binom\t{report.coeff_lower}")
    print(f"coeff_upper_4^n\t{report.coeff_upper}")
    print(f"log2(count)/(2n*log2(n))\t{report.log2_count_ratio:.6f}")
    ok = report.count_in_bounds and report.coeff_in_bounds
    print(f"bounds\t{'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_sens(args) -> int:
    report = sensitivity_at(construct_path_input(args.n))
    if args.format == "json":
        payload = {
            "n": report.n,
            "count": report.count,
            "lower_bound_formula": report.lower_bound_formula,
            "degree_lower_bound": report.degree_lower_bound,
            "sensitive_edges": [list(e) for e in report.sensitive_edges],
        }
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    print(f"n\t{report.n}")
    print(f"count\t{report.count}")
    print(f"lower_bound_formula\t{report.lower_bound_formula}")
    print(f"degree_lower_bound\t{report.degree_lower_bound}")
    edges = ",".join(f"({i},{j})" for i, j in report.sensitive_edges)
    print(f"sensitive_edges\t{edges}")
    return 0


def _cmd_apxdeg(args) -> int:
    from .approxdeg import (
        ASSEMBLE_N_MAX,
        _log2_fraction,
        assemble_bpm_approximant,
        bpm_degree_bound,
    )

    if args.assemble and args.n > ASSEMBLE_N_MAX:
        raise SizeLimitError("n", args.n, ASSEMBLE_N_MAX)
    report = bpm_degree_bound(args.n, args.eps)
    log2_ep = _log2_fraction(report.epsilon_prime)
    rows = {
        "n": report.n,
        "eps": str(report.epsilon),
        "eps_prime_log2": f"{log2_ep:.4f}",
        "threshold": report.threshold,
        "and_degree": report.and_degree,
        "bound": report.overall_bound,
        "certified": report.certified,
        "eps_in_regime": report.eps_in_regime,
    }
    if args.assemble:
        approx = assemble_bpm_approximant(args.n, args.eps)
        rows["assembled_degree"] = approx.degree
        rows["assembled_max_error"] = str(approx.max_error)
        rows["assembled_dual_max_error"] = str(approx.dual_max_error())
        rows["exact_terms"] = len(approx.exact_terms)
        rows["approximated_terms"] = len(approx.approx_terms)
    if args.format == "json":
        print(json.dumps(rows, separators=(",", ":")))
    else:
        for key, value in rows.items():
            print(f"{key}\t{value}")
    return 0


def _cmd_eval(args) -> int:
    g = _read_graph(args.graph)
    with open(args.poly, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        poly = DualPolynomial.from_json(text)
    else:
        poly = DualPolynomial.from_tsv(text, tsv_side_size(text))
    print(evaluate(poly, g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpmdual",
        description="Exact dual polynomial of bipartite perfect matching.",
        epilog=CAPS_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="coefficient of one graph's monomial")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument(
        "--method",
        default="formula",
        choices=["formula", "mobius", "chisum", "elemsum", "permitted"],
    )
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("poly", help="dump the full polynomial (n <= 5)")
    p.add_argument("--n", type=_side_size, required=True)
    p.add_argument("--format", default="tsv", choices=["tsv", "json"])
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("verify", help="closed form vs oracle, exhaustively")
    p.add_argument("--n", type=_side_size, required=True)
    p.add_argument("--huge", action="store_true", help="allow n=5 (2^25 table)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="monomial count and coefficient bounds")
    p.add_argument("--n", type=_side_size, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sens", help="sensitivity report for the path input")
    p.add_argument("--n", type=_side_size, required=True)
    p.add_argument("--format", default="tsv", choices=["tsv", "json"])
    p.set_defaults(func=_cmd_sens)

    p = sub.add_parser("apxdeg", help="approximate-degree bound report")
    p.add_argument("--n", type=_side_size, required=True)
    p.add_argument("--eps", type=_rational, required=True, help="rational like 1/3")
    p.add_argument("--assemble", action="store_true", help="certify end-to-end (n <= 3)")
    p.add_argument("--format", default="tsv", choices=["tsv", "json"])
    p.set_defaults(func=_cmd_apxdeg)

    p = sub.add_parser("eval", help="evaluate a dumped polynomial at a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=_cmd_eval)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BpmDualError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
