"""Run one benchmark job with every traced bpmdual function wrapped in a span.

    python3 perfbench/spans.py SPANS.json -m bpmdual.cli verify --n 4
    python3 perfbench/spans.py SPANS.json perfbench/jobs.py oracles IN.json

The wrappers are installed at every place a `bpmdual.*` module binds the
function (its defining module and every module that imported it by name),
so calls between modules are seen as well as calls from the job. The
program itself is not changed. Spans are aggregated in memory per function
(calls and self time, which is the span minus its child spans) and written
to SPANS.json when the job exits, together with a few counts computed from
the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import runpy
import sys
from time import perf_counter

MODULES = ("bigraph", "ordered", "coeff", "oracle", "polyspace", "sensitivity", "approxdeg", "cli")

# Public functions per layer; "Class.method" names a method or classmethod.
TRACED = {
    "bigraph": ["has_perfect_matching", "BipartiteGraph.from_mask", "is_matching_covered",
                "is_elementary", "connected_components"],
    "ordered": ["canonical_sort", "representing_sequence", "permitted_edges"],
    "coeff": ["dual_coefficient", "sequence_coefficient"],
    "oracle": ["star_table", "mobius_transform", "zeta_transform", "coefficient_table",
               "mobius_coefficient", "mc_chi_sum_coefficient", "elementary_sum_coefficient",
               "permitted_sum_coefficient"],
    "polyspace": ["monomial_count", "max_abs_coefficient", "materialize", "DualPolynomial.to_tsv",
                  "DualPolynomial.to_json", "DualPolynomial.from_tsv", "DualPolynomial.from_json",
                  "evaluate"],
    "sensitivity": ["sensitivity_at"],
    "approxdeg": ["bpm_degree_bound", "min_and_approx_degree", "build_and_approximant"],
}

# Counts that are not spans, all zero until a hook below adds to them.
COUNTERS = ("oracle.transform_bytes", "oracle.table_bytes", "polyspace.sequences_visited",
            "approxdeg.repeat_query_s", "approxdeg.reports", "approxdeg.certified_reports")


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._queried: set = set()

    def wrap(self, name, fn, hook=None):
        record = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                record[0] += 1
                record[1] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(self, args, result, duration)
            return result

        return functools.update_wrapper(traced, fn)

    def report(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


# Computed counts. Bytes come from array sizes, not from hardware counters.
def _transform_bytes(tracer, args, _result, _duration):
    values, bits = args[0], args[1]
    # one copy of the input plus one sweep over the array per lattice dimension
    tracer.counters["oracle.transform_bytes"] += values.nbytes * (bits + 1)


def _table_bytes(tracer, _args, result, _duration):
    c = tracer.counters
    c["oracle.table_bytes"] = max(c["oracle.table_bytes"], result.nbytes)


def _sequences_visited(tracer, args, _result, _duration):
    n = args[0]
    # enumerate_sequences(n) yields the C(2n, n) representing sequences of side n
    tracer.counters["polyspace.sequences_visited"] += math.comb(2 * n, n)


def _repeat_query(tracer, args, _result, duration):
    key = (args[0], str(args[1]))
    if key in tracer._queried:
        tracer.counters["approxdeg.repeat_query_s"] += duration
    tracer._queried.add(key)


def _degree_report(tracer, _args, result, _duration):
    tracer.counters["approxdeg.reports"] += 1
    tracer.counters["approxdeg.certified_reports"] += int(result.certified)


HOOKS = {
    "oracle.mobius_transform": _transform_bytes,
    "oracle.zeta_transform": _transform_bytes,
    "oracle.star_table": _table_bytes,
    "polyspace.monomial_count": _sequences_visited,
    "polyspace.max_abs_coefficient": _sequences_visited,
    "approxdeg.min_and_approx_degree": _repeat_query,
    "approxdeg.bpm_degree_bound": _degree_report,
}


def install(tracer: Tracer) -> None:
    """Replace each traced function at its definition and every import site."""
    modules = [importlib.import_module(f"bpmdual.{m}") for m in MODULES]
    modules.append(importlib.import_module("bpmdual"))
    for layer, names in TRACED.items():
        home = importlib.import_module(f"bpmdual.{layer}")
        for qualname in names:
            metric = f"{layer}.{qualname.rpartition('.')[2]}"
            hook = HOOKS.get(metric)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(metric, raw.__func__, hook)))
                else:
                    setattr(cls, attr, tracer.wrap(metric, raw, hook))
                continue
            original = getattr(home, qualname)
            traced = tracer.wrap(metric, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: spans.py SPANS.json (-m MODULE | SCRIPT) [ARGS...]", file=sys.stderr)
        return 2
    out_path, target = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        if target[0] == "-m":
            # `python -m bpmdual.cli ARGS` runs the same `main` as the console script
            sys.argv = [target[1], *target[2:]]
            importlib.import_module(target[1]).main()
        else:
            sys.argv = list(target)
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
