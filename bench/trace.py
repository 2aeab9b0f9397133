"""Traced run of one ogclab CLI invocation, for the per-layer metrics.

Usage, from the root of a source checkout with ``src`` on ``PYTHONPATH``:

    python3 bench/trace.py TOTALS_JSON -- CLI_ARGS...

The script wraps the public functions where one layer of ogclab calls into
the one below it, calls ``ogclab.cli.main(CLI_ARGS)`` in this process and
exits with its return code.  Each call of a wrapped function is a span kept in
memory with its parent span.  After ``main`` returns, the spans are reduced to
totals (calls, time, self time, time under each parent kind and a few sizes
read off the results), the public ``SparseIntMatrix.rank`` is timed once per
strategy on every matrix the run checked, and the totals are written to
TOTALS_JSON.  ``post_main_s`` in that file is the time spent after ``main``
returned, so the caller can take it off the wall time it measured.

A wrapped name that the program no longer has is listed under ``absent``
instead of stopping the run.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

CLOCK = time.perf_counter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _nnz(result):
    return sum(m.nnz for m in result.diffs.values())


# (module, name, span kind, size reader or None); a size reader takes
# ``(args, kwargs, result)`` and returns sizes that are summed, or maximised
# when their name starts with ``max_``.
TARGETS = [
    ("ogclab.catalogs", "generate_marked", "generate",
     lambda a, k, r: {"cells": r.total()}),
    ("ogclab.catalogs", "generate_oriented", "generate",
     lambda a, k, r: {"cells": r.total()}),
    ("ogclab.catalogs", "connected_cores", "cores", None),
    ("ogclab.catalogs", "canonicalize", "canonical", None),
    ("ogclab.canonical", "canonicalize", "canonical", None),
    ("ogclab.catalogs", "load_catalog", "load", None),
    ("ogclab.catalogs", "save_catalog", "save", None),
    ("ogclab.complexes", "build_marked_complex", "assemble",
     lambda a, k, r: {"nnz": _nnz(r), "basis_dim": r.total_dim()}),
    ("ogclab.complexes", "build_oriented_complex", "assemble",
     lambda a, k, r: {"nnz": _nnz(r), "basis_dim": r.total_dim()}),
    ("ogclab.linalg", "multiply", "multiply", None),
    ("ogclab.linalg", "SparseIntMatrix.check_consensus", "consensus",
     lambda a, k, r: {"max_nnz": a[0].nnz}),
    ("ogclab.linalg", "solve_columns", "solve", None),
    ("ogclab.linalg", "kernel_basis", "kernel", None),
    ("ogclab.catalogs", "spanning_forests", "forests",
     lambda a, k, r: {"n": len(r)}),
    ("ogclab.zivkovic", "psi_matrix", "psi", None),
    ("ogclab.zivkovic", "complete_chain_map", "completion",
     lambda a, k, r: {"nnz": sum(r[2].values())}),
    ("ogclab.zivkovic", "verify_quasi_iso", "quasi_iso", None),
]


class Tracer:
    """Spans as ``[kind, parent index, start, end, sizes]`` in call order."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.checked = []        # (matrix, seed) of every consensus check
        self.size_errors = set()
        self.wrappers = set()

    def wrap(self, kind, fn, sizes):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [kind, stack[-1] if stack else -1, CLOCK(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = CLOCK()
            if kind == "consensus":
                self.checked.append((args[0], kwargs.get("seed", 0)))
            if sizes is not None:
                try:
                    span[4] = sizes(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.size_errors.add(kind)
            return result

        self.wrappers.add(traced)
        return traced

    def install(self):
        """Wrap every target; a function bound under several module names
        (``from x import f``) is replaced under all of them.  Returns the
        kinds that have no target left in the program."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ogclab" or name.startswith("ogclab."))]
        found = set()
        missing = set()
        for modname, qualname, kind, sizes in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, attr = qualname.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                missing.add(kind)
                continue
            found.add(kind)
            if orig in self.wrappers:
                continue   # already wrapped through another binding
            wrapper = self.wrap(kind, orig, sizes)
            if cls_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
        return sorted(missing - found)

    def totals(self):
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[3] - s[2]
        out = defaultdict(float)
        for i, (kind, parent, start, end, sizes) in enumerate(spans):
            dur = end - start
            out[f"{kind}.calls"] += 1
            out[f"{kind}.s"] += dur
            out[f"{kind}.self_s"] += dur - child[i]
            if parent >= 0:
                pkind = spans[parent][0]
                out[f"{kind}.calls@{pkind}"] += 1
                out[f"{kind}.s@{pkind}"] += dur
            for key, value in (sizes or {}).items():
                name = f"{kind}.{key}"
                out[name] = max(out[name], value) if key.startswith("max_") \
                    else out[name] + value
        return out

    def rank_probe(self, out):
        """Time ``rank`` per strategy on each checked matrix, outside the
        traced pipeline: three modular primes ("consensus", unanimous here
        because the run's own check passed) and the rational elimination."""
        seen = set()
        modular = rational = 0.0
        mismatches = 0
        for matrix, seed in self.checked:
            if id(matrix) in seen:
                continue
            seen.add(id(matrix))
            t0 = CLOCK()
            r_mod = matrix.rank("consensus", seed=seed)
            t1 = CLOCK()
            r_rat = matrix.rank("rational")
            t2 = CLOCK()
            modular += t1 - t0
            rational += t2 - t1
            mismatches += r_mod != r_rat
        out["probe.modular_s"] = modular
        out["probe.rational_s"] = rational
        out["probe.mismatches"] = mismatches


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace.py TOTALS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    totals_path, cli_args = argv[0], argv[2:]
    import ogclab.cli
    if not os.path.abspath(ogclab.cli.__file__).startswith(SRC + os.sep):
        print(f"ogclab imported from {ogclab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer()
    absent = tracer.install()
    code = 1
    try:
        code = ogclab.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        t_end = CLOCK()
        totals = tracer.totals()
        try:
            tracer.rank_probe(totals)
        except (AttributeError, TypeError, ValueError):
            absent.append("probe")
        doc = {"exit": code, "absent": sorted(absent),
               "size_errors": sorted(tracer.size_errors),
               "spans": len(tracer.spans), "totals": totals}
        doc["post_main_s"] = CLOCK() - t_end
        with open(totals_path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
