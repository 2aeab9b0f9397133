"""Batch command line: enumerate catalogs, compute Betti tables, run the
spanning-forest verification.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error
(including an ``--out`` or ``OGCLAB_CACHE`` that cannot be written), 3
resource cap exceeded, 130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .graphs import GraphError
from .catalogs import (ResourceCapExceeded, _check_pair, generate_or_load, save_catalog)
from .complexes import (ComplexError, betti, build_marked_complex,
                        build_oriented_complex, euler_characteristic)
from .linalg import RankError, write_matrix_market
from .zivkovic import run_verification

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERRUPTED = 130     # 128 + SIGINT, as a shell reports it


def _parse_range(text: str):
    text = text.strip()
    try:
        for sep in ("..", "-"):
            if sep in text and not text.startswith("-"):
                lo, hi = text.split(sep, 1)
                values = list(range(int(lo), int(hi) + 1))
                break
        else:
            values = [int(text)]
    except ValueError:
        raise GraphError(f"not an integer or range: {text!r}") from None
    if not values:
        raise GraphError(f"empty range: {text!r}")
    return values


def _cell_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        cap = -1
    if cap < 0:
        raise argparse.ArgumentTypeError(f"not a cell count (an integer >= 0): {text!r}")
    return cap


def _pairs(args):
    pairs = []
    for g in _parse_range(args.genus):
        for n in _parse_range(args.markings):
            try:
                _check_pair(g, _labels(n))
            except GraphError as exc:
                raise GraphError(f"pair (g={g}, n={n}): {exc}") from None
            pairs.append((g, n))
    return pairs


def _labels(n):
    return tuple(range(1, n + 1))


def cmd_enumerate(args) -> int:
    flavors = ["marked", "oriented"] if args.flavor == "both" else [args.flavor]
    pairs = _pairs(args)
    os.makedirs(args.out, exist_ok=True)
    summary = []
    for (g, n) in pairs:
        for flavor in flavors:
            cat = generate_or_load(flavor, g, _labels(n), max_cells=args.max_cells)
            rel = f"{flavor}_g{g}_n{n}"
            save_catalog(cat, os.path.join(args.out, rel))
            counts = {str(k): len(cat.strata[k]) for k in cat.degrees()}
            summary.append({"flavor": flavor, "g": g, "n": n, "cells": cat.total(),
                            "by_degree": counts, "path": rel})
    doc = json.dumps(summary, indent=1, sort_keys=True)
    with open(os.path.join(args.out, "enumerate_index.json"), "w") as fh:
        fh.write(doc + "\n")
    print(doc)
    return EXIT_OK


def _build(flavor, g, n, args):
    cat = generate_or_load(flavor, g, _labels(n), max_cells=args.max_cells)
    if flavor == "marked":
        return build_marked_complex(cat)
    return build_oriented_complex(cat)


def cmd_betti(args) -> int:
    if args.export_matrices and not args.out:
        raise GraphError("--export-matrices needs --out")
    flavors = ["marked", "oriented"] if args.flavor == "both" else [args.flavor]
    pairs = _pairs(args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    rows = []
    tables = []
    for (g, n) in pairs:
        for flavor in flavors:
            cx = _build(flavor, g, n, args)
            table = betti(cx, seed=args.seed)
            euler_characteristic(cx, table)
            tables.append((cx, table))
            rows.extend(table.rows())
    if args.format == "csv":
        header = "flavor,g,n,cell_degree,hc_degree,dim_basis,betti"
        lines = [header] + [
            ",".join(str(r[c]) for c in header.split(",")) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=1) + "\n"
    if args.out:
        name = "betti.csv" if args.format == "csv" else "betti.json"
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)
        if args.export_matrices:
            for (cx, _) in tables:
                for k in cx.degrees():
                    m = cx.differential(k)
                    if m.nnz:
                        fname = f"d_{cx.flavor}_g{cx.genus}_n{len(cx.labels)}_deg{k}.mtx"
                        write_matrix_market(m, os.path.join(args.out, fname))
    sys.stdout.write(text)
    return EXIT_OK


def cmd_verify_zivkovic(args) -> int:
    pairs = _pairs(args)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    all_ok = True
    reports = []
    for (g, n) in pairs:
        report = run_verification(g, _labels(n), seed=args.seed,
                                  max_cells=args.max_cells)
        reports.append(report)
        all_ok = all_ok and report.passed
        if args.out:
            with open(os.path.join(args.out, f"verify_g{g}_n{n}.json"), "w") as fh:
                fh.write(report.to_json() + "\n")
    for report in reports:
        print(report.to_json())
    return EXIT_OK if all_ok else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogclab",
        description="Weight-zero graph complexes: catalogs, Betti tables and "
                    "the spanning-forest quasi-isomorphism check.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        p.add_argument("-g", "--genus", required=True,
                       help="genus or range, e.g. 1 or 1..2")
        p.add_argument("-n", "--markings", required=True,
                       help="number of markings or range, e.g. 1 or 1..3")
        p.add_argument("--flavor", choices=["marked", "oriented", "both"],
                       default="both")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--max-cells", type=_cell_cap, default=None)
        p.add_argument("--out", default=None, help=out_help)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_enum = sub.add_parser("enumerate", help="generate catalogs on disk")
    common(p_enum, "directory for the catalogs (default: %(default)s)")
    p_enum.set_defaults(func=cmd_enumerate, out="ogclab_out")

    p_betti = sub.add_parser("betti", help="Betti tables for the complexes")
    common(p_betti, "directory for the Betti table and any matrices")
    p_betti.add_argument("--export-matrices", action="store_true",
                         help="also write the differentials in MatrixMarket form")
    p_betti.set_defaults(func=cmd_betti)

    p_verify = sub.add_parser("verify-zivkovic",
                              help="chain map and quasi-isomorphism verification")
    common(p_verify, "directory for one report file per pair")
    p_verify.set_defaults(func=cmd_verify_zivkovic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.out == "":
            raise GraphError("--out is empty; it must name a directory")
        return args.func(args)
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (GraphError, OSError) as exc:
        # an OSError names the --out or OGCLAB_CACHE path it could not use
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ComplexError, RankError) as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
