"""Reference for the Markowitz rank over Z/p.

``rank_modular`` is the elimination ``SparseIntMatrix._rank_modular`` ran
before it moved onto the shared Markowitz loop: rows are reduced in input
order, each against the pivots found so far, always at its smallest live
column, with no fill control.  It is slow on large differentials and kept
only to check the Markowitz version against.
"""
from __future__ import annotations

from ogclab.linalg import RankError


def rank_modular(m, p):
    if p < 2:
        raise ValueError("modulus must be at least 2")
    rows = []
    for r in m.rows().values():
        row = {}
        for j, v in r.items():
            den = v.denominator % p
            if den == 0:
                raise RankError(f"prime {p} divides a denominator")
            val = v.numerator * pow(den, p - 2, p) % p
            if val:
                row[j] = val
        if row:
            rows.append(row)
    rank = 0
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            j = min(row)
            if j in pivots:
                f = row[j]
                for jj, vv in pivots[j].items():
                    nv = (row.get(jj, 0) - f * vv) % p
                    if nv:
                        row[jj] = nv
                    else:
                        row.pop(jj, None)
            else:
                inv = pow(row[j], p - 2, p)
                pivots[j] = {jj: vv * inv % p for jj, vv in row.items()}
                rank += 1
                break
    return rank
