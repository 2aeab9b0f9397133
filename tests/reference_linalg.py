"""References for the shared elimination loop in ``ogclab.linalg``.

``rank_modular`` is the elimination the per-prime ``linalg._modular_pivots`` ran
before it moved onto the shared Markowitz loop: rows are reduced in input
order, each against the pivots found so far, always at its smallest live
column, with no fill control.  It is slow on large differentials and kept
only to check the Markowitz version against.

``kernel_basis`` and ``solve_columns`` are the ``Fraction`` eliminations the
package ran before it moved to an integer echelon form: rows in input order,
each pivot normalised to one at the smallest live column, then a full
back-substitution.  They are kept to check the integer versions against.

``eliminate`` is the Markowitz loop ``linalg._eliminate`` ran while its
column index was a ``set`` of row indices per column, discarded and added
entry by entry; it is kept to check the list index with lazy deletion
against, pivot by pivot and row update by row update.  It returns its pivot
columns in pivot order.

``DictMatrix`` is the ``(row, col) -> value`` dict storage ``SparseIntMatrix``
had before it moved to column tuples, with the same setter, ``add`` and
arithmetic; it is kept to check the column storage against.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from ogclab.linalg import RankError, SparseIntMatrix


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


def eliminate(rows, update):
    live = dict(enumerate(rows))
    rows.clear()
    col_rows = {}
    by_len = {}
    for ri, r in live.items():
        by_len.setdefault(len(r), set()).add(ri)
        for j in r:
            col_rows.setdefault(j, set()).add(ri)
    pivots = []
    while live:
        length = min(l for l, b in by_len.items() if b)
        pri = min(by_len[length])
        pj = min(live[pri], key=lambda j: (len(col_rows[j]), j))
        piv_row = live.pop(pri)
        by_len[len(piv_row)].discard(pri)
        pivots.append(pj)
        for j in piv_row:
            col_rows[j].discard(pri)
        eliminate = update(piv_row, pj)
        for ri in sorted(col_rows[pj]):
            r = live[ri]
            for j in r:
                col_rows[j].discard(ri)
            new = eliminate(r)
            for j in new:
                col_rows[j].add(ri)
            by_len[len(r)].discard(ri)
            if new:
                live[ri] = new
                by_len.setdefault(len(new), set()).add(ri)
            else:
                del live[ri]
    return pivots


def kernel_basis(m: SparseIntMatrix):
    """Integer basis vectors (dicts col->value) spanning ker(m) over Q."""
    rows = [dict(r) for r in m.rows().values()]
    pivots = {}
    for row in rows:
        row = {j: Fraction(v) for j, v in row.items()}
        while row:
            j = min(row)
            if j in pivots:
                f = row[j]
                for jj, vv in pivots[j].items():
                    nv = row.get(jj, Fraction(0)) - f * vv
                    if nv:
                        row[jj] = nv
                    else:
                        row.pop(jj, None)
            else:
                pv = row[j]
                pivots[j] = {jj: vv / pv for jj, vv in row.items()}
                break
    # full back-substitution so every pivot row only involves free columns
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        for jj in sorted(k for k in row if k != j and k in pivots):
            f = row[jj]
            for kk, vv in pivots[jj].items():
                if kk == jj:
                    row.pop(jj, None)
                    continue
                nv = row.get(kk, Fraction(0)) - f * vv
                if nv:
                    row[kk] = nv
                else:
                    row.pop(kk, None)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        vec = {f: Fraction(1)}
        for j, row in pivots.items():
            v = row.get(f)
            if v:
                vec[j] = -v
        den = 1
        for v in vec.values():
            den = den * v.denominator // gcd(den, v.denominator)
        basis.append({j: int(v * den) for j, v in vec.items()})
    return basis


def solve_columns(D: SparseIntMatrix, C: SparseIntMatrix):
    """One exact solution ``X`` of ``D X = C`` over Q, or ``None`` when some
    column of ``C`` lies outside the column span of ``D``.  Deterministic:
    pivots are taken at the smallest live column."""
    if D.nrows != C.nrows:
        raise ValueError("row counts disagree")
    aug = {}
    for (i, j), v in D.entries.items():
        aug.setdefault(i, {})[(0, j)] = Fraction(v)
    for (i, c), v in C.entries.items():
        aug.setdefault(i, {})[(1, c)] = Fraction(v)
    pivots = {}
    inconsistent_rows = []
    for i in sorted(aug):
        row = dict(aug[i])
        while True:
            dcols = [j for (t, j) in row if t == 0]
            if not dcols:
                if any(t == 1 for (t, _) in row):
                    inconsistent_rows.append(row)
                break
            j = min(dcols)
            if j in pivots:
                f = row[(0, j)]
                for kk, vv in pivots[j].items():
                    nv = row.get(kk, Fraction(0)) - f * vv
                    if nv:
                        row[kk] = nv
                    else:
                        row.pop(kk, None)
            else:
                pv = row[(0, j)]
                pivots[j] = {kk: vv / pv for kk, vv in row.items()}
                break
    if inconsistent_rows:
        return None
    # clean pivot rows top-down so each keeps only its own pivot column
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        others = sorted(jj for (t, jj) in row if t == 0 and jj != j and jj in pivots)
        for jj in others:
            f = row.pop((0, jj))
            for kk, vv in pivots[jj].items():
                if kk == (0, jj):
                    continue
                nv = row.get(kk, Fraction(0)) - f * vv
                if nv:
                    row[kk] = nv
                else:
                    row.pop(kk, None)
    X = {}
    for j, row in pivots.items():
        for (t, c), v in row.items():
            if t == 1 and v:
                X[j, c] = v
    return SparseIntMatrix(D.ncols, C.ncols, X)


class DictMatrix:
    def __init__(self, nrows, ncols):
        self.nrows, self.ncols = nrows, ncols
        self.entries = {}

    def __setitem__(self, pos, value):
        (i, j) = pos
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {pos} outside {self.nrows}x{self.ncols}")
        value = Fraction(value)
        if value.denominator == 1:
            value = value.numerator
        if value:
            self.entries[(i, j)] = value
        else:
            self.entries.pop((i, j), None)

    def __getitem__(self, pos):
        return self.entries.get(pos, 0)

    def add(self, i, j, value):
        self[i, j] = self[i, j] + value

    def __add__(self, other):
        out = DictMatrix(self.nrows, self.ncols)
        out.entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            out.add(i, j, v)
        return out

    def __neg__(self):
        out = DictMatrix(self.nrows, self.ncols)
        out.entries = {k: -v for k, v in self.entries.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = DictMatrix(self.nrows, other.ncols)
        for (i, j), va in self.entries.items():
            for (jj, k), vb in other.entries.items():
                if jj == j:
                    out.add(i, k, va * vb)
        return out
