"""Exact sparse linear algebra over the rationals and over prime fields.

Every rank runs one Gaussian elimination loop (``_markowitz_rank``) with a
Markowitz-style pivot: the shortest live row, at its sparsest column, which
keeps fill low on sparse differentials (cf. Dumas, Elbaz-Vincent, Giorgi &
Urbanska, arXiv:0704.2351).  Only the row update differs by field: over the
integers it is fraction-free (cross-multiply, then divide by the row's
content gcd), over Z/p it subtracts a multiple of the pivot row scaled by the
pivot's inverse.  The consensus mode runs several random 31-bit primes and
escalates to the rational computation unless they agree unanimously.
``kernel_basis`` and ``solve_columns`` keep their own smallest-column pivot,
which fixes the solutions they return.

Matrices store integral entries as ``int``; only a non-integral value, such
as an entry of a solution from ``solve_columns``, is kept as ``Fraction``.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import gcd


class RankError(RuntimeError):
    """Raised when modular and rational ranks disagree."""


class SparseIntMatrix:
    """Sparse exact matrix.  Entries are keyed by ``(row, col)``, stored as
    ``int`` when integral and as ``Fraction`` otherwise; zero entries are
    never stored."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.entries = {}
        if entries:
            for (i, j), v in (entries.items() if isinstance(entries, dict) else entries):
                self[i, j] = v

    def __setitem__(self, pos, value):
        (i, j) = pos
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {pos} outside {self.nrows}x{self.ncols}")
        if type(value) is not int:
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
        self[i, j] = self[(i, j)] + value

    @property
    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def copy(self):
        m = SparseIntMatrix(self.nrows, self.ncols)
        m.entries = dict(self.entries)
        return m

    def transpose(self):
        m = SparseIntMatrix(self.ncols, self.nrows)
        m.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return m

    def rows(self):
        out = {}
        for (i, j), v in self.entries.items():
            out.setdefault(i, {})[j] = v
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        return multiply(self, other)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        m = self.copy()
        for (i, j), v in other.entries.items():
            m.add(i, j, v)
        return m

    def __neg__(self):
        m = SparseIntMatrix(self.nrows, self.ncols)
        m.entries = {k: -v for k, v in self.entries.items()}
        return m

    def __sub__(self, other):
        return self + (-other)

    # -- ranks --------------------------------------------------------------

    def rank(self, strategy="consensus", seed=0, primes=3):
        """Rank over Q.  ``strategy`` is ``"rational"``, ``("modular", p)``
        or ``"consensus"`` (unanimous random primes, else escalate)."""
        if strategy == "rational":
            return self._rank_rational()
        if isinstance(strategy, tuple) and strategy[0] == "modular":
            return self._rank_modular(strategy[1])
        if strategy == "consensus":
            ranks = {self._rank_modular(p) for p in _random_primes(primes, seed)}
            if len(ranks) == 1:
                return ranks.pop()
            return self._rank_rational()
        raise ValueError(f"unknown rank strategy: {strategy}")

    def _int_rows(self):
        rows = []
        for r in self.rows().values():
            den = 1
            for v in r.values():
                den = den * v.denominator // gcd(den, v.denominator)
            rows.append({j: int(v * den) for j, v in r.items()})
        return rows

    def _rank_rational(self):
        """Exact integer elimination: the Markowitz loop with fraction-free
        row updates, each updated row renormalised by its content gcd."""
        return _markowitz_rank([_gcd_reduce(r) for r in self._int_rows() if r],
                               _fraction_free_update)

    def _rank_modular(self, p):
        """Rank over Z/p: the Markowitz loop with the pivot row scaled by
        its inverse.  At most the rational rank."""
        if p < 2:
            raise ValueError("modulus must be at least 2")
        rows = []
        for r in self.rows().values():
            row = {}
            for j, v in r.items():
                den = v.denominator % p
                if den == 0:
                    raise RankError(f"prime {p} divides a denominator")
                val = v.numerator * pow(den, -1, p) % p
                if val:
                    row[j] = val
            if row:
                rows.append(row)
        return _markowitz_rank(rows, partial(_modular_update, p))

    def check_consensus(self, seed=0, primes=3, name="matrix"):
        """Assert that consensus and rational ranks agree; return the rank."""
        modular = [self._rank_modular(p) for p in _random_primes(primes, seed)]
        rational = self._rank_rational()
        if any(m != rational for m in modular):
            raise RankError(
                f"{name}: modular ranks {modular} disagree with rational {rational}")
        return rational


def _markowitz_rank(rows, update):
    """Rank of the nonzero sparse ``rows`` by Gaussian elimination.  Pivot:
    the shortest live row (lowest index among equals), at its sparsest
    column (lowest column among equals), which keeps fill low.
    ``update(piv_row, pj)`` returns the row operation clearing column
    ``pj`` with that pivot; it maps a row to its reduced copy, without
    column ``pj`` and with no zero entries."""
    rows = dict(enumerate(rows))
    col_rows = {}
    by_len = {}
    for ri, r in rows.items():
        by_len.setdefault(len(r), set()).add(ri)
        for j in r:
            col_rows.setdefault(j, set()).add(ri)
    rank = 0
    while rows:
        length = min(l for l, b in by_len.items() if b)
        pri = min(by_len[length])
        by_len[length].discard(pri)
        piv_row = rows.pop(pri)
        pj = min(piv_row, key=lambda j: (len(col_rows[j]), j))
        rank += 1
        for j in piv_row:
            col_rows[j].discard(pri)
        eliminate = update(piv_row, pj)
        for ri in sorted(col_rows[pj]):
            r = rows[ri]
            by_len[len(r)].discard(ri)
            for j in r:
                col_rows[j].discard(ri)
            new = eliminate(r)
            if new:
                rows[ri] = new
                by_len.setdefault(len(new), set()).add(ri)
                for j in new:
                    col_rows.setdefault(j, set()).add(ri)
            else:
                del rows[ri]
    return rank


def _fraction_free_update(piv_row, pj):
    """Over Z: ``piv * row - row[pj] * piv_row``, divided by its content."""
    piv = piv_row[pj]
    rest = [(j, v) for j, v in piv_row.items() if j != pj]

    def eliminate(row):
        a = row[pj]
        new = {j: piv * v for j, v in row.items() if j != pj}
        for j, v in rest:
            val = new.get(j, 0) - a * v
            if val:
                new[j] = val
            else:
                new.pop(j, None)
        return _gcd_reduce(new)
    return eliminate


def _modular_update(p, piv_row, pj):
    """Over Z/p: ``row - row[pj] * piv_row / piv``."""
    inv = pow(piv_row[pj], -1, p)
    rest = [(j, v * inv % p) for j, v in piv_row.items() if j != pj]

    def eliminate(row):
        new = dict(row)
        f = new.pop(pj)
        for j, v in rest:
            val = (new.get(j, 0) - f * v) % p
            if val:
                new[j] = val
            else:
                new.pop(j, None)
        return new
    return eliminate


def _gcd_reduce(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _random_primes(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = rng.randrange(1 << 30, 1 << 31) | 1
        if _is_prime(c) and c not in out:
            out.append(c)
    return out


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def multiply(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    if a.ncols != b.nrows:
        raise ValueError(f"inner dimensions disagree: {a.ncols} vs {b.nrows}")
    by_row = {}
    for (j, k), v in b.entries.items():
        by_row.setdefault(j, []).append((k, v))
    out = SparseIntMatrix(a.nrows, b.ncols)
    acc = {}
    for (i, j), va in a.entries.items():
        for (k, vb) in by_row.get(j, ()):
            key = (i, k)
            acc[key] = acc.get(key, 0) + va * vb
    out.entries = {k: v for k, v in acc.items() if v}
    return out


def identity(n: int) -> SparseIntMatrix:
    m = SparseIntMatrix(n, n)
    for i in range(n):
        m[i, i] = 1
    return m


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
    X = SparseIntMatrix(D.ncols, C.ncols)
    for j, row in pivots.items():
        for (t, c), v in row.items():
            if t == 1 and v:
                X[j, c] = v
    return X


# -- MatrixMarket coordinate io -------------------------------------------------

def write_matrix_market(m: SparseIntMatrix, path: str, comment: str = "") -> None:
    for v in m.entries.values():
        if v.denominator != 1:
            raise ValueError("MatrixMarket integer export needs integer entries")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        if comment:
            fh.write(f"%{comment}\n")
        fh.write(f"{m.nrows} {m.ncols} {m.nnz}\n")
        for (i, j) in sorted(m.entries):
            fh.write(f"{i + 1} {j + 1} {int(m.entries[(i, j)])}\n")


def read_matrix_market(path: str) -> SparseIntMatrix:
    with open(path) as fh:
        header = fh.readline()
        if "matrix coordinate integer" not in header:
            raise ValueError(f"unsupported MatrixMarket header: {header.strip()}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        nrows, ncols, nnz = map(int, line.split())
        m = SparseIntMatrix(nrows, ncols)
        for _ in range(nnz):
            i, j, v = fh.readline().split()
            m[int(i) - 1, int(j) - 1] = int(v)
    return m
