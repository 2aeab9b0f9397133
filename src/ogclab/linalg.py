"""Exact sparse linear algebra over the rationals and over prime fields.

Every rank runs one Gaussian elimination loop (``_eliminate``) with a
Markowitz-style pivot: the shortest live row, at its sparsest column, which
keeps fill low on sparse differentials (cf. Dumas, Elbaz-Vincent, Giorgi &
Urbanska, arXiv:0704.2351).  ``solve_columns`` and ``kernel_basis`` read their
answers off a plain echelon form (``_echelon``) by back-substitution; its
leading columns, and so their answers, do not depend on the row order.  Only
the row update differs by field: over the integers it is fraction-free
(cross-multiply, then divide by the row's content gcd; Bareiss, Math. Comp.
1968), over Z/p it subtracts a multiple of the pivot row scaled by the
pivot's inverse.  The consensus check takes ``CONSENSUS_PRIMES`` random
31-bit primes and eliminates them jointly, in one run of the loop modulo
their product, each pivot a unit modulo every prime; a pivot or a
denominator that shares a factor with the product falls back to one
elimination per prime.  Every rank the pipeline reports comes from
``_field_ranks``, through ``GradedComplex``'s sweep or ``check_consensus``,
which asserts that each modular rank equals the rational rank; ``rank`` is
the rational rank alone.  Every elimination returns its pivot columns, and
its rank is their count.

Along a chain complex the ranks are compressed (``_field_ranks``; Bauer,
Kerber & Reininghaus, *Clear and compress*, 2013, the dual of the clearing
of Chen & Kerber, *Persistent homology computation with a twist*, 2011).
With ``d_{k-1} d_k = 0`` every column of ``d_k`` lies in ``ker d_{k-1}``.
The pivot columns Q of an elimination of ``d_{k-1}`` are independent, so on
that kernel the coordinates in Q are fixed by the others: deleting the rows
Q of ``d_k`` is injective on its column span, and keeps its rank and every
linear relation among its columns.  There are two fields, each deleting
the rows at its own pivot columns: the rational elimination's and the
joint modular one's, so no field's rank rests on another field's
elimination.  A joint elimination that falls back to one elimination per
prime reports no pivot columns, and the primes then eliminate every row of
the next differential, which is exact as well.  The completion solve
deletes the rational Q of the differential below its system
(``zivkovic._solve_in_kernel``).

A matrix is stored by column: ``cols[j]`` is one tuple of column ``j``'s
nonzero rows and values, rows ascending, so an entry costs two tuple slots
instead of a dict item and a key tuple.  A matrix is built once, each
column packed from a dict of its values (``_pack``), and never changed;
``entries`` is a read-only ``(row, col) -> value`` snapshot.  ``multiply``
builds the product one output column at a time, as ``a`` applied to a
column of ``b``, so the d^2 = 0 check holds one column's sums at a time.
The row dicts that elimination needs are built once per rank call, only
for the rows some field keeps, and the modular and rational ranks of a
consensus check both eliminate on them: a row is copied only when it must
be reduced or scaled, and an updated row is a new dict, so the matrix's
rows are never changed.
Integral entries are stored as ``int``; only a non-integral value, such as
an entry of a solution from ``solve_columns``, is kept as ``Fraction``.
"""
from __future__ import annotations

import random
from array import array
from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from types import MappingProxyType


CONSENSUS_PRIMES = 3     # random primes per consensus rank


class RankError(RuntimeError):
    """Raised when modular and rational ranks disagree."""


class SparseIntMatrix:
    """Sparse exact matrix stored by column: ``cols[j]`` is the tuple
    ``(row, value, row, value, ...)`` of column ``j``'s nonzero entries in
    ascending row order.  Values are ``int`` when integral and ``Fraction``
    otherwise; zero entries are never stored.  A matrix is built once, from
    ``entries`` (a mapping or an iterable of ``((row, col), value)``; the
    last value of a position wins), and never changed; ``entries`` is a
    read-only ``(row, col) -> value`` snapshot, column by column."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if not all(d == int(d) >= 0 for d in (nrows, ncols)):
            raise ValueError(f"no {nrows}x{ncols} matrix: dimensions are integers >= 0")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.cols = [()] * self.ncols
        by_col = {}
        for (i, j), v in (entries.items() if isinstance(entries, Mapping) else entries or ()):
            if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                raise IndexError(f"entry {(i, j)} outside {self.nrows}x{self.ncols}")
            by_col.setdefault(j, {})[i] = v if type(v) is int else Fraction(v)
        for j, acc in by_col.items():
            self.cols[j] = _pack(acc)

    def __getitem__(self, pos):
        (i, j) = pos
        if 0 <= j < self.ncols:
            for r, v in _pairs(self.cols[j]):
                if r == i:
                    return v
        return 0

    @property
    def entries(self):
        return MappingProxyType({(i, j): v for j, col in enumerate(self.cols)
                                 for i, v in _pairs(col)})

    @property
    def nnz(self):
        return sum(map(len, self.cols)) // 2

    def is_zero(self):
        return not any(self.cols)

    def rows(self):
        """``{row: {col: value}}`` over the nonzero rows, both ascending."""
        return _row_dicts(self, bytes(self.nrows))

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.cols == other.cols)

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        return multiply(self, other)

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        cols = []
        for a, b in zip(self.cols, other.cols):
            acc = dict(_pairs(a))
            for i, v in _pairs(b):
                acc[i] = acc.get(i, 0) + v
            cols.append(_pack(acc))
        return _with_cols(self.nrows, self.ncols, cols)

    def __neg__(self):
        return _with_cols(self.nrows, self.ncols,
                          [tuple(x for i, v in _pairs(c) for x in (i, -v))
                           for c in self.cols])

    def __sub__(self, other):
        return self + (-other)

    # -- ranks --------------------------------------------------------------

    def rank(self):
        """Rank over Q, by the rational elimination alone."""
        return len(_rational_pivots(list(self.rows().values())))

    def check_consensus(self, seed=0, name="matrix"):
        """Assert that the rank modulo each of the ``CONSENSUS_PRIMES``
        random primes drawn from ``seed`` equals the rational rank; return
        the rank.  The primes are eliminated jointly modulo their product,
        with a per-prime fallback (``_consensus_ranks``), from the same row
        dicts as the rational rank (``_field_ranks``)."""
        modular, (rational, _) = _field_ranks(self, _random_primes(seed))
        return _agreed(name, modular, len(rational))


def _with_cols(nrows, ncols, cols):
    m = SparseIntMatrix(nrows, ncols)
    m.cols = cols
    return m


def _pairs(col):
    """The ``(row, value)`` pairs of a column tuple."""
    it = iter(col)
    return zip(it, it)


def _mask(n, rows):
    """``bytearray`` of length ``n``, 1 at each index in ``rows``."""
    mask = bytearray(n)
    for i in rows:
        mask[i] = 1
    return mask


def _row_dicts(m, skip):
    """``{row: {col: value}}`` over the nonzero rows ``i`` of ``m`` with
    ``skip[i]`` zero, both ascending."""
    out = {}
    for j, col in enumerate(m.cols):
        for i, v in _pairs(col):
            if not skip[i]:
                out.setdefault(i, {})[j] = v
    return {i: out[i] for i in sorted(out)}


def _without_rows(m, rows):
    """``m`` with every entry in the rows ``rows`` deleted, same shape."""
    mask = _mask(m.nrows, rows)
    return _with_cols(m.nrows, m.ncols,
                      [tuple(x for i, v in _pairs(col) if not mask[i] for x in (i, v))
                       for col in m.cols])


def _pack(acc):
    """Column tuple of the nonzero values in ``{row: value}``, integral
    ones as ``int``."""
    col = []
    for i in sorted(acc):
        v = acc[i]
        if v:
            col += (i, v if type(v) is int or v.denominator != 1 else v.numerator)
    return tuple(col)


def _eliminate(rows, update):
    """Gaussian elimination on the nonzero sparse ``rows`` (dicts column ->
    value, the columns ints from 0); returns the pivot columns in pivot
    order, an ``array("i")`` whose length is the rank.  The list
    ``rows`` is consumed: it is emptied at the start, so that a row no
    caller holds is freed once it is replaced or dropped.  Its dicts are
    not copied and never changed, so they may be the caller's own; an
    updated row is a new dict.

    Pivot rule: the shortest live row (lowest index among equals) at its
    sparsest column (fewest live rows, lowest among equals), which keeps
    fill low; a finished pivot row is dropped.  The pivot row comes off a
    heap of the live rows' lengths and indices, not from a scan of them.

    The column index keeps, per column, a list of the rows that gained the
    column, and an exact count of the live rows that hold it, which the
    pivot rule reads.  A row that loses a column stays in its list until
    the column is pivoted; such entries are skipped then, and the list is
    dropped, since no live row holds the column after that step.

    ``update(piv_row, pj)`` returns the row operation clearing column ``pj``
    with that pivot; it maps a row to its reduced copy, without column
    ``pj`` and with no zero entries."""
    live = dict(enumerate(rows))
    rows.clear()
    col_rows = [[] for _ in range(1 + max(map(max, live.values()), default=-1))]
    n = len(live)
    for ri, r in live.items():
        for j in r:
            col_rows[j].append(ri)
    count = list(map(len, col_rows))
    # a heap of the live rows by (length, index), as length * n + index,
    # with an entry pushed whenever a row changes length; an entry whose
    # row has since been pivoted or changed length is skipped when popped
    order = [len(r) * n + ri for ri, r in live.items()]
    heapify(order)
    pivots = array("i")
    while live:
        length, pri = divmod(heappop(order), n)
        piv_row = live.get(pri)
        if piv_row is None or len(piv_row) != length:
            continue
        del live[pri]
        pj = min(piv_row, key=lambda j: (count[j], j))
        pivots.append(pj)
        for j in piv_row:
            count[j] -= 1
        eliminate = update(piv_row, pj)
        for ri in sorted({ri for ri in col_rows[pj] if pj in live.get(ri, ())}):
            r = live[ri]
            new = eliminate(r)
            for j in r:
                if j not in new:
                    count[j] -= 1
            for j in new:
                if j not in r:
                    count[j] += 1
                    col_rows[j].append(ri)
            if new:
                live[ri] = new
                if len(new) != len(r):
                    heappush(order, len(new) * n + ri)
            else:
                del live[ri]
        col_rows[pj] = None
    return pivots


def _echelon(rows):
    """Row echelon form ``{leading column: row}`` of primitive integer rows.
    Shortest rows first, ties by index, each is reduced fraction-free at its
    leftmost column against the row leading there, until it leads a new
    column or vanishes; rows above are never cleared.  The order sets only
    the cost: every echelon form has the same leading columns, the column
    rank profile (Dumas, Pernet & Sultan, ISSAC 2013)."""
    lead = {}
    for row in sorted(rows, key=len):
        while row:
            j = min(row)
            if j not in lead:
                lead[j] = row
                break
            row = _fraction_free_update(lead[j], j)(row)
    return lead


def _back_substitute(lead, x):
    """Solve the echelon rows ``lead`` for their leading columns, given the
    values ``x`` (``{column: {key: value}}``, extended in place) of the
    other columns, from the last leading column down with one division per
    entry.  Returns ``{key: {column: value}}``, the given columns included."""
    for p in sorted(lead, reverse=True):
        row = lead[p]
        acc = {}
        for j, v in row.items():
            for key, xv in x.get(j, {}).items():
                acc[key] = acc.get(key, 0) + v * xv
        x[p] = {key: Fraction(-s, row[p]) for key, s in acc.items() if s}
    out = {}
    for j, xj in x.items():
        for key, v in xj.items():
            out.setdefault(key, {})[j] = v
    return out


def _fraction_free_update(piv_row, pj):
    """Over Z: ``piv * row - row[pj] * piv_row``, divided by its content.
    A -1 pivot row is negated first, so with ``piv`` ±1 the row is copied."""
    piv = piv_row[pj]
    rest = [(j, v) for j, v in piv_row.items() if j != pj]
    if piv == -1:       # each reduced row then comes out negated
        piv, rest = 1, [(j, -v) for j, v in rest]

    def eliminate(row):
        a = row[pj]
        if piv == 1:
            new = dict(row)
            del new[pj]
        else:
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
    """Over Z/p, ``p`` prime or, for the joint consensus ranks, a product
    of primes with ``piv`` a unit: ``row - row[pj] * piv_row / piv``."""
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


def _int_rows(rows):
    """The row dicts as primitive integer rows, in a new list: each scaled
    by its denominators' lcm, then divided by its content gcd.  A row that
    is already a primitive integer row is the caller's dict, not a copy."""
    out = []
    for r in rows:
        dens = [v.denominator for v in r.values() if type(v) is not int]
        if dens:
            den = lcm(*dens)
            r = {j: int(v * den) for j, v in r.items()}
        out.append(_gcd_reduce(r))
    return out


def _rational_pivots(rows):
    """Pivot columns of the exact integer elimination of the row dicts: the
    Markowitz loop with fraction-free row updates, each updated row
    renormalised by its content gcd.  ``rows`` is kept, and a primitive
    integer row is eliminated as it is, not copied (``_int_rows``)."""
    return _eliminate(_int_rows(rows), _fraction_free_update)


def _rows_mod(rows, m):
    """The row dicts modulo ``m`` in a new list, zero rows dropped, or
    ``None`` when a denominator is not invertible modulo ``m``.  A row of
    ``int`` entries that are all nonzero modulo ``m`` is the caller's dict,
    not a reduced copy: the modular update reduces each value it computes,
    and the others only need to be nonzero modulo ``m``."""
    out = []
    for r in rows:
        if r and all(type(v) is int and v % m for v in r.values()):
            out.append(r)
            continue
        row = {}
        for j, v in r.items():
            if type(v) is not int:
                if gcd(v.denominator, m) != 1:
                    return None
                v = v.numerator * pow(v.denominator, -1, m)
            v %= m
            if v:
                row[j] = v
        if row:
            out.append(row)
    return out


def _modular_pivots(rows, p):
    """Pivot columns of the elimination of the row dicts over Z/p, ``p``
    prime: the Markowitz loop with the pivot row scaled by its inverse.
    Their count, the rank, is at most the rational rank.  The consensus
    ranks eliminate their primes jointly modulo the product
    (``_consensus_ranks``) and fall back to this, prime by prime."""
    reduced = _rows_mod(rows, p)
    if reduced is None:
        raise RankError(f"prime {p} divides a denominator")
    return _eliminate(reduced, partial(_modular_update, p))


class _NonUnitPivot(Exception):
    """A joint pivot shares a factor with the product of the primes."""


def _consensus_ranks(rows, primes):
    """The rank of the row dicts modulo each of ``primes``, from one run of
    the Markowitz loop over Z/M, M the product of the primes, with the pivot
    columns of that run: ``(ranks, pivots)``.

    Each pivot must be a unit modulo M, so it is nonzero modulo every
    prime, and each step reduces to a valid elimination step over each
    Z/p.  A row that empties modulo M is zero modulo every prime; a live
    row that is zero modulo some prime would be picked with a non-unit
    pivot.  So when every pivot is a unit, the pivot count is each prime's
    rank, and the pivot columns are a valid pivot set over each Z/p.  When
    a pivot or a denominator shares a factor with M, every prime is
    eliminated on its own (``_modular_pivots``), and ``pivots`` is empty."""
    m = prod(primes)
    reduced = _rows_mod(rows, m)
    if reduced is not None:
        def update(piv_row, pj):
            if gcd(piv_row[pj], m) != 1:
                raise _NonUnitPivot
            return _modular_update(m, piv_row, pj)
        try:
            pivots = _eliminate(reduced, update)
        except _NonUnitPivot:
            pass
        else:
            return [len(pivots)] * len(primes), pivots
    return [len(_modular_pivots(rows, p)) for p in primes], array("i")


def _field_ranks(m, primes, drop=None):
    """The ranks of ``m`` modulo each of ``primes`` (``_consensus_ranks``),
    with the pivot columns of two fields, each from its own elimination:
    ``(modular ranks, (rational pivots, modular pivots))``.  The rational
    rank is the count of its pivots (``_rational_pivots``); the modular
    pivots are the joint elimination's, empty after a fallback.

    ``drop``, when given, is that pair for the differential before ``m`` in
    a chain complex: the ``d_{k-1}`` whose columns are the rows of
    ``m = d_k``, with ``d_{k-1} d_k = 0``.  Each field then eliminates only
    the rows of ``m`` outside its own pivot columns of ``d_{k-1}``, which
    keeps the rank (compression, see the module docstring).  The fields
    share the row dicts both keep, and rows that neither keeps are never
    built."""
    rat_q, mod_q = drop or ((), ())
    rat_mask, mod_mask = _mask(m.nrows, rat_q), _mask(m.nrows, mod_q)
    rows = _row_dicts(m, bytes(map(min, rat_mask, mod_mask)))
    rat_rows = [r for i, r in rows.items() if not rat_mask[i]]
    mod_rows = [r for i, r in rows.items() if not mod_mask[i]]
    del rows
    modular, mod_pivots = _consensus_ranks(mod_rows, primes)
    return modular, (_rational_pivots(rat_rows), mod_pivots)


def _agreed(name, modular, rational):
    """``rational``, after asserting that every modular rank equals it."""
    if any(r != rational for r in modular):
        raise RankError(
            f"{name}: modular ranks {modular} disagree with rational {rational}")
    return rational


def _random_primes(seed):
    """``CONSENSUS_PRIMES`` distinct random 31-bit primes drawn from ``seed``."""
    rng = random.Random(seed)
    out = []
    while len(out) < CONSENSUS_PRIMES:
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
    cols = []
    for col in b.cols:
        acc = {}
        for j, vb in _pairs(col):
            for i, va in _pairs(a.cols[j]):
                acc[i] = acc.get(i, 0) + va * vb
        cols.append(_pack(acc))
    return _with_cols(a.nrows, b.ncols, cols)


def kernel_basis(m: SparseIntMatrix):
    """Integer basis vectors (dicts col->value) spanning ker(m) over Q: one
    per non-leading column ``f`` of an echelon form, back-substituted from
    ``x_f = 1`` and scaled to be primitive, so positive at ``f``."""
    lead = _echelon(_int_rows(m.rows().values()))
    free = {f: {f: 1} for f in range(m.ncols) if f not in lead}
    return _int_rows(_back_substitute(lead, free).values())


def solve_columns(D: SparseIntMatrix, C: SparseIntMatrix):
    """One exact solution ``X`` of ``D X = C`` over Q, or ``None`` when some
    column of ``C`` lies outside the column span of ``D``.  Deterministic:
    ``X`` is the solution supported on the leading columns of an echelon
    form of ``[D | C]``, which are the same for every echelon form."""
    if D.nrows != C.nrows:
        raise ValueError("row counts disagree")
    n = D.ncols
    aug = _with_cols(D.nrows, n + C.ncols, D.cols + C.cols)
    lead = _echelon(_int_rows(aug.rows().values()))
    if any(p >= n for p in lead):
        return None
    x = _back_substitute(lead, {n + c: {c: -1} for c in range(C.ncols)})
    return _with_cols(n, C.ncols, [_pack({p: v for p, v in x[c].items() if p < n})
                                   for c in range(C.ncols)])


# -- MatrixMarket coordinate io -------------------------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate integer general"


def write_matrix_market(m: SparseIntMatrix, path: str, comment: str = "") -> None:
    entries = sorted((i, j, v) for j, col in enumerate(m.cols) for i, v in _pairs(col))
    if any(type(v) is not int for _, _, v in entries):
        raise ValueError("MatrixMarket integer export needs integer entries")
    with open(path, "w") as fh:
        fh.write(_MM_HEADER + "\n")
        if comment:
            fh.write(f"%{comment}\n")
        fh.write(f"{m.nrows} {m.ncols} {len(entries)}\n")
        for i, j, v in entries:
            fh.write(f"{i + 1} {j + 1} {v}\n")


def read_matrix_market(path: str) -> SparseIntMatrix:
    """Read a ``general`` file; any other symmetry stores one triangle, and
    reading it as general would lose the mirrored entries."""
    with open(path) as fh:
        header = fh.readline()
        if header.lower().split() != _MM_HEADER.lower().split():
            raise ValueError(f"unsupported MatrixMarket header: {header.strip()}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        try:
            nrows, ncols, nnz = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}: size line {line.strip()!r} is not three "
                             "integers") from None
        if min(nrows, ncols, nnz) < 0:
            raise ValueError(f"{path}: size line {line.strip()!r} has a negative count")
        entries = {}
        for k in range(nnz):
            try:
                i, j, v = map(int, fh.readline().split())
            except ValueError:
                raise ValueError(f"{path}: entry {k + 1} of {nnz} is missing "
                                 "or malformed") from None
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ValueError(f"{path}: entry ({i}, {j}) outside {nrows}x{ncols}")
            if v == 0 or (i - 1, j - 1) in entries:
                raise ValueError(f"{path}: entry ({i}, {j}) is zero or repeated")
            entries[i - 1, j - 1] = v
        if fh.read().strip():
            raise ValueError(f"{path}: the file has more entries than the {nnz} "
                             "it declares")
    return SparseIntMatrix(nrows, ncols, entries)
