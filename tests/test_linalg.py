"""Exact sparse linear algebra: ranks, consensus, products, io, solving."""
import random
import re
import sys
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import reference_linalg

from ogclab import linalg
from ogclab.linalg import (RankError, SparseIntMatrix, kernel_basis,
                           multiply, read_matrix_market, solve_columns,
                           write_matrix_market)


def from_rows(rows):
    nrows = len(rows)
    ncols = max((len(r) for r in rows), default=0)
    E = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                E[i, j] = v
    return SparseIntMatrix(nrows, ncols, E)


def identity(n):
    return SparseIntMatrix(n, n, {(i, i): 1 for i in range(n)})


def transpose(m):
    return SparseIntMatrix(m.ncols, m.nrows, {(j, i): v for (i, j), v in m.entries.items()})


def test_identity_rank():
    assert identity(2).rank() == 2


def test_zero_rank():
    assert SparseIntMatrix(5, 7).rank() == 0


def test_rank_known():
    m = from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert len(linalg._modular_pivots(list(m.rows().values()), 10007)) == 2
    assert m.check_consensus(seed=3) == 2


def test_rank_with_fractions():
    m = SparseIntMatrix(2, 2, {(0, 0): Fraction(1, 2), (1, 1): Fraction(3, 7)})
    assert m.rank() == 2


def test_rank_transpose_invariance():
    rng = random.Random(11)
    for _ in range(25):
        E = {}
        for _ in range(12):
            E[rng.randrange(6), rng.randrange(8)] = rng.randint(-3, 3)
        m = SparseIntMatrix(6, 8, E)
        assert m.rank() == transpose(m).rank()


def test_rank_modular_le_rational():
    # 2*I has rank 0 mod 2 but full rank over Q
    m = from_rows([[2, 0], [0, 2]])
    assert len(linalg._modular_pivots(list(m.rows().values()), 2)) == 0
    assert m.rank() == 2


def test_consensus_detects_bad_small_prime_set(monkeypatch):
    m = from_rows([[2, 0], [0, 2]])
    # random 31-bit primes never divide 2; consensus agrees with rational
    assert m.check_consensus(seed=0) == 2
    # modulo 2 * 3 * 5 the pivot 2 is no unit, so the joint elimination
    # falls back, and the error lists each prime's own rank
    monkeypatch.setattr(linalg, "_random_primes", lambda seed: [2, 3, 5])
    with pytest.raises(RankError, match=re.escape(
            "matrix: modular ranks [0, 2, 2] disagree with rational 2")):
        m.check_consensus()


def random_sparse(rng, with_fractions, nrows=None):
    nrows, ncols = nrows or rng.randint(1, 14), rng.randint(1, 14)
    E = {}
    for _ in range(rng.randint(0, nrows * ncols)):
        v = rng.choice([-6, -3, -2, -1, 1, 2, 3, 4, 6, 9])
        if with_fractions and rng.random() < 0.3:
            v = Fraction(v, rng.choice([3, 5, 7]))
        E[rng.randrange(nrows), rng.randrange(ncols)] = v
    if rng.random() < 0.3:
        # a row combination, so the rank falls below the shape
        i, k = rng.randrange(nrows), rng.randrange(nrows)
        for j in range(ncols):
            E[i, j] = E.get((i, j), 0) + 2 * E.get((k, j), 0)
    return SparseIntMatrix(nrows, ncols, E)


def test_markowitz_modular_rank_matches_reference():
    # 2 and 3 divide entries often enough for the modular rank to fall
    # below the rational one, and 3 divides some denominators, where both
    # eliminations must refuse
    rng = random.Random(20221029)
    below = 0
    for case in range(300):
        m = random_sparse(rng, with_fractions=case % 3 == 0)
        rational = m.rank()
        assert rational == m.ncols - len(kernel_basis(m))
        rows = list(m.rows().values())
        for p in (2, 3, 10007):
            try:
                expected = reference_linalg.rank_modular(m, p)
            except RankError:
                with pytest.raises(RankError):
                    linalg._modular_pivots(rows, p)
                continue
            got = len(linalg._modular_pivots(rows, p))
            assert got == expected
            assert got <= rational
            below += got < rational
    assert below > 20


def test_joint_consensus_ranks_match_per_prime(monkeypatch):
    # modulo 2 * 3 * 5 many pivots are no units and 3 and 5 divide some
    # denominators, so both branches run; with 31-bit primes none falls back;
    # the joint run returns its pivot columns, a fallback none
    rng = random.Random(20221029)
    per_prime = linalg._modular_pivots
    calls = []
    monkeypatch.setattr(linalg, "_modular_pivots",
                        lambda rows, p: calls.append(p) or per_prime(rows, p))
    joint = fallback = refused = 0
    for case in range(300):
        m = random_sparse(rng, with_fractions=case % 3 == 0)
        rows = list(m.rows().values())
        primes = linalg._random_primes(case)
        calls.clear()
        ranks, pivots = linalg._consensus_ranks(rows, primes)
        assert ranks == [len(per_prime(rows, p)) for p in primes]
        assert len(pivots) == ranks[0]
        assert not calls
        try:
            expected = [len(per_prime(rows, p)) for p in (2, 3, 5)]
        except RankError as err:
            with pytest.raises(RankError, match=f"^{re.escape(str(err))}$"):
                linalg._consensus_ranks(rows, (2, 3, 5))
            refused += 1
            continue
        ranks, pivots = linalg._consensus_ranks(rows, (2, 3, 5))
        assert ranks == expected
        assert len(pivots) == (0 if calls else ranks[0])
        fallback += bool(calls)
        joint += not calls
    assert joint > 10 and fallback > 100 and refused > 30


def logged_run(eliminate, rows, update, norm):
    """The pivot columns from ``eliminate`` as a list (``None`` on a
    non-unit pivot) and the log of every pivot and every row reduced,
    values through ``norm``."""
    log = []

    def logged(piv_row, pj):
        log.append((pj, norm(piv_row)))
        reduce_row = update(piv_row, pj)
        return lambda row: log.append(norm(row)) or reduce_row(row)
    try:
        return list(eliminate(rows, logged)), log
    except linalg._NonUnitPivot:
        return None, log


def test_minus_one_pivot_row_is_negated_once():
    # a -1 pivot reduces a row as its negated pivot row, a +1 pivot, does:
    # copied, not scaled, so each reduced row is the negation of
    # piv * row - row[pj] * piv_row; both rows are left as they were
    piv_row, row = {0: -1, 1: 2, 2: 3}, {0: 4, 1: 1, 3: 5}
    negated = {j: -v for j, v in piv_row.items()}
    assert linalg._fraction_free_update(piv_row, 0)(row) == {1: 9, 2: 12, 3: 5}
    assert linalg._fraction_free_update(negated, 0)(row) == {1: 9, 2: 12, 3: 5}
    assert linalg._fraction_free_update({0: -1, 1: 2}, 0)({0: 2, 1: 2}) == {1: 1}
    assert piv_row == {0: -1, 1: 2, 2: 3} and row == {0: 4, 1: 1, 3: 5}
    # the solution is read off each row's own leading entry, so it is kept
    d = from_rows([[-1, 2, 0], [3, 1, 1], [0, -1, 4]])
    c = from_rows([[1], [0], [2]])
    x = solve_columns(d, c)
    assert x is not None and multiply(d, x) == c


def test_eliminate_matches_set_index_reference():
    # the column lists with lazy deletion pick every pivot and reduce every
    # row as the column sets did, also up to a non-unit pivot modulo
    # 2 * 3 * 5, the reference getting the residues the modular ranks once
    # eliminated on; the ranks leave the caller's row dicts as they were,
    # and eliminate on the primitive integer rows, and on the integer rows
    # that are nonzero modulo the modulus, as they are
    def unit_mod_30(piv_row, pj):
        if gcd(piv_row[pj], 30) != 1:
            raise linalg._NonUnitPivot
        return linalg._modular_update(30, piv_row, pj)

    rng = random.Random(20261019)
    nonunit = 0
    for case in range(300):
        m = random_sparse(rng, with_fractions=case % 3 == 0)
        rows = list(m.rows().values())
        before = [dict(r) for r in rows]
        runs = [(linalg._int_rows(rows), [dict(r) for r in linalg._int_rows(rows)],
                 linalg._fraction_free_update, sorted)]
        for q, update in ((10007, partial(linalg._modular_update, 10007)),
                          (30, unit_mod_30)):
            reduced = linalg._rows_mod(rows, q)
            if reduced is not None:
                runs.append((reduced, [{j: v % q for j, v in r.items()} for r in reduced],
                             update, lambda r, q=q: sorted((j, v % q) for j, v in r.items())))
        for mine, theirs, update, norm in runs:
            got = logged_run(linalg._eliminate, mine, update, norm)
            assert got == logged_run(reference_linalg.eliminate, theirs, update, norm)
            nonunit += got[0] is None
        for r, s, t in zip(rows, linalg._int_rows(rows), linalg._rows_mod(rows, 10007)):
            ints = all(type(v) is int for v in r.values())
            assert (s is r) == (ints and gcd(*r.values()) == 1)
            assert (t is r) == ints
        linalg._consensus_ranks(rows, linalg._random_primes(case))
        linalg._rational_pivots(rows)
        try:
            linalg._modular_pivots(rows, 3)
        except RankError:
            pass
        assert rows == before
    assert nonunit > 100


def test_solve_and_kernel_match_reference():
    # every echelon form of [D | C] has the leading columns of the Fraction
    # elimination, so back-substitution gives its solution and kernel
    # vectors exactly, whatever the row order; the right-hand sides carry
    # fractions, and unrelated ones are mostly inconsistent
    rng = random.Random(20230517)
    solved = inconsistent = 0
    for case in range(300):
        d = random_sparse(rng, with_fractions=case % 4 == 0)
        if case % 3 == 0:
            c = random_sparse(rng, with_fractions=True, nrows=d.nrows)
        else:
            c = multiply(d, random_sparse(rng, with_fractions=True, nrows=d.ncols))
        expected = reference_linalg.solve_columns(d, c)
        x = solve_columns(d, c)
        assert x == expected
        perm = list(range(d.nrows))
        random.Random(case).shuffle(perm)
        pd, pc = (SparseIntMatrix(m.nrows, m.ncols,
                                  {(perm[i], j): v for (i, j), v in m.entries.items()})
                  for m in (d, c))
        assert solve_columns(pd, pc) == x
        if x is None:
            inconsistent += 1
        else:
            solved += 1
            assert multiply(d, x) == c
        basis = kernel_basis(d)
        assert len(basis) == d.ncols - d.rank()
        for vec in basis:
            assert all(sum(d[i, j] * v for j, v in vec.items()) == 0
                       for i in range(d.nrows))
        assert basis == reference_linalg.kernel_basis(d)
    assert solved > 150 and inconsistent > 50


def test_integral_entries_are_stored_as_int():
    E = {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (1, 1): Fraction(0, 3)}
    m = SparseIntMatrix(2, 2, E)
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(m[0, 0]) is int and type(m[0, 1]) is Fraction
    assert type(m[1, 0]) is int and m[1, 0] == 0
    E[0, 1] = E.get((0, 1), 0) + Fraction(1, 2)
    m = SparseIntMatrix(2, 2, E)
    assert type(m[0, 1]) is int and m[0, 1] == 1


VALUES = [-3, -1, 0, 1, 2, 5, Fraction(6, 3), Fraction(-4, 2), Fraction(1, 2),
          Fraction(-2, 3)]


def random_pair(rng, nrows, ncols, writes):
    """A random matrix and its dict-keyed reference, written alike."""
    E = {}
    ref = reference_linalg.DictMatrix(nrows, ncols)
    for _ in range(writes):
        i, j, v = rng.randrange(nrows), rng.randrange(ncols), rng.choice(VALUES)
        E[i, j] = ref[i, j] = v
    return SparseIntMatrix(nrows, ncols, E), ref


def test_column_storage_matches_dict_reference():
    # random writes and adds, each matrix built from the writes so far,
    # against the dict storage the matrices had: zeros and cancelling adds
    # delete entries, integral fractions are stored as int, and the kernel
    # columns of ``p`` make products cancel
    rng = random.Random(20261019)
    deleted = outside = cancelled = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m, ref = random_pair(rng, nrows, ncols, 0)
        E = {}
        for _ in range(rng.randint(0, 3 * nrows * ncols)):
            i, j = rng.randint(-1, nrows), rng.randint(-1, ncols)
            op = rng.choice(("set", "add", "cancel"))
            v = -m[i, j] if op == "cancel" else rng.choice(VALUES)
            if not (0 <= i < nrows and 0 <= j < ncols):
                with pytest.raises(IndexError):
                    SparseIntMatrix(nrows, ncols, {**E, (i, j): v})
                with pytest.raises(IndexError):
                    SparseIntMatrix(nrows, ncols, [*E.items(), ((i, j), v)])
                outside += 1
                continue
            had = (i, j) in m.entries
            if op == "set":
                E[i, j] = ref[i, j] = v
            else:
                E[i, j] = E.get((i, j), 0) + v
                ref.add(i, j, v)
            m = SparseIntMatrix(nrows, ncols, E)
            deleted += had and (i, j) not in m.entries
            assert m.entries == ref.entries
        assert len(m.entries) == m.nnz == len(ref.entries)
        assert all(type(v) is int or v.denominator != 1 for v in m.entries.values())
        assert all(list(c[::2]) == sorted(c[::2]) for c in m.cols)
        assert list(m.rows()) == sorted({i for i, _ in ref.entries})
        with pytest.raises(TypeError):
            m.entries[0, 0] = 1

        b, rb = random_pair(rng, nrows, ncols, nrows * ncols)
        assert (m + b).entries == (ref + rb).entries
        assert (m - b).entries == (ref - rb).entries
        assert (-m).entries == (-ref).entries
        p, rp = random_pair(rng, ncols, 2, ncols)
        kernel = kernel_basis(m)
        P = dict(p.entries)
        rp.ncols = 2 + len(kernel)
        for k, vec in enumerate(kernel, 2):
            for j, v in vec.items():
                P[j, k] = rp[j, k] = v
        p = SparseIntMatrix(ncols, rp.ncols, P)
        prod = multiply(m, p)
        assert prod.entries == (ref * rp).entries
        assert all(type(v) is int or v.denominator != 1 for v in prod.entries.values())
        cancelled += sum(1 for k in range(2, p.ncols) if not prod.cols[k])
    assert deleted > 50 and outside > 500 and cancelled > 100


def test_check_consensus_passes():
    m = from_rows([[1, 1, 0], [0, 1, 1]])
    assert m.check_consensus(seed=0) == 2


def test_multiply_identities():
    rng = random.Random(5)
    E = {}
    for _ in range(8):
        E[rng.randrange(4), rng.randrange(5)] = rng.randint(-4, 4)
    a = SparseIntMatrix(4, 5, E)
    assert multiply(a, SparseIntMatrix(5, 3)).is_zero()
    assert multiply(identity(4), a) == a
    assert multiply(a, identity(5)) == a


def test_multiply_associative():
    rng = random.Random(9)
    for _ in range(10):
        shapes = ((3, 4), (4, 5), (5, 2))
        entries = [{} for _ in shapes]
        for E, (p, q) in zip(entries, shapes):
            for _ in range(6):
                E[rng.randrange(p), rng.randrange(q)] = rng.randint(-3, 3)
        a, b, c = (SparseIntMatrix(p, q, E) for E, (p, q) in zip(entries, shapes))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_shape_mismatch():
    with pytest.raises(ValueError):
        multiply(SparseIntMatrix(2, 3), SparseIntMatrix(2, 3))


def test_kernel_basis():
    m = from_rows([[1, 1, 0], [0, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    vec = basis[0]
    # check m @ vec == 0
    for i in range(m.nrows):
        assert sum(m[(i, j)] * v for j, v in vec.items()) == 0


def test_kernel_rank_nullity():
    rng = random.Random(3)
    for _ in range(20):
        E = {}
        for _ in range(10):
            E[rng.randrange(5), rng.randrange(7)] = rng.randint(-2, 2)
        m = SparseIntMatrix(5, 7, E)
        assert len(kernel_basis(m)) == 7 - m.rank()


def test_solve_columns_exact():
    rng = random.Random(17)
    for _ in range(20):
        D, X0 = {}, {}
        for _ in range(12):
            D[rng.randrange(6), rng.randrange(5)] = rng.randint(-3, 3)
        for _ in range(5):
            X0[rng.randrange(5), rng.randrange(2)] = rng.randint(-3, 3)
        d, x0 = SparseIntMatrix(6, 5, D), SparseIntMatrix(5, 2, X0)
        c = multiply(d, x0)
        x = solve_columns(d, c)
        assert x is not None
        assert multiply(d, x) == c


def test_solve_columns_inconsistent():
    d = from_rows([[1, 0], [0, 0]])
    c = SparseIntMatrix(2, 1, {(1, 0): 1})
    assert solve_columns(d, c) is None


def test_matrix_market_round_trip(tmp_path):
    m = from_rows([[0, 2, 0], [-1, 0, 5]])
    path = tmp_path / "m.mtx"
    write_matrix_market(m, str(path), comment="test")
    back = read_matrix_market(str(path))
    assert back == m
    header = path.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate integer general"


@pytest.mark.parametrize("body, message", [
    pytest.param("2 2 3\n1 1 5\n2 2 1\n", "entry 3 of 3", id="truncated"),
    pytest.param("", "size line ''", id="header-only"),
    pytest.param("2 x 1\n1 1 5\n", "size line '2 x 1'", id="size-not-int"),
    pytest.param("-2 3 0\n", "size line '-2 3 0' has a negative count",
                 id="negative-rows"),
    pytest.param("2 2 -1\n", "size line '2 2 -1' has a negative count",
                 id="negative-nnz"),
    pytest.param("2 2 2\n1 1 5\n2 2 y\n", "entry 2 of 2", id="entry-not-int"),
    pytest.param("2 2 1\n1 1 3\n2 2 5\n", "the file has more entries than the 1 it",
                 id="trailing-entry"),
])
def test_matrix_market_short_file_names_path(tmp_path, body, message):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_matrix_market(str(path))


@pytest.mark.parametrize("body, entry", [
    pytest.param("2 2 1\n3 1 5\n", "(3, 1)", id="3 1 5"),
    pytest.param("2 2 1\n1 0 5\n", "(1, 0)", id="1 0 5"),
    # write_matrix_market writes each nonzero entry once, and no zero
    pytest.param("2 2 3\n1 1 5\n1 1 7\n2 2 0\n", "(1, 1)", id="repeated"),
    pytest.param("2 2 2\n1 1 5\n2 2 0\n", "(2, 2)", id="zero"),
])
def test_matrix_market_entry_outside_shape_names_path(tmp_path, body, entry):
    path = tmp_path / "outside.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n" + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}: entry {entry}")):
        read_matrix_market(str(path))


@pytest.mark.parametrize("symmetry", ["symmetric", "skew-symmetric", "hermitian"])
def test_matrix_market_refuses_a_symmetry_other_than_general(tmp_path, symmetry):
    # such a file stores one triangle; read as general, the symmetric
    # [[1, 5], [5, 0]] lost its mirrored entry and read as rank 1, not 2
    header = f"%%MatrixMarket matrix coordinate integer {symmetry}"
    path = tmp_path / "sym.mtx"
    path.write_text(header + "\n2 2 2\n1 1 1\n2 1 5\n")
    with pytest.raises(ValueError, match=re.escape(
            f"unsupported MatrixMarket header: {header}")):
        read_matrix_market(str(path))


def test_matrix_market_rejects_fractions(tmp_path):
    m = SparseIntMatrix(1, 1, {(0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        write_matrix_market(m, str(tmp_path / "x.mtx"))


def test_rank_subadditivity_on_chain():
    # d1.d2 = 0 implies rank d1 + rank d2 <= middle dimension
    d2 = from_rows([[1], [-1], [0]])
    d1 = from_rows([[1, 1, 0], [0, 0, 0]])
    assert multiply(d1, d2).is_zero()
    assert d1.rank() + d2.rank() <= 3
