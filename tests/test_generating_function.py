"""The marked catalogs against the exact graph-counting series of a
zero-dimensional field theory, independent of the canonical labeller, and
the oriented catalogs against the marked ones by a signed automorphism sum.

By Wick's theorem the connected graphs, each weighted by one over its
automorphism count, are the terms of log Z for

    Z = < exp(S(x)/h + j x) >,   S(x) = sum_{k >= 3} x^k / k!,
    < x^(2m) > = (2m - 1)!! (h t)^m

(Bessis, Itzykson & Zuber, *Quantum field theory techniques in graphical
enumeration*, Adv. Appl. Math. 1980).  A vertex is a term of S, so at least
trivalent; a leg is a factor j x; each edge and each leg is one
propagator h t, and each vertex brings 1/h.  A connected graph of genus g
with n legs and E edges thus sits at j^n t^(E + n) h^(g - 1 + n), and with
the legs labelled, n! times that coefficient is the sum of 1/|Aut| over the
weight-0 stable graphs of genus g with n labelled markings and E edges.
``CatalogEntry.aut_order`` counts the automorphisms this expansion divides
by: vertex automorphisms fixing the markings, times permutations of
parallel edges, times loop flips.  The sum runs over every cell, killed
ones included: a cell is killed by its orientation, which the series does
not see.
"""
from fractions import Fraction
from math import factorial, prod

import pytest

from ogclab.catalogs import generate_marked, generate_oriented


def _valences(total, least=3):
    """The multisets of vertex valences, each at least ``least``, summing
    to ``total``, as non-decreasing tuples."""
    if total == 0:
        yield ()
    for k in range(least, total + 1):
        for rest in _valences(total - k, k):
            yield (k,) + rest


def _double_factorial(m):
    return prod(range(m, 0, -2))


def _times(a, b, n, t_max):
    """Product of two series ``{(j, t, h): coefficient}``, dropping every
    term above ``j^n`` or ``t^t_max``."""
    out = {}
    for (ja, ta, ha), ca in a.items():
        for (jb, tb, hb), cb in b.items():
            key = (ja + jb, ta + tb, ha + hb)
            if key[0] <= n and key[1] <= t_max:
                out[key] = out.get(key, 0) + ca * cb
    return out


def log_z(n, t_max):
    """log Z up to ``j^n`` and ``t^t_max``, as ``{(j, t, h): Fraction}``.

    A term of Z takes ``b`` legs and a multiset of vertex valences, ``2m``
    half-edges in all, and pairs them in ``(2m - 1)!!`` ways:
    ``j^b / b!`` times ``prod 1/(k! ^ c_k c_k!)`` over the valences ``k``
    taken ``c_k`` times, times ``(2m - 1)!! h^(m - a) t^m`` for ``a``
    vertices.  Then ``log(1 + u) = sum_r (-1)^(r + 1) u^r / r``, where every
    term of ``u`` has ``t^1`` or more."""
    u = {}
    for m in range(1, t_max + 1):
        for b in range(min(n, 2 * m) + 1):
            for vs in _valences(2 * m - b):
                weight = Fraction(_double_factorial(2 * m - 1), factorial(b))
                for k in set(vs):
                    c = vs.count(k)
                    weight /= factorial(k) ** c * factorial(c)
                key = (b, m, m - len(vs))
                u[key] = u.get(key, 0) + weight
    out, power = {}, {(0, 0, 0): Fraction(1)}
    for r in range(1, t_max + 1):
        power = _times(power, u, n, t_max)
        for key, c in power.items():
            out[key] = out.get(key, 0) + (-1) ** (r + 1) * c / r
    return out


def test_series_counts_the_smallest_graphs():
    # the corolla with three legs (|Aut| = 1 for labelled legs), the loop
    # with one leg (a loop flip, 2), and with no legs the theta graph (12)
    # and the dumbbell (8) at genus 2 with 3 edges
    series = log_z(3, 6)
    assert factorial(3) * series[(3, 3, 2)] == 1
    assert series[(1, 2, 1)] == Fraction(1, 2)
    assert log_z(0, 3)[(0, 3, 1)] == Fraction(1, 12) + Fraction(1, 8)


@pytest.mark.parametrize("g, n", [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2),
                                  (1, 3), (1, 4), (1, 5), (1, 6), (2, 1), (2, 2), (2, 3),
                                  (2, 4), (3, 1), (3, 2), (3, 3), (4, 1)])
def test_marked_catalog_matches_the_graph_series(g, n):
    cat = generate_marked(g, tuple(range(1, n + 1)))
    e_max = 3 * g - 3 + n       # trivalent graphs have the most edges
    series = log_z(n, e_max + n + 2)
    expected = {t - n: factorial(n) * c for (j, t, h), c in series.items()
                if j == n and h == g - 1 + n and c}
    found = {e: sum(Fraction(1, cell.aut_order) for cell in cells)
             for e, cells in cat.strata.items()}
    assert max(expected) <= e_max
    for e in sorted(set(expected) | set(found)):
        assert found.get(e, 0) == expected.get(e, 0), (g, n, e)


@pytest.mark.parametrize("g, n, oriented_sum", [
    (0, 3, -1), (0, 4, -2), (0, 5, -6), (1, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)),
    (1, 3, 1), (1, 4, 3), (2, 1, Fraction(-1, 12)), (2, 2, Fraction(-1, 6)), (3, 1, 0)])
def test_oriented_catalog_matches_the_marked_euler_sum(g, n, oriented_sum):
    """Over every cell, killed ones included, the sum of (-1)^|V| / |Aut|
    over the oriented catalog equals (-1)^n times the sum of (-1)^|E| / |Aut|
    over the marked one.  This identity is observed on the catalogs, not
    proven; the pinned oriented sums guard both sides."""
    marks = tuple(range(1, n + 1))
    oriented = sum(Fraction((-1) ** len(cell.graph.weights), cell.aut_order)
                   for cells in generate_oriented(g, marks).strata.values()
                   for cell in cells)
    marked = sum(Fraction((-1) ** len(cell.graph.edges), cell.aut_order)
                 for cells in generate_marked(g, marks).strata.values()
                 for cell in cells)
    assert oriented == oriented_sum
    assert oriented == (-1) ** n * marked
