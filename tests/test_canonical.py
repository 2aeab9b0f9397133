"""Canonical forms, automorphisms, kill rules and orientation signs."""
import itertools
import random
import sys

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
import oracle
import reference_canon

from ogclab.graphs import Graph, GraphError
from ogclab.canonical import (_encoded, canonical_form, canonicalize, decode_key,
                              group_closure, induced_edge_map, orientation_killed,
                              perm_parity)
from ogclab.catalogs import connected_cores


def relabel(g, perm, rng):
    edges = []
    for (u, v) in g.edges:
        a, b = perm[u], perm[v]
        if not g.directed and rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b))
    rng.shuffle(edges)
    marks = [(l, perm[v]) for (l, v) in g.marks]
    weights = [0] * g.n_vertices
    for v in range(g.n_vertices):
        weights[perm[v]] = g.weights[v]
    return Graph(weights, edges, marks, g.directed)


SAMPLES = [
    Graph([0], [(0, 0)], [(1, 0)]),
    Graph([0, 0], [(0, 1), (0, 1), (0, 1)], [(1, 0)]),
    Graph([0, 0], [(0, 1), (0, 1)], [(1, 1)], directed=True),
    Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)], [(1, 0), (2, 1), (3, 2)]),
    Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)],
          [(1, 1), (2, 2)], directed=True),
    Graph([1, 0], [(0, 1), (0, 1)], [(1, 0), (2, 1)]),
    Graph([0, 0, 0, 0], [(0, 2), (1, 2), (0, 3), (1, 3)],
          [(1, 2), (2, 3)], directed=True),
]


def test_parity():
    assert perm_parity([0, 1, 2]) == 1
    assert perm_parity([1, 0, 2]) == -1
    assert perm_parity([1, 2, 0]) == 1


def test_key_round_trip():
    for g in SAMPLES:
        cf = canonical_form(g)
        assert decode_key(cf.key) == cf.graph
        identity = list(range(cf.graph.n_vertices))
        assert _encoded(cf.graph.weights, cf.graph.edges, cf.graph.marks,
                        identity, cf.graph.directed) == cf.key


def test_canonical_is_idempotent():
    for g in SAMPLES:
        cf = canonical_form(g)
        again = canonical_form(cf.graph)
        assert again.key == cf.key
        assert again.graph == cf.graph


def test_canonical_invariant_under_relabeling():
    rng = random.Random(7)
    for g in SAMPLES:
        key = canonical_form(g).key
        n = g.n_vertices
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm, rng)).key == key


def test_distinct_markings_distinguish():
    g1 = Graph([0, 0], [(0, 1), (0, 1)], [(1, 0), (2, 1)], directed=True)
    g2 = Graph([0, 0], [(0, 1), (0, 1)], [(2, 0), (1, 1)], directed=True)
    assert canonical_form(g1).key != canonical_form(g2).key


def test_theta_aut_order():
    theta = Graph([0, 0], [(0, 1), (0, 1), (0, 1)], [(1, 0)])
    assert canonical_form(theta).aut_order() == 6


def test_oriented_loop_aut_order():
    ol = Graph([0, 0], [(0, 1), (0, 1)], [(1, 1)], directed=True)
    assert canonical_form(ol).aut_order() == 2


def test_loop_flip_counts():
    g = Graph([0], [(0, 0)], [(1, 0)])
    assert canonical_form(g).aut_order() == 2


def test_aut_order_matches_brute_force():
    for g in SAMPLES:
        if g.n_edges > 6:
            continue
        cf = canonical_form(g)
        brute = oracle.half_edge_automorphisms(
            g.n_vertices, g.edges, g.marks, g.directed)
        assert cf.aut_order() == brute, g


# The kill flags as the catalog computes them: an odd edge permutation
# (marked) or an odd vertex permutation (oriented) among the generators.

def edges_killed(g):
    cf = canonical_form(g)
    return orientation_killed(cf.graph.key(), cf.gens)


def vertices_killed(g):
    return any(perm_parity(a) < 0 for a in canonical_form(g).gens)


def orientation_sign(g, aut):
    """Sign an automorphism induces on the orientation reference: the vertex
    order of a directed graph, the edge order of an undirected one."""
    if g.directed:
        return perm_parity(aut)
    return perm_parity(induced_edge_map(g.edges, aut, g.edges, g.directed))


def test_marked_kill_rules():
    theta = Graph([0, 0], [(0, 1), (0, 1), (0, 1)], [(1, 0)])
    assert edges_killed(theta)                  # parallel bundle
    loop = Graph([0], [(0, 0)], [(1, 0)])
    assert not edges_killed(loop)               # loop flip fixes edges
    bridge = Graph([0, 0], [(0, 0), (0, 1)], [(1, 1), (2, 1)])
    assert not edges_killed(bridge)


def test_oriented_kill_rule():
    # alternating square: swapping the two sources is an odd vertex permutation
    sq = Graph([0, 0, 0, 0], [(0, 2), (1, 2), (0, 3), (1, 3)],
               [(1, 2), (2, 3)], directed=True)
    assert vertices_killed(sq)
    ol = Graph([0, 0], [(0, 1), (0, 1)], [(1, 1)], directed=True)
    assert not vertices_killed(ol)


def test_orientation_sign_identity():
    g = canonical_form(Graph([0, 0], [(0, 1), (0, 1), (0, 1)], [(1, 0)])).graph
    assert orientation_sign(g, tuple(range(g.n_vertices))) == 1


def test_orientation_sign_is_group_homomorphism():
    for g in SAMPLES:
        cf = canonical_form(g)
        auts = group_closure(cf.gens, g.n_vertices)
        signs = {a: orientation_sign(cf.graph, a) for a in auts}
        for a in auts:
            for b in auts:
                ab = tuple(a[b[i]] for i in range(len(a)))
                assert ab in signs
                assert signs[ab] == signs[a] * signs[b]


# -- pruned search against the exhaustive reference ----------------------------

def _random_graph(rng):
    nv = rng.randint(1, 8)
    directed = rng.random() < 0.4
    edges = []
    for _ in range(rng.randint(0, 10)):
        u, v = rng.randrange(nv), rng.randrange(nv)
        if not directed and u > v:
            u, v = v, u
        edges.append((u, v))
    rng.shuffle(edges)
    marks = sorted((l, rng.randrange(nv)) for l in rng.sample(range(1, 7), rng.randint(0, 4)))
    weights = [rng.choice((0, 0, 0, 1)) for _ in range(nv)]
    return weights, edges, marks, directed


def _special_graphs():
    yield [0] * 8, [], [], False                                # |Aut| = 8!
    yield [0] * 5, [(0, 1), (2, 3)], [], False                  # isolated vertex
    for k in range(2, 8):
        yield [0] * (k + 1), [(0, i) for i in range(1, k + 1)], [], False   # star
    yield [0] * 7, [(0, i) for i in range(1, 7)], [(1, 0)], True   # directed marked star
    yield [0, 0, 0], [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 2)], [], False
    yield [0] * 6, [(i, (i + 1) % 6) for i in range(6)], [], False          # hexagon
    yield [0] * 6, [(i, (i + 1) % 6) for i in range(6)], [(1, 0), (2, 3)], True
    yield [0] * 4, [(i, j) for i in range(4) for j in range(i + 1, 4)], [], False   # K4
    yield [0] * 8, [(i, j) for i in range(4) for j in range(4, 8)], [], False   # K4,4


def _check_against_reference(weights, edges, marks, directed):
    key, vperm, auts = reference_canon.canonicalize(weights, edges, marks, directed)
    key2, vperm2, gens = canonicalize(weights, edges, marks, directed)
    assert key2 == key
    assert vperm2 == vperm
    assert group_closure(gens, len(weights)) == auts
    cf = canonical_form(Graph(weights, edges, marks, directed))
    assert group_closure(cf.gens, len(weights)) == auts
    return auts


def test_pruned_search_matches_exhaustive_reference():
    rng = random.Random(20221030)
    for _ in range(600):
        _check_against_reference(*_random_graph(rng))


def test_pruned_search_on_symmetric_graphs():
    orders = [len(_check_against_reference(*args)) for args in _special_graphs()]
    assert orders[0] == 40320
    assert orders[2:8] == [2, 6, 24, 120, 720, 5040]


def test_pruned_search_invariant_under_relabeling():
    rng = random.Random(5)
    for weights, edges, marks, directed in _special_graphs():
        g = Graph(weights, edges, marks, directed)
        cf = canonical_form(g)
        for _ in range(4):
            perm = list(range(g.n_vertices))
            rng.shuffle(perm)
            again = canonical_form(relabel(g, perm, rng))
            assert again.key == cf.key
            assert group_closure(again.gens, g.n_vertices) == group_closure(cf.gens, g.n_vertices)


def killed_by_brute_force(g, auts):
    """Whether an element of the group ``auts`` reverses the orientation of
    ``g``, trying for an undirected graph every edge bijection it induces,
    the edges of each parallel bundle matched in every order."""
    if g.directed:
        return any(orientation_sign(g, a) < 0 for a in auts)
    bundles = {}
    for i, e in enumerate(g.edges):
        bundles.setdefault(e, []).append(i)

    def swaps(groups):      # lazily: a bundle of 10 loops has 10! orders
        if not groups:
            yield list(range(g.n_edges))
            return
        for order in itertools.permutations(groups[0]):
            for swap in swaps(groups[1:]):
                for i, j in zip(groups[0], order):
                    swap[i] = j
                yield swap
    return any(perm_parity([s[x] for x in induced_edge_map(g.edges, a, g.edges, False)]) < 0
               for a in auts for s in swaps(list(bundles.values())))


def test_kill_flags_from_generators_match_full_group():
    rng = random.Random(11)
    kinds = set()
    for _ in range(300):
        g = Graph(*_random_graph(rng))
        cf = canonical_form(g)
        auts = group_closure(cf.gens, g.n_vertices)
        assert vertices_killed(g) == any(perm_parity(a) < 0 for a in auts)
        assert edges_killed(g) == orientation_killed(cf.graph.key(), auts)
        killed = orientation_killed(cf.graph.key(), cf.gens)
        assert killed == killed_by_brute_force(cf.graph, auts), g
        kinds.add((g.directed, killed))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_core_counts_pinned():
    counts = [len(connected_cores(nv, nv, 1, True)) for nv in range(1, 9)]
    assert counts == [1, 2, 4, 9, 20, 49, 118, 300]


@pytest.mark.parametrize("args", [
    (1, 1, 1, True), (3, 3, 1, True), (5, 5, 1, True), (6, 6, 1, True),
    (4, 6, 3, True), (5, 6, 2, True), (5, 5, 1, False), (5, 6, 2, False),
    (2, 4, 3, True), (4, 3, 0, False),
    # slack in the Betti bound: disconnected graphs reach the last level
    (4, 4, 2, True), (5, 5, 2, False),
])
def test_cores_match_reference(args):
    assert connected_cores(*args) == reference_canon.connected_cores(*args)


def test_byte_range_checked_before_the_search():
    with pytest.raises(GraphError, match="byte encoding"):
        canonicalize((256,), (), ((1, 0),), False)
    with pytest.raises(GraphError, match="byte encoding"):
        canonicalize((0, 0), ((0, 1),), ((256, 0),), False)
    with pytest.raises(GraphError, match="byte encoding"):
        canonicalize((0,), ((0, 0),) * 128, ((1, 0),), False)
    with pytest.raises(GraphError, match="byte encoding"):
        canonical_form(Graph([-1], [], [(1, 0)]))
    with pytest.raises(GraphError, match="byte encoding"):
        canonicalize((0, 0), ((0, 1),), ((-1, 0), (2, 1)), False)
    assert canonicalize((255,), ((0, 0),) * 127, ((255, 0),), False)[0]
