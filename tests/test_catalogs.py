"""Catalog generation, spanning forests, contraction targets, persistence."""
import gc
import itertools
import json
import re
import sys
import types
import zlib
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracle
import reference_catalogs

import ogclab.catalogs as catalogs
from ogclab.graphs import (Graph, GraphError, StabilityProfile, _vertex_data,
                           contract_edge, genus, is_acyclic, is_stable)
from ogclab.canonical import _encoded, canonical_form, canonicalize, key_tuples
from ogclab.catalogs import (ResourceCapExceeded, _build_catalog, _check_pair, _core_need,
                             _min_hairs, _store, cache_path, connected_cores,
                             generate_marked, generate_or_load, generate_oriented,
                             load_catalog, spanning_forests)
from ogclab.complexes import (_admissible_contractions, build_oriented_complex,
                              build_oriented_complexes)
from ogclab.zivkovic import run_verification


CRIT2_PAIRS = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)]


def labels(n):
    return tuple(range(1, n + 1))


KNOWN_TOTALS = {
    # validated against the naive bijection-search pipeline
    ("marked", 1, 1): 1, ("oriented", 1, 1): 1,
    ("marked", 1, 2): 3, ("oriented", 1, 2): 15,
    ("marked", 0, 3): 1, ("oriented", 0, 3): 7,
    ("marked", 0, 4): 4, ("oriented", 0, 4): 114,
    ("marked", 2, 1): 7, ("oriented", 2, 1): 15,
    ("marked", 1, 3): 15,
}


def test_known_catalog_sizes():
    for (flavor, g, n), total in KNOWN_TOTALS.items():
        gen = generate_marked if flavor == "marked" else generate_oriented
        assert gen(g, labels(n)).total() == total, (flavor, g, n)


def test_smallest_marked_stratum_is_the_loop():
    cat = generate_marked(1, [1])
    assert cat.total() == 1
    g = cat.strata[1][0].graph
    assert g.n_edges == 1 and g.is_loop(0) and g.marks == ((1, 0),)


def test_smallest_oriented_stratum_is_the_oriented_loop():
    cat = generate_oriented(1, [1])
    assert cat.total() == 1
    g = cat.strata[2][0].graph
    assert g.directed and g.n_edges == 2
    assert g.edges[0] == g.edges[1]          # parallel pair from one source
    assert is_acyclic(g)


def test_unstable_pair_is_domain_error(monkeypatch):
    with pytest.raises(GraphError):
        generate_marked(0, [1, 2])
    with pytest.raises(GraphError):
        generate_oriented(0, [1])
    # a negative genus is refused even where 2g + n - 2 > 0
    monkeypatch.delenv("OGCLAB_CACHE", raising=False)
    with pytest.raises(GraphError, match="genus"):
        generate_marked(-1, (1, 2, 3, 4, 5))
    with pytest.raises(GraphError, match="genus"):
        generate_oriented(-1, (1, 2, 3, 4, 5))
    with pytest.raises(GraphError, match="genus"):
        run_verification(-1, (1, 2, 3, 4, 5))
    # so is a bool, although bool is an int
    with pytest.raises(GraphError, match="genus"):
        generate_marked(True, (1, 2, 3))
    with pytest.raises(GraphError, match="genus"):
        generate_oriented(False, (1, 2, 3))
    with pytest.raises(GraphError, match="genus"):
        run_verification(True, (1, 2))


@pytest.mark.parametrize("marking, bad", [
    ((1.7, 2.2), 1.7), (("3", True), "3"), ((2, True), True), ((1.5, 2.9), 1.5),
    ((0, -1), -1), ((1, 256), 256)])
def test_marking_labels_are_checked_not_truncated(tmp_path, monkeypatch, marking, bad):
    # a label is an int, not a bool, that fits the key's byte; the error
    # names it, and no cache file is named after a truncated label
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    for call in (lambda: _check_pair(1, marking), lambda: generate_marked(1, marking),
                 lambda: cache_path("oriented", 1, marking),
                 lambda: generate_or_load("oriented", 1, marking)):
        with pytest.raises(GraphError, match=f"label .* got {re.escape(repr(bad))}$"):
            call()
    assert not list(tmp_path.iterdir())


def test_unknown_flavour_is_refused(tmp_path, monkeypatch):
    # refused before a cache path is formed, so no file is written either
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    with pytest.raises(GraphError, match="'bogus'"):
        generate_or_load("bogus", 1, (1, 2))
    assert not list(tmp_path.iterdir())


def test_catalog_entries_are_valid():
    # the generators filter nothing: every cell must come out stable and,
    # when oriented, acyclic
    for (g, n) in [(1, 2), (0, 4), (2, 1), (0, 5), (1, 3), (2, 2), (3, 1)]:
        for cat in (generate_marked(g, labels(n)), generate_oriented(g, labels(n))):
            seen = set()
            for entry in cat.entries():
                graph = entry.graph
                assert entry.key not in seen
                seen.add(entry.key)
                assert genus(graph) == g
                assert graph.labels == labels(n)
                assert is_stable(graph, cat.profile)
                if cat.flavor == "oriented":
                    assert is_acyclic(graph)
                assert canonical_form(graph).key == entry.key


def test_edge_count_bound_from_valence():
    # trivalence forces |E| <= 3g-3+n for the marked catalog; one step beyond
    # the last populated stratum is empty
    for (g, n) in [(1, 2), (2, 1), (0, 4)]:
        cat = generate_marked(g, labels(n))
        assert max(cat.degrees()) <= 3 * g - 3 + n


def test_max_cells_cap():
    with pytest.raises(ResourceCapExceeded):
        generate_oriented(0, labels(4), max_cells=20)


def test_oriented_catalog_agrees_with_naive_pipeline():
    for (g, n) in [(1, 2), (0, 3), (2, 1)]:
        cat = generate_oriented(g, labels(n))
        naive = oracle.naive_oriented_catalog(g, n)
        assert cat.total() == len(naive.items)


def test_forgetful_map_onto_orientable_classes():
    # every oriented class forgets to a connected multigraph admitting it;
    # conversely each stable orientation class appears: checked by recounting
    # underlying undirected shapes of the oriented catalog at (1,2)
    cat = generate_oriented(1, labels(2))
    unders = set()
    for entry in cat.entries():
        g = entry.graph
        und = Graph(g.weights, [(min(u, v), max(u, v)) for (u, v) in g.edges],
                    g.marks, directed=False)
        unders.add(canonical_form(und).key)
    assert len(unders) >= 5


# -- spanning forests -------------------------------------------------------------

def test_forests_triangle():
    tri = Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)], [(1, 0)])
    assert len(spanning_forests(tri)) == 3


def test_forests_loop_plus_mark():
    g = Graph([0], [(0, 0)], [(1, 0)])
    assert spanning_forests(g) == [()]


def test_forests_two_marked_vertices():
    g = Graph([0, 0], [(0, 1)], [(1, 0), (2, 1)])
    assert spanning_forests(g) == [()]


def test_forests_need_marks():
    with pytest.raises(GraphError):
        spanning_forests(Graph([0], [(0, 0)]))


def exhaustive_forests(graph):
    """Every non-loop edge subset, smallest first, kept when it is acyclic
    and each of its components holds exactly one marking."""
    nv = graph.n_vertices
    found = []
    for r in range(nv):
        for sub in itertools.combinations(range(graph.n_edges), r):
            if any(graph.is_loop(i) for i in sub):
                continue
            parent = list(range(nv))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            ok = True
            for i in sub:
                (u, v) = graph.edges[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
            if not ok:
                continue
            per_root = {}
            for (_, v) in graph.marks:
                per_root[find(v)] = per_root.get(find(v), 0) + 1
            if all(per_root.get(find(v), 0) == 1 for v in range(nv)):
                found.append(sub)
    return found


def test_forest_counts_match_exhaustive_enumeration():
    for (g, n) in CRIT2_PAIRS + [(0, 3), (0, 4), (0, 5)]:
        for entry in generate_marked(g, labels(n)).entries():
            assert spanning_forests(entry.graph) == exhaustive_forests(entry.graph)


# -- hair minima ---------------------------------------------------------------------
# The hand-written minima the generators used before they read them off
# StabilityProfile.admits, kept as the reference.

def reference_oriented_min(ind, out):
    for m in range(0, 32):
        val = ind + out + m
        n_out = out + m
        if val >= 2 and n_out >= 1 and not (ind == 1 and n_out == 1):
            return m
    raise GraphError("unreachable hair bound")


def reference_marked_min(deg):
    return max(0, 3 - deg)


def test_min_hairs_match_the_hand_written_minima():
    marked, oriented = StabilityProfile.marked(), StabilityProfile.oriented()
    for ind in range(9):
        for out in range(9):
            assert _min_hairs(oriented, ind + out, ind) == reference_oriented_min(ind, out)
    for deg in range(9):
        assert _min_hairs(marked, deg, 0) == reference_marked_min(deg)


def test_more_hairs_than_the_minimum_stay_admissible():
    # why the generators need no stability filter after assigning hairs
    for profile, counts in [
            (StabilityProfile.marked(), [(0, d) for d in range(9)]),
            (StabilityProfile.oriented(), [(i, o) for i in range(9) for o in range(9)])]:
        for (ind, out) in counts:
            valence = ind + out
            low = _min_hairs(profile, valence, ind)
            for m in range(low, low + 5):
                assert profile.admits(0, valence + m, ind), (profile, ind, out, m)


# The rule StabilityProfile.admits applied when it also took the outgoing
# count, kept as the reference.

def reference_admits(profile, weight, valence, n_in, n_out):
    minval = profile.min_valence.get(weight)
    if minval is not None and valence < minval:
        return False
    if weight == 0:
        if profile.require_outgoing and n_out < 1:
            return False
        if profile.forbid_passing and n_in == 1 and n_out == 1:
            return False
    return True


def test_admits_derives_the_outgoing_count():
    # every half-edge is a hair, an incoming end or an outgoing one
    for profile in (StabilityProfile.marked(), StabilityProfile.oriented(),
                    StabilityProfile(min_valence={1: 4}),
                    StabilityProfile(forbid_passing=True)):
        for w in range(3):
            for val in range(9):
                for n_in in range(val + 1):
                    assert profile.admits(w, val, n_in) == reference_admits(
                        profile, w, val, n_in, val - n_in), (profile, w, val, n_in)


@pytest.mark.parametrize("g, n", CRIT2_PAIRS + [(0, 4), (0, 5)])
def test_vertex_data_matches_the_oracle_tally(g, n):
    for cat in (generate_marked(g, labels(n)), generate_oriented(g, labels(n))):
        for entry in cat.entries():
            weights, edges, marks, directed = cell = key_tuples(entry.key)
            raw, n_in = _vertex_data(*cell)
            deg, ind, _, hair = oracle.degree_data(len(weights), edges, marks)
            assert [d for (_, _, d) in raw] == deg
            assert n_in == (ind if directed else [0] * len(weights))
            assert [len(h) for (_, h, _) in raw] == hair
            assert [w for (w, _, _) in raw] == list(weights)
            for v, (_, h, _) in enumerate(raw):
                assert h == tuple(sorted(l for (l, x) in marks if x == v))


# -- pruning by the marking budget ----------------------------------------------------

def test_core_need_is_the_decorators_minimum():
    # the table the connected_cores docstring states, non-increasing as the
    # pruning bound requires
    assert [_core_need("marked", d) for d in range(6)] == [3, 2, 1, 0, 0, 0]
    assert [_core_need("oriented", d) for d in range(6)] == [2, 1, 1, 0, 0, 0]
    for flavor in ("marked", "oriented"):
        needs = [_core_need(flavor, d) for d in range(12)]
        assert needs == sorted(needs, reverse=True)


# the criterion-1 pairs whose catalogs stay under the acceptance cell cap;
# (2, 3) is the largest
MARKED_UNDER_CAP = [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 1), (1, 2), (1, 3),
                    (1, 4), (1, 5), (1, 6), (2, 1), (2, 2), (2, 3), (3, 1)]
ORIENTED_UNDER_CAP = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (1, 4),
                      (2, 1), (2, 2), (2, 3), (3, 1)]


def core_need(flavor, edges, nv):
    deg = [0] * nv
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    return sum(_core_need(flavor, d) for d in deg)


@pytest.mark.parametrize("flavor, g, n", [("marked", g, n) for g, n in MARKED_UNDER_CAP]
                         + [("oriented", g, n) for g, n in ORIENTED_UNDER_CAP])
def test_pruned_cores_are_the_unpruned_cores_within_budget(flavor, g, n):
    vmax = max(1, 2 * g - 2 + (n if flavor == "marked" else 2 * n))
    for nv in range(1, vmax + 1):
        args = (nv, nv + g - 1, g, True)
        kept = [core for core in connected_cores(*args)
                if core_need(flavor, core[0], nv) <= n]
        assert connected_cores(*args, flavor, n) == kept, (nv, flavor, g, n)


def test_least_need_memo_lives_for_one_core_call(monkeypatch):
    # each connected_cores call memoises the marking bound in a dict of its
    # own, shared by the recursion, that nothing holds once the call returns
    least_need = catalogs._least_need
    memos, hits = [], []

    def recorded(flavor, degrees, half_edges, memo):
        memos.append(memo)
        hits.append((degrees, half_edges) in memo)
        return least_need(flavor, degrees, half_edges, memo)
    monkeypatch.setattr(catalogs, "_least_need", recorded)
    for nv, flavor in ((4, "oriented"), (5, "oriented"), (4, "marked")):
        memos.clear()
        hits.clear()
        cores = connected_cores(nv, nv + 1, 2, True, flavor, 3)
        (memo,) = {id(m): m for m in memos}.values()
        assert memo and cores and any(hits), (nv, flavor)
        memos.clear()
        assert sys.getrefcount(memo) == 2     # the name and the argument
    assert not hasattr(least_need, "cache_info")


def reference_oriented_catalog(g, n):
    """The oriented catalog from the unpruned cores and the decorator that
    canonicalises every decoration."""
    profile = StabilityProfile.oriented()
    found = {}
    for nv in range(1, max(1, 2 * g - 2 + 2 * n) + 1):
        for core in connected_cores(nv, nv + g - 1, g, True):
            for key, gens in reference_catalogs.oriented_decorations(
                    nv, core, labels(n), profile):
                found.setdefault(key, gens)
    return _build_catalog("oriented", g, labels(n),
                          ((key, key_tuples(key), found[key]) for key in sorted(found)))


@pytest.mark.parametrize("g, n", CRIT2_PAIRS + [(0, 3), (0, 4), (0, 5)])
def test_orbit_pruned_decorations_give_the_reference_catalog(g, n):
    assert cells(generate_oriented(g, labels(n))) == cells(reference_oriented_catalog(g, n))


def test_generation_counts_at_one_four(monkeypatch):
    # deterministic counts catch a lost prune where timings would not: one
    # decoration canonicalisation per cell, and the core canonicalisations
    # of budget-pruned growth (5,884 unpruned)
    counts = Counter()
    inside = []

    def counting_cores(*args):
        inside.append(True)
        try:
            return connected_cores(*args)
        finally:
            inside.pop()

    def counting_canonicalize(*args):
        counts["cores" if inside else "decorations"] += 1
        return canonicalize(*args)

    canonicalize = catalogs.canonicalize
    monkeypatch.setattr(catalogs, "connected_cores", counting_cores)
    monkeypatch.setattr(catalogs, "canonicalize", counting_canonicalize)
    found = {}
    for gen in (generate_marked, generate_oriented):
        counts.clear()
        cat = gen(1, labels(4))
        found[cat.flavor] = (cat.total(), counts["decorations"], counts["cores"])
    assert found == {"marked": (111, 111, 67), "oriented": (11483, 11483, 2101)}


@pytest.mark.parametrize("flavor", ["marked", "oriented"])
def test_each_key_is_decoded_once(tmp_path, monkeypatch, flavor):
    # a cell stays the tuples of its key: one decoding per key on generation
    # and on load, and no Graph built on generation, _store or load_catalog
    decoded = Counter()
    built = []

    def counting(fn):
        def wrapped(key):
            decoded[key] += 1
            return fn(key)
        return wrapped

    def counting_init(graph, *args, **kwargs):
        built.append(args)
        init(graph, *args, **kwargs)

    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(catalogs, "decode_key", counting(catalogs.decode_key))
    monkeypatch.setattr(catalogs, "key_tuples", counting(catalogs.key_tuples))
    gen = generate_marked if flavor == "marked" else generate_oriented
    cat = gen(1, labels(3))
    keys = [e.key for e in cat.entries()]
    assert all(decoded[key] == 1 for key in keys)
    path = str(tmp_path / "c.json")
    _store(cat, path)
    decoded.clear()
    back = load_catalog(path)
    assert built == []
    assert cells(back) == cells(cat)
    assert decoded == Counter(keys)


# -- contraction targets -----------------------------------------------------------
# The contractions both differentials sum over, under the one admissibility rule.

def targets(graph, profile):
    """``(edge, target, subdivider)`` per contraction, the target as a Graph
    from ``graphs.contract_edge``, whose canonical key and relabelling must
    be those the assembly labels it with."""
    out = []
    for e, key, vertex_map, flag in _admissible_contractions(graph.key(), profile):
        target = contract_edge(graph, e)
        cf = canonical_form(target)
        assert (key, tuple(vertex_map)) == (cf.key, cf.vertex_map)
        out.append((e, target, flag))
    return out


def test_contraction_targets_corolla_empty():
    corolla = Graph([2], [], [(1, 0)])
    assert targets(corolla, StabilityProfile.marked()) == []


def test_contraction_targets_single_edge():
    g = Graph([0, 0], [(0, 1)], [(1, 0), (2, 0), (3, 1), (4, 1)])
    out = targets(g, StabilityProfile.marked())
    assert out == [(0, Graph([0], [], [(1, 0), (2, 0), (3, 0), (4, 0)]), False)]


def test_contraction_targets_flag_subdivider_edges():
    # a bivalent unmarked source with two outgoing edges subdivides an edge;
    # both its edges are flagged, and contracting either is still admissible
    g = Graph([0, 0, 0], [(0, 1), (0, 2)], [(1, 1), (2, 1), (3, 2), (4, 2)],
              directed=True)
    out = targets(g, StabilityProfile.oriented())
    assert [(e, flag) for e, _, flag in out] == [(0, True), (1, True)]
    marked = Graph([0, 0, 0], [(0, 1), (0, 2)], [(1, 1), (2, 1), (3, 2), (4, 2), (5, 0)])
    assert not any(flag for _, _, flag in targets(marked, StabilityProfile.marked()))


def test_contraction_targets_check_the_merged_vertex():
    # a weight-1 vertex needing valence 4 absorbs an unmarked leaf: the
    # merged vertex has valence 3, so the contraction is not admissible
    profile = StabilityProfile(min_valence={1: 4})
    g = Graph([1, 0], [(0, 1)], [(1, 0), (2, 0), (3, 0)])
    assert is_stable(g, profile) and not is_stable(contract_edge(g, 0), profile)
    assert targets(g, profile) == []
    heavy = Graph([1, 2], [(0, 1)], [(1, 0), (2, 0), (3, 0)])
    assert targets(heavy, profile) == [(0, Graph([3], [], [(1, 0), (2, 0), (3, 0)]), False)]
    # a source feeding a sink, whose other edge comes in: merged, it passes
    passing = StabilityProfile(forbid_passing=True)
    g = Graph([0, 0, 0, 0], [(0, 1), (0, 2), (3, 1)], directed=True)
    assert is_stable(g, passing) and not is_stable(contract_edge(g, 0), passing)
    assert [e for e, _, _ in targets(g, passing)] == [1, 2]


def test_contraction_targets_classify_and_preserve_genus():
    for (g, n) in [(1, 2), (2, 1), (1, 3)]:
        cat = generate_marked(g, labels(n))
        keys = {e.key for e in cat.entries()}
        for entry in cat.entries():
            graph = entry.graph
            out = {e: target for e, target, _ in targets(graph, cat.profile)}
            for e in range(graph.n_edges):
                if e not in out:
                    # contracting a stable marked graph only exits by a weight
                    assert graph.is_loop(e) or graph.parallel_count(e) > 0
                    continue
                assert genus(out[e]) == g
                assert canonical_form(out[e]).key in keys


def test_contraction_closure_in_oriented_catalog():
    for (g, n) in [(1, 2), (2, 1)]:
        cat = generate_oriented(g, labels(n))
        keys = {e.key for e in cat.entries()}
        for entry in cat.entries():
            for _, target, _ in targets(entry.graph, cat.profile):
                assert canonical_form(target).key in keys
        build_oriented_complex(cat)   # raises on a target outside the catalog


# -- persistence and cache ------------------------------------------------------------

def cells(cat):
    return {deg: [(e.key, e.killed, e.aut_order) for e in cat.strata[deg]]
            for deg in cat.degrees()}


def test_labelling_and_generation_leave_no_reference_cycles():
    # the recursive closures of the search and the decorators cut their
    # self-references, so refcounting frees them and the cyclic collector
    # finds no ogclab function, in generation or in assembly
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        square = ((0, 1), (1, 2), (2, 3), (0, 3))
        assert canonicalize((0,) * 4, square, (), False)[2]    # searched
        generate_marked(1, labels(2))
        build_oriented_complexes(generate_oriented(1, labels(2)))
        gc.collect()
        left = [f"{o.__module__}.{o.__qualname__}" for o in gc.garbage
                if isinstance(o, types.FunctionType) and o.__module__.startswith("ogclab")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_catalog_round_trip(tmp_path):
    cat = generate_oriented(1, labels(2))
    path = str(tmp_path / "c.json")
    _store(cat, path)
    doc = json.loads(Path(path).read_text())
    assert sorted(doc) == ["count", "crc32", "flavor", "genus", "keys", "labels"]
    assert doc["keys"] == sorted(e.key.hex() for e in cat.entries())
    assert doc["count"] == cat.total()
    assert doc["crc32"] == zlib.crc32("".join(k + "\n" for k in doc["keys"]).encode())
    back = load_catalog(path)
    assert (back.flavor, back.genus, back.labels) == ("oriented", 1, labels(2))
    assert cells(back) == cells(cat)


@pytest.mark.parametrize("g, n", CRIT2_PAIRS + [(0, 3), (0, 4), (0, 5)])
def test_cache_file_round_trip_matches_generation(tmp_path, g, n):
    for gen in (generate_marked, generate_oriented):
        cat = gen(g, labels(n))
        path = str(tmp_path / f"{cat.flavor}.json")
        _store(cat, path)
        assert cells(load_catalog(path)) == cells(cat)


@pytest.mark.parametrize("n", [3, 4])
def test_genus_zero_oriented_round_trip_keeps_the_corolla_directed(tmp_path, n):
    # the edgeless corolla's direction lives in the key's direction byte
    cat = generate_oriented(0, labels(n))
    assert any(e.graph.n_edges == 0 for e in cat.entries())
    _store(cat, str(tmp_path / "c.json"))
    back = load_catalog(str(tmp_path / "c.json"))
    assert cells(back) == cells(cat)
    assert all(e.graph.directed for e in back.entries())


def test_corrupt_catalog_raises(tmp_path):
    path = tmp_path / "c.json"
    _store(generate_marked(1, [1]), str(path))
    doc = json.loads(path.read_text())
    for bad in [{**doc, "flavor": "weighted"}, {k: doc[k] for k in doc if k != "keys"},
                {**doc, "keys": 7}, [doc]]:
        path.write_text(json.dumps(bad))
        with pytest.raises(GraphError):
            load_catalog(str(path))
    with pytest.raises(GraphError):
        load_catalog(str(tmp_path))
    with pytest.raises(GraphError):
        load_catalog(str(tmp_path / "missing.json"))


def sealed(doc):
    """``doc`` with the count and CRC-32 of its keys, so that a corruption
    of the keys reaches the check it aims at, past the seal."""
    keys = doc["keys"]
    return {**doc, "count": len(keys),
            "crc32": zlib.crc32("".join(k + "\n" for k in keys).encode())}


def edit_keys(edit):
    """A corruption of the cache file that replaces its hex keys by
    ``edit(keys)``, sealed again."""
    def corrupt(text):
        doc = json.loads(text)
        doc["keys"] = edit(doc["keys"])
        return json.dumps(sealed(doc))
    return corrupt


def add_cell(weights, edges, marks, directed=False):
    """A corruption that adds the canonical key of one graph."""
    key = canonical_form(Graph(weights, edges, marks, directed)).key.hex()
    return edit_keys(lambda keys: keys + [key])


def edit_byte(offset):
    """A corruption that sets the byte at ``offset`` past the edges (or,
    with ``offset`` negative, into them) of the last key to its vertex
    count, a vertex that does not exist."""
    def edit(keys):
        key = bytearray.fromhex(keys[-1])
        key[4 + key[1] + 2 * key[2] + offset] = key[1]
        return keys[:-1] + [key.hex()]
    return edit_keys(edit)


def duplicate_labels(text):
    """Label 2 renamed 1 in the labels and in every key, each key made
    canonical again, so only the repeated label is wrong."""
    doc = json.loads(text)
    keys = set()
    for key in doc["keys"]:
        w, es, ms, directed = key_tuples(bytes.fromhex(key))
        keys.add(canonicalize(w, es, [(1, v) for (_, v) in ms], directed)[0].hex())
    return json.dumps(sealed({**doc, "labels": [1, 1], "keys": sorted(keys)}))


def relabel_last(keys):
    """Replace the last key by the same graph with its vertices reversed,
    which is not canonical."""
    w, es, ms, directed = key_tuples(bytes.fromhex(keys[-1]))
    top = len(w) - 1
    key = _encoded(w, es, ms, [top - v for v in range(len(w))], directed).hex()
    assert key != keys[-1]
    return keys[:-1] + [key]


# each corrupts the (1, 2) cache file of a flavour so that one check of
# load_catalog fails and every other check would pass
CORRUPTIONS = {
    "truncated-json": ("marked", lambda text: text[:len(text) // 2]),
    "non-hex-key": ("marked", edit_keys(lambda keys: ["zz" + keys[0][2:]] + keys[1:])),
    "key-one-byte-short": ("marked", edit_keys(lambda keys: [keys[0][:-2]] + keys[1:])),
    "key-one-byte-long": ("marked", edit_keys(lambda keys: [keys[0] + "00"] + keys[1:])),
    "relabelled-key": ("oriented", edit_keys(relabel_last)),
    "flipped-direction": ("oriented", edit_keys(lambda keys: ["00" + keys[0][2:]] + keys[1:])),
    "foreign-labels": ("marked", add_cell([0], [(0, 0)], [(1, 0), (3, 0)])),
    "unstable-cell": ("marked", add_cell([0, 0, 0], [(0, 0), (0, 1), (1, 2)],
                                         [(1, 2), (2, 2)])),
    "disconnected-cell": ("marked", add_cell([0, 0], [(0, 0), (1, 1)], [(1, 0), (2, 1)])),
    "genus-two-cell": ("marked", add_cell([0, 0], [(0, 0), (0, 1), (1, 1)], [(1, 0), (2, 1)])),
    "weighted-cell": ("marked", add_cell([1, 0], [(0, 1), (0, 1)], [(1, 1), (2, 1)])),
    "directed-cycle": ("oriented", add_cell([0, 0], [(0, 1), (1, 0)], [(1, 0), (2, 1)],
                                            directed=True)),
    "edge-end-out-of-range": ("marked", edit_byte(-1)),
    "marking-on-missing-vertex": ("marked", edit_byte(1)),
    "duplicate-labels": ("oriented", duplicate_labels),
}


@pytest.mark.parametrize("flavor, corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_corrupt_cache_file_is_regenerated(tmp_path, monkeypatch, flavor, corrupt):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    fresh = generate_or_load(flavor, 1, labels(2))
    path = Path(cache_path(flavor, 1, labels(2)))
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(GraphError):
        load_catalog(str(path))
    assert cells(generate_or_load(flavor, 1, labels(2))) == cells(fresh)
    assert cells(load_catalog(str(path))) == cells(fresh)


def test_cache_file_missing_a_cell_is_regenerated(tmp_path, monkeypatch, capsys):
    # each key of a cache file is checked on its own, so a file that lost
    # one key used to load as a smaller catalog: at oriented (1, 2), betti
    # printed dim 3 and Betti 0 in degree 4 and Betti 1 in degree 3, and
    # exited 0; the count and CRC-32 of the keys now refuse it
    from ogclab.cli import main
    args = ["betti", "-g", "1", "-n", "2", "--flavor", "oriented"]
    monkeypatch.delenv("OGCLAB_CACHE", raising=False)
    assert main(args) == 0
    uncached = capsys.readouterr().out
    assert "oriented,1,2,4,6,4,0" in uncached
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    fresh = generate_or_load("oriented", 1, labels(2))
    path = Path(cache_path("oriented", 1, labels(2)))
    doc = json.loads(path.read_text())
    dropped = next(k for k in doc["keys"] if bytes.fromhex(k)[1] == 4)
    partial = dict(doc, keys=[k for k in doc["keys"] if k != dropped])
    unsealed = {k: v for k, v in doc.items() if k not in ("count", "crc32")}
    for bad in (partial, unsealed):
        path.write_text(json.dumps(bad))
        with pytest.raises(GraphError):
            load_catalog(str(path))
    path.write_text(json.dumps(partial))
    assert main(args) == 0
    assert capsys.readouterr().out == uncached
    assert cells(load_catalog(str(path))) == cells(fresh)


def test_cache_env_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    a = generate_or_load("marked", 1, [1, 2])
    assert [p.name for p in tmp_path.iterdir()] == ["marked_g1_n2_std_v1.json"]
    b = generate_or_load("marked", 1, [1, 2])
    assert cells(a) == cells(b)


def test_cache_keyed_on_label_tuple(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    a = generate_or_load("marked", 1, (1, 2))
    b = generate_or_load("marked", 1, (5, 7))
    assert a.labels == (1, 2) and b.labels == (5, 7)
    assert all(entry.graph.labels == (5, 7) for entry in b.entries())
    assert (tmp_path / "marked_g1_l5-7_std_v1.json").is_file()
    again = generate_or_load("marked", 1, (7, 5))
    assert cells(again) == cells(b)


def test_index_less_cache_directory_is_regenerated(tmp_path, monkeypatch):
    # a directory of the former one-file-per-cell cache is never read
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    old = tmp_path / "oriented_g1_n2_std_v1"
    old.mkdir()
    (old / "oriented_d02_000000.json").write_text("{}")
    cat = generate_or_load("oriented", 1, (1, 2))
    assert cat.total() == KNOWN_TOTALS[("oriented", 1, 2)]
    assert [p.name for p in old.iterdir()] == ["oriented_d02_000000.json"]
    assert cells(load_catalog(str(tmp_path / "oriented_g1_n2_std_v1.json"))) == cells(cat)


def test_stale_cache_for_other_labels_is_regenerated(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    path = str(tmp_path / "marked_g1_n2_std_v1.json")
    _store(generate_marked(1, (3, 4)), path)
    cat = generate_or_load("marked", 1, (1, 2))
    assert cat.labels == (1, 2)
    assert load_catalog(path).labels == (1, 2)


def test_interrupted_cache_write_leaves_no_catalog(tmp_path, monkeypatch):
    import ogclab.catalogs as catalogs
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))

    def interrupted_dump(doc, fh):
        fh.write('{"flavor": "marked", "keys": ["0')
        raise KeyboardInterrupt

    def interrupted_replace(src, dst):
        raise KeyboardInterrupt

    for module, name, interrupted in [(catalogs.json, "dump", interrupted_dump),
                                      (catalogs.os, "replace", interrupted_replace)]:
        with monkeypatch.context() as m:
            m.setattr(module, name, interrupted)
            with pytest.raises(KeyboardInterrupt):
                generate_or_load("marked", 1, (1,))
        assert list(tmp_path.iterdir()) == []


def test_cached_catalog_respects_max_cells(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    cat = generate_or_load("oriented", 1, labels(2))
    assert cat.total() == KNOWN_TOTALS[("oriented", 1, 2)] > 5
    with pytest.raises(ResourceCapExceeded):
        generate_or_load("oriented", 1, labels(2), max_cells=5)
    assert generate_or_load("oriented", 1, labels(2), max_cells=15).total() == 15
