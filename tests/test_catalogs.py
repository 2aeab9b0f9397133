"""Catalog generation, spanning forests, contraction targets, persistence."""
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracle

from ogclab.graphs import (Graph, GraphError, StabilityProfile, contract_edge,
                           genus, is_acyclic, is_stable)
from ogclab.canonical import canonical_form
from ogclab.catalogs import (ResourceCapExceeded, generate_marked,
                             generate_or_load, generate_oriented, load_catalog,
                             save_catalog, spanning_forests)
from ogclab.complexes import _admissible_contractions, build_oriented_complex


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


def test_unstable_pair_is_domain_error():
    with pytest.raises(GraphError):
        generate_marked(0, [1, 2])
    with pytest.raises(GraphError):
        generate_oriented(0, [1])


def test_catalog_entries_are_valid():
    for (g, n) in [(1, 2), (0, 4), (2, 1)]:
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


def test_forest_counts_match_exhaustive_enumeration():
    import itertools
    for (g, n) in [(1, 2), (1, 3), (2, 1)]:
        cat = generate_marked(g, labels(n))
        for entry in cat.entries():
            graph = entry.graph
            nv = graph.n_vertices
            expected = 0
            ids = range(graph.n_edges)
            for r in range(nv):
                for sub in itertools.combinations(ids, r):
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
                    comps = {}
                    for (_, v) in graph.marks:
                        comps.setdefault(find(v), []).append(1)
                    if all(find(v) in comps for v in range(nv)) and \
                            all(len(c) == 1 for c in comps.values()):
                        roots = {find(v) for v in range(nv)}
                        if all(r in comps for r in roots):
                            expected += 1
            assert len(spanning_forests(graph)) == expected


# -- contraction targets -----------------------------------------------------------
# The contractions both differentials sum over, under the one admissibility rule.

def targets(graph, profile):
    """``(edge, target, subdivider)`` per contraction, the target as a Graph."""
    return [(e, Graph(*target), flag)
            for e, target, flag in _admissible_contractions(graph.key(), profile)]


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
    profile = StabilityProfile("weighted", min_valence={1: 4})
    g = Graph([1, 0], [(0, 1)], [(1, 0), (2, 0), (3, 0)])
    assert is_stable(g, profile) and not is_stable(contract_edge(g, 0), profile)
    assert targets(g, profile) == []
    heavy = Graph([1, 2], [(0, 1)], [(1, 0), (2, 0), (3, 0)])
    assert targets(heavy, profile) == [(0, Graph([3], [], [(1, 0), (2, 0), (3, 0)]), False)]
    # a source feeding a sink, whose other edge comes in: merged, it passes
    passing = StabilityProfile("passing", forbid_passing=True)
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

def test_catalog_round_trip(tmp_path):
    cat = generate_oriented(1, labels(2))
    save_catalog(cat, str(tmp_path / "c"))
    back = load_catalog(str(tmp_path / "c"))
    assert [e.key for e in back.entries()] == [e.key for e in cat.entries()]
    assert [e.killed for e in back.entries()] == [e.killed for e in cat.entries()]


@pytest.mark.parametrize("n", [3, 4])
def test_genus_zero_oriented_round_trip_keeps_the_corolla_directed(tmp_path, n):
    # the edgeless corolla has no edge to carry its direction in the JSON form
    cat = generate_oriented(0, labels(n))
    assert any(e.graph.n_edges == 0 for e in cat.entries())
    save_catalog(cat, str(tmp_path / "c"))
    back = load_catalog(str(tmp_path / "c"))
    assert [e.key for e in back.entries()] == [e.key for e in cat.entries()]
    assert all(e.graph.directed for e in back.entries())


def test_undirected_graph_in_oriented_catalog_raises(tmp_path):
    cat = generate_oriented(1, labels(2))
    save_catalog(cat, str(tmp_path / "c"))
    victim = next(p for p in sorted((tmp_path / "c").glob("oriented_*.json"))
                  if json.loads(p.read_text())["edges"])
    doc = json.loads(victim.read_text())
    for edge in doc["edges"]:
        edge["dir"] = None
    victim.write_text(json.dumps(doc))
    with pytest.raises(GraphError, match="edge direction"):
        load_catalog(str(tmp_path / "c"))


def test_corrupt_catalog_raises(tmp_path):
    cat = generate_marked(1, [1])
    save_catalog(cat, str(tmp_path / "c"))
    victim = next((tmp_path / "c").glob("marked_*.json"))
    victim.write_text('{"vertices":[{"w":0},{"w":0}],"edges":[],"markings":{"1":0}}')
    with pytest.raises(GraphError):
        load_catalog(str(tmp_path / "c"))


def test_cache_env_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    a = generate_or_load("marked", 1, [1, 2])
    assert (tmp_path / "marked_g1_n2_std_v1").is_dir()
    b = generate_or_load("marked", 1, [1, 2])
    assert [e.key for e in a.entries()] == [e.key for e in b.entries()]


def test_cache_keyed_on_label_tuple(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    a = generate_or_load("marked", 1, (1, 2))
    b = generate_or_load("marked", 1, (5, 7))
    assert a.labels == (1, 2) and b.labels == (5, 7)
    assert all(entry.graph.labels == (5, 7) for entry in b.entries())
    assert (tmp_path / "marked_g1_l5-7_std_v1").is_dir()
    again = generate_or_load("marked", 1, (7, 5))
    assert [e.key for e in again.entries()] == [e.key for e in b.entries()]


def test_index_less_cache_directory_is_regenerated(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    partial = tmp_path / "oriented_g1_n2_std_v1"
    partial.mkdir()
    (partial / "oriented_d02_000000.json").write_text("{}")
    cat = generate_or_load("oriented", 1, (1, 2))
    assert cat.total() == KNOWN_TOTALS[("oriented", 1, 2)]
    back = load_catalog(str(partial))
    assert [e.key for e in back.entries()] == [e.key for e in cat.entries()]


def test_stale_cache_for_other_labels_is_regenerated(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    save_catalog(generate_marked(1, (3, 4)), str(tmp_path / "marked_g1_n2_std_v1"))
    cat = generate_or_load("marked", 1, (1, 2))
    assert cat.labels == (1, 2)
    assert load_catalog(str(tmp_path / "marked_g1_n2_std_v1")).labels == (1, 2)


def test_interrupted_cache_write_leaves_no_catalog(tmp_path, monkeypatch):
    import ogclab.catalogs as catalogs
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))

    def interrupted(cat, path):
        os.makedirs(path, exist_ok=True)
        (Path(path) / "marked_d01_000000.json").write_text("{}")
        raise KeyboardInterrupt

    monkeypatch.setattr(catalogs, "save_catalog", interrupted)
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


def test_load_recomputes_index_kill_flags_and_orders(tmp_path, monkeypatch):
    monkeypatch.setenv("OGCLAB_CACHE", str(tmp_path))
    cat = generate_or_load("marked", 1, labels(2))
    index_path = tmp_path / "marked_g1_n2_std_v1" / "index.json"
    pristine = index_path.read_text()
    for field_name, tamper in [("killed", lambda v: not v), ("aut_order", lambda v: v + 1)]:
        index = json.loads(pristine)
        rec = index["strata"]["2"][0]
        rec[field_name] = tamper(rec[field_name])
        index_path.write_text(json.dumps(index))
        with pytest.raises(GraphError):
            load_catalog(str(index_path.parent))
        again = generate_or_load("marked", 1, labels(2))
        assert [(e.key, e.killed, e.aut_order) for e in again.entries()] == \
            [(e.key, e.killed, e.aut_order) for e in cat.entries()]
        assert json.loads(index_path.read_text()) == json.loads(pristine)
