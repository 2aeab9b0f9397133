"""Graph core: genus, acyclicity, stability, contraction, JSON round trips."""
import re

import pytest

import reference_catalogs
from ogclab.catalogs import generate_marked, generate_oriented
from ogclab.graphs import (Graph, GraphError, StabilityProfile, contract_edge,
                           contract_loop, genus, graph_from_json, graph_to_json,
                           is_acyclic, is_connected, is_stable)


def loop_with_hair():
    return Graph([0], [(0, 0)], [(1, 0)])


def theta_with_hair():
    return Graph([0, 0], [(0, 1), (0, 1), (0, 1)], [(1, 0)])


def test_genus_weighted_corolla():
    g = Graph([3], [], [(1, 0)])
    assert genus(g) == 3


def test_genus_loop():
    assert genus(Graph([0], [(0, 0)])) == 1


def test_genus_three_parallel_edges():
    g = Graph([0, 0], [(0, 1), (0, 1), (0, 1)])
    assert genus(g) == 2


def test_genus_needs_connected():
    g = Graph([0, 0], [])
    with pytest.raises(GraphError):
        genus(g)


def test_acyclic_single_edge():
    assert is_acyclic(Graph([0, 0], [(0, 1)], directed=True))


def test_acyclic_two_cycle():
    assert not is_acyclic(Graph([0, 0], [(0, 1), (1, 0)], directed=True))


def test_acyclic_oriented_loop():
    # two parallel edges out of a common source: no directed cycle
    assert is_acyclic(Graph([0, 0], [(0, 1), (0, 1)], directed=True))


def test_acyclic_directed_loop_is_a_cycle():
    assert not is_acyclic(Graph([0, 0], [(0, 1), (1, 1)], directed=True))


def test_acyclic_rejects_undirected():
    with pytest.raises(GraphError):
        is_acyclic(Graph([0], [(0, 0)]))


def test_marked_stability_loop_hair():
    assert is_stable(loop_with_hair(), StabilityProfile.marked())
    # a loop is two half-edges: without the hair the vertex is bivalent
    assert not is_stable(Graph([0], [(0, 0)]), StabilityProfile.marked())


def test_marked_stability_positive_weight_unconstrained():
    g = Graph([1], [], [(1, 0)])
    assert is_stable(g, StabilityProfile.marked())


def test_oriented_stability_rejects_passing_vertex():
    # a -> b -> c with b unmarked weight 0
    g = Graph([0, 0, 0], [(0, 1), (1, 2)], [(1, 0), (2, 2)], directed=True)
    assert not is_stable(g, StabilityProfile.oriented())


def test_oriented_stability_hair_is_outgoing():
    # sink with two inputs and a marking hair passes
    g = Graph([0, 0], [(0, 1), (0, 1)], [(1, 1)], directed=True)
    assert is_stable(g, StabilityProfile.oriented())


def test_oriented_stability_passing_counts_hairs():
    # one incoming edge plus one hair is still a passing vertex
    g = Graph([0, 0], [(0, 1)], [(1, 1), (2, 0), (3, 0)], directed=True)
    assert not is_stable(g, StabilityProfile.oriented())


def test_contract_parallel_bundle_weights():
    # endpoints of weights 1 and 2 joined by three parallel edges
    g = Graph([1, 2], [(0, 1), (0, 1), (0, 1)])
    out = contract_edge(g, 0)
    assert out.weights == (5,)
    assert out.n_edges == 0
    assert genus(out) == genus(g)


def test_contract_simple_edge_weightless():
    g = Graph([0, 0], [(0, 1)], [(1, 0), (2, 0), (3, 1), (4, 1)])
    out = contract_edge(g, 0)
    assert out.weights == (0,)
    assert len(out.marks) == 4


def test_contract_edge_rejects_loop():
    with pytest.raises(GraphError):
        contract_edge(loop_with_hair(), 0)


def test_contract_loop_bumps_weight():
    out = contract_loop(loop_with_hair(), 0)
    assert out.weights == (1,)
    assert genus(out) == 1


def test_contract_loop_weighted():
    g = Graph([2], [(0, 0)])
    assert contract_loop(g, 0).weights == (3,)


def test_contract_loop_rejects_non_loop():
    with pytest.raises(GraphError):
        contract_loop(Graph([0, 0], [(0, 1)]), 0)


def test_json_round_trip_undirected():
    g = theta_with_hair()
    assert graph_from_json(graph_to_json(g)) == g


def test_json_round_trip_directed():
    g = Graph([0, 0], [(0, 1), (0, 1)], [(1, 1)], directed=True)
    assert graph_from_json(graph_to_json(g)) == g


def json_cases():
    yield theta_with_hair()
    yield loop_with_hair()
    yield Graph([0, 0], [(0, 1), (0, 1)], [(1, 1)], directed=True)
    yield Graph([0, 1, 0], [(0, 1), (1, 2), (2, 2)], [(10, 0), (2, 1), (9, 2)])
    yield Graph([0, 0, 0], [(2, 0), (2, 1), (0, 1)], [(9, 0), (10, 1), (2, 1)],
                directed=True)
    yield Graph([3], [], [(1, 0)])
    for (g, n) in [(0, 5), (1, 3)]:
        for gen in (generate_marked, generate_oriented):
            for entry in gen(g, tuple(range(1, n + 1))).entries():
                yield entry.graph


def test_json_text_matches_the_dict_writer():
    # labels 2, 9, 10 would sort 10, 2, 9 as strings; the writer orders the
    # markings by (length, text), which is numeric order
    for g in json_cases():
        text = graph_to_json(g)
        assert text == reference_catalogs.graph_to_json(g), g
        if g.n_edges or not g.directed:     # the schema keeps direction on edges
            assert graph_from_json(text) == g


def test_json_rejects_disconnected():
    text = '{"vertices":[{"w":0},{"w":0}],"edges":[],"markings":{"1":0}}'
    with pytest.raises(GraphError):
        graph_from_json(text)


def test_json_rejects_directed_cycle():
    text = ('{"vertices":[{"w":0},{"w":0}],'
            '"edges":[{"h":[0,1],"dir":0},{"h":[0,1],"dir":1}],"markings":{"1":0}}')
    with pytest.raises(GraphError):
        graph_from_json(text)


def test_json_dir_one_swaps_endpoints():
    text = ('{"vertices":[{"w":0},{"w":0}],'
            '"edges":[{"h":[1,0],"dir":1},{"h":[0,1],"dir":0}],"markings":{"1":1}}')
    g = graph_from_json(text)
    assert g.edges == ((0, 1), (0, 1))


def test_connected():
    assert is_connected(Graph([0], []))
    assert not is_connected(Graph([0, 0], []))


@pytest.mark.parametrize("edges, marks", [
    ([(0.5, 1)], []), ([(0, True)], []), ([("1", 0)], []),
    ([], [(1.7, 0)]), ([], [(1, 0.0)]), ([], [(True, 0)]), ([], [(1, False)])])
def test_vertex_ids_and_labels_are_refused_unless_int(edges, marks):
    # refused, naming the edge or marking, rather than truncated or let through
    with pytest.raises(GraphError, match=re.escape(repr((edges + marks)[0]))):
        Graph((0, 0), edges, marks)


@pytest.mark.parametrize("edge, vertex", [("0,0.5", "0"), ("0,1", "0.5")])
def test_json_refuses_a_fractional_vertex(edge, vertex):
    text = (f'{{"vertices":[{{"w":0}},{{"w":0}}],"edges":[{{"h":[{edge}],"dir":null}}],'
            f'"markings":{{"1":{vertex}}}}}')
    with pytest.raises(GraphError, match="0.5"):
        graph_from_json(text)


WELL_FORMED = ('{"vertices":[{"w":0},{"w":0}],"edges":[{"h":[0,1],"dir":null}],'
               '"markings":{"1":0,"2":1}}')


@pytest.mark.parametrize("part, malformed, field", [
    ('{"w":0}', '{"w":1.5}', '"w"'), ('{"w":0}', '{"w":true}', '"w"'),
    ('{"w":0}', '{"w":"2"}', '"w"'), ('"1":0', '"x":0', "marking label"),
    ('"1":0', '"1.0":0', "marking label"), ("[0,1]", "[0,1,2]", '"h"'),
    ('"dir":null', '"dir":true', '"dir"'), ('{"1":0,"2":1}', "[[1,0],[2,1]]", '"markings"')],
    ids=["w-float", "w-bool", "w-string", "label-word", "label-float", "h-triple",
         "dir-bool", "markings-list"])
def test_json_refuses_malformed_fields(part, malformed, field):
    # refused with a GraphError naming the field, not truncated, let
    # through or failing with an error that names nothing
    assert graph_from_json(WELL_FORMED).n_vertices == 2
    with pytest.raises(GraphError, match=re.escape(field)):
        graph_from_json(WELL_FORMED.replace(part, malformed, 1))
