"""Reference for the contractions both differentials sum over.

These are the Graph-based admissibility rule and signs the assembly in
``ogclab.complexes`` used before it moved onto key tuples: every contraction
goes through ``graphs.contract_edge`` and is then checked with the
whole-graph ``is_acyclic`` and ``is_stable``, and the signs read the
relabelling off a ``CanonicalForm``.  They are slow and kept only to check
the tuple path against.
"""
from __future__ import annotations

from ogclab.canonical import perm_parity
from ogclab.graphs import Graph, StabilityProfile, contract_edge, is_acyclic, is_stable
from oracle import degree_data


def edge_order_sign(g: Graph, e: int, cf) -> int:
    return (-1) ** e * perm_parity(cf.edge_map)


def vertex_order_sign(g: Graph, e: int, cf) -> int:
    """Parity of moving the ends ``(a, b)`` of ``e`` to the front, times the
    parity of the canonical relabelling on ``[merged] + rest``."""
    (a, b) = g.edges[e]
    hi = max(a, b)
    rest = [v for v in range(g.n_vertices) if v not in (a, b)]
    merged_first = [min(a, b)] + [v - (v > hi) for v in rest]
    return perm_parity([a, b] + rest) * perm_parity(
        [cf.vertex_map[x] for x in merged_first])


def admissible_contractions(g: Graph, profile: StabilityProfile):
    """Yield ``(edge, target, subdivider)`` for every contraction in the
    differential: never a loop or an edge with a parallel partner (either
    would raise a weight), and the target must be stable and, when directed,
    acyclic.  ``subdivider`` flags an edge leaving a bivalent unmarked
    double-outgoing source, which the frozen variant leaves uncontracted."""
    if g.directed:
        deg, ind, out, hair = degree_data(g.n_vertices, g.edges, g.marks)
    for i, (a, b) in enumerate(g.edges):
        if a == b or g.parallel_count(i) > 0:
            continue
        target = contract_edge(g, i)
        if g.directed and not is_acyclic(target):
            continue
        if is_stable(target, profile):
            subdivider = g.directed and (hair[a], ind[a], out[a], deg[a]) == (0, 0, 2, 2)
            yield i, target, subdivider
