"""Half-edge multigraphs with vertex weights, optional edge directions and
labelled markings, plus the structural predicates and contraction moves used
throughout the package.

A graph is stored as

* ``weights`` -- tuple of non-negative vertex weights,
* ``edges``   -- tuple of vertex pairs; undirected pairs are stored sorted,
  directed pairs are ``(source, target)``,
* ``marks``   -- tuple of ``(label, vertex)`` pairs, sorted by label; several
  labels may sit on the same vertex,
* ``directed`` -- flag selecting the directed interpretation.

Half-edges are not stored: an edge is the pair of its two ends, and for a
directed edge the first end is the source.  Marking labels behave as outgoing
half-edge stubs ("hairs"): they count towards valence and towards the
outgoing degree of their vertex.

``contract_edge`` is the contraction both differentials sum over; the
assembly in ``complexes`` performs it on key tuples, and this function is its
public reference.  ``contract_loop`` raises a vertex weight instead, so no
differential uses it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field


class GraphError(ValueError):
    """Structural or precondition failure on a graph operation."""


class Graph:
    __slots__ = ("weights", "edges", "marks", "directed", "_hash")

    def __init__(self, weights, edges, marks=(), directed=False):
        self.weights = tuple(weights)
        es = []
        for (u, v) in edges:
            if not (0 <= u < len(self.weights) and 0 <= v < len(self.weights)):
                raise GraphError("edge endpoint out of range")
            if directed:
                es.append((u, v))
            else:
                es.append((u, v) if u <= v else (v, u))
        self.edges = tuple(es)
        mk = tuple(sorted((int(l), int(v)) for (l, v) in marks))
        for (_, v) in mk:
            if not 0 <= v < len(self.weights):
                raise GraphError("marking on missing vertex")
        labels = [l for (l, _) in mk]
        if len(set(labels)) != len(labels):
            raise GraphError("duplicate marking label")
        self.marks = mk
        self.directed = bool(directed)
        self._hash = None

    # -- basic shape ------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.weights)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def labels(self):
        return tuple(l for (l, _) in self.marks)

    def key(self):
        return (self.weights, self.edges, self.marks, self.directed)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        kind = "DirGraph" if self.directed else "Graph"
        return f"{kind}(w={list(self.weights)}, edges={list(self.edges)}, marks={list(self.marks)})"

    # -- degree bookkeeping -------------------------------------------------

    def degree_data(self):
        """Per-vertex ``(valence, in_edges, out_edges, hairs)``; hairs count
        into valence and into the outgoing side."""
        n = self.n_vertices
        deg = [0] * n
        ind = [0] * n
        out = [0] * n
        hair = [0] * n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
            out[u] += 1
            ind[v] += 1
        for (_, v) in self.marks:
            hair[v] += 1
        return deg, ind, out, hair

    def parallel_count(self, e):
        """Number of partner edges sharing both endpoints of edge ``e``,
        regardless of direction; the edge itself is not counted."""
        (u, v) = self.edges[e]
        key = (min(u, v), max(u, v))
        return sum(1 for i, (a, b) in enumerate(self.edges)
                   if i != e and (min(a, b), max(a, b)) == key)

    def is_loop(self, e):
        (u, v) = self.edges[e]
        return u == v


# -- predicates -------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    n = g.n_vertices
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for (u, v) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    cnt = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                cnt += 1
                stack.append(w)
    return cnt == n


def genus(g: Graph) -> int:
    """First Betti number plus total vertex weight."""
    if not is_connected(g):
        raise GraphError("genus requires a connected graph")
    return g.n_edges - g.n_vertices + 1 + sum(g.weights)


def is_acyclic(g: Graph) -> bool:
    """No directed cycles; loops count as cycles.  Kahn peeling."""
    if not g.directed:
        raise GraphError("is_acyclic needs a directed graph")
    n = g.n_vertices
    indeg = [0] * n
    adj = [[] for _ in range(n)]
    for (u, v) in g.edges:
        if u == v:
            return False
        adj[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


@dataclass(frozen=True)
class StabilityProfile:
    """Per-vertex admissibility rules for the two graph flavours.

    ``min_valence`` maps a vertex weight to the minimum valence (hairs
    included); weights not listed are unconstrained.  ``forbid_passing``
    rejects weight-0 vertices with exactly one incoming and one outgoing
    half-edge (hairs outgoing).  ``require_outgoing`` demands at least one
    outgoing half-edge or marking everywhere.  ``require_marking_everywhere``
    is the strict reading kept selectable for comparison runs.
    """
    flavor: str
    min_valence: dict = field(default_factory=dict)
    forbid_passing: bool = False
    require_outgoing: bool = False
    require_marking_everywhere: bool = False

    @staticmethod
    def marked() -> "StabilityProfile":
        return StabilityProfile(flavor="marked", min_valence={0: 3})

    @staticmethod
    def oriented(strict: bool = False) -> "StabilityProfile":
        return StabilityProfile(flavor="oriented", min_valence={0: 2},
                                forbid_passing=True, require_outgoing=True,
                                require_marking_everywhere=strict)

    def admits(self, weight, valence, n_in, n_out, hairs) -> bool:
        """Whether one vertex passes.  ``valence`` and ``n_out`` count its
        hairs; ``n_in`` is 0 in an undirected graph, where every half-edge
        counts as outgoing."""
        minval = self.min_valence.get(weight)
        if minval is not None and valence < minval:
            return False
        if weight == 0:
            if self.require_outgoing and n_out < 1:
                return False
            if self.forbid_passing and n_in == 1 and n_out == 1:
                return False
        return hairs > 0 or not self.require_marking_everywhere


def is_stable(g: Graph, profile: StabilityProfile) -> bool:
    deg, ind, out, hair = g.degree_data()
    loops = [0] * g.n_vertices
    for (u, v) in g.edges:
        if u == v:
            loops[u] += 1
    for v in range(g.n_vertices):
        val = deg[v] + loops[v] + hair[v]
        if g.directed:
            n_in, n_out = ind[v], out[v] + hair[v]
        else:
            n_in, n_out = 0, val
        if not profile.admits(g.weights[v], val, n_in, n_out, hair[v]):
            return False
    return True


# -- contraction moves -------------------------------------------------------

def contract_edge(g: Graph, e: int) -> Graph:
    """Contract non-loop edge ``e``.  A bundle of ``l`` parallel partners is
    removed with it and the merged vertex gains weight ``w + w' + l``."""
    if g.is_loop(e):
        raise GraphError("loop contraction raises weight; use contract_loop")
    (a, b) = g.edges[e]
    key = (min(a, b), max(a, b))
    bundle = [i for i, (u, v) in enumerate(g.edges)
              if (min(u, v), max(u, v)) == key]
    l = len(bundle) - 1
    lo, hi = min(a, b), max(a, b)

    def relabel(v):
        if v == hi:
            v = lo
        return v - 1 if v > hi else v

    weights = list(g.weights)
    weights[lo] = g.weights[a] + g.weights[b] + l
    del weights[hi]
    edges = []
    for i, (u, v) in enumerate(g.edges):
        if i in bundle:
            continue
        edges.append((relabel(u), relabel(v)))
    marks = [(lab, relabel(v)) for (lab, v) in g.marks]
    return Graph(weights, edges, marks, g.directed)


def contract_loop(g: Graph, e: int) -> Graph:
    """Remove loop ``e`` and add one to the weight of its vertex."""
    if not g.is_loop(e):
        raise GraphError("contract_loop needs a loop edge")
    (v, _) = g.edges[e]
    weights = list(g.weights)
    weights[v] += 1
    edges = [p for i, p in enumerate(g.edges) if i != e]
    return Graph(weights, edges, g.marks, g.directed)


# -- JSON schema --------------------------------------------------------------
# {"vertices":[{"w":int}...], "edges":[{"h":[u,v],"dir":0|1|null}...],
#  "markings":{"label": vertex}}

def graph_to_json(g: Graph) -> str:
    verts = [{"w": w} for w in g.weights]
    edges = []
    for (u, v) in g.edges:
        if g.directed:
            edges.append({"h": [u, v], "dir": 0})
        else:
            edges.append({"h": [u, v], "dir": None})
    markings = {str(l): v for (l, v) in g.marks}
    doc = {"vertices": verts, "edges": edges,
           "markings": {k: markings[k] for k in sorted(markings, key=lambda s: (len(s), s))}}
    return json.dumps(doc, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"bad graph JSON: {exc}") from exc
    try:
        weights = [int(v["w"]) for v in doc["vertices"]]
        raw_edges = doc["edges"]
        markings = doc["markings"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"graph JSON missing field: {exc}") from exc
    if any(w < 0 for w in weights):
        raise GraphError("negative vertex weight")
    dirs = {e.get("dir") for e in raw_edges}
    directed = dirs and dirs != {None}
    if directed and None in dirs:
        raise GraphError("mixed directed and undirected edges")
    edges = []
    for e in raw_edges:
        u, v = e["h"]
        d = e.get("dir")
        if d not in (0, 1, None):
            raise GraphError("edge dir must be 0, 1 or null")
        if d == 1:
            u, v = v, u
        edges.append((u, v))
    marks = [(int(l), int(v)) for (l, v) in markings.items()]
    g = Graph(weights, edges, marks, directed=bool(directed))
    if not is_connected(g):
        raise GraphError("graph is not connected")
    if g.directed and not is_acyclic(g):
        raise GraphError("directed graph has a directed cycle")
    return g
