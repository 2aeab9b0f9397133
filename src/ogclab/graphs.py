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

Connectivity and the first Betti number come from one union-find
(``_b1_bound``), acyclicity from one Kahn peel (``_acyclic``) and stability
from ``_stable``, all on plain tuples, so the catalog code checks the tuples
of a canonical key with them; ``is_connected``, ``is_acyclic`` and
``is_stable`` wrap them for a ``Graph``.  Every per-vertex count is read off
one tally, ``_degrees`` and the ``_vertex_data`` built on it.

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
        nv = len(self.weights)
        es = []
        for (u, v) in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < nv and 0 <= v < nv):
                raise GraphError(f"edge end not a vertex: {(u, v)!r}")
            if directed:
                es.append((u, v))
            else:
                es.append((u, v) if u <= v else (v, u))
        self.edges = tuple(es)
        mk = []
        for (l, v) in marks:
            if not (type(l) is int and type(v) is int and 0 <= v < nv):
                raise GraphError(f"marking not an integer label on a vertex: {(l, v)!r}")
            mk.append((l, v))
        mk = tuple(sorted(mk))
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

    # -- edge queries -----------------------------------------------------

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
    return n <= 1 or g.n_edges - _b1_bound(n, g.edges) == n - 1


def _b1_bound(nv, edges) -> int:
    """Edges of ``edges`` that close a cycle, by one union-find over the
    ``nv`` vertices: the first Betti number when the graph is connected,
    which it is iff the other edges number ``nv - 1``."""
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    b1 = 0
    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            b1 += 1
        else:
            parent[ru] = rv
    return b1


def genus(g: Graph) -> int:
    """First Betti number plus total vertex weight."""
    if not is_connected(g):
        raise GraphError("genus requires a connected graph")
    return g.n_edges - g.n_vertices + 1 + sum(g.weights)


def is_acyclic(g: Graph) -> bool:
    """No directed cycles; loops count as cycles."""
    if not g.directed:
        raise GraphError("is_acyclic needs a directed graph")
    return _acyclic(g.n_vertices, g.edges)


def _acyclic(nv, edges) -> bool:
    """Whether the directed ``edges`` on ``nv`` vertices have no directed
    cycle, by Kahn peeling; a loop never peels, so it counts as a cycle."""
    indeg = [0] * nv
    adj = [[] for _ in range(nv)]
    for (u, v) in edges:
        adj[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(nv) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == nv


def _degrees(nv, edges) -> list:
    """Edge ends at each of the ``nv`` vertices, a loop's two counted."""
    deg = [0] * nv
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _vertex_data(weights, edges, marks, directed):
    """``(raw, n_in)``: per vertex, ``raw[v] = (weight, hair labels
    ascending, degree)``, the colour value canonical labelling starts from,
    and ``n_in[v]`` incoming edge ends, all 0 when undirected."""
    nv = len(weights)
    n_in = [0] * nv
    for (_, v) in edges if directed else ():
        n_in[v] += 1
    hairs = [()] * nv
    for (l, v) in sorted(marks):
        hairs[v] += (l,)
    return list(zip(weights, hairs, _degrees(nv, edges))), n_in


@dataclass(frozen=True)
class StabilityProfile:
    """Per-vertex admissibility rule for the two graph flavours; ``admits``
    is the one place it is decided.  ``is_stable`` applies it to every
    vertex, the differentials to the merged vertex of a contraction, and the
    catalog generators read off it the fewest hairs each core vertex needs.

    ``min_valence`` maps a vertex weight to the minimum valence (hairs
    included); weights not listed are unconstrained.  ``forbid_passing``
    rejects weight-0 vertices with exactly one incoming and one outgoing
    half-edge (hairs outgoing).  ``require_outgoing`` demands at least one
    outgoing half-edge or marking at weight-0 vertices.
    """
    min_valence: dict = field(default_factory=dict)
    forbid_passing: bool = False
    require_outgoing: bool = False

    @staticmethod
    def marked() -> "StabilityProfile":
        return StabilityProfile(min_valence={0: 3})

    @staticmethod
    def oriented() -> "StabilityProfile":
        return StabilityProfile(min_valence={0: 2}, forbid_passing=True,
                                require_outgoing=True)

    def admits(self, weight, valence, n_in) -> bool:
        """Whether one vertex passes.  ``valence`` counts its hairs and
        ``n_in`` its incoming edge ends, 0 in an undirected graph; every
        other half-edge, hairs included, is outgoing."""
        minval = self.min_valence.get(weight)
        if minval is not None and valence < minval:
            return False
        if weight == 0:
            n_out = valence - n_in
            if self.require_outgoing and n_out < 1:
                return False
            if self.forbid_passing and n_in == 1 and n_out == 1:
                return False
        return True


def is_stable(g: Graph, profile: StabilityProfile) -> bool:
    return _stable(*g.key(), profile)


def _stable(weights, edges, marks, directed, profile) -> bool:
    """Whether ``profile`` admits every vertex of the graph given as tuples."""
    raw, n_in = _vertex_data(weights, edges, marks, directed)
    return all(profile.admits(w, deg + len(hairs), k) for (w, hairs, deg), k in zip(raw, n_in))


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
    return json_text(*g.key())


def json_text(weights, edges, marks, directed) -> str:
    """The JSON text of a graph given as tuples, in the schema above, with
    no whitespace and the markings ordered by the length, then the text, of
    their labels, which is numeric order for labels of 0 and more."""
    direction = "0" if directed else "null"
    verts = ",".join(f'{{"w":{w}}}' for w in weights)
    es = ",".join(f'{{"h":[{u},{v}],"dir":{direction}}}' for (u, v) in edges)
    labelled = sorted(((str(l), v) for (l, v) in marks), key=lambda m: (len(m[0]), m[0]))
    ms = ",".join(f'"{l}":{v}' for (l, v) in labelled)
    return f'{{"vertices":[{verts}],"edges":[{es}],"markings":{{{ms}}}}}'


def graph_from_json(text: str) -> Graph:
    """The graph of a JSON text in the schema above.  A weight must be an
    ``int`` >= 0, ``h`` a pair of ``int``s, ``dir`` 0, 1 or null, and
    ``markings`` an object keyed by labels as ``json_text`` writes them;
    else ``GraphError`` names the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"bad graph JSON: {exc}") from exc
    try:
        weights = [v["w"] for v in doc["vertices"]]
        raw_edges = [(e["h"], e.get("dir")) for e in doc["edges"]]
        markings = doc["markings"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphError(f"graph JSON missing field: {exc}") from exc
    for w in weights:
        if type(w) is not int or w < 0:
            raise GraphError(f"vertex weight \"w\" must be an integer >= 0, got {w!r}")
    edges, dirs = [], set()
    for h, d in raw_edges:
        if type(h) is not list or len(h) != 2 or any(type(x) is not int for x in h):
            raise GraphError(f"edge \"h\" must be a pair of integers, got {h!r}")
        if d is not None and (type(d) is not int or d not in (0, 1)):
            raise GraphError(f"edge \"dir\" must be 0, 1 or null, got {d!r}")
        dirs.add(d is not None)
        edges.append((h[1], h[0]) if d == 1 else tuple(h))
    if len(dirs) > 1:
        raise GraphError("mixed directed and undirected edges")
    directed = dirs == {True}
    if type(markings) is not dict:
        raise GraphError(f"\"markings\" must be an object, got {markings!r}")
    marks = []
    for label, v in markings.items():
        number = int(label) if label.removeprefix("-").isdecimal() else None
        if str(number) != label:
            raise GraphError(f"marking label must be a decimal integer, got {label!r}")
        marks.append((number, v))
    g = Graph(weights, edges, marks, directed=directed)
    if not is_connected(g):
        raise GraphError("graph is not connected")
    if g.directed and not is_acyclic(g):
        raise GraphError("directed graph has a directed cycle")
    return g
