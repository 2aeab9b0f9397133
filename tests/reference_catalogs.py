"""Reference for the decorator and the cell-file writer.

``marked_decorations`` and ``oriented_decorations`` decorate a core as the
two decorators did before they pruned by Aut(core): each canonicalises every
decoration meeting the hair minima (acyclic, when oriented), so a cell is
reached once per decoration in its orbit.  ``catalogs._decorations`` now
serves both flavours.  ``graph_to_json`` is the cell-file writer as it was
before it formatted strings directly: a dict passed through ``json.dumps``.
All are slow and kept only to check the package against.
"""
from __future__ import annotations

import json

from ogclab.canonical import canonicalize
from ogclab.catalogs import _assignments, _min_hairs
from ogclab.graphs import Graph, _acyclic

SUB, FWD, BWD = 0, 1, 2


def marked_decorations(nv, core, labels, profile):
    edges, _ = core
    deg = [0] * nv
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    minima = [_min_hairs(profile, d, 0) for d in deg]
    results = []
    for assign in _assignments(nv, len(labels), minima):
        marks = tuple(sorted(zip(labels, assign)))
        key, _, gens = canonicalize((0,) * nv, edges, marks, False)
        results.append((key, gens))
    return results


def oriented_decorations(nv, core, labels, profile):
    edges, _ = core
    n = len(labels)
    ne = len(edges)
    # vertex v is complete once every incident edge has been decided
    last_touch = [0] * nv
    for i, (u, v) in enumerate(edges):
        last_touch[u] = i
        last_touch[v] = i
    finishers = [[] for _ in range(ne)]
    for v in range(nv if ne else 0):
        finishers[last_touch[v]].append(v)
    ind = [0] * nv
    out = [0] * nv
    choice = [SUB] * ne
    results = []

    def profile_min(v):
        m = _min_hairs(profile, ind[v] + out[v], ind[v])
        if m == 0 and ind[v] == 0 and out[v] == 2:
            # identical to a subdivided edge; that shape is generated there
            m = 1
        return m

    def rec(i, deficit):
        if deficit > n:
            return
        if i == ne:
            finish()
            return
        (u, v) = edges[i]
        opts = (SUB,) if u == v else (SUB, FWD, BWD)
        for c in opts:
            if c == SUB:
                ind[u] += 1
                ind[v] += 1
            elif c == FWD:
                out[u] += 1
                ind[v] += 1
            else:
                ind[u] += 1
                out[v] += 1
            choice[i] = c
            d = deficit
            for w in finishers[i]:
                d += profile_min(w)
            rec(i + 1, d)
            if c == SUB:
                ind[u] -= 1
                ind[v] -= 1
            elif c == FWD:
                out[u] -= 1
                ind[v] -= 1
            else:
                ind[u] -= 1
                out[v] -= 1

    def finish():
        minima = [profile_min(v) for v in range(nv)]
        es = []
        nv2 = nv
        for i, (u, v) in enumerate(edges):
            c = choice[i]
            if c == SUB:
                es.append((nv2, u))
                es.append((nv2, v))
                nv2 += 1
            elif c == FWD:
                es.append((u, v))
            else:
                es.append((v, u))
        if not _acyclic(nv2, es):
            return
        weights = (0,) * nv2
        es = tuple(es)
        for assign in _assignments(nv, n, minima):
            marks = tuple(sorted(zip(labels, assign)))
            key, _, gens = canonicalize(weights, es, marks, True)
            results.append((key, gens))

    rec(0, 0)
    return results


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
