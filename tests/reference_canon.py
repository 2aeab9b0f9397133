"""Exhaustive reference for the pruned canonical search and the core generator.

``canonicalize`` expands every leaf of the individualisation tree and returns
the full automorphism group; ``connected_cores`` grows cores by plain
canonical-parent deletion with three canonicalisations per candidate.  Both
are slow and kept only to check the pruned search and canonical augmentation
in ``ogclab.canonical`` and ``ogclab.catalogs`` against.
"""
from __future__ import annotations

from ogclab.canonical import _encoded, _refine, decode_key
from ogclab.graphs import Graph, GraphError, _b1_bound, is_connected


def canonicalize(weights, edges, marks, directed):
    """Return ``(key, vperm, auts)``: canonical byte key, the relabelling
    old->canonical, and all vertex automorphisms in canonical coordinates."""
    nv = len(weights)
    if nv == 0:
        raise GraphError("empty vertex set")
    inc = [[] for _ in range(nv)]
    for (u, v) in edges:
        if directed:
            inc[u].append((0, v))
            inc[v].append((1, u))
        else:
            inc[u].append((0, v))
            inc[v].append((0, u))
    hairs = [[] for _ in range(nv)]
    for (l, v) in marks:
        hairs[v].append(l)
    deg = [len(inc[v]) for v in range(nv)]
    raw = [(weights[v], tuple(sorted(hairs[v])), deg[v]) for v in range(nv)]
    ren = {s: i for i, s in enumerate(sorted(set(raw)))}
    colors = _refine(nv, inc, [ren[s] for s in raw])

    best_key = None
    best_perms = []

    stack = [colors]
    while stack:
        cols = stack.pop()
        classes = {}
        for v in range(nv):
            classes.setdefault(cols[v], []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            order = sorted(range(nv), key=lambda v: cols[v])
            perm = [0] * nv
            for i, v in enumerate(order):
                perm[v] = i
            key = _encoded(weights, edges, marks, perm, directed)
            if best_key is None or key < best_key:
                best_key = key
                best_perms = [perm]
            elif key == best_key:
                best_perms.append(perm)
            continue
        for v in target:
            c2 = list(cols)
            c2[v] = -1
            ren2 = {s: i for i, s in enumerate(sorted(set(c2)))}
            stack.append(_refine(nv, inc, [ren2[s] for s in c2]))

    perm0 = best_perms[0]
    inv0 = [0] * nv
    for i, p in enumerate(perm0):
        inv0[p] = i
    auts = sorted(set(tuple(p[inv0[i]] for i in range(nv)) for p in best_perms))
    return best_key, tuple(perm0), tuple(auts)


def connected_cores(nv, ne, max_b1, allow_loops):
    """Connected multigraphs on ``nv`` vertices with ``ne`` edges and first
    Betti number at most ``max_b1``, each with its full automorphism group."""
    if ne < nv - 1:
        return []
    if allow_loops:
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    else:
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    weights = (0,) * nv
    level = {b"seed": ()}
    for _ in range(ne):
        nxt = {}
        for edges in level.values():
            ekey, _, _ = canonicalize(weights, edges, (), False)
            for e in pairs:
                child = tuple(sorted(edges + (e,)))
                if _b1_bound(nv, child) > max_b1:
                    continue
                key, _, _ = canonicalize(weights, child, (), False)
                if key in nxt:
                    continue
                parent = decode_key(key).edges[:-1]
                pkey, _, _ = canonicalize(weights, parent, (), False)
                if pkey == ekey:
                    nxt[key] = decode_key(key).edges
        level = nxt
    out = []
    for edges in sorted(level.values()):
        if not is_connected(Graph(weights, edges)):
            continue
        _, _, auts = canonicalize(weights, edges, (), False)
        out.append((edges, auts))
    return out
