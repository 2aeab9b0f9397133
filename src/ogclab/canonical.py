"""Canonical labelling of marked weighted (di)graphs by partition refinement
with individualisation, plus the automorphism bookkeeping the chain complexes
need: relabelling maps, kill flags and automorphism counts.

Two graphs are isomorphic (weights, directions and marking labels preserved)
iff their canonical byte keys are equal.  The canonical form is the least key
over the leaves of the individualisation tree, and the relabelling returned is
the first such leaf in a fixed depth-first order, so keys are deterministic
and independent of input labelling or thread scheduling.

The search prunes the tree with automorphisms as in nauty (McKay & Piperno,
*Practical graph isomorphism II*, 2014): two leaves with equal keys give an
automorphism, a child in the orbit of an explored sibling under the
automorphisms fixing the node's prefix is skipped, and a branch shown to be
the image of an earlier one is abandoned.  The automorphisms found generate
the full group; ``group_closure`` lists its elements where a caller needs
them.  A partition that is discrete after the first refinement (the usual
case for labelled catalog graphs) is a single leaf and skips the search, and
one discrete at the initial colouring skips refinement as well.

``_labelling`` is the one labelling core: initial colour values, ranked,
refined and searched, with the graph reached only through its incidence and
a leaf encoder.  ``canonicalize`` runs it on a graph given as tuples, and
the complexes run it on a contraction target given by the generator it comes
from (``complexes._admissible_contractions``).
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from math import factorial

from .graphs import Graph, GraphError

_LITTLE_ENDIAN = sys.byteorder == "little"


def perm_parity(seq) -> int:
    """Sign of the permutation given as the image sequence of 0..n-1."""
    n = len(seq)
    seen = bytearray(n)
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = seq[i]
        while j != i:
            seen[j] = 1
            j = seq[j]
            sign = -sign
    return sign


# -- byte keys ----------------------------------------------------------------

def key_tuples(key: bytes):
    """``(weights, edges, marks, directed)`` of a key, as tuples.  A key is
    the bytes directed, vertex count, edge count, mark count, then the
    weights, then each edge and each mark as a byte pair (``_encoded``)."""
    nv, ne, nm = key[1], key[2], key[3]
    e0 = 4 + nv
    # a list, not tuple(zip(...)), which raised the peak RSS of
    # `enumerate -g 1 -n 4` by about 0.7 MB
    pairs = [(key[i], key[i + 1]) for i in range(e0, e0 + 2 * (ne + nm), 2)]
    return tuple(key[4:e0]), tuple(pairs[:ne]), tuple(pairs[ne:]), bool(key[0])


def decode_key(key: bytes) -> Graph:
    return Graph(*key_tuples(key))


def _encoded(weights, edges, marks, perm, directed, ends=None):
    """Key of the graph relabelled by ``perm``.  With ``ends``, the vertices
    named in ``edges`` and ``marks`` are first sent to ``ends[v]``: the
    contraction labelling passes a generator's edges and marks with the map
    that merges the contracted edge's ends."""
    w = weights
    if any(weights):        # a relabelling leaves all-zero weights alone
        w = [0] * len(weights)
        for v, c in enumerate(perm):
            w[c] = weights[v]
    if ends is not None:
        perm = list(map(perm.__getitem__, ends))
    # each edge and mark as one 16-bit int, byte pair (x, y) as x << 8 | y,
    # which sort as the pairs do and pack big-endian into the key's bytes
    es = [perm[u] << 8 | perm[v] for (u, v) in edges]
    if not directed:
        es = [x if x >> 8 <= x & 255 else (x & 255) << 8 | x >> 8 for x in es]
    es.sort()
    pairs = array("H", es)
    pairs.extend(sorted([l << 8 | perm[v] for (l, v) in marks]))
    if _LITTLE_ENDIAN:
        pairs.byteswap()
    return bytes([1 if directed else 0, len(w), len(es), len(marks), *w]) + pairs.tobytes()


def _incidence(nv, edges, directed, ends=None):
    """Per vertex, ``(d, w)`` for each edge end at it: ``w`` the other end,
    ``d`` 1 at the head of a directed edge and 0 otherwise.  With ``ends``
    the edge ends are sent to ``ends[v]`` first, as in ``_encoded``."""
    inc = [[] for _ in range(nv)]
    d = 1 if directed else 0
    for (u, v) in edges:
        if ends is not None:
            u, v = ends[u], ends[v]
        inc[u].append((0, v))
        inc[v].append((d, u))
    return inc


# -- refinement + search -------------------------------------------------------

def _refine(nv, inc, colors):
    """Colour refinement of ``colors`` (values below ``nv``) over the
    incidence ``inc``: each round ranks the signatures (own colour, sorted
    ``d + 2 * colour`` of the incident edge ends), until a round splits no
    class.  The signature of a vertex alone in its class is its colour
    only: signatures of different colours compare by colour, so the ranks
    are those of the full signatures."""
    nclasses = len(set(colors))
    while nclasses < nv:
        size = [0] * nv
        for c in colors:
            size[c] += 1
        sigs = [(c,) if size[c] == 1 else
                (c, *sorted([d + 2 * colors[w] for (d, w) in inc[v]]))
                for v, c in enumerate(colors)]
        ren = dict(zip(sorted(set(sigs)), range(nv)))
        if len(ren) == nclasses:
            break
        colors = list(map(ren.__getitem__, sigs))
        nclasses = len(ren)
    return colors


def _labelling(raw, incidence, encode):
    """The labelling core that ``canonicalize`` and the contraction
    labelling in ``complexes`` share.  ``raw[v]`` is vertex ``v``'s initial
    colour value, ``(weight, hair labels, degree)``; the values are ranked
    into colours, refined over ``incidence()`` (called only when the
    colouring is not already discrete) and searched below when refinement
    leaves a cell of more than one vertex.  ``encode(perm)`` is the key of
    the leaf ``perm``.  Returns ``(key, leaf, automorphisms found)``, the
    leaf a list of canonical positions and the automorphisms in input
    coordinates, none when the refined colouring is discrete."""
    nv = len(raw)
    ren = dict(zip(sorted(set(raw)), range(nv)))
    colors = list(map(ren.__getitem__, raw))
    if len(ren) < nv:
        inc = incidence()
        colors = _refine(nv, inc, colors)
        if len(set(colors)) < nv:
            return _search(nv, inc, colors, encode)
    return encode(colors), colors, ()


def canonicalize(weights, edges, marks, directed):
    """Return ``(key, vperm, gens)``: canonical byte key, the relabelling
    old->canonical, and generators of the vertex automorphism group in
    canonical coordinates (``group_closure`` expands them)."""
    nv = len(weights)
    if nv == 0:
        raise GraphError("empty vertex set")
    # relabelling permutes these values, so one check covers every leaf
    if nv > 255 or len(edges) > 127 or min(weights) < 0 or max(weights) > 255 \
            or any(not 0 <= l <= 255 for (l, _) in marks):
        raise GraphError("graph does not fit the byte encoding")
    deg = [0] * nv
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    hairs = [[] for _ in range(nv)]
    for (l, v) in sorted(marks):
        hairs[v].append(l)
    raw = [(weights[v], tuple(hairs[v]), deg[v]) for v in range(nv)]
    key, perm0, gens = _labelling(
        raw, lambda: _incidence(nv, edges, directed),
        lambda perm: _encoded(weights, edges, marks, perm, directed))
    if not gens:
        return key, tuple(perm0), ()
    inv0 = [0] * nv
    for v, p in enumerate(perm0):
        inv0[p] = v
    canon = {tuple(perm0[g[inv0[i]]] for i in range(nv)) for g in gens}
    return key, tuple(perm0), tuple(sorted(canon))


def _search(nv, inc, colors, encode):
    """Depth-first search of the individualisation tree below ``colors``.

    Children are visited in descending vertex order.  A leaf whose key equals
    that of the first leaf or of the best leaf so far yields an automorphism
    (in input coordinates).  A child is skipped when it lies in the orbit of
    an explored sibling under the automorphisms fixing the node's prefix
    pointwise, and when an automorphism maps an earlier branch of a common
    ancestor onto the current one the search returns to that ancestor.  Both
    cuts drop only subtrees that are images of ones already searched, so the
    best key and its first leaf are those of the full tree, and the
    automorphisms found generate the whole group.

    Returns ``(best key, first best leaf, automorphisms found)``.
    """
    gens = []
    path = []
    first = best = None

    def leaf(perm):
        nonlocal first, best
        key = encode(perm)
        here = (key, perm, tuple(path))
        if first is None:
            first = best = here
            return None
        ref = first if key == first[0] else best if key == best[0] else None
        if ref is None:
            if key < best[0]:
                best = here
            return None
        inv = [0] * nv
        for v, p in enumerate(perm):
            inv[p] = v
        aut = tuple(inv[p] for p in ref[1])
        if all(aut[v] == v for v in range(nv)):
            return None
        gens.append(aut)
        # return to the deepest common ancestor if aut maps the earlier
        # branch there onto the current one
        old, new = ref[2], here[2]
        c = 0
        while old[c] == new[c]:
            c += 1
        if aut[old[c]] == new[c] and all(aut[v] == v for v in old[:c]):
            return c
        return None

    def visit(cols):
        cells = [[] for _ in range(nv)]
        for v, c in enumerate(cols):
            cells[c].append(v)
        cell = next((c for c in cells if len(c) > 1), None)
        if cell is None:
            return leaf(cols)
        depth = len(path)
        explored = []
        for v in reversed(cell):
            if explored and gens and _in_orbit(
                    v, explored, [g for g in gens if all(g[x] == x for x in path)]):
                continue
            child = [c + 1 for c in cols]
            child[v] = 0
            path.append(v)
            jump = visit(_refine(nv, inc, child))
            path.pop()
            explored.append(v)
            if jump is not None and jump < depth:
                return jump
        return None

    visit(colors)
    del visit       # cut visit's self-reference, so refcounting frees the tree
    return best[0], best[1], gens


def _in_orbit(v, seeds, gens):
    orbit = set(seeds)
    frontier = list(seeds)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                if y == v:
                    return True
                orbit.add(y)
                frontier.append(y)
    return False


def group_closure(gens, n):
    """Every element of the permutation group on ``range(n)`` generated by
    ``gens``, sorted."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = tuple(map(g.__getitem__, a))
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return tuple(sorted(elems))


# -- canonical form object ------------------------------------------------------

class CanonicalForm:
    """Canonical representative of a graph with its relabelling data.

    ``vertex_map`` sends old vertex ids to canonical ids; ``edge_map`` is the
    induced edge bijection (parallel bundles matched in input order);
    ``gens`` generate the vertex automorphisms of the canonical graph.
    """
    __slots__ = ("key", "vertex_map", "gens", "_graph", "_edge_map", "_src")

    def __init__(self, src: Graph):
        key, vperm, gens = canonicalize(src.weights, src.edges, src.marks, src.directed)
        self.key = key
        self.vertex_map = vperm
        self.gens = gens
        self._src = src
        self._graph = None
        self._edge_map = None

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = decode_key(self.key)
        return self._graph

    @property
    def edge_map(self):
        if self._edge_map is None:
            self._edge_map = induced_edge_map(
                self._src.edges, self.vertex_map, self.graph.edges, self._src.directed)
        return self._edge_map

    def aut_order(self) -> int:
        """Order of the half-edge level automorphism group."""
        return automorphism_count(self.graph.key(), self.gens)


def canonical_form(g: Graph) -> CanonicalForm:
    return CanonicalForm(g)


def induced_edge_map(edges, vperm, canonical_edges, directed):
    """Edge bijection induced by a vertex relabelling; within a parallel
    bundle edges are matched in input order."""
    pos = {}
    for i, e in enumerate(canonical_edges):
        pos.setdefault(e, []).append(i)
    used = Counter()
    out = []
    for (u, v) in edges:
        a, b = vperm[u], vperm[v]
        if not directed and a > b:
            a, b = b, a
        k = (a, b)
        out.append(pos[k][used[k]])
        used[k] += 1
    return tuple(out)


def edge_orientation_killed(cell, auts) -> bool:
    """True iff some automorphism of ``cell = (weights, edges, marks,
    directed)`` acts with sign -1 on the edge set.  Any parallel bundle (or
    repeated loop) carries an odd swap already.  Without bundles the edge
    sign is a homomorphism, so ``auts`` may be generators."""
    _, edges, _, directed = cell
    cnt = Counter((min(u, v), max(u, v)) for (u, v) in edges)
    if any(c >= 2 for c in cnt.values()):
        return True
    for a in auts:
        em = induced_edge_map(edges, a, edges, directed)
        if perm_parity(em) < 0:
            return True
    return False


def automorphism_count(cell, gens) -> int:
    """Half-edge level automorphism count of ``cell = (weights, edges,
    marks, directed)``: vertex automorphisms (the group ``gens`` generate)
    times the parallel-bundle permutations they leave free, times loop
    flips."""
    weights, edges, _, directed = cell
    if directed:
        bundles = Counter(edges)
        loops = 0
    else:
        bundles = Counter((min(u, v), max(u, v)) for (u, v) in edges)
        loops = sum(1 for (u, v) in edges if u == v)
    bundle_factor = 1
    for c in bundles.values():
        bundle_factor *= factorial(c)
    return len(group_closure(gens, len(weights))) * bundle_factor * (2 ** loops)
