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
case for labelled catalog graphs) is a single leaf and skips the search.
"""
from __future__ import annotations

from collections import Counter
from math import factorial

from .graphs import Graph, GraphError


def perm_parity(seq) -> int:
    """Sign of the permutation given as the image sequence of 0..n-1."""
    seq = list(seq)
    n = len(seq)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        c = 0
        while not seen[j]:
            seen[j] = True
            j = seq[j]
            c += 1
        if c % 2 == 0:
            sign = -sign
    return sign


# -- byte keys ----------------------------------------------------------------

def encode_key(weights, edges, marks, directed) -> bytes:
    """Byte key of a graph given as tuples; ``canonicalize`` checks that its
    values fit in a byte."""
    out = bytearray([1 if directed else 0, len(weights), len(edges), len(marks)])
    out += bytes(weights)
    for (u, v) in edges:
        out.append(u)
        out.append(v)
    for (l, v) in marks:
        out.append(l)
        out.append(v)
    return bytes(out)


def key_tuples(key: bytes):
    """``(weights, edges, marks, directed)`` of a key, as tuples."""
    nv, ne, nm = key[1], key[2], key[3]
    e0 = 4 + nv
    # a list, not tuple(zip(...)), which raised the peak RSS of
    # `enumerate -g 1 -n 4` by about 0.7 MB
    pairs = [(key[i], key[i + 1]) for i in range(e0, e0 + 2 * (ne + nm), 2)]
    return tuple(key[4:e0]), tuple(pairs[:ne]), tuple(pairs[ne:]), bool(key[0])


def decode_key(key: bytes) -> Graph:
    return Graph(*key_tuples(key))


def _encoded(weights, edges, marks, perm, directed):
    nv = len(weights)
    w = [0] * nv
    for v in range(nv):
        w[perm[v]] = weights[v]
    es = []
    for (u, v) in edges:
        a, b = perm[u], perm[v]
        if not directed and a > b:
            a, b = b, a
        es.append((a, b))
    es.sort()
    ms = sorted((l, perm[v]) for (l, v) in marks)
    return encode_key(w, es, ms, directed)


# -- refinement + search -------------------------------------------------------

def _refine(nv, inc, colors):
    while True:
        nclasses = len(set(colors))
        if nclasses == nv:
            return colors
        sigs = []
        for v in range(nv):
            row = sorted(d + 2 * colors[w] for (d, w) in inc[v])
            row.insert(0, colors[v])
            sigs.append(tuple(row))
        ren = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ren[s] for s in sigs]
        if len(set(new)) == nclasses:
            return colors
        colors = new


def canonicalize(weights, edges, marks, directed):
    """Return ``(key, vperm, gens)``: canonical byte key, the relabelling
    old->canonical, and generators of the vertex automorphism group in
    canonical coordinates (``group_closure`` expands them)."""
    nv = len(weights)
    if nv == 0:
        raise GraphError("empty vertex set")
    # relabelling permutes these values, so one check covers every leaf
    if nv > 255 or len(edges) > 127 or max(weights) > 255 \
            or any(l > 255 for (l, _) in marks):
        raise GraphError("graph too large for the byte encoding")
    inc = [[] for _ in range(nv)]
    for (u, v) in edges:
        if directed:
            inc[u].append((0, v))
            inc[v].append((1, u))
        else:
            inc[u].append((0, v))
            inc[v].append((0, u))
    hairs = [[] for _ in range(nv)]
    for (l, v) in sorted(marks):
        hairs[v].append(l)
    deg = [len(inc[v]) for v in range(nv)]
    raw = [(weights[v], tuple(hairs[v]), deg[v]) for v in range(nv)]
    ren = {s: i for i, s in enumerate(sorted(set(raw)))}
    colors = _refine(nv, inc, [ren[s] for s in raw])
    if len(set(colors)) == nv:
        # discrete at the root: the search tree is a single leaf
        return _encoded(weights, edges, marks, colors, directed), tuple(colors), ()
    key, perm0, gens = _search(
        nv, inc, colors, lambda perm: _encoded(weights, edges, marks, perm, directed))
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
    ``gens`` generate the vertex automorphisms of the canonical graph and
    ``auts`` lists them all.
    """
    __slots__ = ("key", "vertex_map", "gens", "_auts", "_graph", "_edge_map", "_src")

    def __init__(self, src: Graph):
        key, vperm, gens = canonicalize(src.weights, src.edges, src.marks, src.directed)
        self.key = key
        self.vertex_map = vperm
        self.gens = gens
        self._auts = None
        self._src = src
        self._graph = None
        self._edge_map = None

    @property
    def auts(self):
        if self._auts is None:
            self._auts = group_closure(self.gens, len(self.vertex_map))
        return self._auts

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
        return automorphism_count(self.graph, self.gens)


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


def edge_orientation_killed(g: Graph, auts) -> bool:
    """True iff some automorphism acts with sign -1 on the edge set.  Any
    parallel bundle (or repeated loop) carries an odd swap already.  Without
    bundles the edge sign is a homomorphism, so ``auts`` may be generators."""
    cnt = Counter((min(u, v), max(u, v)) for (u, v) in g.edges)
    if any(c >= 2 for c in cnt.values()):
        return True
    for a in auts:
        em = induced_edge_map(g.edges, a, g.edges, g.directed)
        if perm_parity(em) < 0:
            return True
    return False


def automorphism_count(g: Graph, gens) -> int:
    """Half-edge level automorphism count: vertex automorphisms (the group
    ``gens`` generate) times the parallel-bundle permutations they leave
    free, times loop flips."""
    if g.directed:
        bundles = Counter(g.edges)
        loops = 0
    else:
        bundles = Counter((min(u, v), max(u, v)) for (u, v) in g.edges)
        loops = sum(1 for (u, v) in g.edges if u == v)
    bundle_factor = 1
    for c in bundles.values():
        bundle_factor *= factorial(c)
    return len(group_closure(gens, g.n_vertices)) * bundle_factor * (2 ** loops)
