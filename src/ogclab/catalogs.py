"""Generation of the weight-zero graph catalogs up to isomorphism.

The marked catalog holds connected weight-0 multigraphs of genus ``g`` whose
vertices are at least trivalent counting marking hairs.  The oriented catalog
holds connected acyclic directed weight-0 graphs whose vertices are at least
bivalent, have an outgoing half-edge or marking, and are never passing
(one edge in, one half-edge out).

Both generators share a two-stage strategy: first the undirected cores are
grown one edge at a time by canonical augmentation (McKay, *Isomorph-free
exhaustive generation*, 1998), trying one new edge per automorphism orbit of
the parent and keeping a child only when the new edge is in the orbit of its
last canonical edge, so every core isomorphism class appears exactly once;
then hair assignments (and, for the oriented flavour, per-edge
subdivide/forward/backward decorations) are enumerated with deficit pruning
and deduplicated through canonical keys.  The automorphism generators found
while canonicalising each cell give its kill flag and automorphism order.
A subdivided edge stands for the bivalent double-outgoing source vertex, so
oriented graphs of every shape arise from small cores.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass, field

from .graphs import (Graph, GraphError, StabilityProfile, is_connected, is_stable,
                     graph_from_json, graph_to_json)
from .canonical import (canonicalize, decode_key, group_closure, key_tuples,
                        automorphism_count, edge_orientation_killed, perm_parity)

GENERATOR_VERSION = 1


class ResourceCapExceeded(RuntimeError):
    """Raised when a generator would exceed the requested cell cap."""


@dataclass
class CatalogEntry:
    key: bytes
    killed: bool
    aut_order: int

    @property
    def graph(self) -> Graph:
        return decode_key(self.key)


@dataclass
class GraphCatalog:
    flavor: str
    genus: int
    labels: tuple
    profile: StabilityProfile
    strata: dict = field(default_factory=dict)   # degree -> [CatalogEntry]
    version: int = GENERATOR_VERSION

    def degrees(self):
        return sorted(self.strata)

    def total(self):
        return sum(len(v) for v in self.strata.values())

    def entries(self):
        for k in self.degrees():
            yield from self.strata[k]


def _check_pair(g: int, labels) -> tuple:
    labels = tuple(sorted(int(l) for l in labels))
    if len(set(labels)) != len(labels):
        raise GraphError("marking labels must be distinct")
    if not labels:
        raise GraphError("marking set must be non-empty")
    if 2 * g + len(labels) - 2 <= 0:
        raise GraphError(f"unstable pair: 2*{g}+{len(labels)}-2 <= 0")
    return labels


# -- stage one: cores ----------------------------------------------------------

_core_cache = {}


def connected_cores(nv: int, ne: int, max_b1: int, allow_loops: bool):
    """Isomorphism classes of connected multigraphs with ``nv`` vertices and
    ``ne`` edges whose first Betti number is at most ``max_b1``, each as
    ``(canonical edges, full vertex automorphism group)``.

    Grown one edge at a time by canonical augmentation.  Each level holds
    one canonical graph per isomorphism class with generators of its
    automorphism group.  From a parent ``P`` one candidate edge is tried per
    orbit of ``Aut(P)`` on vertex pairs, and the child ``P+e`` is accepted
    iff ``e``, mapped through the child's canonical relabelling, lies in the
    orbit of the child's last canonical edge under ``Aut(P+e)``.  A class is
    therefore produced exactly once, from the class of itself minus its last
    canonical edge, at one canonicalisation per candidate.
    """
    cache_key = (nv, ne, max_b1, allow_loops)
    hit = _core_cache.get(cache_key)
    if hit is not None:
        return hit
    if ne < nv - 1:
        _core_cache[cache_key] = []
        return []
    if allow_loops:
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    else:
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    weights = (0,) * nv
    level = [((), canonicalize(weights, (), (), False)[2])]
    for _ in range(ne):
        nxt = []
        for edges, gens in level:
            for e in _pair_orbit_representatives(pairs, gens):
                child = tuple(sorted(edges + (e,)))
                if _b1_bound(nv, child) > max_b1:
                    continue
                key, vperm, child_gens = canonicalize(weights, child, (), False)
                child_edges = decode_key(key).edges
                a, b = sorted((vperm[e[0]], vperm[e[1]]))
                if (a, b) in _pair_orbit(child_edges[-1], child_gens):
                    nxt.append((child_edges, child_gens))
        level = nxt
    out = []
    for edges, gens in sorted(level, key=lambda entry: entry[0]):
        if is_connected(Graph(weights, edges)):
            out.append((edges, group_closure(gens, nv)))
    _core_cache[cache_key] = out
    return out


def _pair_orbit_representatives(pairs, gens):
    """The first pair of ``pairs`` in each orbit of the group ``gens``
    generate, in order."""
    seen = set()
    reps = []
    for p in pairs:
        if p not in seen:
            reps.append(p)
            seen |= _pair_orbit(p, gens)
    return reps


def _pair_orbit(pair, gens):
    orbit = {pair}
    frontier = [pair]
    while frontier:
        (i, j) = frontier.pop()
        for g in gens:
            a, b = g[i], g[j]
            q = (a, b) if a <= b else (b, a)
            if q not in orbit:
                orbit.add(q)
                frontier.append(q)
    return orbit


def _b1_bound(nv, edges):
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


# -- hair assignment enumeration -------------------------------------------------

def _assignments(nv, nlabels, minima):
    """All tuples ``assign[k] = vertex`` with per-vertex minima satisfied."""
    total = sum(minima)
    if total > nlabels:
        return
    assign = [0] * nlabels
    needs = list(minima)

    def rec(k, tot):
        if tot > nlabels - k:
            return
        if k == nlabels:
            yield tuple(assign)
            return
        for v in range(nv):
            d = 1 if needs[v] > 0 else 0
            if d:
                needs[v] -= 1
            assign[k] = v
            yield from rec(k + 1, tot - d)
            if d:
                needs[v] += 1

    yield from rec(0, total)


def _orbit_minimal(vec, perms):
    for p in perms:
        if tuple(p[v] for v in vec) < vec:
            return False
    return True


# -- marked catalog ---------------------------------------------------------------

def generate_marked(g: int, labels, profile: StabilityProfile | None = None,
                    max_cells: int | None = None) -> GraphCatalog:
    labels = _check_pair(g, labels)
    if profile is None:
        profile = StabilityProfile.marked()
    n = len(labels)
    found = {}
    vmax = max(1, 2 * g - 2 + n)
    for nv in range(1, vmax + 1):
        ne = nv + g - 1
        cores = connected_cores(nv, ne, g, allow_loops=True)
        for core in cores:
            for key, gens in _marked_decorations(core, labels, profile):
                if key not in found:
                    found[key] = gens
                    if max_cells is not None and len(found) > max_cells:
                        raise ResourceCapExceeded(
                            f"marked catalog for (g={g}, n={n}) exceeds {max_cells} cells")
    return _build_catalog("marked", g, labels, profile, found)


def _marked_decorations(core, labels, profile):
    edges, auts = core
    nv = max((max(u, v) for (u, v) in edges), default=-1) + 1 if edges else 1
    n = len(labels)
    deg = [0] * nv
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    minima = [max(0, 3 - deg[v]) for v in range(nv)]
    perms = [a for a in auts if any(a[i] != i for i in range(nv))]
    out = []
    weights = (0,) * nv
    for assign in _assignments(nv, n, minima):
        if perms and not _orbit_minimal(assign, perms):
            continue
        marks = tuple(sorted(zip(labels, assign)))
        graph = Graph(weights, edges, marks)
        if not is_stable(graph, profile):
            continue
        key, _, gens = canonicalize(weights, edges, marks, False)
        out.append((key, gens))
    return out


# -- oriented catalog ---------------------------------------------------------------

SUB, FWD, BWD = 0, 1, 2


def generate_oriented(g: int, labels, profile: StabilityProfile | None = None,
                      max_cells: int | None = None) -> GraphCatalog:
    labels = _check_pair(g, labels)
    if profile is None:
        profile = StabilityProfile.oriented()
    n = len(labels)
    found = {}
    vamax = max(1, 2 * g - 2 + 2 * n)
    for nv in range(1, vamax + 1):
        ne = nv + g - 1
        cores = connected_cores(nv, ne, g, allow_loops=True)
        for core in cores:
            for key, gens in _oriented_decorations(core, labels, profile):
                if key not in found:
                    found[key] = gens
                    if max_cells is not None and len(found) > max_cells:
                        raise ResourceCapExceeded(
                            f"oriented catalog for (g={g}, n={n}) exceeds {max_cells} cells")
    return _build_catalog("oriented", g, labels, profile, found)


def _min_hairs(ind, out):
    """Smallest hair count keeping a weight-0 vertex admissible; stability is
    monotone in the hair count."""
    for m in range(0, 32):
        val = ind + out + m
        n_out = out + m
        if val >= 2 and n_out >= 1 and not (ind == 1 and n_out == 1):
            return m
    raise GraphError("unreachable hair bound")


def _oriented_decorations(core, labels, profile):
    edges, auts = core
    nv = max((max(u, v) for (u, v) in edges), default=-1) + 1 if edges else 1
    n = len(labels)
    ne = len(edges)
    # vertex v is complete once every incident edge has been decided
    last_touch = [0] * nv
    for i, (u, v) in enumerate(edges):
        last_touch[u] = i
        last_touch[v] = i
    finishers = [[] for _ in range(ne)] or [[]]
    for v in range(nv):
        if ne:
            finishers[last_touch[v]].append(v)
    ind = [0] * nv
    out = [0] * nv
    choice = [SUB] * ne
    results = []
    weights_core = (0,) * nv

    def profile_min(v):
        m = _min_hairs(ind[v], out[v])
        if m == 0 and ind[v] == 0 and out[v] == 2:
            # identical to a subdivided edge; that shape is generated there
            m = 1
        return m

    def rec(i, deficit):
        if deficit > n:
            return
        if i == ne:
            finish(deficit)
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
            ok = True
            for w in finishers[i]:
                m = profile_min(w)
                if m > n:
                    ok = False
                d += m
            if ok:
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

    def finish(deficit):
        if not _directed_part_acyclic():
            return
        minima = [profile_min(v) for v in range(nv)]
        if sum(minima) > n:
            return
        es = []
        nv2 = nv
        for i, (u, v) in enumerate(edges):
            c = choice[i]
            if c == SUB:
                s = nv2
                nv2 += 1
                es.append((s, u))
                es.append((s, v))
            elif c == FWD:
                es.append((u, v))
            else:
                es.append((v, u))
        weights = (0,) * nv2
        for assign in _assignments(nv, n, minima):
            marks = tuple(sorted(zip(labels, assign)))
            graph = Graph(weights, es, marks, directed=True)
            if not is_stable(graph, profile):
                continue
            key, _, gens = canonicalize(weights, tuple(es), marks, True)
            results.append((key, gens))

    def _directed_part_acyclic():
        indeg = [0] * nv
        adj = [[] for _ in range(nv)]
        for i, (u, v) in enumerate(edges):
            c = choice[i]
            if c == FWD:
                adj[u].append(v)
                indeg[v] += 1
            elif c == BWD:
                adj[v].append(u)
                indeg[u] += 1
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

    if ne == 0:
        finish(0)
    else:
        rec(0, 0)
    return results


# -- shared assembly -----------------------------------------------------------------

def _build_catalog(flavor, g, labels, profile, found):
    """Catalog from ``found``: canonical key -> automorphism generators."""
    strata = {}
    for key in sorted(found):
        graph = decode_key(key)
        deg = graph.n_edges if flavor == "marked" else graph.n_vertices
        strata.setdefault(deg, []).append(_entry(flavor, key, graph, found[key]))
    return GraphCatalog(flavor=flavor, genus=g, labels=labels,
                        profile=profile, strata=strata)


def _entry(flavor, key, graph, gens):
    """Entry for the canonical ``graph`` with automorphism generators
    ``gens``.  Kill flags are read off the generators, as both signs are
    homomorphisms (the edge sign once parallel bundles, which kill outright,
    are ruled out)."""
    if flavor == "marked":
        killed = edge_orientation_killed(graph, gens)
    else:
        killed = any(perm_parity(a) < 0 for a in gens)
    return CatalogEntry(key=key, killed=killed, aut_order=automorphism_count(graph, gens))


# -- spanning forests -----------------------------------------------------------------

def spanning_forests(g: Graph):
    """Edge subsets that are acyclic, cover every vertex, and isolate exactly
    one marking label in each connected component.  Loops never qualify."""
    if not g.marks:
        raise GraphError("spanning forests need a marked graph")
    nv = g.n_vertices
    nonloop = [i for i in range(g.n_edges) if not g.is_loop(i)]
    res = []
    for r in range(0, nv):
        for sub in itertools.combinations(nonloop, r):
            parent = list(range(nv))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for i in sub:
                (u, v) = g.edges[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
            if not ok:
                continue
            counts = {}
            for (_, v) in g.marks:
                root = find(v)
                counts[root] = counts.get(root, 0) + 1
            roots = {find(v) for v in range(nv)}
            if all(counts.get(r, 0) == 1 for r in roots):
                res.append(tuple(sub))
    return res


# -- persistence and cache ----------------------------------------------------------------

def save_catalog(cat: GraphCatalog, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    index = {"flavor": cat.flavor, "genus": cat.genus,
             "labels": list(cat.labels), "version": cat.version,
             "profile": {"flavor": cat.profile.flavor,
                         "strict": cat.profile.require_marking_everywhere},
             "strata": {}}
    for deg in cat.degrees():
        files = []
        for i, entry in enumerate(cat.strata[deg]):
            name = f"{cat.flavor}_d{deg:02d}_{i:06d}.json"
            with open(os.path.join(path, name), "w") as fh:
                fh.write(graph_to_json(entry.graph))
            files.append({"file": name, "killed": entry.killed,
                          "aut_order": entry.aut_order})
        index["strata"][str(deg)] = files
    with open(os.path.join(path, "index.json"), "w") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)


def load_catalog(path: str) -> GraphCatalog:
    try:
        with open(os.path.join(path, "index.json")) as fh:
            index = json.load(fh)
        flavor = index["flavor"]
        profile = (StabilityProfile.marked() if flavor == "marked"
                   else StabilityProfile.oriented(strict=index["profile"].get("strict", False)))
        cat = GraphCatalog(flavor=flavor, genus=index["genus"],
                           labels=tuple(index["labels"]), profile=profile,
                           version=index.get("version", 0))
        strata = sorted(
            (int(deg_s), [(rec["file"], rec["killed"], rec["aut_order"]) for rec in files])
            for deg_s, files in index["strata"].items())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise GraphError(f"cannot read catalog index at {path}: {exc!r}") from exc
    for deg, files in strata:
        entries = []
        for name, killed, aut_order in files:
            fp = os.path.join(path, name)
            try:
                with open(fp) as fh:
                    graph = graph_from_json(fh.read())
            except OSError as exc:
                raise GraphError(f"catalog file missing: {fp}") from exc
            if graph.directed != (flavor == "oriented"):
                # the JSON form keeps direction on edges only
                if graph.n_edges:
                    raise GraphError(f"edge direction of {fp} disagrees with "
                                     f"the {flavor} catalog")
                graph = Graph(graph.weights, (), graph.marks, directed=True)
            key, _, gens = canonicalize(graph.weights, graph.edges, graph.marks,
                                        graph.directed)
            # graph_from_json checked connectivity, so this is the genus
            cell_genus = graph.n_edges - graph.n_vertices + 1 + sum(graph.weights)
            if cell_genus != cat.genus or not is_stable(graph, profile):
                raise GraphError(f"catalog file violates invariants: {fp}")
            # save_catalog writes the canonical graph, which need not be rebuilt
            canon = graph if graph.key() == key_tuples(key) else decode_key(key)
            entry = _entry(flavor, key, canon, gens)
            if (entry.killed, entry.aut_order) != (killed, aut_order):
                raise GraphError(f"index disagrees with the automorphisms of {fp}")
            entries.append(entry)
        keys = [e.key for e in entries]
        if keys != sorted(keys):
            entries.sort(key=lambda e: e.key)
        cat.strata[deg] = entries
    return cat


def cache_path(flavor: str, g: int, labels, profile: StabilityProfile) -> str | None:
    """Cache directory for a catalog under ``OGCLAB_CACHE``, or None.  The
    name holds the marking labels; the usual labels 1..n are written ``n<n>``."""
    root = os.environ.get("OGCLAB_CACHE")
    if not root:
        return None
    labels = tuple(sorted(int(l) for l in labels))
    if labels == tuple(range(1, len(labels) + 1)):
        marking = f"n{len(labels)}"
    else:
        marking = "l" + "-".join(str(l) for l in labels)
    strict = "strict" if profile.require_marking_everywhere else "std"
    name = f"{flavor}_g{g}_{marking}_{strict}_v{GENERATOR_VERSION}"
    return os.path.join(root, name)


def generate_or_load(flavor: str, g: int, labels,
                     profile: StabilityProfile | None = None,
                     max_cells: int | None = None) -> GraphCatalog:
    """Generate a catalog, reusing the OGCLAB_CACHE directory when set.  A
    cached catalog that cannot be read, or that is for other parameters, is
    generated afresh and replaced.  ``max_cells`` caps a loaded catalog as it
    caps a generated one."""
    if profile is None:
        profile = (StabilityProfile.marked() if flavor == "marked"
                   else StabilityProfile.oriented())
    path = cache_path(flavor, g, labels, profile)
    if path and os.path.isdir(path):
        try:
            cat = load_catalog(path)
        except GraphError:
            pass        # unreadable or partial: generated again below
        else:
            if (cat.flavor, cat.genus, cat.labels) == (flavor, g, _check_pair(g, labels)):
                if max_cells is not None and cat.total() > max_cells:
                    raise ResourceCapExceeded(
                        f"{flavor} catalog for (g={g}, n={len(cat.labels)}) "
                        f"exceeds {max_cells} cells")
                return cat
    gen = generate_marked if flavor == "marked" else generate_oriented
    cat = gen(g, labels, profile, max_cells=max_cells)
    if path:
        _store(cat, path)
    return cat


def _store(cat: GraphCatalog, path: str) -> None:
    """Write ``cat`` to a temporary directory beside ``path`` and rename it
    into place, so ``path`` never holds a partial catalog."""
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        save_catalog(cat, tmp)
        shutil.rmtree(path, ignore_errors=True)
        # fails only when a concurrent run has put its own copy there first
        with contextlib.suppress(OSError):
            os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
