"""Generation of the weight-zero graph catalogs up to isomorphism.

The marked catalog holds connected weight-0 multigraphs of genus ``g`` whose
vertices are at least trivalent counting marking hairs.  The oriented catalog
holds connected acyclic directed weight-0 graphs whose vertices are at least
bivalent, have an outgoing half-edge or marking, and are never passing
(one edge in, one half-edge out).  ``StabilityProfile.admits`` decides both.

One generator serves both flavours in two stages.  First the undirected
cores are grown one edge at a time by canonical augmentation (McKay,
*Isomorph-free exhaustive generation*, 1998), trying one new edge per
automorphism orbit of the parent and keeping a child only when the new edge
is in the orbit of its last canonical edge, so every core isomorphism class
appears exactly once.  Growth is pruned by the marking budget: a graph is
dropped when even the most favourable placement of the edges still to come
leaves its vertices needing more than ``n`` markings, each vertex needing
what the decorators below would give it at its degree (``_core_need``).
Then the cores are decorated: for the oriented flavour each edge is
subdivided, directed forward or directed backward, and for both the
markings are assigned so that each vertex gets at least the hairs
``_min_hairs`` reads off the profile.  Adding hairs never makes a vertex
inadmissible, so every such assignment is stable.  Decorations that an
automorphism of the core (with the permutations of parallel edges) maps
onto one another give the same cell, so only the lexicographically least
of each orbit is canonicalised; the canonical keys remain the guard
against duplicates.  The automorphism generators found while
canonicalising each cell give its kill flag and automorphism order.  A
subdivided edge stands for the bivalent double-outgoing source vertex, so
oriented graphs of every shape arise from small cores.

A cell stays the tuples of its canonical key (``key_tuples``) from
generation through the cache file and back; no ``Graph`` is built on that
path.  Connectivity and the first Betti number come from one union-find,
``graphs._b1_bound``, in core growth, in the spanning forests and in the
cache check.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import zlib
from collections import Counter
from dataclasses import dataclass, field

from .graphs import (Graph, GraphError, StabilityProfile, _acyclic, _b1_bound,
                     _stable, json_text)
from .canonical import (canonicalize, decode_key, group_closure, key_tuples,
                        automorphism_count, edge_orientation_killed, perm_parity)

GENERATOR_VERSION = 1


class ResourceCapExceeded(RuntimeError):
    """Raised when a generator would exceed the requested cell cap."""


@dataclass(slots=True)
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
    strata: dict = field(default_factory=dict)   # degree -> [CatalogEntry]

    @property
    def profile(self) -> StabilityProfile:
        """The stability profile of the flavour."""
        return _PROFILES[self.flavor]

    def degrees(self):
        return sorted(self.strata)

    def total(self):
        return sum(len(v) for v in self.strata.values())

    def entries(self):
        for k in self.degrees():
            yield from self.strata[k]


def _check_pair(g: int, labels) -> tuple:
    if not isinstance(g, int) or g < 0:
        raise GraphError(f"genus must be an integer >= 0, got {g!r}")
    labels = tuple(sorted(int(l) for l in labels))
    if len(set(labels)) != len(labels):
        raise GraphError("marking labels must be distinct")
    if not labels:
        raise GraphError("marking set must be non-empty")
    if 2 * g + len(labels) - 2 <= 0:
        raise GraphError(f"unstable pair: 2*{g}+{len(labels)}-2 <= 0")
    return labels


# -- stage one: cores ----------------------------------------------------------

def connected_cores(nv: int, ne: int, max_b1: int, allow_loops: bool,
                    flavor: str | None = None, budget: int | None = None):
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

    Given a ``flavor`` and a marking ``budget``, a graph is dropped before it
    is canonicalised when every completion with the ``L`` edges still to add
    needs more than ``budget`` markings, as in the degree-bound pruning of
    nauty's geng (McKay & Piperno, 2014).  A vertex of degree ``d`` needs at
    least ``_core_need(flavor, d)`` markings (3, 2, 1, 0 marked and 2, 1, 1,
    0 oriented for ``d`` = 0, 1, 2, 3+), and ``_least_need``, memoised for
    this call only, gives the least total when the ``2L`` half-edges still
    to come are spread in the most favourable way.  The bound never exceeds
    the need of any completion, and a parent's completions include its
    children's, so the augmentation stays complete: the cores returned are
    those of the unpruned call whose vertices need at most ``budget``
    markings together.
    """
    prune = budget is not None
    memo = {}

    def hopeless(edges, left):
        deg = [0] * nv
        for (u, v) in edges:
            deg[u] += 1
            deg[v] += 1
        needy = tuple(sorted(d for d in deg if _core_need(flavor, d)))
        return _least_need(flavor, needy, 2 * left, memo) > budget

    if ne < nv - 1 or prune and hopeless((), ne):
        return []
    if allow_loops:
        pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    else:
        pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    weights = (0,) * nv
    level = [((), canonicalize(weights, (), (), False)[2])]
    for left in range(ne - 1, -1, -1):          # edges still to add after this one
        nxt = []
        for edges, gens in level:
            for e in _pair_orbit_representatives(pairs, gens):
                child = tuple(sorted(edges + (e,)))
                if _b1_bound(nv, child) > max_b1 or prune and hopeless(child, left):
                    continue
                key, vperm, child_gens = canonicalize(weights, child, (), False)
                child_edges = key_tuples(key)[1]
                a, b = sorted((vperm[e[0]], vperm[e[1]]))
                if (a, b) in _pair_orbit(child_edges[-1], child_gens):
                    nxt.append((child_edges, child_gens))
        level = nxt
    out = []
    for edges, gens in sorted(level, key=lambda entry: entry[0]):
        if len(edges) - _b1_bound(nv, edges) == nv - 1:     # connected
            out.append((edges, group_closure(gens, nv)))
    return out


@functools.lru_cache(maxsize=None)
def _core_need(flavor, degree):
    """Fewest markings a decoration of ``flavor`` gives a core vertex of
    ``degree``: the decorator's own minimum, for the oriented flavour at its
    least over the in/out splits of the degree.  Non-increasing in the
    degree and 0 from degree 3 on, for both flavours."""
    profile = _PROFILES[flavor]
    if flavor == "marked":
        return _min_hairs(profile, degree, 0, degree)
    return min(_oriented_min(profile, k, degree - k) for k in range(degree + 1))


def _least_need(flavor, degrees, half_edges, memo):
    """Least total ``_core_need`` of vertices of the sorted ``degrees`` after
    at most ``half_edges`` more half-edges are spread over them, memoised in
    ``memo`` under ``(degrees, half_edges)``, for one ``flavor``.  Vertices
    that need nothing are left out, as more half-edges keep their need 0."""
    if not degrees:
        return 0
    if (degrees, half_edges) in memo:
        return memo[degrees, half_edges]
    d, rest = degrees[0], degrees[1:]
    totals = []
    for x in range(half_edges + 1):
        here = _core_need(flavor, d + x)
        totals.append(here + _least_need(flavor, rest, half_edges - x, memo))
        if not here:
            break       # more half-edges here only take them from the rest
    memo[degrees, half_edges] = least = min(totals)
    return least


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

    try:
        yield from rec(0, total)
    finally:
        del rec     # cut rec's self-reference, so refcounting frees it


def _orbit_minimal(vec, perms):
    for p in perms:
        if tuple(p[v] for v in vec) < vec:
            return False
    return True


# -- decorations ----------------------------------------------------------------------

_PROFILES = {"marked": StabilityProfile.marked(), "oriented": StabilityProfile.oriented()}


def generate_marked(g: int, labels, max_cells: int | None = None) -> GraphCatalog:
    return _generate("marked", g, labels, max_cells)


def generate_oriented(g: int, labels, max_cells: int | None = None) -> GraphCatalog:
    return _generate("oriented", g, labels, max_cells)


def _generate(flavor, g, labels, max_cells):
    labels = _check_pair(g, labels)
    profile = _PROFILES[flavor]
    n = len(labels)
    if flavor == "marked":
        vmax, decorations = max(1, 2 * g - 2 + n), _marked_decorations
    else:
        vmax, decorations = max(1, 2 * g - 2 + 2 * n), _oriented_decorations
    found = {}
    for nv in range(1, vmax + 1):
        for core in connected_cores(nv, nv + g - 1, g, True, flavor, n):
            for key, gens in decorations(nv, core, labels, profile):
                if key not in found:
                    found[key] = gens
                    if max_cells is not None and len(found) > max_cells:
                        raise ResourceCapExceeded(
                            f"{flavor} catalog for (g={g}, n={n}) exceeds {max_cells} cells")
    return _build_catalog(flavor, g, labels,
                          ((key, key_tuples(key), found[key]) for key in sorted(found)))


def _min_hairs(profile, valence, n_in, n_out):
    """Fewest hairs that make a weight-0 vertex admissible under
    ``profile``; a hair counts toward valence and toward the outgoing side.
    Both shipped profiles keep admitting the vertex as hairs are added, so
    every assignment meeting these minima is stable."""
    m = 0
    while not profile.admits(0, valence + m, n_in, n_out + m):
        m += 1
    return m


def _marked_decorations(nv, core, labels, profile):
    edges, auts = core
    val = Counter(itertools.chain.from_iterable(edges))    # edge ends, a loop's two
    minima = [_min_hairs(profile, val[v], 0, val[v]) for v in range(nv)]
    perms = auts[1:]          # auts is sorted, so the identity comes first
    out = []
    weights = (0,) * nv
    for assign in _assignments(nv, len(labels), minima):
        if perms and not _orbit_minimal(assign, perms):
            continue
        marks = tuple(sorted(zip(labels, assign)))
        key, _, gens = canonicalize(weights, edges, marks, False)
        out.append((key, gens))
    return out


def _oriented_min(profile, n_in, n_out):
    """Fewest markings the oriented decorator gives a core vertex with
    ``n_in`` incoming and ``n_out`` outgoing edge ends, the two ends of a
    subdivided edge counting as incoming: ``_min_hairs``, raised to one on a
    bivalent double-outgoing vertex, the shape a subdivided edge stands for
    and is generated as."""
    m = _min_hairs(profile, n_in + n_out, n_in, n_out)
    if m == 0 and n_in == 0 and n_out == 2:
        return 1
    return m


SUB, FWD, BWD = 0, 1, 2
_REVERSED = (SUB, BWD, FWD)      # a choice seen from the edge's other end


def _oriented_decorations(nv, core, labels, profile):
    """Oriented cells over ``core`` as ``(key, automorphism generators)``:
    each edge is subdivided (``SUB``) or directed from its lower end
    (``FWD``) or its higher end (``BWD``), and the markings are assigned
    with at least ``_oriented_min`` at each core vertex.

    Only one ``(choice, assignment)`` pair per orbit of Aut(core), together
    with the permutations inside parallel bundles, is canonicalised: the
    lexicographically least.  So the choices are sorted within each bundle;
    no non-identity automorphism maps the choice vector to a smaller one
    (an edge whose ends it swaps trades ``FWD`` and ``BWD``, and each
    bundle is sorted again); and under the automorphisms that fix the
    choice vector the assignment must be ``_orbit_minimal``.  Pairs in one
    orbit give the same cell, so no cell is lost."""
    edges, auts = core
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
    # the canonical edges are sorted, so a parallel bundle is a run of them
    bundles = []
    for i, e in enumerate(edges):
        if i and edges[i - 1] == e:
            bundles[-1][1].append(i)
        else:
            bundles.append((e, [i]))
    where = {e: b for b, (e, _) in enumerate(bundles)}
    # per non-identity automorphism, the bundle each bundle comes from and
    # whether its ends are swapped, in bundle order
    images = []
    for a in auts[1:]:       # auts is sorted, so the identity comes first
        sources = [None] * len(bundles)
        for (u, v), members in bundles:
            x, y = a[u], a[v]
            sources[where[(x, y) if x <= y else (y, x)]] = (members, x > y)
        images.append((a, sources))
    ind = [0] * nv
    out = [0] * nv
    # per choice, the counters its ends (u, v) raise: only a tail gains out
    counters = {SUB: (ind, ind), FWD: (out, ind), BWD: (ind, out)}
    choice = [SUB] * ne
    results = []

    def rec(i, deficit):
        if deficit > n:
            return
        if i == ne:
            finish()
            return
        (u, v) = edges[i]
        opts = (SUB,) if u == v else (SUB, FWD, BWD)
        if i and edges[i - 1] == edges[i]:
            opts = [c for c in opts if c >= choice[i - 1]]
        for c in opts:
            (at_u, at_v) = counters[c]
            at_u[u] += 1
            at_v[v] += 1
            choice[i] = c
            d = deficit
            for w in finishers[i]:
                d += _oriented_min(profile, ind[w], out[w])
            rec(i + 1, d)
            at_u[u] -= 1
            at_v[v] -= 1

    def finish():
        fixing = []
        for a, sources in images:
            image = []
            for members, swapped in sources:
                image += sorted(_REVERSED[choice[j]] if swapped else choice[j]
                                for j in members)
            if image < choice:
                return
            if image == choice:
                fixing.append(a)
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
        minima = [_oriented_min(profile, ind[v], out[v]) for v in range(nv)]
        weights = (0,) * nv2
        es = tuple(es)
        for assign in _assignments(nv, n, minima):
            if fixing and not _orbit_minimal(assign, fixing):
                continue
            marks = tuple(sorted(zip(labels, assign)))
            key, _, gens = canonicalize(weights, es, marks, True)
            results.append((key, gens))

    rec(0, 0)
    del rec         # cut rec's self-reference, so refcounting frees it
    return results


# -- shared assembly -----------------------------------------------------------------

def _build_catalog(flavor, g, labels, cells):
    """Catalog from ``cells``, triples ``(canonical key, its key_tuples,
    automorphism generators)`` in key order.  The degree is read off the key
    header: the edge count for marked cells, the vertex count for oriented
    ones."""
    strata = {}
    for key, cell, gens in cells:
        deg = key[2] if flavor == "marked" else key[1]
        strata.setdefault(deg, []).append(_entry(flavor, key, cell, gens))
    return GraphCatalog(flavor=flavor, genus=g, labels=labels, strata=strata)


def _entry(flavor, key, cell, gens):
    """Entry for the canonical ``key``, decoded to ``cell``, with
    automorphism generators ``gens``.  Kill flags are read off the
    generators, as both signs are homomorphisms (the edge sign once parallel
    bundles, which kill outright, are ruled out)."""
    if flavor == "marked":
        killed = edge_orientation_killed(cell, gens)
    else:
        killed = any(perm_parity(a) < 0 for a in gens)
    return CatalogEntry(key=key, killed=killed, aut_order=automorphism_count(cell, gens))


# -- spanning forests -----------------------------------------------------------------

def spanning_forests(g: Graph):
    """Edge subsets that are acyclic, cover every vertex, and isolate exactly
    one marking label in each connected component.  Loops never qualify.

    Joining each marking to one extra vertex turns such a forest into a
    spanning tree on ``nv + 1`` vertices, so the forests are the sets of
    ``nv - n`` non-loop edges that close no cycle with those joins."""
    if not g.marks:
        raise GraphError("spanning forests need a marked graph")
    nv = g.n_vertices
    size = nv - len(g.marks)
    if size < 0:
        return []
    joins = [(v, nv) for (_, v) in g.marks]
    nonloop = [i for i in range(g.n_edges) if not g.is_loop(i)]
    return [sub for sub in itertools.combinations(nonloop, size)
            if _b1_bound(nv + 1, joins + [g.edges[i] for i in sub]) == 0]


# -- persistence and cache ----------------------------------------------------------------

def save_catalog(cat: GraphCatalog, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    index = {"flavor": cat.flavor, "genus": cat.genus,
             "labels": list(cat.labels), "version": GENERATOR_VERSION,
             "profile": {"flavor": cat.profile.flavor, "strict": False},
             "strata": {}}
    for deg in cat.degrees():
        files = []
        for i, entry in enumerate(cat.strata[deg]):
            name = f"{cat.flavor}_d{deg:02d}_{i:06d}.json"
            _write_file(os.path.join(path, name), json_text(*key_tuples(entry.key)).encode())
            files.append({"file": name, "killed": entry.killed,
                          "aut_order": entry.aut_order})
        index["strata"][str(deg)] = files
    with open(os.path.join(path, "index.json"), "w") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)


def _write_file(path, data: bytes) -> None:
    """Create or truncate ``path`` and write ``data`` to it, in three system
    calls for a small file."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def load_catalog(path: str) -> GraphCatalog:
    """Read the cache file ``_store`` writes.  The file must hold the whole
    catalog: its keys must match the count and the CRC-32 that ``_store``
    recorded (``_keys_seal``), so a file missing cells, or written without
    the seal, is refused rather than read as a smaller catalog.  Every key
    must be a cell generation could have made: canonical, of the file's
    flavour and labels, connected, weight 0 and of its genus, stable,
    acyclic when directed.
    Degrees, kill flags and |Aut| are recomputed by ``_build_catalog``, as
    for a generated catalog, from the one ``key_tuples`` decoding the checks
    made; connectivity and genus come together from ``_b1_bound``.  The
    labels must pass ``_check_pair``, and an edge end or a marking on a
    vertex past the key's vertex count fails in ``canonicalize``.
    Malformed input raises ``GraphError``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        flavor, g = doc["flavor"], doc["genus"]
        labels = _check_pair(g, doc["labels"])
        profile, directed = _PROFILES[flavor], flavor == "oriented"
        keys = sorted(set(map(bytes.fromhex, doc["keys"])))
        if _keys_seal(doc["keys"]) != {"count": doc["count"], "crc32": doc["crc32"]}:
            raise GraphError(f"catalog at {path} does not hold the {doc['count']} "
                             f"keys it was written with")

        def checked(key):
            cell = key_tuples(key)
            weights, edges, marks, _ = cell
            nv = len(weights)
            canon, _, gens = canonicalize(*cell)
            if (canon != key or key[0] != directed
                    or tuple(l for (l, _) in marks) != labels or any(weights)
                    or not _b1_bound(nv, edges) == g == len(edges) - nv + 1
                    or not _stable(*cell, profile)
                    or directed and not _acyclic(nv, edges)):
                raise GraphError(f"key {key.hex()} is no canonical {flavor} "
                                 f"cell of genus {g} with labels {labels}")
            return key, cell, gens

        return _build_catalog(flavor, g, labels, map(checked, keys))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise GraphError(f"cannot read catalog at {path}: {exc!r}") from exc


def cache_path(flavor: str, g: int, labels) -> str | None:
    """Cache file of a catalog under ``OGCLAB_CACHE``, or None.  The name
    holds the marking labels; the usual labels 1..n are written ``n<n>``."""
    root = os.environ.get("OGCLAB_CACHE")
    if not root:
        return None
    labels = tuple(sorted(int(l) for l in labels))
    if labels == tuple(range(1, len(labels) + 1)):
        marking = f"n{len(labels)}"
    else:
        marking = "l" + "-".join(str(l) for l in labels)
    return os.path.join(root, f"{flavor}_g{g}_{marking}_std_v{GENERATOR_VERSION}.json")


def generate_or_load(flavor: str, g: int, labels,
                     max_cells: int | None = None) -> GraphCatalog:
    """Generate a catalog, reusing its OGCLAB_CACHE file when set.  A cached
    catalog that cannot be read, or that is for other parameters, is
    generated afresh and replaced.  ``max_cells`` caps a loaded catalog as it
    caps a generated one."""
    path = cache_path(flavor, g, labels)
    if path and os.path.exists(path):
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
    cat = gen(g, labels, max_cells=max_cells)
    if path:
        _store(cat, path)
    return cat


def _store(cat: GraphCatalog, path: str) -> None:
    """Write the cache file of ``cat``: its flavour, genus, labels and sorted
    hex keys, sealed by their count and CRC-32 (``_keys_seal``), and nothing
    that ``load_catalog`` recomputes.  The file is written beside ``path``
    and renamed onto it, so ``path`` never holds a partial catalog."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    keys = [key.hex() for key in sorted(e.key for e in cat.entries())]
    doc = {"flavor": cat.flavor, "genus": cat.genus, "labels": list(cat.labels),
           "keys": keys, **_keys_seal(keys)}
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _keys_seal(hex_keys) -> dict:
    """The count of the hex keys ``hex_keys`` and the CRC-32 of them, in
    order and each ended by a newline, as the cache file records them.  Not
    a sha256: importing ``hashlib`` maps OpenSSL and adds about 3.6 MB to
    the peak RSS of every cached run."""
    crc = 0
    for key in hex_keys:
        crc = zlib.crc32(key.encode() + b"\n", crc)
    return {"count": len(hex_keys), "crc32": crc}
