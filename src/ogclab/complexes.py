"""Assembly of the two weight-zero complexes with exact differentials.

The marked complex is graded by edge count and oriented by an ordering of the
edge set; the oriented complex is graded by vertex count and oriented by an
ordering of the vertex set.  Both are stored homologically: the recorded
matrix in degree ``k`` maps degree-``k`` generators to degree-``k-1``
generators by summing admissible edge contractions with signs.  The
cohomological vertex-splitting map is the transpose.

Both differentials run one column loop (``_assemble``) over one admissibility
rule: contract every edge that is neither a loop nor in a parallel bundle
(either would raise a weight), keeping targets that are stable and, for
directed graphs, acyclic.  Only the sign differs between the flavours.  The
loop works on the tuples decoded from each generator's canonical key, tests
stability at the merged vertex and acyclicity by a path search, and labels
each target on the generator's quotient, the generator's other edges and
marks with the edge's two ends merged (``_merging``, the one merge map),
without building the target: the per-vertex colour values (weight, hair
labels, degree) are the generator's but at the merged vertex, and
``canonical._labelling``, the core ``canonicalize`` runs too, refines them
(McKay & Piperno, *Practical graph isomorphism II*, 2014) and searches where
refinement leaves a tie, so the key and the relabelling are
``canonicalize``'s on the contracted graph.  ``graphs.contract_edge``,
``is_acyclic``, ``is_stable`` and ``canonical_form`` are the public
reference it agrees with.  The subdivider-frozen oriented differential, the
one the spanning-forest map commutes with on the nose, is the full one
without the contractions of edges leaving a bivalent unmarked
double-outgoing source; ``_assemble`` emits both from one pass, labelling
each contraction target once and packing each column once, with one tuple
for the two variants where they agree.
Generators carrying an orientation-reversing automorphism are excluded from
the bases, and a contraction onto one of them contributes zero; a target
missing from the catalog altogether raises ``ComplexError``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, GraphError, StabilityProfile, _vertex_data
from .canonical import _labelling, decode_key, key_tuples, perm_parity
from .catalogs import GraphCatalog
from .linalg import SparseIntMatrix, _agreed, _field_ranks, _pack, _random_primes, _with_cols


class ComplexError(RuntimeError):
    """Internal consistency failure while building or checking a complex."""


@dataclass
class GradedComplex:
    """A graded complex with its differentials ``d_k : C_k -> C_{k-1}``.

    The ranks come from one sweep over the degrees in ascending order, run
    on the first ``rank_of_differential`` call with that call's seed.  Each
    rank is checked as by ``check_consensus``: three random primes, jointly
    with a per-prime fallback, against the rational rank, each of the two
    fields, rational and modular, by its own elimination.  Since
    ``d_{k-1} d_k = 0``, each field eliminates ``d_k`` without the rows at
    its own pivot columns of ``d_{k-1}`` (``linalg._field_ranks``).  One
    table keeps each degree's pair of pivot columns: the rank is the
    rational count, and the rational columns serve the completion solve
    (``_pivot_columns``)."""

    flavor: str
    genus: int
    labels: tuple
    basis: dict = field(default_factory=dict)     # degree -> [canonical key]
    diffs: dict = field(default_factory=dict)     # degree -> C_k -> C_{k-1}
    variant: str = "full"
    _index: dict = field(default_factory=dict, repr=False)
    _pivots: dict = field(default_factory=dict, repr=False)   # degree -> (rational, modular)

    @property
    def d_parity(self) -> int:
        return 1 if self.flavor == "oriented" else 0

    def degrees(self):
        return sorted(self.basis)

    def dim(self, k):
        return len(self.basis.get(k, ()))

    def total_dim(self):
        return sum(len(v) for v in self.basis.values())

    def index_of(self, key):
        return self._index.get(key)

    def generator(self, k, i) -> Graph:
        return decode_key(self.basis[k][i])

    def differential(self, k) -> SparseIntMatrix:
        m = self.diffs.get(k)
        if m is None:
            m = SparseIntMatrix(self.dim(k - 1), self.dim(k))
        return m

    def rank_of_differential(self, k, seed=0):
        """Rank of ``d_k``, 0 outside the basis; the first call runs the
        sweep that ranks every degree (see the class docstring)."""
        return len(self._pivot_columns(k, seed))

    def _pivot_columns(self, k, seed=0):
        """The rational elimination's pivot columns of ``d_k`` from the
        sweep, which the first call runs; empty outside the basis."""
        if not self._pivots:
            self._sweep(seed)
        return self._pivots[k][0] if k in self._pivots else ()

    def _sweep(self, seed):
        """Rank every differential in ascending degree, each field dropping
        the rows at its own pivot columns of the differential below; raise
        ``RankError`` on a disagreement, naming the matrix.  The pivot table
        is kept only when every degree agrees, so a later call raises
        again."""
        primes = _random_primes(seed)
        where = f"{self.flavor}(g={self.genus},n={len(self.labels)})"
        pivots, drop = {}, None
        for k in range(min(self.basis), max(self.basis) + 1) if self.basis else ():
            modular, drop = _field_ranks(self.differential(k), primes, drop)
            _agreed(f"{where} d_{k}", modular, len(drop[0]))
            pivots[k] = drop
        self._pivots = pivots


def build_marked_complex(catalog: GraphCatalog) -> GradedComplex:
    """Differential: sum of admissible contractions, the ``i``-th edge with
    the sign ``(-1)^i`` for removing it from the edge order, transported
    through the canonical relabelling."""
    if catalog.flavor != "marked":
        raise ComplexError("build_marked_complex needs a marked catalog")
    (cx,) = _assemble(catalog, ["full"], _edge_order_sign)
    return cx


def build_oriented_complex(catalog: GraphCatalog,
                           contract_subdivider_edges: bool = True) -> GradedComplex:
    """Differential: sum of admissible contractions; the sign moves the
    source and target vertex to the front of the vertex ordering before
    merging them there.

    With ``contract_subdivider_edges=False`` the edges leaving a bivalent
    unmarked double-outgoing source are left uncontracted; those vertices act
    as frozen edge subdivisions.  This sub-differential squares to zero as
    well and is the one the spanning-forest chain map commutes with on the
    nose; the full differential is the default and is what the Betti numbers
    refer to.
    """
    _check_oriented(catalog)
    variant = "full" if contract_subdivider_edges else "subdividers_frozen"
    (cx,) = _assemble(catalog, [variant], _vertex_order_sign)
    return cx


def build_oriented_complexes(catalog: GraphCatalog):
    """The full and the subdivider-frozen oriented complexes, ``(full,
    frozen)``, from one pass over the contractions."""
    _check_oriented(catalog)
    return tuple(_assemble(catalog, ["full", "subdividers_frozen"], _vertex_order_sign))


def _check_oriented(catalog: GraphCatalog) -> None:
    if catalog.flavor != "oriented":
        raise ComplexError("build_oriented_complex needs an oriented catalog")


def _edge_order_sign(edges, e, vertex_map) -> int:
    """``(-1)^e`` for removing edge ``e`` from the edge order, times the
    parity of the edge relabelling that the target's canonical relabelling
    ``vertex_map`` induces, parallel edges matched in order: the parity of
    the stable sort of the other edges' (undirected) images."""
    ends = _merging(len(vertex_map) + 1, *edges[e])
    images = []
    for (u, v) in edges[:e] + edges[e + 1:]:
        a, b = vertex_map[ends[u]], vertex_map[ends[v]]
        images.append((a, b) if a <= b else (b, a))
    return (-1) ** e * perm_parity(sorted(range(len(images)), key=images.__getitem__))


def _vertex_order_sign(edges, e, vertex_map) -> int:
    """Parity of moving the ends ``(a, b)`` of ``e`` to the front, times the
    parity of the canonical relabelling on ``[merged] + rest``.  Moving ``a``
    to the front takes ``a`` transpositions, then ``b`` takes ``b - (b > a)``;
    ``[merged] + rest`` is the identity with ``min(a, b)`` moved to the
    front, so its parity is ``(-1)^min(a, b)`` times that of
    ``vertex_map``."""
    (a, b) = edges[e]
    return (-1) ** (a + b - (b > a) + min(a, b)) * perm_parity(vertex_map)


def _merging(nv, a, b) -> list:
    """The vertex map of contracting the edge ``(a, b)`` of an ``nv``-vertex
    graph, as ``graphs.contract_edge`` numbers the target: the two ends go
    to ``min(a, b)``, and the vertices above ``max(a, b)`` move down one."""
    ends = list(range(nv - 1))
    ends.insert(max(a, b), min(a, b))
    return ends


def _admissible_contractions(g, profile: StabilityProfile):
    """Yield ``(edge, key, vertex_map, subdivider)`` for every contraction
    in the differential of ``g = (weights, edges, marks, directed)``, an
    acyclic stable catalog cell: ``key`` and ``vertex_map`` are what
    ``canonicalize`` gives for the target ``graphs.contract_edge`` makes,
    the relabelling as a list.

    Never a loop or an edge with a parallel partner: either would raise a
    weight.  The target must be stable and, when directed, acyclic, which is
    decided locally.  Only the merged vertex changes its degrees, so it alone
    is tested, read off the generator's tally (``graphs._vertex_data``).
    Contracting ``a -> b`` closes a directed cycle iff another directed path
    leads from ``a`` to ``b``.  ``subdivider`` flags an edge leaving a
    bivalent unmarked double-outgoing source, which the frozen variant
    leaves uncontracted.

    No target is built.  It is labelled on the generator's quotient: the
    generator's other edges and its marks, mapped once through
    ``_merging``, which numbers the quotient as the target is.  The initial
    colour values (weight, hair labels, degree) of the unmerged vertices are
    the generator's, from the same tally; the merged vertex's come from its
    two ends.  ``canonical._labelling`` ranks them, refines them over the
    quotient's incidence, which it builds only when the initial colouring is
    not discrete, and searches when refinement leaves a cell of more than
    one vertex, so the key and the relabelling are ``canonicalize``'s.  A
    merged weight past a byte raises ``GraphError``, as ``canonicalize``
    would."""
    weights, edges, marks, directed = g
    nv = len(weights)
    raw, n_in = _vertex_data(weights, edges, marks, directed)
    succ = [[] for _ in range(nv)]
    bundles = {}
    for (u, v) in edges:
        pair = (u, v) if u <= v else (v, u)
        bundles[pair] = bundles.get(pair, 0) + 1
        if directed:
            succ[u].append(v)
    for e, (a, b) in enumerate(edges):
        if a == b or bundles[(a, b) if a < b else (b, a)] > 1:
            continue
        (wa, ha, da), (wb, hb, db) = raw[a], raw[b]
        w = wa + wb
        if not profile.admits(w, da + db - 2 + len(ha) + len(hb), n_in[a] + n_in[b] - directed):
            continue
        if directed and _reaches(succ, a, b):
            continue
        lo, hi = (a, b) if a < b else (b, a)
        if w > 255:
            raise GraphError("graph does not fit the byte encoding")
        ends = _merging(nv, a, b)
        traw = raw[:hi] + raw[hi + 1:]
        traw[lo] = (w, tuple(sorted(ha + hb)), da + db - 2)
        key, vertex_map, _ = _labelling(
            traw, [r[0] for r in traw],
            [(ends[u], ends[v]) for (u, v) in edges[:e] + edges[e + 1:]],
            [(l, ends[v]) for (l, v) in marks], directed)
        subdivider = directed and not ha and n_in[a] == 0 and da == 2
        yield e, key, vertex_map, subdivider


def _reaches(succ, a, b) -> bool:
    """Whether a directed path of length at least two leads from ``a`` to
    ``b``, for ``a -> b`` an edge without a parallel partner."""
    seen = [False] * len(succ)
    stack = [c for c in succ[a] if c != b]
    while stack:
        u = stack.pop()
        if u == b:
            return True
        if not seen[u]:
            seen[u] = True
            stack.extend(succ[u])
    return False


def _assemble(catalog: GraphCatalog, variants, sign) -> list:
    """The one column loop behind both complexes, returning one complex per
    name in ``variants``.  The column of generator ``g`` in degree ``k``
    sums ``sign(edges, e, vertex_map)`` over the admissible contractions of
    ``g``, ``vertex_map`` being the canonical relabelling of the target;
    each contraction is labelled once, on the generator's quotient (see
    ``_admissible_contractions``), and a ``subdividers_frozen`` variant
    skips the subdivider edges.  Each column is summed in a dict and packed
    once; the full and the frozen column share one tuple when no
    subdivider edge contributes.  A target with an orientation-reversing
    automorphism is zero; one missing from the catalog means the catalog is
    not closed under contraction, and raises."""
    basis, index, killed = {}, {}, set()
    for deg in catalog.degrees():
        basis[deg] = [e.key for e in catalog.strata[deg] if not e.killed]
        killed.update(e.key for e in catalog.strata[deg] if e.killed)
        index.update((key, (deg, i)) for i, key in enumerate(basis[deg]))
    cxs = [GradedComplex(flavor=catalog.flavor, genus=catalog.genus,
                         labels=catalog.labels, basis=basis,
                         variant=variant, _index=index) for variant in variants]
    where = f"{catalog.flavor}(g={catalog.genus},n={len(catalog.labels)})"
    unfrozen = [v for v in variants if v != "subdividers_frozen"]
    for k in sorted(basis):
        cols = {v: [] for v in variants}
        for col, key in enumerate(basis[k]):
            g = key_tuples(key)
            kept, extra = {}, {}      # subdivider terms go to extra
            for e, tkey, vertex_map, subdivider in _admissible_contractions(
                    g, catalog.profile):
                if subdivider and not unfrozen:
                    continue
                pos = index.get(tkey)
                if pos is None:
                    if tkey in killed:
                        continue
                    takers = unfrozen if subdivider else variants
                    raise ComplexError(
                        f"{where} degree {k} ({', '.join(takers)}): contracting "
                        f"edge {e} of generator {col} ({decode_key(key)!r}) gives "
                        f"{decode_key(tkey)!r}, which is not in the catalog")
                (kk, row) = pos
                if kk != k - 1:
                    raise ComplexError("contraction changed the degree by != 1")
                acc = extra if subdivider else kept
                acc[row] = acc.get(row, 0) + sign(g[1], e, vertex_map)
            frozen = _pack(kept)
            if extra:
                for row, s in extra.items():
                    kept[row] = kept.get(row, 0) + s
            full = _pack(kept) if extra else frozen
            for v in variants:
                cols[v].append(frozen if v == "subdividers_frozen" else full)
        for cx in cxs:
            cx.diffs[k] = _with_cols(len(basis.get(k - 1, ())), len(basis[k]),
                                     cols[cx.variant])
    for cx in cxs:
        _check_d_squared(cx)
    return cxs


def _named(cx: GradedComplex) -> str:
    return f"{cx.flavor}(g={cx.genus},n={len(cx.labels)}) ({cx.variant})"


def _check_d_squared(cx: GradedComplex) -> None:
    for k in cx.degrees():
        if k - 1 not in cx.diffs:
            continue
        prod = cx.diffs[k - 1] * cx.diffs[k]
        if not prod.is_zero():
            (i, j) = sorted(prod.entries)[0]
            raise ComplexError(
                f"d^2 != 0 in {_named(cx)} at degree {k}: generator {j} hits "
                f"degree-{k - 2} generator {i} with coefficient {prod.entries[(i, j)]}")


# -- Betti tables ----------------------------------------------------------------

def hc_degree(cell_degree: int, g: int, n: int, d_parity: int) -> int:
    """Compactly-supported cohomological degree for a cell degree, using the
    grading normalisation ``cell = hc + g(1-d) - n``."""
    return cell_degree - g * (1 - d_parity) + n


@dataclass
class BettiTable:
    flavor: str
    genus: int
    labels: tuple
    dims: dict
    betti: dict

    @property
    def d_parity(self) -> int:
        return 1 if self.flavor == "oriented" else 0

    def rows(self):
        n = len(self.labels)
        for k in sorted(self.dims):
            yield {"flavor": self.flavor, "g": self.genus, "n": n,
                   "cell_degree": k,
                   "hc_degree": hc_degree(k, self.genus, n, self.d_parity),
                   "dim_basis": self.dims[k], "betti": self.betti[k]}

    def euler_from_dims(self):
        return sum((-1) ** k * d for k, d in self.dims.items())

    def euler_from_betti(self):
        return sum((-1) ** k * b for k, b in self.betti.items())


def betti(cx: GradedComplex, seed: int = 0) -> BettiTable:
    """Betti numbers ``dim_k - rank d_k - rank d_{k+1}`` with the modular and
    rational rank pipelines cross-checked on every matrix.  The ranks come
    from the complex's one ascending sweep, in which each field eliminates
    ``d_{k+1}`` without the rows at its own pivot columns of ``d_k``:
    ``d_k d_{k+1} = 0`` puts the columns of ``d_{k+1}`` in ``ker d_k``, where
    those coordinates are fixed by the others, so the rank is kept."""
    dims = {k: cx.dim(k) for k in cx.degrees()}
    table = {}
    for k in cx.degrees():
        r_in = cx.rank_of_differential(k, seed=seed)
        r_out = cx.rank_of_differential(k + 1, seed=seed)
        table[k] = dims[k] - r_in - r_out
        if table[k] < 0:
            raise ComplexError(f"negative Betti number in {_named(cx)} at degree {k}")
    return BettiTable(flavor=cx.flavor, genus=cx.genus, labels=cx.labels,
                      dims=dims, betti=table)


def euler_characteristic(cx: GradedComplex, table: BettiTable | None = None,
                         seed: int = 0):
    """Euler characteristic computed from dimensions and from Betti numbers;
    raises on mismatch, which would signal a rank or sign bug."""
    if table is None:
        table = betti(cx, seed=seed)
    chi_dim = table.euler_from_dims()
    chi_betti = table.euler_from_betti()
    if chi_dim != chi_betti:
        raise ComplexError(f"Euler mismatch in {_named(cx)}: {chi_dim} vs {chi_betti}")
    return chi_dim, chi_betti


def betti_shift_matches(marked_table: BettiTable, oriented_table: BettiTable) -> bool:
    """The dictionary between the two gradings: an oriented cell degree is a
    marked cell degree plus the number of markings."""
    n = len(marked_table.labels)
    keys = set(marked_table.betti) | {k - n for k in oriented_table.betti}
    return all(marked_table.betti.get(k, 0) == oriented_table.betti.get(k + n, 0)
               for k in keys)
