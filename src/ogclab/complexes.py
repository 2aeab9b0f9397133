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
stability at the merged vertex and acyclicity by a path search, and hands
the contracted tuples straight to ``canonicalize``; ``graphs.contract_edge``,
``is_acyclic`` and ``is_stable`` are the public reference it agrees with.
The subdivider-frozen oriented differential, the one the spanning-forest map
commutes with on the nose, is the full one without the contractions of edges
leaving a bivalent unmarked double-outgoing source; ``_assemble`` emits both
from one pass, canonicalising each contraction target once.
Generators carrying an orientation-reversing automorphism are excluded from
the bases, and a contraction onto one of them contributes zero; a target
missing from the catalog altogether raises ``ComplexError``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, StabilityProfile
from .canonical import canonicalize, decode_key, induced_edge_map, key_tuples, perm_parity
from .catalogs import GraphCatalog
from .linalg import SparseIntMatrix, _agreed, _field_ranks, _random_primes


class ComplexError(RuntimeError):
    """Internal consistency failure while building or checking a complex."""


@dataclass
class GradedComplex:
    """A graded complex with its differentials ``d_k : C_k -> C_{k-1}``.

    The ranks come from one sweep over the degrees in ascending order, run
    on the first ``rank_of_differential`` call with that call's seed.  Each
    rank is checked as by ``check_consensus``: three random primes, jointly
    with a per-prime fallback, against the rational rank, every field by
    its own elimination.  Since ``d_{k-1} d_k = 0``, each field eliminates
    ``d_k`` without the rows at its own pivot columns of ``d_{k-1}``
    (``linalg._field_ranks``), and the rational pivot columns of each
    degree are kept for the completion solve (``_pivot_columns``)."""

    flavor: str
    genus: int
    labels: tuple
    d_parity: int
    basis: dict = field(default_factory=dict)     # degree -> [canonical key]
    diffs: dict = field(default_factory=dict)     # degree -> C_k -> C_{k-1}
    variant: str = "full"
    _index: dict = field(default_factory=dict, repr=False)
    _ranks: dict = field(default_factory=dict, repr=False)
    _pivots: dict = field(default_factory=dict, repr=False)   # degree -> rational Q

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
        if not self._ranks:
            self._sweep(seed)
        return self._ranks.get(k, 0)

    def _pivot_columns(self, k):
        """The rational elimination's pivot columns of ``d_k`` from the
        sweep, empty outside the basis."""
        self.rank_of_differential(k)
        return self._pivots.get(k, ())

    def _sweep(self, seed):
        """Rank every differential in ascending degree, each field dropping
        the rows at its own pivot columns of the differential below; raise
        ``RankError`` on a disagreement, naming the matrix.  The ranks are
        kept only when every degree agrees, so a later call raises again."""
        primes = _random_primes(seed)
        where = f"{self.flavor}(g={self.genus},n={len(self.labels)})"
        ranks, pivots, drop = {}, {}, None
        for k in range(min(self.basis), max(self.basis) + 1) if self.basis else ():
            modular, rational, drop = _field_ranks(self.differential(k), primes, drop)
            ranks[k] = _agreed(f"{where} d_{k}", modular, rational)
            pivots[k] = drop[0]
        self._ranks, self._pivots = ranks, pivots


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


def _edge_order_sign(edges, e, target_edges, vertex_map) -> int:
    """``(-1)^e`` for removing edge ``e`` from the edge order, times the
    parity of the edge relabelling ``vertex_map`` induces on the (undirected)
    target."""
    images = []
    for (u, v) in target_edges:
        a, b = vertex_map[u], vertex_map[v]
        images.append((a, b) if a <= b else (b, a))
    return (-1) ** e * perm_parity(
        induced_edge_map(target_edges, vertex_map, sorted(images), False))


def _vertex_order_sign(edges, e, target_edges, vertex_map) -> int:
    """Parity of moving the ends ``(a, b)`` of ``e`` to the front, times the
    parity of the canonical relabelling on ``[merged] + rest``.  Moving ``a``
    to the front takes ``a`` transpositions, then ``b`` takes ``b - (b > a)``;
    ``[merged] + rest`` is the identity with ``min(a, b)`` moved to the
    front, so its parity is ``(-1)^min(a, b)`` times that of
    ``vertex_map``."""
    (a, b) = edges[e]
    return (-1) ** (a + b - (b > a) + min(a, b)) * perm_parity(vertex_map)


def _admissible_contractions(g, profile: StabilityProfile):
    """Yield ``(edge, target, subdivider)`` for every contraction in the
    differential of ``g = (weights, edges, marks, directed)``, an acyclic
    stable catalog cell; ``target`` is the contracted graph in the same
    tuple form, equal to ``graphs.contract_edge``'s result.

    Never a loop or an edge with a parallel partner: either would raise a
    weight.  The target must be stable and, when directed, acyclic, which is
    decided locally.  Only the merged vertex changes its degrees, so it alone
    is tested for stability.  Contracting ``a -> b`` closes a directed cycle
    iff another directed path leads from ``a`` to ``b``.  ``subdivider``
    flags an edge leaving a bivalent unmarked double-outgoing source, which
    the frozen variant leaves uncontracted."""
    weights, edges, marks, directed = g
    nv = len(weights)
    # per vertex as is_stable counts them: valence with a loop counted
    # twice, half-edges in, half-edges out (hairs included)
    val, n_in, n_out, hair = [0] * nv, [0] * nv, [0] * nv, [0] * nv
    succ = [[] for _ in range(nv)]
    bundles = {}
    for (u, v) in edges:
        val[u] += 1
        val[v] += 1
        pair = (u, v) if u <= v else (v, u)
        bundles[pair] = bundles.get(pair, 0) + 1
        if directed:
            n_out[u] += 1
            n_in[v] += 1
            succ[u].append(v)
    for (_, v) in marks:
        hair[v] += 1
        val[v] += 1
        n_out[v] += 1
    if not directed:
        n_out = val
    d_in, d_out = (1, 1) if directed else (0, 2)
    for e, (a, b) in enumerate(edges):
        if a == b or bundles[(a, b) if a < b else (b, a)] > 1:
            continue
        if not profile.admits(weights[a] + weights[b], val[a] + val[b] - 2,
                              n_in[a] + n_in[b] - d_in, n_out[a] + n_out[b] - d_out):
            continue
        if directed and _reaches(succ, a, b):
            continue
        lo, hi = (a, b) if a < b else (b, a)
        relabel = list(range(hi)) + [lo] + list(range(hi, nv - 1))
        tweights = list(weights)
        tweights[lo] += weights[hi]
        del tweights[hi]
        tedges = []
        for (u, v) in edges[:e] + edges[e + 1:]:
            u, v = relabel[u], relabel[v]
            tedges.append((u, v) if directed or u <= v else (v, u))
        tmarks = tuple((l, relabel[v]) for (l, v) in marks)
        subdivider = directed and hair[a] == 0 and n_in[a] == 0 and n_out[a] == 2
        yield e, (tuple(tweights), tuple(tedges), tmarks, directed), subdivider


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
    sums ``sign(edges, e, target_edges, vertex_map)`` over the admissible
    contractions of ``g``, ``vertex_map`` being the canonical relabelling of
    the target; each contraction is canonicalised once, and a
    ``subdividers_frozen`` variant skips the subdivider edges.  A target
    with an orientation-reversing automorphism is zero; one missing from
    the catalog means the catalog is not closed under contraction, and
    raises.  The degree parity is the flavour's: 0 marked, 1 oriented."""
    basis, index, killed = {}, {}, set()
    for deg in catalog.degrees():
        basis[deg] = [e.key for e in catalog.strata[deg] if not e.killed]
        killed.update(e.key for e in catalog.strata[deg] if e.killed)
        index.update((key, (deg, i)) for i, key in enumerate(basis[deg]))
    d_parity = 0 if catalog.flavor == "marked" else 1
    cxs = [GradedComplex(flavor=catalog.flavor, genus=catalog.genus,
                         labels=catalog.labels, d_parity=d_parity, basis=basis,
                         variant=variant, _index=index) for variant in variants]
    where = f"{catalog.flavor}(g={catalog.genus},n={len(catalog.labels)})"
    unfrozen = [v for v in variants if v != "subdividers_frozen"]
    for k in sorted(basis):
        mats = {v: SparseIntMatrix(len(basis.get(k - 1, ())), len(basis[k]))
                for v in variants}
        for col, key in enumerate(basis[k]):
            g = key_tuples(key)
            for e, target, subdivider in _admissible_contractions(g, catalog.profile):
                takers = unfrozen if subdivider else variants
                if not takers:
                    continue
                tkey, vertex_map, _ = canonicalize(*target)
                pos = index.get(tkey)
                if pos is None:
                    if tkey in killed:
                        continue
                    raise ComplexError(
                        f"{where} degree {k} ({', '.join(takers)}): contracting "
                        f"edge {e} of generator {col} ({decode_key(key)!r}) gives "
                        f"{decode_key(tkey)!r}, which is not in the catalog")
                (kk, row) = pos
                if kk != k - 1:
                    raise ComplexError("contraction changed the degree by != 1")
                s = sign(g[1], e, target[1], vertex_map)
                for v in takers:
                    mats[v].add(row, col, s)
        for cx in cxs:
            cx.diffs[k] = mats[cx.variant]
    for cx in cxs:
        _check_d_squared(cx)
    return cxs


def _check_d_squared(cx: GradedComplex) -> None:
    for k in cx.degrees():
        if k - 1 not in cx.diffs:
            continue
        prod = cx.diffs[k - 1] * cx.diffs[k]
        if not prod.is_zero():
            (i, j) = sorted(prod.entries)[0]
            raise ComplexError(
                f"d^2 != 0 in {cx.flavor}(g={cx.genus},n={len(cx.labels)}) "
                f"({cx.variant}) at degree {k}: generator {j} hits degree-{k - 2} "
                f"generator {i} with coefficient {prod.entries[(i, j)]}")


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
    d_parity: int
    dims: dict
    betti: dict

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
            raise ComplexError(f"negative Betti number at degree {k}")
    return BettiTable(flavor=cx.flavor, genus=cx.genus, labels=cx.labels,
                      d_parity=cx.d_parity, dims=dims, betti=table)


def euler_characteristic(cx: GradedComplex, table: BettiTable | None = None,
                         seed: int = 0):
    """Euler characteristic computed from dimensions and from Betti numbers;
    raises on mismatch, which would signal a rank or sign bug."""
    if table is None:
        table = betti(cx, seed=seed)
    chi_dim = table.euler_from_dims()
    chi_betti = table.euler_from_betti()
    if chi_dim != chi_betti:
        raise ComplexError(
            f"Euler mismatch for {cx.flavor}(g={cx.genus}): {chi_dim} vs {chi_betti}")
    return chi_dim, chi_betti


def betti_shift_matches(marked_table: BettiTable, oriented_table: BettiTable) -> bool:
    """The dictionary between the two gradings: an oriented cell degree is a
    marked cell degree plus the number of markings."""
    n = len(marked_table.labels)
    keys = set(marked_table.betti) | {k - n for k in oriented_table.betti}
    return all(marked_table.betti.get(k, 0) == oriented_table.betti.get(k + n, 0)
               for k in keys)
