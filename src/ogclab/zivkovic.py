"""The spanning-forest correspondence between the marked and oriented
complexes, and its verification.

``forest_orient`` realises the orientation functor: forest edges flow toward
the marking of their component, every other edge is replaced by a bivalent
source with two outgoing half-edges, and the marked component roots close the
vertex ordering.  Summing over spanning forests gives the leading term of the
chain map from the marked to the oriented complex.

That forest sum commutes on the nose with the oriented sub-differential that
never merges a subdividing source into its target.  Against the full
splitting differential it needs an exact lower-order completion, solved
degree by degree; the completed map is the one whose induced map on
cohomology is checked for bijectivity.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from .graphs import Graph, GraphError, _b1_bound, genus
from .canonical import canonical_form, perm_parity
from .catalogs import generate_or_load, spanning_forests
from .complexes import (GradedComplex, betti, betti_shift_matches,
                        build_marked_complex, build_oriented_complexes,
                        euler_characteristic)
from .linalg import SparseIntMatrix, _pack, _pairs, _with_cols, _without_rows, solve_columns


@dataclass
class ForestOrientedGraph:
    """Result of orienting a marked graph along a spanning forest."""
    graph: Graph          # directed; original vertices first, then one
                          # subdivision source per non-forest edge
    cell_map: tuple       # edge id of the source -> vertex id of the result
    roots: tuple          # component roots ordered by marking label


def forest_orient(g: Graph, forest) -> ForestOrientedGraph:
    """Apply the orientation functor to ``(g, forest)``.

    ``forest`` must be one of ``spanning_forests(g)``: ``nv - n`` distinct
    non-loop edge ids that close no cycle once each marking is joined to one
    extra vertex, so that every component is a tree holding exactly one
    marking; anything else raises ``GraphError``.  Forest edges point toward
    the marked vertex of their component; the remaining edges become fresh
    sources with two outgoing half-edges.  The cell map sends a forest edge
    to its child endpoint and a subdivided edge to its fresh source;
    component roots are exactly the vertices not hit.
    """
    forest = tuple(forest)
    if g.directed:
        raise GraphError("forest_orient starts from an undirected graph")
    nv = g.n_vertices
    for i in forest:
        if not 0 <= i < g.n_edges or g.is_loop(i):
            raise GraphError("forest contains a loop or a bad edge id")
    joins = [(v, nv) for (_, v) in g.marks]
    if (len(forest) != nv - len(g.marks)
            or _b1_bound(nv + 1, joins + [g.edges[i] for i in forest])):
        raise GraphError("forest is not a spanning forest with one marking per component")
    adj = {}
    for i in forest:
        (u, v) = g.edges[i]
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    directed_of = {}             # forest edge -> (child, parent), toward the root
    stack = [v for (_, v) in g.marks]
    seen = set(stack)
    while stack:
        x = stack.pop()
        for (y, i) in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                directed_of[i] = (y, x)
                stack.append(y)

    edges, cell_map, nv2 = [], [], nv
    for i, (u, v) in enumerate(g.edges):
        if i in directed_of:
            edges.append(directed_of[i])
            cell_map.append(directed_of[i][0])
        else:
            edges += [(nv2, u), (nv2, v)]
            cell_map.append(nv2)
            nv2 += 1
    result = Graph((0,) * nv2, edges, g.marks, directed=True)
    if genus(result) != genus(g):
        raise GraphError("orientation functor changed the genus")
    return ForestOrientedGraph(graph=result, cell_map=tuple(cell_map),
                               roots=tuple(v for (_, v) in g.marks))


def psi_matrix(marked: GradedComplex, oriented: GradedComplex) -> dict:
    """Forest-sum chain map family ``psi[k]: marked_k -> oriented_{k+n}``.

    The orientation of the image transports the edge order of the source
    through the cell map and appends the component roots (by label) at the
    end; generators absent from the oriented basis contribute zero.
    """
    if (marked.genus, marked.labels) != (oriented.genus, oriented.labels):
        raise GraphError("complexes are for different (g, S)")
    n = len(marked.labels)
    psi = {}
    for k in marked.degrees():
        cols = []
        for col in range(marked.dim(k)):
            g = marked.generator(k, col)
            acc = {}
            for forest in spanning_forests(g):
                fo = forest_orient(g, forest)
                order = list(fo.cell_map) + list(fo.roots)
                cf = canonical_form(fo.graph)
                pos = oriented.index_of(cf.key)
                if pos is None:
                    continue   # killed by an orientation-reversing automorphism
                (kk, row) = pos
                if kk != k + n:
                    raise GraphError(
                        f"forest image of a degree-{k} generator landed in "
                        f"oriented degree {kk}, expected {k + n}")
                acc[row] = acc.get(row, 0) + perm_parity([cf.vertex_map[x] for x in order])
            cols.append(_pack(acc))
        psi[k] = _with_cols(oriented.dim(k + n), marked.dim(k), cols)
    return psi


@dataclass
class ChainMapReport:
    passed: bool
    global_sign: int | None
    convention: dict
    frozen_identity: bool
    full_identity: bool
    completion_solvable: bool
    completion_support: dict
    failure: dict | None = None


def _chain_sides(psi, marked, oriented, k):
    """The two sides of the chain identity in degree ``k``, ``D_{k+n} psi_k``
    and ``psi_{k-1} d_k``, of one shape; the second is zero without
    ``psi_{k-1}`` or ``d_k``."""
    left = oriented.differential(k + len(marked.labels)) * psi[k]
    if (k - 1) in psi and k in marked.diffs:
        return left, psi[k - 1] * marked.diffs[k]
    return left, SparseIntMatrix(left.nrows, left.ncols)


def _identity_sign(psi, marked, oriented):
    """Global sign making ``D.psi = eps.psi.d`` hold, or (None, failure)."""
    eps = None
    for k in sorted(psi):
        left, right = _chain_sides(psi, marked, oriented, k)
        lent, rent = left.entries, right.entries
        for pos in sorted(lent.keys() | rent.keys()):
            lv, rv = lent.get(pos, 0), rent.get(pos, 0)
            if lv == rv:
                cand = 1
            elif lv == -rv:
                cand = -1
            else:
                return None, {"degree": k, "entry": list(pos),
                              "lhs": str(lv), "rhs": str(rv)}
            if eps is None:
                eps = cand
            elif eps != cand:
                return None, {"degree": k, "entry": list(pos),
                              "lhs": str(lv), "rhs": str(rv), "mixed_sign": True}
    return (eps if eps is not None else 1), None


def complete_chain_map(psi: dict, marked: GradedComplex, oriented: GradedComplex,
                       eps: int = 1):
    """Add an exact lower-order correction so the family commutes with the
    full oriented differential: solve ``D phi_k = eps phi_{k-1} d_k - r_k``
    bottom-up on the rows the oriented rank sweep leaves, unsolvable when the
    right side is no cycle of the differential below (``_solve_in_kernel``).
    Returns ``(completed family, solvable, support sizes)``."""
    n = len(marked.labels)
    completed = dict(psi)
    support = {}
    for k in sorted(completed):
        left, right = _chain_sides(completed, marked, oriented, k)
        resid = left - (right if eps == 1 else -right)
        if resid.is_zero():
            continue
        phi = _solve_in_kernel(oriented, k + n, -resid)
        if phi is None:
            return completed, False, support
        completed[k] = completed[k] + phi
        support[k] = phi.nnz
    return completed, True, support


def _solve_in_kernel(oriented: GradedComplex, deg: int, target: SparseIntMatrix):
    """``solve_columns(D, C)`` for ``D = D_deg``, on the rows of ``[D | C]``
    outside the pivot columns Q of the rational elimination of
    ``D_{deg-1}`` in the oriented rank sweep.  ``None`` when ``D_{deg-1} C``
    is not zero: ``D_{deg-1} D = 0`` holds on the nose
    (``complexes._check_d_squared``), so ``D X = C`` has no solution then.

    Every column of ``D`` lies in ``ker D_{deg-1}``, and so does every
    column of ``C`` once ``D_{deg-1} C = 0``; once the lower degrees are
    completed that always holds.  The columns Q of ``D_{deg-1}`` are
    independent, so on that kernel the coordinates in Q are fixed by the
    others: deleting the rows Q is injective on the span of the columns of
    ``[D | C]`` and keeps every linear relation among them.  So the leading
    columns of an echelon form, the solution supported on them, and whether
    one exists, are those of the full system."""
    if not (oriented.differential(deg - 1) * target).is_zero():
        return None
    q = oriented._pivot_columns(deg - 1)
    return solve_columns(_without_rows(oriented.differential(deg), q), _without_rows(target, q))


def verify_chain_map(psi: dict, marked: GradedComplex,
                     oriented_full: GradedComplex,
                     oriented_frozen: GradedComplex):
    """Check the two chain identities exactly.

    The forest sum must commute with the subdivider-frozen differential with
    one global sign; the completed map must commute with the full splitting
    differential with the same sign.  Returns the report and the completed
    family (None when something failed).
    """
    convention = {"flow": "toward-marking", "subdivision": "double-outgoing-source",
                  "roots": "last",
                  "frozen_differential": "subdividers_frozen"}
    eps, failure = _identity_sign(psi, marked, oriented_frozen)
    frozen_ok = failure is None
    completed, solvable, support = None, False, {}
    if frozen_ok:
        completed, solvable, support = complete_chain_map(psi, marked, oriented_full, eps)
    if solvable:
        eps2, failure = _identity_sign(completed, marked, oriented_full)
        if failure is None and eps2 != eps:
            failure = {"mixed_sign_between_variants": [eps, eps2]}
    full_ok = solvable and failure is None
    report = ChainMapReport(passed=full_ok, global_sign=eps, convention=convention,
                            frozen_identity=frozen_ok, full_identity=full_ok,
                            completion_solvable=solvable,
                            completion_support=support, failure=failure)
    return report, (completed if full_ok else None)


@dataclass
class QuasiIsoReport:
    passed: bool
    per_degree: list
    marked_betti: dict
    oriented_betti: dict


def _induced_rank(psi_k, marked, oriented, k, seed=0):
    """Rank of ``psi_k`` from marked ``H_k`` to oriented ``H_{k+n}``: the block
    ``[[d_k, 0], [psi_k, D_{k+n+1}]]`` has kernel ``{(x, y) : d x = 0,
    psi x + D y = 0}``, so it is the block's rank less those of d and D.
    The block is ranked by ``check_consensus``, like every differential."""
    n = len(marked.labels)
    d = marked.differential(k)
    bnd = oriented.differential(k + n + 1)

    def below_d(col):
        return tuple(x for i, v in _pairs(col) for x in (i + d.nrows, v))
    cols = [a + below_d(b) for a, b in zip(d.cols, psi_k.cols)] + list(map(below_d, bnd.cols))
    block = _with_cols(d.nrows + bnd.nrows, d.ncols + bnd.ncols, cols)
    name = f"quasi-iso block [[d_{k}, 0], [psi_{k}, D_{k + n + 1}]]"
    return (block.check_consensus(seed=seed, name=name)
            - marked.rank_of_differential(k, seed=seed)
            - oriented.rank_of_differential(k + n + 1, seed=seed))


def verify_quasi_iso(completed_psi: dict, marked: GradedComplex,
                     oriented: GradedComplex, seed: int = 0) -> QuasiIsoReport:
    """Exact rank check that the completed chain map induces an isomorphism
    on cohomology in every degree."""
    n = len(marked.labels)
    mt = betti(marked, seed=seed)
    ot = betti(oriented, seed=seed)
    rows = []
    passed = True
    for k in marked.degrees():
        h_m = mt.betti.get(k, 0)
        h_o = ot.betti.get(k + n, 0)
        image_rank = 0
        if (h_m or h_o) and k in completed_psi:
            image_rank = _induced_rank(completed_psi[k], marked, oriented, k, seed)
        iso = (image_rank == h_m == h_o)
        passed = passed and iso
        rows.append({"marked_degree": k, "oriented_degree": k + n,
                     "h_marked": h_m, "h_oriented": h_o,
                     "induced_rank": image_rank, "iso": iso})
    # degrees present only on the oriented side must be exact there
    for kk in oriented.degrees():
        if (kk - n) not in marked.basis and ot.betti.get(kk, 0) != 0:
            passed = False
            rows.append({"marked_degree": kk - n, "oriented_degree": kk,
                         "h_marked": 0, "h_oriented": ot.betti[kk],
                         "induced_rank": 0, "iso": False})
    return QuasiIsoReport(passed=passed, per_degree=rows,
                          marked_betti=mt.betti, oriented_betti=ot.betti)


@dataclass
class VerificationReport:
    genus: int
    labels: tuple
    dims: dict
    betti_shift_ok: bool
    chain_map: ChainMapReport
    quasi_iso: QuasiIsoReport
    timings: dict = field(default_factory=dict)

    @property
    def passed(self):
        return (self.betti_shift_ok and self.chain_map.passed
                and self.quasi_iso.passed)

    def to_json(self) -> str:
        """Every field, with ``n``, ``passed`` and the timings rounded to
        milliseconds; degree keys are strings, so they sort as strings."""
        doc = _plain(asdict(self))
        doc.update(n=len(self.labels), passed=self.passed,
                   timings={k: round(v, 3) for k, v in self.timings.items()})
        return json.dumps(doc, indent=1, sort_keys=True)


def _plain(x):
    """``x`` with every mapping key a string and every tuple a list."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def run_verification(g: int, labels, threads: int = 1, seed: int = 0,
                     max_cells: int | None = None) -> VerificationReport:
    """Full pipeline for one ``(g, S)``: catalogs, both complexes, Betti
    comparison, chain map and quasi-isomorphism checks.  ``threads`` is
    accepted for compatibility and has no effect: the run is sequential."""
    timings = {}
    t0 = time.time()
    mcat = generate_or_load("marked", g, labels, max_cells=max_cells)
    ocat = generate_or_load("oriented", g, labels, max_cells=max_cells)
    timings["generate"] = time.time() - t0
    t0 = time.time()
    marked = build_marked_complex(mcat)
    or_full, or_frozen = build_oriented_complexes(ocat)
    del mcat, ocat      # nothing after assembly reads the catalogs
    timings["complexes"] = time.time() - t0
    t0 = time.time()
    mt = betti(marked, seed=seed)
    ot = betti(or_full, seed=seed)
    euler_characteristic(marked, mt)
    euler_characteristic(or_full, ot)
    shift_ok = betti_shift_matches(mt, ot)
    timings["betti"] = time.time() - t0
    t0 = time.time()
    psi = psi_matrix(marked, or_full)
    chain_report, completed = verify_chain_map(psi, marked, or_full, or_frozen)
    timings["chain_map"] = time.time() - t0
    t0 = time.time()
    if completed is not None:
        quasi = verify_quasi_iso(completed, marked, or_full, seed=seed)
    else:
        quasi = QuasiIsoReport(passed=False, per_degree=[],
                               marked_betti=mt.betti, oriented_betti=ot.betti)
    timings["quasi_iso"] = time.time() - t0
    dims = {"marked": {k: marked.dim(k) for k in marked.degrees()},
            "oriented": {k: or_full.dim(k) for k in or_full.degrees()}}
    return VerificationReport(genus=g, labels=tuple(sorted(labels)), dims=dims,
                              betti_shift_ok=shift_ok, chain_map=chain_report,
                              quasi_iso=quasi, timings=timings)
