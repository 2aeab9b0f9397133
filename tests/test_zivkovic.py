"""Spanning-forest correspondence: the orientation functor, the chain map,
and the induced isomorphism on cohomology."""
import json
import re
from collections import Counter
from dataclasses import asdict

import pytest

import reference_linalg
from oracle import degree_data
from ogclab.graphs import (Graph, GraphError, StabilityProfile, contract_edge,
                           genus, is_acyclic, is_stable)
from ogclab.canonical import canonical_form
from ogclab.catalogs import generate_marked, generate_oriented, spanning_forests
from ogclab.complexes import ComplexError, build_marked_complex, build_oriented_complexes
from ogclab import linalg, zivkovic
from ogclab.linalg import RankError, SparseIntMatrix, _without_rows, multiply, solve_columns
from ogclab.zivkovic import (ChainMapReport, QuasiIsoReport, VerificationReport,
                             _induced_rank, _solve_in_kernel, forest_orient,
                             psi_matrix, run_verification, verify_chain_map,
                             verify_quasi_iso)


def labels(n):
    return tuple(range(1, n + 1))


_cache = {}


def stack(g, n):
    if (g, n) not in _cache:
        mc = generate_marked(g, labels(n))
        oc = generate_oriented(g, labels(n))
        mx = build_marked_complex(mc)
        full, frozen = build_oriented_complexes(oc)
        _cache[(g, n)] = (mx, full, frozen)
    return _cache[(g, n)]


def test_loop_orients_to_oriented_loop():
    g = Graph([0], [(0, 0)], [(1, 0)])
    fo = forest_orient(g, ())
    r = fo.graph
    assert r.n_vertices == 2 and r.n_edges == 2
    assert r.edges[0] == r.edges[1]
    assert r.marks == ((1, 0),)
    assert is_acyclic(r)
    assert fo.roots == (0,)


def test_edge_between_two_marked_vertices_subdivides():
    g = Graph([0, 0], [(0, 1)], [(1, 0), (2, 1)])
    fo = forest_orient(g, ())
    r = fo.graph
    assert r.n_vertices == 3
    deg, ind, out, hair = degree_data(r.n_vertices, r.edges, r.marks)
    assert out[2] == 2 and ind[2] == 0     # fresh double-outgoing source
    assert fo.cell_map == (2,)


def test_forest_edges_point_at_the_marking():
    # chain 2 - 1 - 0 with the only label at vertex 0: the whole chain flows
    # toward vertex 0
    g = Graph([0, 0, 0], [(0, 1), (1, 2)], [(1, 0)])
    fo = forest_orient(g, (0, 1))
    assert (1, 0) in fo.graph.edges and (2, 1) in fo.graph.edges
    assert fo.roots == (0,)
    assert fo.cell_map == (1, 2)


def test_forest_orient_rejects_bad_forest():
    g = Graph([0, 0], [(0, 1)], [(1, 0), (2, 1)])
    with pytest.raises(GraphError):
        forest_orient(g, (0,))   # would merge two labels into one component
    loop = Graph([0], [(0, 0)], [(1, 0)])
    with pytest.raises(GraphError):
        forest_orient(loop, (0,))   # loops never belong to a forest


def test_forest_orient_rejects_a_repeated_edge():
    # naming a forest edge twice once passed every check: the walk from the
    # roots saw each edge once and the set of edges walked matched
    g = Graph([0, 0, 0], [(0, 0), (0, 1), (0, 2), (1, 2)], [(1, 1), (2, 2)])
    assert (1,) in spanning_forests(g)
    with pytest.raises(GraphError):
        forest_orient(g, (1, 1))
    repeated = [(e.graph, f + f[:1]) for e in generate_marked(2, labels(2)).entries()
                for f in spanning_forests(e.graph) if f]
    assert len(repeated) == 52
    for graph, forest in repeated:
        with pytest.raises(GraphError):
            forest_orient(graph, forest)


def test_forest_orient_accepts_exactly_the_spanning_forests():
    # every edge subset of every marked cell, loops and killed cells included
    subsets = 0
    for (g, n) in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (0, 4), (0, 5)]:
        for entry in generate_marked(g, labels(n)).entries():
            graph = entry.graph
            forests = set(spanning_forests(graph))
            for bits in range(1 << graph.n_edges):
                subset = tuple(i for i in range(graph.n_edges) if bits >> i & 1)
                subsets += 1
                if subset in forests:
                    forest_orient(graph, subset)
                else:
                    with pytest.raises(GraphError):
                        forest_orient(graph, subset)
    assert subsets == 906


def test_vertex_count_identity_and_stability():
    for (g, n) in [(1, 2), (1, 3), (2, 1), (0, 4)]:
        cat = generate_marked(g, labels(n))
        profile = StabilityProfile.oriented()
        for entry in cat.entries():
            graph = entry.graph
            for forest in spanning_forests(graph):
                fo = forest_orient(graph, forest)
                assert fo.graph.n_vertices == \
                    graph.n_vertices + graph.n_edges - len(forest)
                assert len(set(fo.cell_map) | set(fo.roots)) == fo.graph.n_vertices
                assert is_acyclic(fo.graph)
                assert is_stable(fo.graph, profile)
                assert genus(fo.graph) == g


def test_functoriality_of_orientation_under_forest_contraction():
    # contracting a forest edge then orienting equals orienting then
    # contracting the corresponding directed edge, as isomorphism classes
    for (g, n) in [(1, 2), (1, 3), (2, 1)]:
        cat = generate_marked(g, labels(n))
        for entry in cat.entries():
            graph = entry.graph
            for forest in spanning_forests(graph):
                if not forest:
                    continue
                e = forest[0]
                if graph.parallel_count(e) > 0:
                    continue
                fo = forest_orient(graph, forest)
                contracted = contract_edge(graph, e)
                rest = tuple(i - (1 if i > e else 0) for i in forest if i != e)
                fo2 = forest_orient(contracted, rest)
                # contract the directed image of e inside the oriented graph
                pos = [i for i, (u, v) in enumerate(fo.graph.edges)
                       if {u, v} == set(graph.edges[e])][0]
                tgt = contract_edge(fo.graph, pos)
                assert canonical_form(tgt).key == canonical_form(fo2.graph).key


def test_psi_degree_shift_and_supports():
    for (g, n) in [(1, 1), (1, 2), (1, 3), (2, 1)]:
        mx, full, _ = stack(g, n)
        psi = psi_matrix(mx, full)
        for k, mat in psi.items():
            assert mat.nrows == full.dim(k + n)
            assert mat.ncols == mx.dim(k)
            # column L1 mass is bounded by the forest count
            for col in range(mx.dim(k)):
                forests = spanning_forests(mx.generator(k, col))
                mass = sum(abs(v) for (i, j), v in mat.entries.items() if j == col)
                assert mass <= len(forests)


def test_psi_one_one_is_unit():
    mx, full, _ = stack(1, 1)
    psi = psi_matrix(mx, full)
    assert abs(psi[1][(0, 0)]) == 1


def test_psi_column_zero_without_forests():
    mx, full, _ = stack(1, 2)
    psi = psi_matrix(mx, full)
    # both (1,2) marked classes put the two labels on one vertex: no forests
    assert all(m.is_zero() for m in psi.values())


def test_psi_refuses_an_image_neither_killed_nor_a_generator():
    # a top-degree cell is no contraction target, so a catalog without it
    # still assembles; the forest images that land on it must not be
    # dropped as if they were killed
    mc, oc = generate_marked(2, (1,)), generate_oriented(2, (1,))
    top = oc.strata[max(oc.degrees())]
    top.remove(next(e for e in top if not e.killed))
    full, _ = build_oriented_complexes(oc)
    with pytest.raises(ComplexError, match=r"degree-4 generator \d+ .* neither killed nor"):
        psi_matrix(build_marked_complex(mc), full)


def test_chain_map_small():
    for (g, n) in [(1, 1), (1, 2), (0, 3), (0, 4), (1, 3), (2, 1)]:
        mx, full, frozen = stack(g, n)
        psi = psi_matrix(mx, full)
        report, completed = verify_chain_map(psi, mx, full, frozen)
        assert report.passed, (g, n, report)
        assert report.frozen_identity and report.full_identity
        assert completed is not None


@pytest.mark.parametrize("g,n,support", [(1, 3, {3: 15}), (1, 4, {4: 612}),
                                         (2, 2, {3: 3, 4: 14, 5: 8})])
def test_compressed_completion_solve_matches_full_system(g, n, support, monkeypatch):
    # each completion system, solved on the rows outside the rational pivot
    # columns of the oriented differential below, has the full system's X
    mx, full, frozen = stack(g, n)
    solve = zivkovic._solve_in_kernel
    dropped = []

    def checked(oriented, deg, target):
        x = solve(oriented, deg, target)
        assert x == solve_columns(oriented.differential(deg), target), deg
        dropped.append(len(oriented._pivot_columns(deg - 1)))
        return x
    monkeypatch.setattr(zivkovic, "_solve_in_kernel", checked)
    report, _ = verify_chain_map(psi_matrix(mx, full), mx, full, frozen)
    assert report.passed and report.completion_support == support
    assert any(dropped)


def test_completion_solve_outside_the_kernel_is_unsolvable(monkeypatch):
    # a unit vector at a pivot column of D_{deg-1} lies outside ker D_{deg-1},
    # so outside the span of D_deg: the full system has no solution, while
    # on the compressed rows it would be the zero column, which solves; the
    # product D_{deg-1} C alone says so, and nothing is solved
    _, full, _ = stack(1, 3)
    deg = next(d for d in full.degrees() if len(full._pivot_columns(d - 1)))
    q = full._pivot_columns(deg - 1)
    target = SparseIntMatrix(full.dim(deg - 1), 1, {(q[0], 0): 1})
    assert not (full.differential(deg - 1) * target).is_zero()
    solves = []
    monkeypatch.setattr(zivkovic, "solve_columns", lambda *a: solves.append(a))
    assert _solve_in_kernel(full, deg, target) is None
    assert not solves
    assert solve_columns(full.differential(deg), target) is None
    assert solve_columns(_without_rows(full.differential(deg), q),
                         _without_rows(target, q)) is not None


def test_frozen_identity_is_exact_without_completion():
    # the forest sum alone commutes with the frozen differential
    from ogclab.zivkovic import _identity_sign
    for (g, n) in [(1, 3), (2, 1), (0, 4)]:
        mx, full, frozen = stack(g, n)
        psi = psi_matrix(mx, full)
        eps, failure = _identity_sign(psi, mx, frozen)
        assert failure is None
        assert eps in (1, -1)


def test_quasi_iso_small():
    for (g, n) in [(1, 1), (1, 3), (2, 1)]:
        mx, full, frozen = stack(g, n)
        psi = psi_matrix(mx, full)
        _, completed = verify_chain_map(psi, mx, full, frozen)
        report = verify_quasi_iso(completed, mx, full)
        assert report.passed, (g, n, report)


def test_quasi_iso_fails_at_genus_zero_with_clumped_labels():
    # the forest sum vanishes identically at genus zero, so the induced map
    # cannot hit the nonzero cohomology: the verifier must say so
    mx, full, frozen = stack(0, 4)
    psi = psi_matrix(mx, full)
    _, completed = verify_chain_map(psi, mx, full, frozen)
    report = verify_quasi_iso(completed, mx, full)
    assert not report.passed


@pytest.mark.parametrize("n", [3, 4, 5])
def test_no_genus_zero_generator_has_a_spanning_forest(n):
    # a stable genus-0 tree on v vertices has valences summing to
    # 2(v - 1) + n >= 3v, so v <= n - 2: some vertex carries two markings
    # (the one-vertex corolla all n), and no forest isolates each marking
    cat = generate_marked(0, tuple(range(1, n + 1)))
    assert cat.total() > 0
    for entry in cat.entries():
        graph = entry.graph
        assert graph.n_vertices <= n - 2
        assert max(Counter(v for (_, v) in graph.marks).values()) >= 2
        assert spanning_forests(graph) == []


def kernel_induced_rank(psi_k, marked, oriented, k):
    """The induced rank as a kernel projection: map a basis of ker d_k
    through psi_k and count what the oriented boundaries do not span."""
    n = len(marked.labels)
    z = reference_linalg.kernel_basis(marked.differential(k))
    Z = {}
    for c, vec in enumerate(z):
        for j, v in vec.items():
            Z[j, c] = v
    pz = multiply(psi_k, SparseIntMatrix(marked.dim(k), len(z), Z))
    bnd = oriented.differential(k + n + 1)
    B = dict(pz.entries)
    for (i, j), v in bnd.entries.items():
        B[i, j + pz.ncols] = v
    both = SparseIntMatrix(pz.nrows, pz.ncols + bnd.ncols, B)
    return both.rank() - bnd.rank()


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                 (2, 2), (3, 1), (0, 3), (0, 4)])
def test_block_rank_matches_kernel_projection(g, n):
    # every marked degree, also those the verifier skips because both
    # cohomology groups vanish there
    mx, full, frozen = stack(g, n)
    psi = psi_matrix(mx, full)
    _, completed = verify_chain_map(psi, mx, full, frozen)
    report = verify_quasi_iso(completed, mx, full)
    rows = {row["marked_degree"]: row for row in report.per_degree}
    for k in mx.degrees():
        rank = _induced_rank(completed[k], mx, full, k)
        assert rank == kernel_induced_rank(completed[k], mx, full, k), (g, n, k)
        row = rows[k]
        assert row["induced_rank"] == (rank if row["h_marked"] or row["h_oriented"] else 0)
    if g == 0:
        # psi vanishes, so the nonzero cohomology is missed
        assert all(m.is_zero() for m in completed.values())
        assert any(row["h_marked"] and not row["iso"] for row in rows.values())
        assert not report.passed
    else:
        assert report.passed


@pytest.mark.parametrize("seed", [0, 7])
def test_quasi_iso_blocks_are_consensus_checked(seed, monkeypatch):
    # each block [[d_k, 0], [psi_k, D_{k+n+1}]] is ranked by check_consensus
    # with the run's seed, and a disagreement there names the block
    g, n = 1, 3
    mx, full, frozen = stack(g, n)
    _, completed = verify_chain_map(psi_matrix(mx, full), mx, full, frozen)
    check = SparseIntMatrix.check_consensus
    calls = []

    def counted(m, seed=0, name="matrix"):
        calls.append((m.nrows, m.ncols, seed, name))
        return check(m, seed=seed, name=name)
    monkeypatch.setattr(SparseIntMatrix, "check_consensus", counted)
    report = verify_quasi_iso(completed, mx, full, seed=seed)
    assert report.passed
    ranked = [row["marked_degree"] for row in report.per_degree
              if row["h_marked"] or row["h_oriented"]]
    assert ranked
    assert calls == [(mx.dim(k - 1) + full.dim(k + n), mx.dim(k) + full.dim(k + n + 1),
                      seed, f"quasi-iso block [[d_{k}, 0], [psi_{k}, D_{k + n + 1}]]")
                     for k in ranked]

    field_ranks = linalg._field_ranks

    def off_by_one(m, primes, drop=None):
        modular, pivots = field_ranks(m, primes, drop)
        return [modular[0] + 1, *modular[1:]], pivots
    monkeypatch.setattr(linalg, "_field_ranks", off_by_one)
    k = ranked[0]
    with pytest.raises(RankError, match=re.escape(
            f"quasi-iso block [[d_{k}, 0], [psi_{k}, D_{k + n + 1}]]: modular ranks")):
        verify_quasi_iso(completed, mx, full, seed=seed)


def test_naturality_under_label_renaming():
    rep1 = run_verification(1, (1, 2, 3))
    rep2 = run_verification(1, (2, 5, 9))
    assert rep1.passed and rep2.passed
    assert rep1.quasi_iso.marked_betti == rep2.quasi_iso.marked_betti
    assert rep1.quasi_iso.oriented_betti == rep2.quasi_iso.oriented_betti


def test_run_verification_report_json():
    import json
    rep = run_verification(1, [1])
    doc = json.loads(rep.to_json())
    assert doc["passed"] is True
    assert doc["chain_map"]["global_sign"] in (1, -1)
    assert doc["quasi_iso"]["passed"] is True


CONVENTION = {"flow": "toward-marking", "subdivision": "double-outgoing-source",
              "roots": "last", "frozen_differential": "subdividers_frozen"}


def test_chain_map_report_on_each_failing_branch(monkeypatch):
    # every field of the report where the frozen identity fails, where the
    # completion has no solution, and where the two variants need opposite
    # signs; none of them hands on a completed family
    mx, full, frozen = stack(1, 3)
    psi = psi_matrix(mx, full)
    eps, _ = zivkovic._identity_sign(psi, mx, frozen)
    sign = zivkovic._identity_sign
    broken = {"degree": 2, "entry": [0, 1], "lhs": "1", "rhs": "0"}

    def report(**fields):
        return {"convention": CONVENTION, "completion_support": {}, "failure": None,
                "passed": False, "full_identity": False, **fields}

    def run():
        rep, completed = verify_chain_map(psi, mx, full, frozen)
        assert completed is None
        return asdict(rep)

    with monkeypatch.context() as m:
        m.setattr(zivkovic, "_identity_sign", lambda *a: (None, broken))
        m.setattr(zivkovic, "complete_chain_map", lambda *a: pytest.fail("completed"))
        assert run() == report(global_sign=None, frozen_identity=False,
                               completion_solvable=False, failure=broken)
    with monkeypatch.context() as m:
        m.setattr(zivkovic, "_solve_in_kernel", lambda *a: None)
        assert run() == report(global_sign=eps, frozen_identity=True,
                               completion_solvable=False)
    with monkeypatch.context() as m:
        m.setattr(zivkovic, "_identity_sign",
                  lambda p, mk, o: sign(p, mk, o) if o is frozen else (-eps, None))
        assert run() == report(global_sign=eps, frozen_identity=True,
                               completion_solvable=True, completion_support={3: 15},
                               failure={"mixed_sign_between_variants": [eps, -eps]})


def test_report_json_sorts_degree_keys_as_strings():
    rows = [{"marked_degree": 9, "oriented_degree": 10, "h_marked": 1,
             "h_oriented": 1, "induced_rank": 1, "iso": True}]
    rep = VerificationReport(
        genus=2, labels=(3, 1), dims={"marked": {9: 4, 10: 5}, "oriented": {10: 6}},
        betti_shift_ok=True,
        chain_map=ChainMapReport(passed=True, global_sign=-1, convention=CONVENTION,
                                 frozen_identity=True, full_identity=True,
                                 completion_solvable=True, completion_support={9: 2, 10: 3}),
        quasi_iso=QuasiIsoReport(passed=True, per_degree=rows,
                                 marked_betti={10: 0, 9: 1}, oriented_betti={10: 1}),
        timings={"betti": 0.12345})
    text = rep.to_json()
    assert text == json.dumps({
        "genus": 2, "n": 2, "labels": [3, 1], "passed": True, "betti_shift_ok": True,
        "dims": {"marked": {"9": 4, "10": 5}, "oriented": {"10": 6}},
        "chain_map": {"passed": True, "global_sign": -1, "convention": CONVENTION,
                      "frozen_identity": True, "full_identity": True,
                      "completion_solvable": True,
                      "completion_support": {"9": 2, "10": 3}, "failure": None},
        "quasi_iso": {"passed": True, "per_degree": rows,
                      "marked_betti": {"9": 1, "10": 0}, "oriented_betti": {"10": 1}},
        "timings": {"betti": 0.123}}, indent=1, sort_keys=True)
    assert text.index('"10": 5') < text.index('"9": 4')
