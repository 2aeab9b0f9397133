"""Complex assembly: d^2 = 0, Betti tables, Euler, grading dictionary."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracle
import reference_complexes as ref

from ogclab.canonical import canonical_form, canonicalize, decode_key, key_tuples
from ogclab.catalogs import generate_marked, generate_oriented
from ogclab.complexes import (ComplexError, _admissible_contractions,
                              _check_d_squared, _edge_order_sign, _reaches,
                              _vertex_order_sign, betti, betti_shift_matches,
                              build_marked_complex, build_oriented_complex,
                              build_oriented_complexes, cell_degree_from_hc,
                              euler_characteristic, hc_degree)
from ogclab.graphs import contract_edge, is_acyclic, is_stable


def labels(n):
    return tuple(range(1, n + 1))


SMALL = [(1, 1), (1, 2), (0, 3), (0, 4), (2, 1), (1, 3)]

_cache = {}


def pair(g, n):
    if (g, n) not in _cache:
        mc = generate_marked(g, labels(n))
        oc = generate_oriented(g, labels(n))
        _cache[(g, n)] = (build_marked_complex(mc), build_oriented_complex(oc))
    return _cache[(g, n)]


def test_d_squared_zero_small():
    for (g, n) in SMALL:
        pair(g, n)   # builders raise on d^2 != 0


def test_smallest_marked_complex():
    mx, _ = pair(1, 1)
    assert mx.degrees() == [1]
    assert mx.dim(1) == 1
    assert mx.differential(1).is_zero()
    assert betti(mx).betti == {1: 1}


def test_empty_stratum_shapes():
    mx, _ = pair(2, 1)
    # degrees 2..4 exist in the catalog but some bases vanish by symmetry
    for k in mx.degrees():
        d = mx.differential(k)
        assert d.nrows == mx.dim(k - 1) and d.ncols == mx.dim(k)


def test_killed_generators_left_out():
    mx, _ = pair(1, 2)
    # the two-marked-banana is killed by the parallel swap
    assert mx.dim(2) == 1


def test_betti_zero_differential_gives_dims():
    mx, _ = pair(1, 1)
    t = betti(mx)
    assert t.betti == t.dims


def test_betti_tables_match_naive_oracle():
    for (g, n) in [(1, 1), (1, 2), (0, 3), (2, 1), (1, 3)]:
        mx, _ = pair(g, n)
        _, _, ndims, ndiffs = oracle.naive_marked_complex(g, n)
        for k in set(ndims) | set(mx.basis):
            assert ndims.get(k, 0) == mx.dim(k), (g, n, k)
        nb = oracle.naive_betti(ndims, ndiffs)
        eb = betti(mx).betti
        assert all(nb.get(k, 0) == eb.get(k, 0) for k in set(nb) | set(eb))


def test_cross_flavor_betti_shift():
    for (g, n) in SMALL:
        mx, ox = pair(g, n)
        assert betti_shift_matches(betti(mx), betti(ox)), (g, n)


def test_marked_one_three_has_one_class():
    mx, _ = pair(1, 3)
    t = betti(mx)
    assert sum(t.betti.values()) == 1
    assert t.betti[3] == 1


def test_euler_consistency():
    for (g, n) in SMALL:
        for cx in pair(g, n):
            chi_dim, chi_betti = euler_characteristic(cx)
            assert chi_dim == chi_betti


def test_degree_conversion_round_trip():
    for d_parity in (0, 1):
        for g in range(0, 4):
            for n in range(1, 5):
                for cell in range(0, 10):
                    hc = hc_degree(cell, g, n, d_parity)
                    assert cell_degree_from_hc(hc, g, n, d_parity) == cell


def test_betti_invariant_under_label_renaming():
    a = betti(build_marked_complex(generate_marked(1, (1, 2, 3)))).betti
    b = betti(build_marked_complex(generate_marked(1, (4, 7, 9)))).betti
    assert a == b


def test_flavor_mismatch_rejected():
    mc = generate_marked(1, [1])
    with pytest.raises(ComplexError):
        build_oriented_complex(mc)
    oc = generate_oriented(1, [1])
    with pytest.raises(ComplexError):
        build_marked_complex(oc)


def test_parity_validation():
    mc = generate_marked(1, [1])
    with pytest.raises(ComplexError):
        build_marked_complex(mc, d_parity=1)
    oc = generate_oriented(1, [1])
    with pytest.raises(ComplexError):
        build_oriented_complex(oc, d_parity=2)


def test_splitting_matrix_is_transpose():
    _, ox = pair(1, 2)
    for k in ox.degrees():
        assert ox.splitting_matrix(k) == ox.differential(k).transpose()


def test_frozen_variant_same_ranks():
    # freezing subdivider contractions changes the differential but not the
    # per-degree ranks on strata where both compute the same homology
    for (g, n) in [(1, 1), (1, 2), (0, 3)]:
        oc = generate_oriented(g, labels(n))
        full = build_oriented_complex(oc)
        frozen = build_oriented_complex(oc, contract_subdivider_edges=False)
        assert frozen.variant == "subdividers_frozen"
        for k in full.degrees():
            assert full.dim(k) == frozen.dim(k)


def test_one_pass_matches_one_variant_builds():
    for (g, n) in [(1, 2), (1, 3), (0, 4)]:
        oc = generate_oriented(g, labels(n))
        full, frozen = build_oriented_complexes(oc)
        for cx, alone in ((full, build_oriented_complex(oc)),
                          (frozen, build_oriented_complex(oc, contract_subdivider_edges=False))):
            assert cx.variant == alone.variant
            assert cx.basis == alone.basis
            assert cx.diffs == alone.diffs
        assert any(full.diffs[k] != frozen.diffs[k] for k in full.diffs)


def test_assembled_differentials_hold_ints():
    for (g, n) in [(1, 2), (0, 4)]:
        mx, ox = pair(g, n)
        for cx in (mx, ox):
            for m in cx.diffs.values():
                assert all(type(v) is int for v in m.entries.values())


def test_frozen_failures_name_the_variant():
    _, frozen = build_oriented_complexes(generate_oriented(1, labels(2)))
    k = next(k for k in frozen.degrees()
             if frozen.dim(k) and k - 1 in frozen.diffs and frozen.diffs[k - 1].nnz)
    (_, i) = min(frozen.diffs[k - 1].entries)
    frozen.diffs[k].add(i, 0, 1)     # column i of d_{k-1} is not zero
    with pytest.raises(ComplexError, match=r"oriented\(g=1,n=2\) \(subdividers_frozen\)"):
        _check_d_squared(frozen)
    cat = generate_oriented(1, labels(2))
    low = min(cat.degrees())
    cat.strata[low] = [e for e in cat.strata[low] if e.killed] + \
        [e for e in cat.strata[low] if not e.killed][1:]
    with pytest.raises(ComplexError, match=rf"degree {low + 1} \(subdividers_frozen\)"):
        build_oriented_complex(cat, contract_subdivider_edges=False)


@pytest.mark.parametrize("flavor, build", [("marked", build_marked_complex),
                                           ("oriented", build_oriented_complex)])
def test_missing_contraction_target_raises(flavor, build):
    # a catalog missing one cell that a generator contracts onto is not
    # closed under contraction; assembly must say so, not drop the term
    gen = generate_marked if flavor == "marked" else generate_oriented
    cat = gen(1, labels(2))
    low = min(cat.degrees())
    cat.strata[low] = [e for e in cat.strata[low] if e.killed] + \
        [e for e in cat.strata[low] if not e.killed][1:]
    with pytest.raises(ComplexError, match=rf"{flavor}\(g=1,n=2\) degree {low + 1}"):
        build(cat)


def test_betti_csv_and_json_encode_same_numbers():
    import csv as csvmod
    import io
    import json
    mx, _ = pair(1, 2)
    t = betti(mx)
    rows_csv = list(csvmod.DictReader(io.StringIO(t.to_csv())))
    rows_json = json.loads(t.to_json())
    assert len(rows_csv) == len(rows_json)
    for rc, rj in zip(rows_csv, rows_json):
        assert int(rc["betti"]) == rj["betti"]
        assert int(rc["dim_basis"]) == rj["dim_basis"]
        assert int(rc["cell_degree"]) == rj["cell_degree"]


@pytest.mark.parametrize("flavor", ["marked", "oriented"])
def test_tuple_contractions_match_graph_reference(flavor):
    # every edge of every cell, killed ones included, against the Graph-based
    # rule: same admissible edges, targets, subdivider flags and signs, and
    # the local cycle and stability tests agree with the whole-graph ones.
    # Contracting a stable weight-0 cell never leaves an unstable vertex, so
    # here only the cycle test rejects; test_catalogs covers the other one.
    gen, sign, ref_sign = ((generate_marked, _edge_order_sign, ref.edge_order_sign)
                           if flavor == "marked" else
                           (generate_oriented, _vertex_order_sign, ref.vertex_order_sign))
    cycles = 0
    for (g, n) in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (0, 3), (0, 4)]:
        cat = gen(g, labels(n))
        for entry in cat.entries():
            graph, tuples = decode_key(entry.key), key_tuples(entry.key)
            fast = list(_admissible_contractions(tuples, cat.profile))
            slow = list(ref.admissible_contractions(graph, cat.profile))
            assert [(e, flag) for e, _, flag in fast] == [(e, flag) for e, _, flag in slow]
            for (e, target, _), (_, ref_target, _) in zip(fast, slow):
                assert target == ref_target.key()
                key, vertex_map, _ = canonicalize(*target)
                cf = canonical_form(ref_target)
                assert key == cf.key
                assert sign(tuples[1], e, target[1], vertex_map) == ref_sign(graph, e, cf)
            admitted = {e for e, _, _ in fast}
            succ = [[v for (u, v) in graph.edges if u == x] for x in range(graph.n_vertices)]
            for e, (a, b) in enumerate(graph.edges):
                if a == b or graph.parallel_count(e):
                    continue
                target = contract_edge(graph, e)
                acyclic = not graph.directed or is_acyclic(target)
                stable = is_stable(target, cat.profile)
                assert stable
                assert (e in admitted) == (acyclic and stable)
                if graph.directed:
                    assert _reaches(succ, a, b) == (not acyclic)
                cycles += not acyclic
    assert cycles > 0 if flavor == "oriented" else cycles == 0
