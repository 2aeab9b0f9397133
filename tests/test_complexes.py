"""Complex assembly: d^2 = 0, Betti tables, Euler, grading dictionary."""
import dataclasses
import gc
import random
import re
import sys
import tracemalloc
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
import oracle
import reference_complexes as ref
import reference_linalg

from ogclab import canonical, complexes, linalg

from ogclab.canonical import canonical_form, decode_key, key_tuples
from ogclab.catalogs import (GraphCatalog, _store, generate_marked, generate_oriented,
                             load_catalog)
from ogclab.complexes import (BettiTable, ComplexError, GradedComplex, _admissible_contractions,
                              _check_d_squared, _edge_order_sign, _reaches,
                              _vertex_order_sign, betti, betti_shift_matches,
                              build_marked_complex, build_oriented_complex,
                              build_oriented_complexes,
                              euler_characteristic)
from ogclab.graphs import (Graph, GraphError, StabilityProfile, contract_edge, is_acyclic,
                           is_stable)
from ogclab.linalg import RankError, SparseIntMatrix


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
    # the parity is the flavour's: hc = cell - g + n marked, cell + n oriented
    mx, ox = pair(1, 2)
    assert [r["hc_degree"] for r in betti(mx).rows()] == [2, 3]
    assert [r["hc_degree"] for r in betti(ox).rows()] == [4, 5, 6]


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


def test_betti_and_euler_failures_name_the_complex(monkeypatch):
    # both use the flavor(g=..,n=..) (variant) form of the d^2 = 0 message
    mx, ox = pair(1, 2)
    monkeypatch.setattr(GradedComplex, "rank_of_differential",
                        lambda self, k, seed=0: self.dim(k))
    with pytest.raises(ComplexError) as err:
        betti(mx)
    assert str(err.value) == "negative Betti number in marked(g=1,n=2) (full) at degree 1"
    monkeypatch.undo()
    monkeypatch.setattr(BettiTable, "euler_from_betti", lambda self: 7)
    with pytest.raises(ComplexError) as err:
        euler_characteristic(ox)
    assert str(err.value) == "Euler mismatch in oriented(g=1,n=2) (full): 0 vs 7"


def test_betti_invariant_under_label_renaming():
    a = betti(build_marked_complex(generate_marked(1, (1, 2, 3)))).betti
    b = betti(build_marked_complex(generate_marked(1, (4, 7, 9)))).betti
    assert a == b


@pytest.mark.parametrize("flavor", ["marked", "oriented"])
def test_profile_and_parity_are_the_flavours(tmp_path, flavor):
    # the stability profile and the degree parity are read off the flavour,
    # on generated and loaded catalogs, their complexes and Betti tables
    gen = generate_marked if flavor == "marked" else generate_oriented
    path = str(tmp_path / "c.json")
    _store(gen(1, (1, 2)), path)
    parity = 1 if flavor == "oriented" else 0
    for cat in (gen(1, (1, 2)), load_catalog(path)):
        assert cat.profile == getattr(StabilityProfile, flavor)()
        cxs = ((build_marked_complex(cat),) if flavor == "marked"
               else build_oriented_complexes(cat))
        for cx in cxs:
            table = betti(cx)
            assert cx.d_parity == table.d_parity == parity
            # hc = cell - g(1 - d) + n, at g = 1 and n = 2
            assert [r["hc_degree"] - r["cell_degree"] for r in table.rows()] \
                == [2 - (1 - parity)] * len(table.dims)
    # and no constructor takes them
    with pytest.raises(TypeError):
        GraphCatalog(flavor=flavor, genus=1, labels=(1, 2), profile=cat.profile)
    with pytest.raises(TypeError):
        GradedComplex(flavor=flavor, genus=1, labels=(1, 2), d_parity=parity)
    with pytest.raises(TypeError):
        BettiTable(flavor=flavor, genus=1, labels=(1, 2), d_parity=parity, dims={}, betti={})


def test_flavor_mismatch_rejected():
    mc = generate_marked(1, [1])
    with pytest.raises(ComplexError):
        build_oriented_complex(mc)
    oc = generate_oriented(1, [1])
    with pytest.raises(ComplexError):
        build_marked_complex(oc)


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


def test_stored_differentials_stay_compact():
    # oriented (1,3) retains about 54 B per stored entry as column tuples
    # and 114 B as the (row, col) -> value dict they replaced
    oc = generate_oriented(1, labels(3))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cxs = build_oriented_complexes(oc)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nnz = sum(m.nnz for cx in cxs for m in cx.diffs.values())
    assert retained / nnz < 85


def test_consensus_rank_working_set_stays_small():
    # over the oriented (1,3) full differentials, check_consensus peaks at
    # about 222 B above the stored matrix per stored entry with per-column
    # row lists over the matrix's own rows, and at 354 B with per-column
    # row sets over a modular and an integer copy of the rows
    _, ox = pair(1, 3)
    peak = nnz = 0
    for m in ox.diffs.values():
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m.check_consensus()
            peak += tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        nnz += m.nnz
    assert peak / nnz < 250


def unranked(cx):
    """``cx`` with the same bases and differentials and no ranks yet."""
    return dataclasses.replace(cx, _pivots={})


def test_rank_sweep_working_set_stays_small():
    # the whole ascending sweep over the oriented (1,3) full differentials,
    # its kept pivot columns included, peaks at about 63 B above the stored
    # matrices per stored entry; ranking every degree by check_consensus,
    # without compression, peaks at about 91 B
    _, ox = pair(1, 3)
    cx = unranked(ox)
    nnz = sum(m.nnz for m in cx.diffs.values())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx.rank_of_differential(min(cx.degrees()))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / nnz < 80


@pytest.mark.parametrize("g, n", [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4)])
def test_betti_tables_match_the_literature(g, n):
    """The marked complex in degree ``k`` is spanned by graphs with ``k``
    edges, each a cell of dimension ``k - 1`` of the moduli space of
    tropical curves Delta_{g,n}, and its homology is the reduced homology
    of Delta_{g,n}; a wedge of N spheres of dimension ``d`` thus gives
    Betti number N in cell degree ``d + 1`` and 0 elsewhere.

    Genus 1: "Delta_{1,n} is homotopy equivalent to a wedge sum of
    (n - 1)!/2 spheres of dimension n - 1, for n >= 3" (Chan, Galatius &
    Payne, Topology of moduli spaces of tropical curves with marked
    points, arXiv:1903.07187), so (n - 1)!/2 in cell degree n.

    Genus 0: Delta_{0,n} is the space of phylogenetic trees with n leaves,
    a wedge of (n - 2)! spheres of dimension n - 4 (Vogtmann, Local
    structure of some OUT(F_n)-complexes, 1990; Robinson & Whitehouse, The
    tree representation of Sigma_{n+1}, 1996), so (n - 2)! in cell degree
    n - 3; for n = 3 the space is empty, a sphere of dimension -1, and the
    corolla gives 1 in degree 0.

    Oriented: the spanning-forest quasi-isomorphism shifts the cell degree
    by the number of markings, so the same numbers n degrees higher."""
    degree, count = (n - 3, factorial(n - 2)) if g == 0 else (n, factorial(n - 1) // 2)
    mx, ox = pair(g, n)
    assert betti(mx).betti == {k: count if k == degree else 0 for k in mx.degrees()}
    assert betti(ox).betti == {k: count if k == degree + n else 0 for k in ox.degrees()}


@pytest.mark.parametrize("g, n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)])
def test_swept_ranks_match_check_consensus_at_criterion_2_pairs(g, n):
    for cx in pair(g, n):
        cx = unranked(cx)
        for k in cx.degrees():
            assert cx.rank_of_differential(k, seed=11) == \
                cx.differential(k).check_consensus(seed=11), (cx.flavor, g, n, k)


CHAIN_VALUES = [-3, -2, -1, 1, 2, 3, 5, 6]


def random_chain(rng, length=4):
    """Differentials d_1, ..., d_length with d_k d_{k+1} = 0 by
    construction: each after the first is a random integer combination of
    the vectors of a kernel basis of the one before."""
    nrows, ncols = rng.randint(1, 6), rng.randint(2, 9)
    E = {}
    for _ in range(rng.randint(1, nrows * ncols)):
        E[rng.randrange(nrows), rng.randrange(ncols)] = rng.choice(CHAIN_VALUES)
    d = SparseIntMatrix(nrows, ncols, E)
    mats = [d]
    for _ in range(length - 1):
        kernel = reference_linalg.kernel_basis(d)
        nrows, ncols = d.ncols, rng.randint(1, 9)
        E = {}
        for c in range(ncols):
            for vec in kernel:
                if rng.random() < 0.5:
                    f = rng.choice(CHAIN_VALUES)
                    for j, v in vec.items():
                        E[j, c] = E.get((j, c), 0) + f * v
        d = SparseIntMatrix(nrows, ncols, E)
        assert (mats[-1] * d).is_zero()
        mats.append(d)
    return mats


def chain_complex(mats):
    """The chain complex with differentials ``mats`` in degrees 1, 2, ..."""
    basis = {0: list(range(mats[0].nrows))}
    basis.update((k, list(range(m.ncols))) for k, m in enumerate(mats, 1))
    return GradedComplex(flavor="random", genus=0, labels=(), basis=basis,
                         diffs=dict(enumerate(mats, 1)))


def test_swept_ranks_match_check_consensus_on_random_chains():
    rng = random.Random(20261019)
    dropped = 0
    for case in range(80):
        cx = chain_complex(random_chain(rng))
        for k in cx.degrees():
            assert cx.rank_of_differential(k, seed=case) == \
                cx.differential(k).check_consensus(seed=case), (case, k)
        dropped += sum(len(cx._pivot_columns(k)) for k in cx.degrees()
                       if k + 1 in cx.diffs and cx.diffs[k + 1].nnz)
    assert dropped > 200


def test_swept_field_ranks_with_small_primes(monkeypatch):
    # modulo 2, 3 and 5 the joint elimination often falls back and then
    # reports no pivot columns, so the primes eliminate every row of the
    # next differential, while the rational field drops the rows at its own
    # pivot columns; each field's rank on its rows must still be its rank
    # on the whole matrix
    rng = random.Random(20261020)
    primes = (2, 3, 5)
    consensus, per_prime = linalg._consensus_ranks, linalg._modular_pivots
    modular_rows, per_prime_calls = [], []
    monkeypatch.setattr(linalg, "_consensus_ranks",
                        lambda rows, ps: modular_rows.append(len(rows)) or consensus(rows, ps))
    monkeypatch.setattr(linalg, "_modular_pivots",
                        lambda rows, p: per_prime_calls.append(p) or per_prime(rows, p))
    fallback = kept = 0
    for case in range(150):
        drop, fell_back = None, False
        for m in random_chain(rng):
            rows = list(m.rows().values())
            modular_rows.clear()
            per_prime_calls.clear()
            modular, pivots = linalg._field_ranks(m, primes, drop)
            if fell_back and rows:
                assert modular_rows == [len(rows)], case
                kept += len(drop[0]) > 0
            fell_back = bool(per_prime_calls)
            rational, joint = pivots
            assert modular == [len(per_prime(rows, p)) for p in primes], case
            assert len(rational) == len(linalg._rational_pivots(rows)), case
            assert len(joint) == (0 if fell_back else modular[0])
            fallback += fell_back
            drop = pivots
    assert fallback > 50 and kept > 20


def test_sweep_rank_error_names_the_matrix(monkeypatch):
    # with primes 2, 3 and 5 the first differential whose modular ranks
    # disagree stops the sweep, with check_consensus's message on it, and
    # asking again raises again instead of reading a half-filled table
    monkeypatch.setattr(linalg, "_random_primes", lambda seed: [2, 3, 5])
    monkeypatch.setattr(complexes, "_random_primes", lambda seed: [2, 3, 5])
    rng = random.Random(20261021)
    seen = 0
    for _ in range(40):
        cx = chain_complex(random_chain(rng))
        for k in cx.degrees():
            try:
                cx.differential(k).check_consensus(name=f"random(g=0,n=0) d_{k}")
            except RankError as err:
                for _ in range(2):     # a failed sweep keeps no ranks
                    with pytest.raises(RankError, match=f"^{re.escape(str(err))}$"):
                        cx.rank_of_differential(k)
                seen += 1
                break
        else:
            assert [cx.rank_of_differential(k) for k in cx.degrees()] == \
                [cx.differential(k).rank() for k in cx.degrees()]
    assert seen > 10


def test_frozen_failures_name_the_variant():
    _, frozen = build_oriented_complexes(generate_oriented(1, labels(2)))
    k = next(k for k in frozen.degrees()
             if frozen.dim(k) and k - 1 in frozen.diffs and frozen.diffs[k - 1].nnz)
    (_, i) = min(frozen.diffs[k - 1].entries)
    d = frozen.diffs[k]
    E = dict(d.entries)
    E[i, 0] = E.get((i, 0), 0) + 1     # column i of d_{k-1} is not zero
    frozen.diffs[k] = SparseIntMatrix(d.nrows, d.ncols, E)
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


def labelled_contractions(g, profile, calls):
    """``_admissible_contractions(g, profile)``, each contraction with the
    path its labelling took, read off the ``_refine`` and ``_search`` calls
    counted in ``calls`` while it was labelled: ``"root"`` (discrete at the
    initial colouring), ``"refined"`` or ``"search"``."""
    out = []
    mark = calls.copy()
    for item in _admissible_contractions(g, profile):
        kind = ("search" if calls["search"] > mark["search"] else
                "refined" if calls["refine"] > mark["refine"] else "root")
        out.append((item, kind))
        mark = calls.copy()
    return out


def counting(calls, name, fn):
    def wrapped(*args):
        calls[name] += 1
        return fn(*args)
    return wrapped


@pytest.mark.parametrize("flavor", ["marked", "oriented"])
def test_tuple_contractions_match_graph_reference(flavor, monkeypatch):
    # every edge of every cell, killed ones included, against the Graph-based
    # rule: same admissible edges and subdivider flags, and the key,
    # relabelling and sign the assembly labels each target with on the
    # generator's quotient are canonical_form's on contract_edge's target,
    # on each path of the labelling; the local cycle and stability tests
    # agree with the whole-graph ones.  Contracting a stable weight-0 cell
    # never leaves an unstable vertex, so here only the cycle test rejects;
    # test_catalogs covers the other one.
    gen, sign, ref_sign = ((generate_marked, _edge_order_sign, ref.edge_order_sign)
                           if flavor == "marked" else
                           (generate_oriented, _vertex_order_sign, ref.vertex_order_sign))
    calls = Counter()
    monkeypatch.setattr(canonical, "_refine", counting(calls, "refine", canonical._refine))
    monkeypatch.setattr(canonical, "_search", counting(calls, "search", canonical._search))
    cycles = 0
    kinds = Counter()
    for (g, n) in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (0, 3), (0, 4)]:
        cat = gen(g, labels(n))
        for entry in cat.entries():
            graph, tuples = decode_key(entry.key), key_tuples(entry.key)
            fast = labelled_contractions(tuples, cat.profile, calls)
            slow = list(ref.admissible_contractions(graph, cat.profile))
            assert [(e, flag) for (e, _, _, _, flag), _ in fast] == \
                [(e, flag) for e, _, flag in slow]
            for ((e, quotient, key, vertex_map, _), kind), (_, ref_target, _) in zip(fast, slow):
                cf = canonical_form(ref_target)
                assert (key, tuple(vertex_map)) == (cf.key, cf.vertex_map)
                assert sign(tuples[1], e, quotient, vertex_map) == ref_sign(graph, e, cf)
                kinds[kind] += 1
            admitted = {e for (e, _, _, _, _), _ in fast}
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
    assert kinds.keys() == {"root", "refined", "search"}


def test_merged_weight_past_a_byte_raises():
    # the contraction labelling refuses what canonicalize refuses on the
    # contracted graph: here a merged weight of 300
    heavy = ((200, 100), ((0, 1),), ((1, 0),), False)
    profile = StabilityProfile(min_valence={})
    with pytest.raises(GraphError, match="byte encoding"):
        list(_admissible_contractions(heavy, profile))
    with pytest.raises(GraphError, match="byte encoding"):
        canonical_form(contract_edge(Graph(*heavy), 0))
