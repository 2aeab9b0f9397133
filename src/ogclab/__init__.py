"""Exact-arithmetic engine for the weight-zero marked and oriented graph
complexes, their cohomology, and the spanning-forest chain map between them.
"""

from .graphs import (Graph, GraphError, StabilityProfile, contract_edge,
                     contract_loop, genus, graph_from_json, graph_to_json,
                     is_acyclic, is_connected, is_stable)
from .canonical import CanonicalForm, canonical_form, perm_parity
from .catalogs import (GraphCatalog, ResourceCapExceeded, generate_marked,
                       generate_or_load, generate_oriented, load_catalog,
                       save_catalog, spanning_forests)
from .linalg import (RankError, SparseIntMatrix, kernel_basis, multiply,
                     read_matrix_market, solve_columns, write_matrix_market)
from .complexes import (BettiTable, ComplexError, GradedComplex, betti,
                        betti_shift_matches, build_marked_complex,
                        build_oriented_complex, build_oriented_complexes,
                        euler_characteristic, hc_degree)
from .zivkovic import (ForestOrientedGraph, forest_orient, psi_matrix,
                       complete_chain_map, run_verification, verify_chain_map,
                       verify_quasi_iso)

__version__ = "1.0.0"

__all__ = [
    "Graph", "GraphError", "StabilityProfile", "contract_edge", "contract_loop",
    "genus", "graph_from_json", "graph_to_json", "is_acyclic", "is_connected",
    "is_stable", "CanonicalForm", "canonical_form", "perm_parity",
    "GraphCatalog", "ResourceCapExceeded", "generate_marked", "generate_or_load",
    "generate_oriented", "load_catalog", "save_catalog", "spanning_forests",
    "RankError", "SparseIntMatrix", "kernel_basis", "multiply",
    "read_matrix_market", "solve_columns", "write_matrix_market", "BettiTable",
    "ComplexError", "GradedComplex", "betti", "betti_shift_matches",
    "build_marked_complex", "build_oriented_complex", "build_oriented_complexes",
    "euler_characteristic",
    "hc_degree", "ForestOrientedGraph", "forest_orient",
    "psi_matrix", "complete_chain_map", "run_verification", "verify_chain_map",
    "verify_quasi_iso",
]
