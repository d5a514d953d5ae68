"""Approximation algorithms and bounds for the quantum Max Cut Hamiltonian.

Given a weighted graph, the Hamiltonian places a rescaled singlet projector
on every edge; its maximum eigenvalue generalizes the Max Cut value. This
package provides the semidefinite relaxation with hyperplane and rank-3
roundings, tensor-product-of-few-qubit candidate states, efficiently
computable spectral upper bounds, a shallow variational circuit with
closed-form energies, and an exact small-instance oracle to validate all of
the above.
"""

from .bounds import BoundReport, opt_upper_bound, sdp_combined_bound, star_bound
from .circuit import (
    PipelineResult,
    VariationalCircuit,
    approximation_guarantee,
    best_angle,
    build_circuit,
    circuit_energy,
    edge_energy_sat,
    edge_energy_unsat,
    energy_curve,
    optimize_angle,
    regular_sat_envelope,
    shallow_circuit_pipeline,
)
from .graphs import (
    GraphError,
    ParseError,
    WeightedGraph,
    cut_value,
    match_forest_decompose,
    parse_graph,
    proper_edge_coloring,
    two_color_forest,
)
from .oracle import (
    ConvergenceError,
    Eigenvalue,
    ResourceLimitError,
    apply_hamiltonian,
    basis_state,
    brute_force_maxcut,
    energy,
    max_eigenvalue,
    simulate_variational_state,
)
from .sdp import (
    GramSolution,
    RoundingOutcome,
    gw_round,
    rank3_round,
    sdp_objective,
    solve_maxcut_sdp,
)
from .states import (
    CandidateReport,
    PairProductState,
    best_few_qubit_candidate,
    local_search_product_state,
    match_singlet_state,
    pair_product_energy,
    pair_product_statevector,
    product_statevector,
    tree_coloring_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
