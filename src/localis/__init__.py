"""Simulation and verification toolkit for local algorithms that generate
independent sets on random regular graphs, Erdos-Renyi graphs and
Galton-Watson trees."""

__version__ = "0.1.0"

from .coupling import (
    ConditioningError,
    CouplingConfig,
    IntersectionEstimate,
    StabilityEstimate,
    coupled_er_intersections,
    coupled_graph_intersections,
    coupled_tree_intersections,
    er_resample_graphs,
    estimate_stability,
    scan_p,
)
from .factors import (
    Factor,
    IndependentSetSample,
    apply_factor,
    beta_formula,
    constant_factor,
    estimate_tree_density,
    factor_from_spec,
    factor_spec,
    lauer_wormald,
    project_to_graph,
    threshold_factor,
)
from .graphs import (
    ConfigModelHost,
    ErdosRenyiHost,
    LazyTree,
    MultiGraph,
    PGWTreeHost,
    RegularTreeHost,
    RootedNeighborhood,
    TreeLabels,
    neighborhood,
    sample_config_model,
    sample_er,
    sample_pgw_tree,
    sample_regular_tree,
)
from .pgw_transfer import (
    TransferBlock,
    edge_removal_stage,
    event_E_probability,
    event_E_lower_bound,
    filling_out_stage,
    inclusion_stage,
    poisson_tail,
    poisson_tail_bound,
    schedule_tail_bound,
    transfer_block,
    transfer_density,
    transfer_trace,
)
from .profiles import (
    DensityProfile,
    EdgeProfile,
    PartitionMeasure,
    ProfileError,
    alpha_to_beta,
    asymptotic_rate,
    binom_sum,
    brute_force_Z,
    compatible_edge_profiles,
    entropies,
    er_log_expected_Z,
    expected_Z_total,
    intersection_edge_count,
    jensen_equality_profile,
    log_expected_Z,
    max_entropy_check,
    pi_to_rho,
    profile_from_sets,
    rate_bound,
    rho_to_pi,
)
