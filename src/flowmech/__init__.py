"""Exact-rational payoff mechanisms and property audits for max-flow games
with privately reported edge capacities."""

from .audits import (
    AUDITS,
    AuditReport,
    DeviationWitness,
    SweepTrace,
    audit_all,
    best_deviation,
    check_cm,
    check_dsic,
    check_mp,
    check_sir,
    check_sp,
    cross_effect_sweep,
    merge_parallel,
    parallel_pairs,
    random_network,
    shapley_relation_probe,
    split_edge,
)
from .complementarity import (
    CapLattice,
    ComplementarityVerdict,
    ConstantClaim,
    Relation,
    classify_complementarity,
    probe_constant_relation,
    structural_pattern,
)
from .cuts import (
    UNBOUNDED,
    MinimalCutFamily,
    PairKind,
    PairStructure,
    classify_pair_structure,
    critical_value,
    enumerate_minimal_cuts,
    min_cut_nearest_source,
    minimal_cuts_bruteforce,
)
from .fixtures import fixture_names, fixture_text, load_fixture, write_fixtures
from .game import CharacteristicCache, mask_of, members_of
from .guards import SizeGuardError
from .maxflow import FlowResult, coalition_value, max_flow
from .mechanisms import (
    MECHANISMS,
    Allocation,
    CoreVerdict,
    core_bounds,
    core_bounds_all,
    core_check,
    core_select_nearest_cut,
    mc_allocate,
    mc_no_step_one,
    resolve_mechanism,
    shapley,
    shapley_permutation_oracle,
)
from .network import (
    Diagnostic,
    Edge,
    FlowNetwork,
    NetworkError,
    ParseError,
    ValidationReport,
    as_rational,
    parse_network,
    prune_to_paths,
    render_network,
    resolve_reports,
    validate,
)

__version__ = "0.1.0"
