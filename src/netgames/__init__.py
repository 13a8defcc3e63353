"""Seedable simulator for memory-one prisoner's dilemma strategies on networks."""

from .engine import (
    Population,
    class_mean_degrees,
    init_hubs,
    init_random,
    play_step,
    reset_node,
)
from .evolution import (
    AdoptionConfig,
    MoranConfig,
    RunRecord,
    adoption_event,
    adoption_probability,
    moran_event,
    run,
)
from .experiments import (
    PRESET_NAMES,
    Scenario,
    SweepResult,
    correlate,
    load_config,
    preset,
    reduced_profile,
    run_scenario,
)
from .networks import (
    EmptyGraph,
    InfeasibleDegree,
    InvalidParameter,
    Network,
    TargetUnreachable,
    assortativity,
    barabasi_albert,
    complete_graph,
    degree_stats,
    fit_power_law,
    read_edgelist,
    regular_random,
    rewire_to_assortativity,
    write_edgelist,
)
from .pairchain import (
    ExpectedPayoffPair,
    expected_payoffs,
    limit_distribution,
    monte_carlo_payoffs,
)
from .strategies import (
    CATALOG,
    CATALOG_NAMES,
    DEFAULT_MATRIX,
    InfeasibleZD,
    MemoryOneStrategy,
    Outcome,
    PayoffMatrix,
    UnknownStrategy,
    named_strategy,
    round_payoffs,
    zd_complete,
    zd_pinned_payoff,
)

__version__ = "0.1.0"
