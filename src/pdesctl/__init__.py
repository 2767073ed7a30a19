"""Supervisory control of probabilistic discrete event systems under
partial observation: verification, supervisor synthesis, and infimal
achievable superlanguages, all in exact arithmetic."""

from .values import EPS, ONE, ZERO, EpsProb, format_prob, format_rat, parse_prob, parse_rat
from .automata import (
    Alphabet,
    AlphabetMismatchError,
    FormatError,
    InvariantError,
    Pdes,
    PdesError,
    Verdict,
    Witness,
    dumps_automaton,
    explore,
    is_subautomaton,
    is_sublanguage,
    language_equivalent,
    loads_automaton,
    minimize,
    minimize_logic,
    observer,
    observer_automaton,
    product,
)
from .patterns import (
    PatternDistribution,
    distribution_from_marginals,
    marginals_of,
    pattern_enables,
)
from .supervisor import (
    NotControllableError,
    NotObservableError,
    NotSublanguageError,
    ObservationClasses,
    ScalingMap,
    SupervisorMap,
    SynthesisError,
    controlled_automaton,
    controlled_language_value,
    controlled_xi,
    dumps_scaling_map,
    dumps_supervisor_map,
    loads_scaling_map,
    loads_supervisor_map,
    observation_classes,
    scaling_from_spec,
    scaling_from_supervisor,
    supervisor_from_scaling,
)
from .verification import (
    TestingAutomatonTC,
    TestingAutomatonTO,
    build_tc,
    build_to,
    check_controllable,
    check_observable,
)
from .infimal import (
    infimal_co_support,
    infimal_pipeline,
    refine_to_normal,
    reweight_infimal,
    strip_eps_edges,
)
from .simulate import FrequencyReport, ReportRow, TrialConfig, run_trials

__version__ = "0.1.0"
