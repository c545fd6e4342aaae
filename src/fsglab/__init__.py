"""fsglab: guess-and-determine cryptanalysis workbench for LFSR/NFSR filter
generators.

Models shift-register keystream generators, counts repeated state-bit
equations under constant and variable sampling schedules, evaluates the
resulting attack costs, searches for resistant tap placements, and executes
the attacks at desk scale against planted states.
"""

__version__ = "0.1.0"

from .sampling import (  # noqa: F401
    DifferenceScheme,
    NoOverdefinedSystemError,
    RankStop,
    RepetitionProfile,
    SampleStop,
    SamplingSchedule,
    TapSet,
    consecutive_differences,
    constant_profile,
    cyclic_schedule,
    difference_scheme,
    greedy_schedule,
    hybrid_window_profile,
    is_fpds,
    lambda_order,
    repeated_count_constant,
    repeated_count_variable,
    repetition_profile,
    scheme_q_sequence,
)
from .registers import (  # noqa: F401
    FilterSpec,
    GeneratorSpec,
    HybridSpec,
    HybridTaps,
    LfsrSpec,
    NfsrSpec,
    keystream,
    preimage_table,
    primitive_lfsr,
    primitive_lengths,
)
from .complexity import (  # noqa: F401
    ComplexityEstimate,
    WindowCostEstimate,
    fsga_cost,
    gfsga_constant_cost,
    gfsga_variable_cost,
    internal_state_recovery_cost,
    optimal_constant_sigma,
    restricted_annihilator_cost,
)
from .optimizer import (  # noqa: F401
    CandidateDifferenceSet,
    FeasibilityError,
    Scorecard,
    SearchExhaustedError,
    StagedSearchParams,
    calibrate_filter_width,
    scorecard,
    staged_search,
    step_a_candidates,
    step_ab_best_ordering,
    step_b_best_ordering,
)
from .attack import (  # noqa: F401
    AttackResult,
    KeystreamFormatError,
    WindowRecovery,
    gfsga_recover,
    nfsr_window_recover,
    read_keystream_file,
    write_keystream_file,
)
