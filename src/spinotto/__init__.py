"""spinotto: an exact simulator of a two-spin quantum Otto engine that charges
a qubit battery through coherent flip-flop power strokes, with the full
diagnostic toolbox (work, ergotropy, coherence, concurrence)."""

__version__ = "0.1.0"

from .diagnostics import (
    ErgotropyReport,
    Polarization,
    concurrence,
    ergotropy,
    mean_energy,
    polarization_vector,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from .engine import (
    ConfigBatch,
    ConfigError,
    CycleRecord,
    EngineConfig,
    flip_flop_propagator,
    power_stroke,
    prepare_battery,
    prepare_cold_medium,
    prepare_hot_medium,
    reset_medium,
)
from .linalg import (
    DimensionError,
    LinalgError,
    ValidationError,
    kron,
    partial_trace,
    pauli,
    validate_density,
)
from .multicycle import (
    ComparisonResult,
    EngineTrace,
    battery_map,
    compare_coherent_incoherent,
    dephase_battery,
    peak_advantage,
    run_engine,
    run_engines,
)
from .scenario import (
    PRESETS,
    ScenarioError,
    ScenarioFile,
    config_from_dict,
    config_to_dict,
    load_scenario,
    parse_scenario,
    resolve_scenario,
)
