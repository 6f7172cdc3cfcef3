"""spinotto: an exact simulator of a two-spin quantum Otto engine that charges
a qubit battery through coherent flip-flop power strokes, with the full
diagnostic toolbox (work, ergotropy, coherence, concurrence).

The API is the modules; each public name has one import path,
spinotto.<module>.<name>:

- linalg: the matrix kernel for one and two qubits (kron, partial_trace,
  the Pauli table PAULI), the density-operator check validate_density and
  the error types;
- diagnostics: figures of merit of qubit states (Bloch vectors, energy,
  entropy, coherence, ergotropy, correlators, concurrence);
- engine: EngineConfig, ConfigBatch and their checks, state preparation,
  the flip-flop power stroke, the medium reset and the cycle record;
- multicycle: the battery map of one cycle and the stacked N-cycle runs
  (run_engines), with the coherent-incoherent comparison;
- scenario: the scenario file format, its parser and the packaged presets;
- output: the CSV and JSON writers;
- validate: the self-check suite and its oracles (stage_map, loop_engines);
- cli: the `spinotto` command.
"""

__version__ = "0.1.0"

# Kept only for bench/selftest's `from spinotto import multicycle, EngineConfig`;
# import it from spinotto.engine everywhere else.
from .engine import EngineConfig
