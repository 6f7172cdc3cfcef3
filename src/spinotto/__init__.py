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

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, before numpy is first imported. The engine's matrix products and
factorizations act on stacks of 4x4 or smaller matrices, and its largest
single product, the (4k, 4) @ (4, 3) one of bloch_vectors on the battery
images of a block of k configs, is far below the size at which OpenBLAS
splits a call across threads. So a second BLAS thread never gets work, yet
on a 2-core box starting it cost 0.12-0.14 s of CPU per process, over a
third of a `spinotto run`. Child processes inherit the variable. To run
with more threads, set OPENBLAS_NUM_THREADS before Python starts; that
value is kept. The setting has no effect when numpy was imported before
spinotto, since OpenBLAS reads it once as it loads, nor when numpy uses
another BLAS.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Kept only for bench/selftest's `from spinotto import multicycle, EngineConfig`;
# import it from spinotto.engine everywhere else.
from .engine import EngineConfig
