"""Cost-optimal synthesis of 3-line reversible circuits.

The package settles provably optimal circuits for all 40,320 reversible
functions on three lines, over the NCV gate library (NOT, CNOT, controlled-V,
controlled-V+) under arbitrary weighted gate-cost metrics and restricted
qubit interactions, and over the NCT library (NOT, CNOT, Toffoli) for
cross-library cost comparisons.  An exact unitary oracle certifies every
emitted circuit.
"""

from .analysis import (
    ComparisonReport,
    ComparisonStats,
    CostHistogram,
    compare,
    histogram,
)
from .errors import (
    BudgetExceeded,
    CircuitParseError,
    IllegalCircuit,
    IncompleteTable,
    InternalError,
    InvalidFunction,
    MetricMismatch,
    NcvSynthError,
    QuantumControl,
    TopologyViolation,
)
from .model import (
    CNOT,
    Circuit,
    CircuitState,
    CostMetric,
    FULL_TOPOLOGY,
    Gate,
    METRICS,
    NCV_012,
    NCV_111,
    NCV_155,
    NOT,
    PATH_TOPOLOGY,
    TOF,
    TOPOLOGIES,
    Topology,
    V,
    VPLUS,
    apply_circuit,
    apply_gate,
    circuit_cost,
    enumerate_gates,
    invert_circuit,
    invert_function,
    realized_function,
    relabel_circuit,
    relabel_function,
    vswap,
)
from .nct import (
    settle_all_nct,
    substituted_weight,
    toffoli_decomposition,
    toffoli_substitute,
)
from .search import (
    N_FUNCTIONS,
    SearchOptions,
    SynthesisTable,
    WitnessPaths,
    exhaustive_oracle,
    settle_all,
    synthesize_one,
)
from .verify import (
    check_model_consistency,
    check_realizes,
    circuit_unitary,
    gate_unitary,
    permutation_matrix,
    verify_witnesses,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
