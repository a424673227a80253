"""Exception types shared across the package."""


class NcvSynthError(Exception):
    """Base class for all package-specific errors."""


class QuantumControl(NcvSynthError):
    """A controlled gate was applied while its control line carries a
    non-Boolean value in some truth-table row.

    Under the Boolean-control restriction such a gate is undefined in the
    quaternary model; a search must not take this edge.
    """


class TopologyViolation(NcvSynthError):
    """A gate placement uses a line pair outside the allowed interactions."""


class InvalidFunction(NcvSynthError):
    """An output vector is not a permutation of 0..7."""


class BudgetExceeded(NcvSynthError):
    """An optional cost or state-count ceiling was hit before completion."""


class IncompleteTable(NcvSynthError):
    """A cost mapping does not cover all 40,320 functions."""


class MetricMismatch(NcvSynthError):
    """Two tables being combined were built under different cost metrics."""


class IllegalCircuit(NcvSynthError):
    """A circuit violates the Boolean-control restriction, so its quaternary
    simulation is undefined."""


class CircuitParseError(NcvSynthError):
    """A circuit or function text file could not be parsed."""


class InternalError(NcvSynthError, AssertionError):
    """An internal invariant of the package failed: a bug, not bad input."""
