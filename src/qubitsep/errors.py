"""Exception types shared across the package."""


class QubitSepError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(QubitSepError):
    """An input value is non-numeric, ragged, misshapen, non-finite or out of range."""


class ContractViolationError(QubitSepError):
    """An input violates a documented precondition, e.g. a non-Hermitian matrix."""


class InvalidStateError(QubitSepError):
    """The input is not a valid quantum state; `spectrum` holds the one that showed it
    (read-only, ascending, 4*lambda units)."""

    def __init__(self, message: str, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class NoPhysicalBoostError(QubitSepError):
    """No boost with beta^2 < 1 solves the elimination conditions."""


class BoostLimitError(NoPhysicalBoostError):
    """A required boost parameter reaches the light-speed limit |beta| -> 1."""


class SolverInconsistencyError(QubitSepError):
    """A solved boost failed its own elimination certificate."""


class SamplingExhaustedError(QubitSepError):
    """Rejection sampling failed to produce a valid state within the attempt bound."""
