"""Exception types shared across the package."""

from contextlib import contextmanager


class LampError(Exception):
    """Base class for every error raised by this package."""


class NonSquareError(LampError):
    """Raw transition data is not a square matrix."""


class NotADistributionError(LampError):
    """A vector is not a probability distribution."""


class NegativeEntryError(NotADistributionError):
    """A probability entry is negative."""


class RowSumError(NotADistributionError):
    """A matrix row does not sum to 1 within tolerance."""


class DuplicateLabelError(LampError):
    """State labels are not unique."""


class DimensionMismatchError(LampError):
    """Shapes or state spaces of two objects do not line up."""


class NotIrreducibleError(LampError):
    """The chain is reducible where irreducibility is required."""


class InvalidInitStateError(LampError):
    """Simulation was asked to start from a state that does not exist."""


class UnknownTokenError(LampError):
    """A token is not part of the relevant state space."""


class EmptyHistoryError(LampError):
    """A predictive distribution was requested for an empty history."""


class ZeroProbabilityError(LampError):
    """A scored symbol has model probability zero (model/data mismatch)."""


class TooShortError(LampError):
    """A sequence is too short for the requested operation."""


class DegenerateComponentError(LampError):
    """The largest strongly connected component cannot carry a chain."""


class InvalidProbabilityError(LampError):
    """A probability is not finite, or a parameter is outside its valid open interval."""


class MalformedRowError(LampError):
    """A tabular input row has the wrong number of columns."""


class MalformedFileError(LampError):
    """An input file's content cannot be read as what the file should hold."""


@contextmanager
def malformed_file(path):
    """Raise :class:`MalformedFileError`, naming ``path``, for content that
    fails to parse: text that is not UTF-8 or not JSON, a missing field, a
    ragged or non-numeric matrix, a label that is not a string."""
    try:
        yield
    except KeyError as exc:
        raise MalformedFileError(f"malformed file {path}: no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(f"malformed file {path}: {exc}") from exc


class EmptyCorpusError(LampError):
    """The corpus contains no usable sequences."""


class RareTokenCollisionError(LampError):
    """The replacement token already occurs in the vocabulary."""


class EmptySequenceError(LampError):
    """A per-sequence statistic was requested for an empty sequence."""


class DegenerateInitError(LampError):
    """A fit was initialised with structural zeros that the data requires."""


class LagTooLargeError(LampError):
    """The requested lag exceeds what the sequence can support."""


class UnwritableLabelError(LampError):
    """A label cannot be written as one token of a Lines file."""


class ConfigError(LampError):
    """Invalid command-line configuration."""


class IllConditionedError(LampError):
    """A solve lost too much accuracy for its result to be trusted."""
