"""Exception taxonomy shared by every module.

Each error carries an ``exit_code`` so the CLI can map failures onto its
fixed taxonomy: 1 schema, 2 invariant/contract, 3 I/O, 64 usage.
"""

from __future__ import annotations


class DiscoError(Exception):
    """Base class for all library errors."""

    exit_code = 2


# --- I/O and file-format errors (exit 3) ---------------------------------

class MissingFile(DiscoError):
    exit_code = 3


class MagicMismatch(DiscoError):
    """Binary file header does not match the expected format."""

    exit_code = 3


# --- schema errors (exit 1) -----------------------------------------------

class SchemaError(DiscoError):
    """A document parses but does not follow the declared schema."""

    exit_code = 1


# --- invariant / contract errors (exit 2) ---------------------------------

class InvariantViolation(DiscoError):
    pass


class ShapeMismatch(DiscoError):
    pass


class RowSumOutOfTolerance(DiscoError):
    pass


class EmptyDataset(DiscoError):
    pass


class InvalidDistribution(DiscoError):
    pass


class LengthMismatch(DiscoError):
    pass


class NonZeroSum(DiscoError):
    pass


class TooFewModels(DiscoError):
    pass


class BudgetExceedsDataset(DiscoError):
    pass


class InsufficientModels(DiscoError):
    pass


class IndexOutOfRange(DiscoError):
    pass


class DimensionMismatch(DiscoError):
    pass


class EmptyModel(DiscoError):
    pass


class MissingWeights(DiscoError):
    pass


class EmptySide(DiscoError):
    pass


class ZeroVariance(DiscoError):
    pass


class InvalidConfig(DiscoError):
    pass


class StaleArtifact(DiscoError):
    """An artifact's recorded input hash no longer matches the input."""

    pass


class WorkerLost(DiscoError):
    """A forked worker process ended without sending its results."""

    pass


class RankDeficiencyWarning(UserWarning):
    """Requested projection width exceeds the numeric rank of the data."""

    pass
