"""Exception hierarchy shared by all meankit modules."""


class MeanKitError(Exception):
    """Base class for every error raised by this package."""


# --- sample and domain construction ---------------------------------------

class LengthMismatch(MeanKitError):
    pass


class NegativeWeight(MeanKitError):
    pass


class AllWeightsZero(MeanKitError):
    pass


class EntryOutOfDomain(MeanKitError):
    pass


class MismatchedEntries(MeanKitError):
    pass


# --- expression language and differentiation -------------------------------

class ExprSyntaxError(MeanKitError):
    """Malformed expression text; ``offset`` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunction(MeanKitError):
    pass


class UnboundVariable(MeanKitError):
    pass


class DomainError(MeanKitError):
    """A mathematical function was evaluated outside its domain."""


class NonFinite(MeanKitError):
    """An evaluation overflowed to +/-inf or produced NaN."""


# --- classical means --------------------------------------------------------

class NonPositiveEntry(MeanKitError):
    pass


class GeneratorNotMonotone(MeanKitError):
    pass


class SolverFailure(MeanKitError):
    pass


class VanishingFirstDerivative(MeanKitError):
    pass


class Diverged(MeanKitError):
    pass


class DegenerateDenominator(MeanKitError):
    pass


# --- semideviation machinery ------------------------------------------------

class KernelEvaluationError(MeanKitError):
    pass


class AmbiguousClassification(MeanKitError):
    pass


class NotNormalizable(MeanKitError):
    pass


class NoSignChange(MeanKitError):
    pass


# --- homogenization ----------------------------------------------------------

class EmptyAdmissibleSet(MeanKitError):
    pass


class AllEvaluationsFailed(MeanKitError):
    pass


class SignPropertyViolated(MeanKitError):
    pass


class NotConverged(MeanKitError):
    pass
