"""Semantic exception hierarchy.

Everything raised by this package derives from ``WslrrError``.  Input and
parameter problems derive from ``ValidationError``; the CLI maps those to
exit code 2 and any other failure to exit code 1.
"""


class WslrrError(Exception):
    """Base class for all package errors."""


class ValidationError(WslrrError, ValueError):
    """Invalid inputs: shapes, parameters, schemas, preconditions."""


# ---- finite joint / marginals ------------------------------------------------

class NonNormalized(ValidationError):
    """Joint probabilities do not sum to one within tolerance."""


class NegativeEntry(ValidationError):
    """A probability entry is negative."""


class ZeroInstanceMass(ValidationError):
    """Some instance has zero marginal probability."""


class ShapeMismatch(ValidationError):
    """Array shapes are inconsistent with the declared dimensions."""


class EmptyClass(ValidationError):
    """A class has zero prior probability."""


class IndexOutOfRange(ValidationError, IndexError):
    """Instance index outside the finite support."""


# ---- scenario parameters -----------------------------------------------------

class DegenerateParams(ValidationError):
    """Scenario parameters violate an assumption (e.g. mixing rates sum to 1)."""


class ZeroConfidence(ValidationError):
    """A required class probability r_k(x) is zero."""


class KTooLarge(ValidationError):
    """Class count exceeds the compound-label cap."""


class NotBinary(ValidationError):
    """Scenario requires exactly two classes."""


class ZeroPairMass(ValidationError):
    """A pair (x, x') has zero product mass."""


class NotAnEdge(ValidationError):
    """Requested (parent, child) pair is not on the reduction graph."""


# ---- decontamination ---------------------------------------------------------

class NonSquare(ValidationError):
    """Inversion requested for a non-square contamination system."""


class Singular(WslrrError):
    """Contamination matrix is (numerically) singular."""


class WrongFamily(ValidationError):
    """Method not defined for this scenario family."""


class BadSize(ValidationError):
    """Compound-label size outside 1..K-1."""


# ---- losses / risk -----------------------------------------------------------

class NonFiniteScore(ValidationError):
    """Score vector contains NaN or infinity."""


class NonFiniteConfidence(ValidationError):
    """A dataset's stored confidence is NaN or infinite."""


class UnsupportedScenario(ValidationError):
    """No closed form (or handler) registered for this scenario."""


class EmptyChannel(ValidationError):
    """An estimator channel received zero samples."""


class SpecMismatch(ValidationError):
    """Dataset was generated under a different scenario spec."""


class NonDifferentiableLoss(ValidationError):
    """Gradient requested for a non-differentiable loss."""


# ---- data generation / serialization ----------------------------------------

class ZeroChannelMass(ValidationError):
    """Samples requested from a channel with zero total probability."""


class ParseError(ValidationError):
    """Input text is not valid JSON of the expected kind."""


class SchemaMismatch(ValidationError):
    """JSON parsed but does not match the documented schema."""


# ---- training ----------------------------------------------------------------

class Diverged(WslrrError):
    """Empirical risk or parameters became non-finite during training."""
