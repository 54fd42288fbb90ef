"""Exception hierarchy shared by all analysis modules."""

import math


class MixedMilnorError(Exception):
    """Base class for every error raised by this package."""


class PolySyntaxError(MixedMilnorError, ValueError):
    """Malformed polynomial, arc or point-coordinate text.

    Carries the 0-based position of the offending token and a short
    description of what was expected there.
    """

    def __init__(self, position, expected, text=""):
        self.position = position
        self.expected = expected
        self.text = text
        super().__init__(f"at position {position}: expected {expected}")


class OddModulusExponentError(PolySyntaxError):
    """|z_k|^e sugar only desugars for even e."""

    def __init__(self, position, exponent):
        self.position = position
        self.expected = "even exponent on modulus factor"
        self.exponent = exponent
        MixedMilnorError.__init__(
            self, f"at position {position}: |z_k|^{exponent} needs an even exponent"
        )


class ZeroPolynomialError(MixedMilnorError, ValueError):
    """Operation requires a nonzero polynomial."""


class TooManyVariablesError(MixedMilnorError, ValueError):
    """Subset enumeration is guarded at 16 variables, and face enumeration at
    15, where every polyhedron has more than 20,000 faces."""


class TooManySupportPointsError(MixedMilnorError, ValueError):
    """Exact face enumeration is guarded at 64 support points and at 20,000
    faces of the Newton polyhedron, or facets held by one double description
    step."""


class VanishingSubsetError(MixedMilnorError, ValueError):
    """Subset I was expected to be non-vanishing (f^I != 0)."""


class NotVanishingError(MixedMilnorError, ValueError):
    """Subset I was expected to be vanishing (f^I == 0)."""


class NotEssentialFaceError(MixedMilnorError, ValueError):
    """Face is not an essential non-compact face."""


class TruncationOverflowError(MixedMilnorError, ValueError):
    """Requested series order exceeds what the arc jets can support."""


class TruncationExhaustedError(MixedMilnorError, ValueError):
    """Arc jets are too short to resolve a limit-tangent reduction step."""


class ArcInsideVarietyError(MixedMilnorError, ValueError):
    """f vanishes identically along the arc; no limit tangent exists."""


class BadArcError(MixedMilnorError, ValueError):
    """Arc unsuitable for the analysis: identically zero, or not limiting
    into the open stratum of C^I."""


class SingularFiberError(MixedMilnorError, ValueError):
    """Point is (numerically) a mixed critical point of its fiber."""


class AllValuesZeroError(MixedMilnorError, ValueError):
    """f vanished on every sample of the probe neighborhood."""


class NonFiniteValuesError(MixedMilnorError, ArithmeticError):
    """f's values at the probe samples overflow or are not numbers, or an
    exact coefficient is beyond float range, or an exponent beyond the int64
    range of the float term table.  Not an OverflowError, which the searches
    score as an infinite objective."""


class NotStronglyPolarError(MixedMilnorError, ValueError):
    """Face function is not strongly polar weighted homogeneous with pdeg > 0."""


class NotStronglyPolarFaceTypeError(NotStronglyPolarError):
    """Some face of the input fails strong polar positivity, so the zeta
    product formula does not apply."""


class NegativeReducedExponentError(MixedMilnorError, ValueError):
    """Polar reduction produced a negative exponent (Laurent case, unsupported)."""


class ZetaIntegralityError(MixedMilnorError, ArithmeticError):
    """pdeg does not divide chi; signals an upstream bug or invalid input."""


class DimensionMismatchError(MixedMilnorError, ValueError):
    """Arguments disagree on the number of variables."""


class UnknownCorpusNameError(MixedMilnorError, KeyError):
    """No corpus polynomial under that name."""


class BadParamsError(MixedMilnorError, ValueError):
    """Corpus parameters outside the documented range."""


class NonPositiveArgumentError(MixedMilnorError, ValueError):
    """A radius, tolerance, sample count or budget that must be positive is not."""


def require_positive(**values):
    """Raise NonPositiveArgumentError unless every value is positive and finite."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise NonPositiveArgumentError(f"{name} must be positive and finite, got {value}")


class BadRequestError(MixedMilnorError, ValueError):
    """A command-line value or a batch line that cannot be read or served."""
