"""Error taxonomy.

Every failure the library raises on purpose derives from MooreError, so
callers (and the command-line front end) can distinguish domain errors
from genuine bugs.  InternalError is reserved for invariant breaches
that indicate a defect in the library itself, never bad input.
"""


class MooreError(Exception):
    """Base class for all library-level errors."""


class IncompatibleRingError(MooreError):
    """Operands live over different coefficient rings."""


class NotAUnitError(MooreError):
    """Inversion or unit-division was attempted on a non-unit."""


class NoUniformizerError(MooreError):
    """A valuation-ring operation was called in a mode with no uniformizer."""


class FieldRequiredError(MooreError):
    """The operation needs field coefficients (exact linear algebra)."""


class ZeroDivisorError(MooreError):
    """A hypothesis requires a non-zero-divisor and the input violates it."""


class CompositionError(MooreError):
    """Series substitution with a nonzero constant term, or similar misuse."""


class NotInvertibleError(MooreError):
    """The series or endomorphism has no compositional inverse."""


class HeightUndefinedError(MooreError):
    """No nonzero coefficient within the working truncation."""


class PrecisionError(MooreError):
    """The working precision or truncation is too small to decide."""


class RankUndeterminedError(MooreError):
    """Exact elimination found no unit pivot; rank cannot be certified."""


class ParityError(MooreError):
    """A parity/degree-support constraint is violated."""


class StructureError(MooreError):
    """Malformed algebra data (bad variant fields, wrong support)."""


class WildCaseError(MooreError):
    """Characteristic divides a structural degree; no algorithm is provided."""


class BasisError(MooreError):
    """Mismatched or malformed graded basis."""


class FactorizationError(MooreError):
    """Pollard-Brent rho found no factor of a composite within its step budget.

    `cofactor` is the composite left unfactored.
    """

    def __init__(self, cofactor: int, steps: int):
        super().__init__(f"no factor of the composite {cofactor} in {steps} rho steps")
        self.cofactor = cofactor


class ParseError(MooreError):
    """Text input failed to parse.  `pos` is the 0-based offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class InternalError(MooreError):
    """An internal invariant failed; this is a bug, not bad input."""
