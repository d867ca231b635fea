"""Exception types shared across the library."""


class KsrError(Exception):
    """Base class for all library errors."""


class ModelMismatch(KsrError):
    """Two elements from incompatible space models were combined."""


class NoDifference(KsrError):
    """The requested Hukuhara difference does not exist."""


class NonIsotropic(KsrError):
    """Operation requires an isotropic model (e.g. unique Hukuhara differences)."""


class NotInvertible(KsrError):
    """Element has no additive inverse in its model."""


class InvalidModulus(KsrError):
    """Candidate modulus of continuity failed validation."""


class NonConcave(KsrError):
    """Operation requires a concave modulus of continuity."""


class MassMismatch(KsrError):
    """Weight pair does not carry equal total mass."""


class BadSupportOrder(KsrError):
    """Weight supports are not ordered left-support < right-support."""


class CannotCertify(KsrError):
    """A candidate extremal function could not be certified as a class member."""


class KnotViolation(KsrError):
    """Knot/half-width configuration violates the admissibility constraints."""


class WindowViolation(KsrError):
    """Divided-difference window parameters are inadmissible."""


class DomainViolation(KsrError):
    """A point lies outside the domain of the function evaluated there."""

