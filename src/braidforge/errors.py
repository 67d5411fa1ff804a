"""Exception taxonomy shared by all braidforge modules."""

from __future__ import annotations


class BraidforgeError(Exception):
    """Base class for all errors raised by braidforge.

    Carries an optional ``witness`` describing where it happened; ``str``
    of the error is its message alone.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ShapeMismatchError(BraidforgeError):
    """Operator shapes do not conform (composition, embedding, comparison)."""


class SingularMatrixError(BraidforgeError):
    """Inversion of a singular operator was requested."""


class CapExceededError(BraidforgeError):
    """A configured size cap (tensor dimension, carrier, enumeration space) was exceeded."""


class SchemaError(BraidforgeError):
    """A JSON document does not match its declared schema."""


class NotCertifiedError(BraidforgeError):
    """A construction required a certified input but got an unchecked one."""


class PreconditionError(BraidforgeError):
    """A construction's mathematical precondition failed."""


class NotNilpotentError(PreconditionError):
    """Exact-mode exponential of a non-nilpotent map was requested."""


class SeriesNotConvergedError(PreconditionError):
    """Float-mode exponential series still had a large term at the iteration cap."""


class NotClosedError(BraidforgeError):
    """A bracket of group-like elements left the set of found group-likes."""


class VerdictDisagreementError(BraidforgeError):
    """Two verdicts that a theorem forces to agree came out different.

    This is an internal error: it would falsify the equivalence the
    construction is built on.
    """
