"""Exception hierarchy for effvec: one base class and five roles.

``effvec`` exits with code 2 on any EffvecError.
"""


class EffvecError(Exception):
    """Base class for all effvec errors."""


class InputError(EffvecError):
    """Malformed input: bad shape, a non-positive or non-reciprocal entry,
    an unparsable cell, or an invalid parameter."""


class DimensionMismatch(EffvecError):
    """Sizes that must agree do not."""


class PreconditionError(EffvecError):
    """A result's hypothesis does not hold, e.g. w[0:s] is not efficient
    for B in the bounded-tail class."""


class NoConvergence(EffvecError):
    """An iteration did not reach its tolerance."""


class InternalError(EffvecError):
    """A mathematically guaranteed property failed; signals an implementation bug."""
