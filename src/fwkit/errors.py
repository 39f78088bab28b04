"""Exception hierarchy shared by all fwkit modules, and the finiteness and size tests behind
input checks."""

import math

import numpy as np


class FwkitError(Exception):
    """Base class for all errors raised by fwkit."""


class InputError(FwkitError):
    """Malformed or out-of-domain input (wrong dimension, non-finite data)."""


class ContractViolation(FwkitError):
    """A documented precondition was violated by the caller."""


class CapabilityError(FwkitError):
    """The requested operation is not supported for this variant/region."""


class NumericalError(FwkitError):
    """An iterative routine failed to converge or hit its safety cap."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def count_in(value, what, low=1, high=math.inf):
    """``value`` as an int, refused outside [low, high]: a region's or family's size check."""
    if not low <= int(value) <= high:
        raise InputError("%s must be in [%d, %s], got %r" % (what, low, high, value))
    return int(value)


def all_finite(v):
    """True when every entry of the float array ``v`` is finite.

    A finite sum of squares proves it in one dot product.  When that sum is
    not finite (a non-finite entry, or finite entries whose squares
    overflow, such as 1e200) the entries are tested one by one.  The sum is
    taken by ``np.vdot``, which unlike ``ndarray.dot`` warns of no overflow.
    """
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())
