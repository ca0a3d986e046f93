"""Exceptions shared across the package.

The exact pipeline treats several arithmetic failures as meaningful events
rather than bugs: a non-exact polynomial division while building a gauged
operator proves that the requested gauge exponent does not algebraise the
Hamiltonian, and an operator image escaping the invariant space disproves
closure for the given parameters.  Each such event gets its own type so
callers can react to the mathematics, not to a generic ValueError.
"""


class NonZeroRemainder(ArithmeticError):
    """Exact polynomial division left a non-zero remainder."""


class NonCancellingPole(ArithmeticError):
    """A gauge-factor pole did not cancel; the exponent does not algebraise."""


class NotSymmetric(ValueError):
    """A polynomial expected to be symmetric in all variables is not."""


class InvalidDegree(ValueError):
    """The shifted degree of the invariant space is not a non-negative integer."""


class OperatorNotClosed(RuntimeError):
    """An operator image left the finite invariant space it should preserve."""


class NoConvergence(RuntimeError):
    """An eigenvalue computation failed, or gave values that cannot be trusted or
    printed: a LAPACK failure or a trace-gate defect, which a NaN or infinite
    eigenvalue always gives, since it makes the eigenvalue sum NaN or infinite."""
