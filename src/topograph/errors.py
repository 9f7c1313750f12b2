"""Exception types shared across the package.

Every error raised on purpose derives from TopographError, so callers can
catch one base class.  The subclasses mirror the failure modes that exact
arithmetic on trees actually has: bad input values, violated call contracts,
broken structural invariants, runaway recursion depth, and a combine rule
blowing up somewhere inside a tree walk.

A message that shows a caller's value shows it through shown, the one rule
for a value that may have any number of digits.
"""

from fractions import Fraction

# An int past this many bits is named in a message by its size.  Python
# writes no int past sys.get_int_max_str_digits() digits in decimal (4,300
# by default, and the limit can be set no lower than 640), and 2,000 bits is
# 603 digits, so a message never depends on that setting.
SHOWN_INT_BITS = 2000


class TopographError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TopographError, ValueError):
    """An argument lies outside the operation's domain."""


class PreconditionError(TopographError, ValueError):
    """A documented precondition on the call was violated."""


class InvariantError(TopographError, RuntimeError):
    """A structural invariant that should always hold failed to hold."""


class DepthLimitError(TopographError, RuntimeError):
    """A tree operation exceeded the configured depth cap."""


class CombineError(TopographError, RuntimeError):
    """A combine rule failed during a tree walk.

    Carries the path prefix at which the failure happened so the caller
    can pinpoint the offending node.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"combine failed at node {path or 'root'!r}: {message}")


def shown(value, show=repr) -> str:
    """value as a message shows it: show(value), but an int past SHOWN_INT_BITS
    bits by its bit length, and a Fraction with such a part by its parts'."""
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        if max(num.bit_length(), den.bit_length()) > SHOWN_INT_BITS:
            sign = "negative " if num < 0 else ""
            return f"<{sign}fraction of {num.bit_length()} bits over {den.bit_length()} bits>"
    elif isinstance(value, int) and value.bit_length() > SHOWN_INT_BITS:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
    return show(value)
