"""Exception types shared across the package.

Every error raised on purpose derives from TopographError, so callers can
catch one base class.  The subclasses mirror the failure modes that exact
arithmetic on trees actually has: bad input values, violated call contracts,
broken structural invariants, runaway recursion depth, and a combine rule
blowing up somewhere inside a tree walk.
"""


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
