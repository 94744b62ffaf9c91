"""Exception types shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, CapacityError (and
any other OverflowError) and DomainError -> 2, IntegrityError -> 3.
"""


class UsageError(ValueError):
    """Bad arguments or a violated operation precondition."""


class CapacityError(OverflowError):
    """Inputs or results exceed the 64-bit-safe ranges the library guarantees."""


class DomainError(ValueError):
    """A bound or parameter formula was evaluated outside its real domain."""


class IntegrityError(RuntimeError):
    """A structural guarantee failed: surfaced, never swallowed."""
