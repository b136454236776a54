"""Exception types shared across the package.

Exit-code mapping used by the CLI: validation problems (bad documents,
bad arguments, malformed sequences) exit with 2; resource guards
(search spaces, table sizes, graph sizes) exit with 3.
"""


class TlsynthError(Exception):
    """Base class for all package errors."""


class ValidationFailure(TlsynthError):
    """Base for errors that indicate invalid user input (CLI exit 2)."""


class GuardExceeded(TlsynthError):
    """Base for errors that indicate a resource guard tripped (CLI exit 3)."""


class ParseError(ValidationFailure):
    """A document could not be parsed; carries the offending field path."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class ValidationError(ValidationFailure):
    """A parsed document violates a structural constraint."""


class NoMatchingRule(TlsynthError):
    """No cost rule matches a concrete window pair (incomplete problem)."""


class InfinityClash(TlsynthError):
    """(+inf) + (-inf) arose; the operation has no defined value."""


class UnsupportedAggregation(ValidationFailure):
    """Operation requires sum aggregation."""


class InvalidCost(ValidationFailure, ValueError):
    """A cost the cycle-ratio analysis cannot take: a negative or -inf
    adversary cost, or a negative or -inf algorithm cost."""


class EmptyGraph(ValidationFailure):
    """Graph has no vertices."""


class GraphTooLarge(GuardExceeded):
    """Brute-force cycle enumeration guard tripped."""


class VerificationFailed(TlsynthError):
    """A table a search returned does not rate the ratio it reported (a
    lower-bound counterexample: does not rate below the bound) on an exact
    re-check; the search result must not be trusted."""


class SizeGuardExceeded(GuardExceeded):
    """A size of `base ** exponent` items passed its guard; `count` is that
    size, exact, computed only when read. The exponent is an int, or the
    triple (b, e, less) for b ** e - less, such as the windows |X|^T less
    the forced ones, which `check` builds only below 2^(2^20): a longer
    one is kept, and named, as the triple, and has no `count`."""

    def __init__(self, base, exponent, guard):
        self.base, self.exponent, self.guard = base, exponent, guard
        if isinstance(exponent, tuple):
            b, e, less = exponent
            exponent = f"({b}^{e} - {less})" if less else f"({b}^{e})"
        # Python prints no int of over 4,300 digits: a longer exponent is
        # named by its bit length
        elif exponent.bit_length() > 64:
            exponent = f"(at least 2^{exponent.bit_length() - 1})"
        super().__init__(self.message.format(base=base, exponent=exponent, guard=guard))

    @property
    def count(self):
        return self.base**self.exponent

    @classmethod
    def check(cls, base, exponent, guard):
        """Raise `cls` when `base ** exponent` passes `guard`. The exponent
        is capped at the guard's bit length, which keeps the power exact up
        to the guard and builds none far above it; a triple kept unbuilt is
        far above it."""
        if isinstance(exponent, tuple):
            b, e, less = exponent
            if b < 2 or e * (b.bit_length() - 1) <= 2**20:
                exponent = b**e - less
        cap = guard.bit_length()
        if base ** (cap if isinstance(exponent, tuple) else min(exponent, cap)) > guard:
            raise cls(base, exponent, guard)


class SearchSpaceTooLarge(SizeGuardExceeded):
    """Candidate enumeration guard tripped: `base` values per free entry."""

    message = "search space has {base}^{exponent} candidates (guard {guard})"


class TableTooLarge(SizeGuardExceeded):
    """Dense table guard tripped: `base` inputs per window of `exponent`."""

    message = "|X|^{exponent} exceeds the table guard {guard}"


class InvalidHorizon(ValidationFailure):
    """Horizon outside the range an algorithm is defined for."""


class InvalidAlpha(ValidationFailure):
    """Migration-cost parameter outside the range an algorithm accepts."""
