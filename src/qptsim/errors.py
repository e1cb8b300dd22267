"""Exception types shared across the package."""


class QptError(Exception):
    """Base class for all package-specific errors."""


class NullEventError(QptError):
    """Conditioning on an outcome whose probability is numerically zero."""


class DegenerateReferenceError(QptError):
    """The reference matrix element is too small to normalize against.

    On a batch of tables, ``rows`` holds the failing row indices in
    ascending order; it is None for a single table.
    """

    def __init__(self, message: str, rows=None):
        self.rows = None if rows is None else tuple(int(r) for r in rows)
        super().__init__(message)


class UnfaithfulInputError(QptError):
    """The probe state is not full-rank, so the device map cannot be inverted."""

    def __init__(self, condition_number: float):
        self.condition_number = float(condition_number)
        super().__init__(
            f"input state is not faithful (condition number "
            f"{self.condition_number:.3e}); tomography requires an invertible "
            f"coefficient matrix"
        )


def shown(v) -> str:
    """A refused value as an error line shows it: its repr, but a long integer by
    its digit count and any other long repr cut short."""
    if isinstance(v, int) and not -(10**24) < v < 10**24:
        digits = int(abs(v).bit_length() * 0.30102999566398120)  # log10(2); low by at most one
        return f"a{' negative' if v < 0 else ''} {digits + (abs(v) >= 10**digits)}-digit integer"
    text = repr(v)
    return text if len(text) <= 60 else f"{text[:50]}... ({len(text)} characters)"


class PlanError(QptError, ValueError):
    """An experiment plan that cannot run; ``fields`` names the arguments at fault."""

    def __init__(self, fields: tuple, problem: str):
        self.fields, self.problem = fields, problem
        super().__init__(f"{', '.join(fields)}: {problem}")


class ConfigError(QptError):
    """Invalid pipeline configuration (CLI exit code 2)."""


class DataError(QptError):
    """Malformed or insufficient measurement data (CLI exit code 3)."""


class IncompleteQuorumError(DataError):
    """Some Pauli setting pairs have no recorded events."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        pairs = ", ".join(f"({a},{b})" for a, b in self.missing)
        super().__init__(f"incomplete quorum: no events for settings {pairs}")
