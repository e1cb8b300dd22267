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
