"""Exception types shared across the package."""


class QptError(Exception):
    """Base class for all package-specific errors."""


class NullEventError(QptError):
    """Conditioning on an outcome whose probability is numerically zero."""


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
    try:
        text = repr(v)
    except RecursionError:  # a list from a config nested nearly as deep as JSON reads
        text = f"a {type(v).__name__} nested too deeply to show"
    return text if len(text) <= 60 else f"{text[:50]}... ({len(text)} characters)"


def shown_path(path) -> str:
    """A file path as an error line names it: whole up to 60 characters, else its
    last 57 after '...', which keep the file name."""
    text = str(path)
    return text if len(text) <= 60 else f"...{text[-57:]}"


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


class DegenerateReferenceError(DataError):
    """The reference population is too small to normalize against, in a single
    table or in some row of a batch, such as a bootstrap's resamples."""
