"""Exception hierarchy shared by all gmalg modules."""


class GmalgError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatchError(GmalgError):
    """Operands built over different scalar fields."""


class DimensionMismatchError(GmalgError):
    """Shapes or ambient dimensions do not line up."""


def _count(n: int) -> str:
    """n in decimal, or past 256 bits by its bit length: Python refuses to
    convert an int of more than 4300 digits to a string."""
    return str(n) if n.bit_length() <= 256 else f"at least 2**{n.bit_length() - 1}"


class BudgetExceededError(GmalgError):
    """A computation would exceed the configured resource budget."""

    def __init__(self, what: str, required: int, allowed: int):
        super().__init__(
            f"{what}: needs {_count(required)}, budget allows {_count(allowed)}")
        self.what = what
        self.required = required
        self.allowed = allowed


class InvalidContextError(GmalgError):
    """A Morita context failed validation; carries the report."""

    def __init__(self, report):
        super().__init__(f"context validation failed: {report.summary()}")
        self.report = report


class ExtremalPreconditionError(GmalgError):
    """Seed element does not annihilate the commutator span; carries the
    seed's coordinates."""

    def __init__(self, seed):
        self.seed = tuple(seed)
        super().__init__(f"seed ({', '.join(map(str, self.seed))}) does not "
                         "commute with the commutator span")


class LieLeibnizError(GmalgError):
    """Input map is not an n-Lie derivation; carries the failing slot/tuple."""

    def __init__(self, witness):
        super().__init__(f"map fails the slot Leibniz law at {witness}")
        self.witness = witness


class SpecFileError(GmalgError):
    """A spec or map file could not be parsed or failed validation on load."""
