"""Exception types shared across the package."""


class CatebenchError(Exception):
    """Base class for all package-specific errors.

    ``exit_code`` is the CLI's exit status for the error: 2 for bad input
    unless a subclass says otherwise (EmptyArm 3, Inconsistent 4, RankDeficient 5).
    """

    exit_code = 2


class EmptyOrSingleton(CatebenchError):
    """Deviation scoring needs at least two scores."""


class ZeroVariance(CatebenchError):
    """Deviation scoring is undefined when every score is equal."""


class ParseError(CatebenchError):
    """A CSV cell could not be parsed; the message carries row and column."""


class SchemaError(CatebenchError):
    """An input file is missing required columns, or a config is invalid."""


class EmptyInput(CatebenchError):
    """No rows were supplied: no training rows, or a cohort with no records."""


class DimensionMismatch(CatebenchError):
    """Feature vectors disagree in length."""


class EmptyArm(CatebenchError):
    """A required treatment arm ("R1" treated, "R0" control) has no records."""

    exit_code = 3

    def __init__(self, arm: str):
        super().__init__(f"treatment arm {arm} is empty")
        self.arm = arm


class EmptyBin(CatebenchError):
    """No students fall in the requested covariate bin."""

    def __init__(self, x1):
        super().__init__(f"no students in covariate bin {x1!r}")
        self.x1 = x1


class DomainError(CatebenchError):
    """A value lies outside its domain (e.g. session count 0, or a covariate
    with no finite bin key at the bin width)."""


class Inconsistent(CatebenchError):
    """A fitted model breaks an invariant its construction guarantees: a bug."""

    exit_code = 4


class RankDeficient(CatebenchError):
    """The regression design matrix is (numerically) rank deficient."""

    exit_code = 5


class Underdetermined(CatebenchError):
    """Fewer rows than coefficients to estimate."""

    exit_code = 5


class InvalidScenario(CatebenchError):
    """A synthetic scenario field is out of range; names the field."""

    def __init__(self, field: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"invalid scenario field {field!r}{detail}")
        self.field = field


class OutOfSupport(CatebenchError):
    """A ground-truth query lies outside the scenario's support."""
