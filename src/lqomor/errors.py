"""Exception hierarchy shared by the whole toolkit.

Every error carries a short machine-readable ``code`` and a ``context``
dict so the command line front end can emit structured error reports.
"""


class LqoError(Exception):
    """Base class for all toolkit errors."""

    code = "error"

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class ValidationError(LqoError):
    """Invalid input data or violated precondition."""

    code = "validation"


class DimensionError(ValidationError):
    code = "dimension"


class NonFiniteError(ValidationError):
    code = "nonfinite"


class SchemaError(ValidationError):
    """Malformed system file; context carries the offending field path."""

    code = "schema"


class SignalSyntaxError(ValidationError):
    """Unparsable input-signal expression; context carries the byte offset."""

    code = "signal_syntax"


class NumericalError(LqoError):
    """A numerical operation failed on otherwise well-formed input."""

    code = "numerical"


class HurwitzError(ValidationError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""

    code = "not_hurwitz"


class SolverError(NumericalError):
    """Singular or ill-posed matrix-equation solve."""

    code = "solver"


class RankError(NumericalError):
    """Rank deficiency detected during a factorization or sweep."""

    code = "rank"


class SignalEvalError(NumericalError):
    """Signal expression produced a non-finite value."""

    code = "signal_eval"
