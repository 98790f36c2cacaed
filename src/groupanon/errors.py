"""Exception types shared across the package."""


class GroupAnonError(Exception):
    """Base class for all library errors."""


class SchemaError(GroupAnonError):
    """Attribute schema is malformed or inconsistent with the data."""


class ParseError(GroupAnonError):
    """A delimited input file could not be parsed."""


class SignalError(GroupAnonError):
    """A goal signal cannot be built or converted."""


class WaveletError(GroupAnonError):
    """Invalid filter bank input or decomposition request."""


class ConstraintError(GroupAnonError):
    """A constraint system is malformed or cannot be solved."""


class InfeasibleError(ConstraintError):
    """No point satisfies the constraint system.

    ``conflict`` holds a best-effort irreducible set of conflicting rows, each
    named by ``LinearProgram.describe_row(j)``: ``rows[j]: <row text>``, j its
    0-based index in ``constraints.rows``.
    """

    def __init__(self, message: str, conflict: list | None = None):
        super().__init__(message)
        self.conflict = conflict or []


class UnboundedError(ConstraintError):
    """The objective can be improved without limit."""


class RemapError(GroupAnonError):
    """A swap plan cannot be constructed or applied."""


class ConfigError(GroupAnonError):
    """Pipeline configuration file is invalid."""


class StageError(GroupAnonError):
    """A pipeline stage failed; carries stage and group tags."""

    def __init__(self, stage: str, group: str, message: str):
        super().__init__(f"[{stage}:{group}] {message}")
        self.stage = stage
        self.group = group
