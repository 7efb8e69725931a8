"""Exception types shared across the package."""


class MsslabError(Exception):
    """Base class for all errors raised by this package."""


class UniverseMismatchError(MsslabError):
    """Operands belong to different universes."""


class StructureError(MsslabError):
    """A structure is assembled or reduced inconsistently."""


class ConfigurationError(MsslabError):
    """A component is built with missing or incompatible pieces."""


class BudgetError(MsslabError):
    """An exhaustive request exceeds the feasible instance budget."""


class ParseError(MsslabError):
    """A config or spec document is malformed.

    ``field`` points at the offending entry, e.g. ``clustering[2][0]``.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
