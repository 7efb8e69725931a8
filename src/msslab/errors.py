"""Exception types shared across the package, and the reading rules of
every document the CLI reads (config, search spec, report): ``fields``, ``is_int``."""


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
    """A config, spec or report document is malformed.

    ``field`` points at the offending entry, e.g. ``clustering[2][0]``.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


def fields(document, what: str, field=None, known=None, required=None) -> dict:
    """``document``, refused unless it is a JSON object whose keys are all
    ``known`` (any, when None) and which holds the top-level ``required``."""
    if not isinstance(document, dict):
        raise ParseError(f"{what} must be a JSON object", field)
    unknown = set(document) - set(document if known is None else known)
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", field)
    if required is not None and required not in document:
        raise ParseError("missing required field", required)
    return document


def is_int(value) -> bool:
    """Whether ``value`` is a JSON integer, which a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)
