"""msslab: a finite-model laboratory for minimal soft clustering systems.

Build partial-algebraic structures over small universes, verify their
axioms with counterexample witnesses, compute granular rough
approximations, and validate clusterings through deficits, validity
grades, and nearness compatibility.

The public names below, and the submodules, are resolved on first use
(PEP 562), so importing the package, or one command of ``msslab.cli``,
loads only the modules whose code runs.
"""

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "delta": ("DeltaPredicate", "SumOperation"),
    "errors": (
        "BudgetError",
        "ConfigurationError",
        "MsslabError",
        "ParseError",
        "StructureError",
        "UniverseMismatchError",
    ),
    "granules": (
        "BinaryRelation",
        "Granulation",
        "close_relation",
        "is_definite",
        "predecessor_granulation",
    ),
    "sets": ("Subset", "Universe", "partial_difference"),
    "structure": (
        "Classification",
        "MssStructure",
        "assemble",
        "classify",
        "reduct",
        "replay",
        "verify",
    ),
    "validation": (
        "ValidityReport",
        "check_compatibility",
        "check_proposition",
        "lower_deficit",
        "upper_deficit",
        "validate_clustering",
        "validity_grades",
    ),
    "verdicts": ("Verdict",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# The submodules the eager package once imported stay attributes of it;
# ``from msslab import config`` imports any other submodule as usual.
_SUBMODULES = frozenset(_EXPORTS)

__all__ = sorted(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
