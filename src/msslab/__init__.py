"""msslab: a finite-model laboratory for minimal soft clustering systems.

Build partial-algebraic structures over small universes, verify their
axioms with counterexample witnesses, compute granular rough
approximations, and validate clusterings through deficits, validity
grades, and nearness compatibility.
"""

from .delta import DeltaPredicate, NearnessMap, SumOperation
from .errors import (
    BudgetError,
    ConfigurationError,
    MsslabError,
    ParseError,
    StructureError,
    UniverseMismatchError,
)
from .granules import (
    BinaryRelation,
    Granulation,
    close_relation,
    is_definite,
    predecessor_granulation,
)
from .sets import (
    PartialResult,
    Subset,
    Universe,
    partial_difference,
)
from .structure import (
    Classification,
    MssStructure,
    assemble,
    classify,
    reduct,
    replay,
    verify,
)
from .validation import (
    CLUE_SINGLETON,
    OVERLAP_CLOSER,
    Clustering,
    CompatibilityMode,
    ValidityReport,
    check_compatibility,
    check_proposition,
    lower_deficit,
    upper_deficit,
    validate_clustering,
    validity_grades,
)
from .verdicts import Verdict

__version__ = "0.1.0"
