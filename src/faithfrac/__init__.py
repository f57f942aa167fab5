"""Exact arithmetic for faithful fraction decompositions.

A decomposition writes a positive rational m/n as a sum of fractions with
pairwise distinct denominators.  It is faithful when no partial selection of
the written numerators lands in the ideal (1/n)Z apart from 0 and m/n
itself.  This package builds such decompositions in closed form, verifies
arbitrary ones exactly, and searches bounded spaces exhaustively.
"""

from .construct import (
    Built,
    ConstructionTrace,
    TermBudgetExceeded,
    all_units_but_one,
    from_perfect,
    general_coprime,
    prop6_condition,
    prop7,
    theorem1,
    theorem4,
    two_term,
)
from .model import (
    Decomposition,
    StructureReport,
    Term,
    TermFlags,
    coprime_shape,
    decomposition,
    from_json,
    from_json_dict,
    necessary_conditions,
    scale,
    to_json,
    to_json_dict,
    validate,
)
from .numeric import (
    BezoutPair,
    coprime_parts,
    is_prime,
    mod_inverse,
    next_prime_avoiding,
)
from .partition import (
    BlockDecomposition,
    PartitionCheck,
    PartitionSpec,
    check_partition_theorem,
    decompose_partition,
    s_set,
    t_set,
)
from .search import (
    LengthOutcome,
    Prop6Instance,
    Prop6ScanReport,
    SearchBudget,
    SearchResult,
    min_length_search,
    prop6_discrepancy_scan,
)
from .verifier import (
    DEFAULT_CAP,
    CapExceeded,
    FaithfulnessReport,
    Violation,
    partial_sums_in_ideal,
    verify,
    verify_naive,
)

__version__ = "0.1.0"

__all__ = [
    "BezoutPair",
    "BlockDecomposition",
    "Built",
    "CapExceeded",
    "ConstructionTrace",
    "DEFAULT_CAP",
    "Decomposition",
    "FaithfulnessReport",
    "LengthOutcome",
    "PartitionCheck",
    "PartitionSpec",
    "Prop6Instance",
    "Prop6ScanReport",
    "SearchBudget",
    "SearchResult",
    "StructureReport",
    "Term",
    "TermBudgetExceeded",
    "TermFlags",
    "Violation",
    "all_units_but_one",
    "check_partition_theorem",
    "coprime_parts",
    "coprime_shape",
    "decompose_partition",
    "decomposition",
    "from_json",
    "from_json_dict",
    "from_perfect",
    "general_coprime",
    "is_prime",
    "min_length_search",
    "mod_inverse",
    "necessary_conditions",
    "next_prime_avoiding",
    "partial_sums_in_ideal",
    "prop6_condition",
    "prop6_discrepancy_scan",
    "prop7",
    "s_set",
    "scale",
    "t_set",
    "theorem1",
    "theorem4",
    "to_json",
    "to_json_dict",
    "two_term",
    "validate",
    "verify",
    "verify_naive",
]
