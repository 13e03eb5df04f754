"""Exact-arithmetic engine for the quasisymmetric and shuffle Hopf algebras.

Composition combinatorics, quasi-shuffle and shuffle products,
deconcatenation coproducts and antipodes, convolution exp and log of
functionals, shuffle characters with their triangular f <-> g data,
quasisymmetric power sum bases, universal morphisms from arbitrary
connected graded Hopf algebras (with graph and poset demos), and a batch
CLI.  All arithmetic is over Fraction; nothing floats.
"""

from .compositions import (
    Composition,
    CompositionStats,
    EMPTY,
    coarsenings,
    compositions_of,
    compositions_up_to,
    partitions_of,
    quasi_shuffle,
    rearrangements,
    shuffle,
    stats,
)
from .elements import (
    GradedElement,
    MONOMIAL,
    TensorElement,
    WORD,
    antipode_by_recursion,
    antipode_monomial,
    antipode_word,
    coproduct,
    counit,
    format_element,
    power_sum,
    product,
)
from .functionals import Functional, exp_functional, log_functional
from .characters import (
    BUILTIN_NAMES,
    OrderedPartitionSpec,
    basis_contract,
    basis_expand,
    builtin,
    even_odd_character,
    f_to_g,
    g_to_f,
    normalize,
    order_basis_character,
    ordered_partition_character,
    prefix_sum_character,
    qps_expand,
    resolve_basis,
)
from .universal import (
    CANONICAL_NAMES,
    CharacterPowerEvaluator,
    HopfProvider,
    canonical,
    char_to_infchar,
    infchar_to_char,
    theta,
    universal_to_qsym,
    universal_to_sh,
)
from .demos import (
    SmallGraph,
    SmallPoset,
    all_graphs,
    all_posets,
    chromatic_polynomial,
    chromatic_symmetric,
    eta_check,
    format_polynomial,
    graph_infchar,
    graph_infchar_two_ways,
    graph_provider,
    kp_generating_function,
    poset_provider,
    xi_unique_min,
    zeta_no_edges,
    zeta_ones,
)
from .verify import (
    CheckResult,
    VerifyReport,
    check_integral_nonneg,
    is_character,
    is_infinitesimal_character,
    theta_eigencheck,
    verify_qps,
)
from .errors import (
    BasisMismatch,
    EngineError,
    NonvanishingAtEmpty,
    NotACharacter,
    NotAnInfinitesimalCharacter,
    NotAPartition,
    NotNormalized,
    PartOutOfRange,
    SingularCharacter,
    WrongValueAtEmpty,
    ZeroPrefixSum,
)

# the names imported above, one group per source module
__all__ = [
    "Composition", "CompositionStats", "EMPTY", "coarsenings", "compositions_of",
    "compositions_up_to", "partitions_of", "quasi_shuffle", "rearrangements", "shuffle", "stats",
    "GradedElement", "MONOMIAL", "TensorElement", "WORD", "antipode_by_recursion",
    "antipode_monomial", "antipode_word", "coproduct", "counit", "format_element", "power_sum",
    "product",
    "Functional", "exp_functional", "log_functional",
    "BUILTIN_NAMES", "OrderedPartitionSpec", "basis_contract", "basis_expand", "builtin",
    "even_odd_character", "f_to_g", "g_to_f", "normalize", "order_basis_character",
    "ordered_partition_character", "prefix_sum_character", "qps_expand", "resolve_basis",
    "CANONICAL_NAMES", "CharacterPowerEvaluator", "HopfProvider", "canonical", "char_to_infchar",
    "infchar_to_char", "theta", "universal_to_qsym", "universal_to_sh",
    "SmallGraph", "SmallPoset", "all_graphs", "all_posets", "chromatic_polynomial",
    "chromatic_symmetric", "eta_check", "format_polynomial", "graph_infchar",
    "graph_infchar_two_ways", "graph_provider", "kp_generating_function", "poset_provider",
    "xi_unique_min", "zeta_no_edges", "zeta_ones",
    "CheckResult", "VerifyReport", "check_integral_nonneg", "is_character",
    "is_infinitesimal_character", "theta_eigencheck", "verify_qps",
    "BasisMismatch", "EngineError", "NonvanishingAtEmpty", "NotACharacter",
    "NotAnInfinitesimalCharacter", "NotAPartition", "NotNormalized", "PartOutOfRange",
    "SingularCharacter", "WrongValueAtEmpty", "ZeroPrefixSum",
]
__version__ = "0.1.0"
