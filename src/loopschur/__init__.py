"""Loop Schur functions, border-strip expansions, and their pairing maps.

Exact integer and rational arithmetic throughout; no floating point.  See the
README for an overview and the demos directory for worked walkthroughs.
"""

from .errors import (
    CapExceededError,
    ConfigError,
    DocumentError,
    FractionalWeightError,
    LoopSchurError,
    MembershipError,
    MonomialDivisionError,
    PreconditionError,
    RingMismatchError,
)
from .involutions import (
    DEFAULT_CAP,
    Member,
    SignedTableau,
    augmented_signed_sum,
    count_augmented_tableaux,
    count_staircase_tableaux,
    enumerate_augmented_tableaux,
    enumerate_staircase_tableaux,
    extract_power_sum_factor,
    i1,
    i2,
    i2_is_fixed,
    i3,
    i3_swaps,
    i4,
    in_low_family,
    insert_power_sum_factor,
    is_column_strict,
    permutation_sign,
    sample_augmented_tableau,
    sample_staircase_tableau,
    slide_from_border_strip,
    slide_to_border_strip,
    staircase_entries_standard,
    staircase_signed_sum,
    validate_in_family,
)
from .polyring import (
    Monomial,
    Polynomial,
    from_document,
    parse,
    poly_div_monomial,
    serialize,
    specialize_forget_color,
    to_document,
)
from .shapes import (
    BorderStripAddition,
    Partition,
    content_color,
    enumerate_border_strips,
    is_border_strip,
)
from .tableaux import (
    ShiftParams,
    enumerate_ssyt,
    loop_power_sum,
    loop_schur,
    shifted_loop_schur,
    staircase_monomial,
    weight_monomial,
)
from .verify import (
    VerificationReport,
    check_involution,
    check_specialization,
    classical_schur,
    default_grid_config,
    parse_grid_config,
    run_grid,
    verify_degree_bound,
    verify_expansion,
    verify_murnaghan_nakayama,
)

__version__ = "0.1.0"
