"""Secret sharing over group presentations and the word problem.

Participants hold private small cancellation presentations as long-term
secrets; share bits travel on open channels as group words that decode by
Dehn's algorithm.  An XOR scheme requires all participants to recover the
secret; a hybrid scheme layers the word encoding under polynomial
threshold sharing so any t of n suffice.  A masked-ring simulator lets
participants combine shares without revealing them.
"""

from .freegroup import (
    Alphabet,
    Word,
    cyclic_permutations,
    cyclically_reduce,
    parse_word,
    random_reduced_word,
    serialize_word,
)
from .scheme import (
    BitColumn,
    SessionConfig,
    WordColumn,
    column_to_int,
    deal_nn,
    deal_tn,
    decode_column,
    encode_column,
    int_to_column,
    recover_secret_nn,
    recover_share,
    split_secret,
)
from .securesum import (
    Message,
    Transcript,
    export_transcript,
    run_secure_linear_combination,
    run_secure_sum,
)
from .shamir import (
    PrimeModulus,
    SharePoint,
    interpolate_at_zero,
    is_prime,
    lagrange_coefficients,
    poly_eval,
    random_polynomial,
)
from .smallcancel import (
    BudgetExhausted,
    CancellationReport,
    DehnStep,
    DehnTrace,
    Presentation,
    check_small_cancellation,
    dehn_is_trivial,
    make_nontrivial_word,
    make_trivial_word,
    parse_presentation,
    random_platform_group,
    serialize_presentation,
)
from .tietze import (
    BreakdownResult,
    T1Intro,
    T4Replace,
    break_relators,
    expand_word,
    replay,
    serialize_breakdown,
)

__version__ = "0.1.0"
