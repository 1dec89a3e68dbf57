"""Binary SLCE sequences: generation, linear complexity, and exact
character-sum divisibility criteria for root multiplicities."""

from .cyclo import (
    Character,
    CycInt,
    gauss_sum_numeric,
    ideal_membership,
    jacobi_sum,
    k_sum,
    quadratic_gauss_closed,
    semiprimitive_gauss_closed,
)
from .criteria import (
    AnalysisContext,
    CriterionRecord,
    MultiplicityProfile,
    SemiprimitiveParams,
    derivative_vanishes_direct,
    lemma1_check,
    multiplicity_profile,
    necessary_condition_check,
    prop_check,
    run_verify,
    semiprimitive_params,
    semiprimitive_predict,
    thm1_check,
    thm2_check,
    thm3_check,
)
from .ff import (
    ExtField,
    ResidueField,
    build_field,
    build_residue_field,
)
from .numth import SIZE_CAP, cyclotomic_polynomial
from .polybin import (
    LinearComplexityResult,
    berlekamp_massey,
    binom_mod2,
    bit_length_h,
    factor_phi_mod2,
    index_set,
    lc_via_gcd,
)
from .seq import (
    SlceSequence,
    autocorrelation,
    balance_report,
    generate_slce,
    sequence_from_json,
)

__version__ = "0.1.0"
