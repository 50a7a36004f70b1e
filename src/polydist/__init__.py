"""Verification toolkit for polylogarithm distribution relations.

The package has three layers:

* exact algebra — scalar rings (`scalars`), words and alphabets (`words`),
  truncated noncommutative power series (`ncseries`), free-Lie/BCH calculus
  and quotient ideals (`lie`), covering morphisms (`geometry`);
* verification engines — symbolic certificates (`distrib`), finite-level
  measures (`measures`), floating-point cross-checks (`polylog_num`);
* reporting/CLI — structured pass/fail reports (`report`), argparse driver
  (`cli`).
"""

from .report import Check, VerificationReport
from .scalars import (
    QQ,
    PolyRing,
    RationalField,
    SymbolicPoly,
)
from .words import (
    FLAVOR_STANDARD,
    FLAVOR_TILDE,
    Word,
    WordError,
    empty_word,
    enumerate_lifts,
    parse_word,
    reduce_mod_r,
    words_up_to_degree,
    wt_x,
)
from .ncseries import AlgebraMorphism, NCSeries, SeriesError
from .lie import (
    MOD_IY,
    MOD_JY,
    GenSeries,
    NotPolylogError,
    PolylogPart,
    bch,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_eval,
    beta_series,
    exp_mod,
    log_mod,
    mul_mod,
    polylog_part,
    reduce_mod_ideal,
)
from .geometry import (
    conjugated_puncture_letter,
    galois_twist_delta,
    j_zeta_morphism,
    pi_morphism,
)
from .distrib import (
    DegreeCapError,
    chi_from_li,
    derive_eisenstein_specialization,
    group_like_from_chi,
    li_from_chi,
    tangential_even_character,
    verify_bch_closed_form,
    verify_conversions,
    verify_formal_distribution,
    verify_homogeneous_polylog,
    verify_inhomogeneous_pipeline,
)
from .measures import (
    FiniteMeasure,
    MeasureError,
    bernoulli_congruence_check,
    moment_exact,
    pushforward_mul,
    random_measure,
    translate_chi,
    verify_measure_pushforward,
)
from .polylog_num import (
    ConvergenceError,
    DivergentWordError,
    MPLQuery,
    PathError,
    QuadratureOptions,
    iterint_quadrature,
    li_classical,
    mpl_series,
    verify_numeric_calibration,
    verify_numeric_classical,
    verify_numeric_cross_oracle,
    verify_numeric_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraMorphism",
    "Check",
    "ConvergenceError",
    "DegreeCapError",
    "DivergentWordError",
    "FLAVOR_STANDARD",
    "FLAVOR_TILDE",
    "FiniteMeasure",
    "GenSeries",
    "MOD_IY",
    "MOD_JY",
    "MPLQuery",
    "MeasureError",
    "NCSeries",
    "NotPolylogError",
    "PathError",
    "PolyRing",
    "PolylogPart",
    "QQ",
    "QuadratureOptions",
    "RationalField",
    "SeriesError",
    "SymbolicPoly",
    "VerificationReport",
    "Word",
    "WordError",
    "bch",
    "bernoulli_congruence_check",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_eval",
    "beta_series",
    "chi_from_li",
    "conjugated_puncture_letter",
    "derive_eisenstein_specialization",
    "empty_word",
    "enumerate_lifts",
    "exp_mod",
    "galois_twist_delta",
    "group_like_from_chi",
    "iterint_quadrature",
    "j_zeta_morphism",
    "li_classical",
    "li_from_chi",
    "log_mod",
    "moment_exact",
    "mpl_series",
    "mul_mod",
    "parse_word",
    "pi_morphism",
    "polylog_part",
    "pushforward_mul",
    "random_measure",
    "reduce_mod_ideal",
    "reduce_mod_r",
    "tangential_even_character",
    "translate_chi",
    "verify_bch_closed_form",
    "verify_conversions",
    "verify_formal_distribution",
    "verify_homogeneous_polylog",
    "verify_inhomogeneous_pipeline",
    "verify_measure_pushforward",
    "verify_numeric_calibration",
    "verify_numeric_classical",
    "verify_numeric_cross_oracle",
    "verify_numeric_distribution",
    "words_up_to_degree",
    "wt_x",
]
