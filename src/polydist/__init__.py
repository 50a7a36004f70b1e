"""Verification toolkit for polylogarithm distribution relations.

The package has three layers:

* exact algebra — scalar rings (`scalars`), words and alphabets (`words`),
  truncated noncommutative power series (`ncseries`), free-Lie/BCH calculus
  and quotient ideals (`lie`), covering morphisms (`geometry`);
* verification engines — symbolic certificates (`distrib`), finite-level
  measures (`measures`), floating-point cross-checks (`polylog_num`);
* reporting/CLI — structured pass/fail reports (`report`), argparse driver
  (`cli`).

The package exports the twelve engines the CLI runs, the report they
return and the names of the README quick tour; everything else is reached
through its module (``polydist.lie.exp_mod``).
"""

# every layer module is bound as polydist.<module>, the benchmark tracer's
# lookup path, whether or not a name below comes from it
from . import distrib, geometry, lie, measures, ncseries, polylog_num, report
from . import scalars, words
from .distrib import (
    derive_eisenstein_specialization,
    verify_bch_closed_form,
    verify_conversions,
    verify_formal_distribution,
    verify_homogeneous_polylog,
    verify_inhomogeneous_pipeline,
)
from .lie import bch
from .measures import bernoulli_congruence_check, verify_measure_pushforward
from .ncseries import NCSeries
from .polylog_num import (
    MPLQuery,
    mpl_series,
    verify_numeric_calibration,
    verify_numeric_classical,
    verify_numeric_cross_oracle,
    verify_numeric_distribution,
)
from .report import VerificationReport
from .scalars import QQ
from .words import parse_word

__version__ = "0.1.0"
