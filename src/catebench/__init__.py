"""Treatment-effect estimation over student cohorts.

T-learners built on bagged CART regression forests, a session-count-dependent
effect estimator with grid exports, diagnostic trees and regressions, and a
synthetic-cohort generator with known ground truth for verification.
"""

from .dataset import (
    AUX_FIELDS,
    CANONICAL_COLUMNS,
    Cohort,
    GroupSummary,
    LoadReport,
    SchemaConfig,
    bin_value,
    load_cohort,
    save_cohort,
    summarize,
    to_deviation,
)
from .errors import (
    CatebenchError,
    DimensionMismatch,
    DomainError,
    EmptyArm,
    EmptyBin,
    EmptyInput,
    EmptyOrSingleton,
    Inconsistent,
    InvalidScenario,
    OutOfSupport,
    ParseError,
    RankDeficient,
    SchemaError,
    Underdetermined,
    ZeroVariance,
)
from .forest import (
    RegressionForest,
    TreeNode,
    TreeReport,
    export_tree,
    fit_forest,
    fit_tree,
)
from .linreg import OlsFit, ScatterExport, ols_fit, tau_dose_regression
from .synth import (
    DoseModel,
    GroundTruth,
    LogisticSelection,
    ResponseFn,
    Scenario,
    biased_dose_scenario,
    dose_recovery_scenario,
    generate,
    load_scenario,
    save_synthetic,
    standard_biased_scenario,
    true_effects,
)
from .tlearner import (
    EffectReport,
    EffectRow,
    TLearnerModel,
    ate,
    att,
    atu,
    cate_tau,
    effect_report,
    fit_t_learner,
)
from .treatcount import (
    REFERENCE_DOSES,
    CateSurface,
    IndependenceReport,
    att2,
    check_base_independence,
    default_dose_probes,
    fit_t_learner2,
    phi,
    phi_summand,
    phi_surface,
)

__version__ = "0.1.0"
