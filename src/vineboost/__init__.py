"""Gradient-boosted conditional bivariate and vine copulas.

Bivariate copula families are parameterized through Kendall's tau, which is
linked to covariates by tanh of a linear predictor; coefficients are
estimated by componentwise gradient boosting with covariate deselection.
Pair copulas compose into conditional regular-vine models with density
evaluation and sampling.  A simulation harness and multivariate verification
tools (energy/variogram scores, Diebold-Mariano test, ensemble copula
coupling, Gaussian copula approach, rank histograms) round out the package.
"""

from .boosting import (
    BoostControl,
    BoostPath,
    FittedPairCopula,
    boost,
    deselect,
    fit_family,
    fit_pair,
    predict_tau,
    stop_aic,
    stop_cv,
)
from .families import (
    FIT_FAMILIES,
    TAU_CLAMP,
    U_EPS,
    CopulaFamily,
    hfunc,
    hinv,
    link_tau,
    log_density,
    loss_gradient,
    sample_pair,
    tau_to_theta,
    theta_to_tau,
)
from .scoring import (
    dm_test,
    ecc_reorder,
    energy_score,
    gca_fit,
    gca_sample,
    mv_rank_histogram,
    reliability_index,
    variogram_score,
)
from .simulation import ScenarioConfig, gen_covariates, run_scenario, true_eta
from .vine import (
    ConditionalVineModel,
    VineEdge,
    VineStructure,
    dvine_structure,
    fit_vine,
    select_structure,
    truncate,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # families
    "CopulaFamily",
    "FIT_FAMILIES",
    "TAU_CLAMP",
    "U_EPS",
    "tau_to_theta",
    "theta_to_tau",
    "link_tau",
    "log_density",
    "loss_gradient",
    "hfunc",
    "hinv",
    "sample_pair",
    # boosting
    "BoostControl",
    "BoostPath",
    "FittedPairCopula",
    "boost",
    "stop_aic",
    "stop_cv",
    "deselect",
    "fit_family",
    "fit_pair",
    "predict_tau",
    # vine
    "VineEdge",
    "VineStructure",
    "ConditionalVineModel",
    "dvine_structure",
    "validate_structure",
    "fit_vine",
    "select_structure",
    "truncate",
    # simulation
    "ScenarioConfig",
    "gen_covariates",
    "true_eta",
    "run_scenario",
    # scoring
    "energy_score",
    "variogram_score",
    "dm_test",
    "ecc_reorder",
    "gca_fit",
    "gca_sample",
    "mv_rank_histogram",
    "reliability_index",
]
