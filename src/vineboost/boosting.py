"""Componentwise gradient boosting for conditional bivariate copulas.

The loss is the negative copula log likelihood with Kendall's tau linked to
the covariates through tanh of a linear predictor.  Each boosting iteration
fits one no-intercept least-squares base learner per covariate to the
negative gradient, updates the single best coefficient by a fraction ``nu``
of its least-squares slope, and records the empirical risk.  Early stopping
is available through AIC minimization or seeded K-fold cross-validation;
after stopping, covariates whose attributable risk reduction falls below a
threshold are deselected and the model is boosted again on the survivors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, EvaluationError, FitError, InterfaceError
from .families import CopulaFamily, _require_finite, link_tau, log_density, prepare

__all__ = [
    "BoostControl",
    "BoostPath",
    "FittedPairCopula",
    "boost",
    "stop_aic",
    "stop_cv",
    "attributable_risk",
    "deselect",
    "fit_family",
    "fit_pair",
    "predict_tau",
]

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class BoostControl:
    """Tuning knobs for the boosting estimator.

    ``protect_intercept`` exempts column 0 from deselection.
    """

    m_stop: int = 500
    nu: float = 0.1
    gamma: float = 0.01
    stopping: str = "aic"
    cv_folds: int = 10
    seed: int = 0
    protect_intercept: bool = True

    def __post_init__(self):
        if self.m_stop < 1:
            raise ConfigurationError("m_stop must be >= 1")
        if not 0.0 < self.nu <= 1.0:
            raise ConfigurationError("nu must lie in (0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigurationError("gamma must lie in (0, 1)")
        if self.stopping not in ("aic", "cv"):
            raise ConfigurationError("stopping must be 'aic' or 'cv'")
        if self.cv_folds < 2:
            raise ConfigurationError("cv_folds must be >= 2")


@dataclass
class BoostPath:
    """Record of one boosting run.

    ``selected[m-1]`` and ``increments[m-1]`` describe iteration m on the
    standardized design; ``risk[m]`` is the mean negative log likelihood
    after that update (``risk[0]`` belongs to the all-zero model) and
    ``active_size[m]`` counts the nonzero standardized coefficients.
    """

    family: CopulaFamily
    selected: np.ndarray
    increments: np.ndarray
    risk: np.ndarray
    active_size: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    has_intercept: bool
    degenerate: np.ndarray
    n_obs: int

    @property
    def m_stop(self) -> int:
        return len(self.selected)

    def beta_std_at(self, m: int) -> np.ndarray:
        beta = np.zeros(len(self.mu))
        np.add.at(beta, self.selected[:m], self.increments[:m])
        return beta

    def beta_at(self, m: int) -> np.ndarray:
        """Coefficients on the original covariate scale after m iterations."""
        beta_std = self.beta_std_at(m)
        beta = beta_std / self.sigma
        if self.has_intercept:
            beta[0] = beta_std[0] - np.sum(beta_std[1:] * self.mu[1:] / self.sigma[1:])
        return beta


def _checked_data(pairs, Z):
    """``pairs`` and ``Z`` as float arrays, checked for shape and finiteness."""
    pairs = np.asarray(pairs, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InterfaceError("pairs must be an (N, 2) array")
    if Z.ndim != 2 or Z.shape[0] != pairs.shape[0]:
        raise InterfaceError("Z must be an (N, p+1) array aligned with pairs")
    _require_finite("pairs", pairs)
    _require_finite("Z", Z)
    return pairs, Z


def _standardize(Z):
    Z = np.asarray(Z, dtype=float)
    n, p = Z.shape
    has_intercept = bool(np.all(Z[:, 0] == 1.0))
    mu = Z.mean(axis=0)
    sigma = Z.std(axis=0)
    if has_intercept:
        mu[0] = 0.0
        sigma[0] = 1.0
    degenerate = sigma < _DEGENERATE_TOL
    sigma_safe = np.where(degenerate, 1.0, sigma)
    Zs = (Z - mu) / sigma_safe
    if has_intercept:
        Zs[:, 0] = 1.0
    return Zs, mu, np.where(degenerate, 1.0, sigma_safe), has_intercept, degenerate


_CANDIDATE_ERRORS = (EvaluationError, FloatingPointError, ConfigurationError)

# From this design size up, the candidate families share one loop and one
# GEMM per iteration; below it each family is boosted alone.  Interleaving
# the families' kernel evaluations costs 6-10% of their time in cache misses,
# and the GEMM wins that back only once the design no longer fits a core's
# L2 cache: at N=1000 the shared loop was 13% slower with p=201 (1.6 MB) and
# 17% faster with p=301 (2.4 MB), on a 2-vCPU Xeon with 2 MiB of L2 per core
# and OpenBLAS on one thread.
_GEMM_MIN_BYTES = 2 << 20


@dataclass(frozen=True)
class _Design:
    """The standardized covariates of one fit, shared by its families and refits."""

    Zs: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    has_intercept: bool
    degenerate: np.ndarray
    colsq_safe: np.ndarray


def _design(Z):
    Zs, mu, sigma, has_intercept, degenerate = _standardize(Z)
    colsq = np.einsum("ij,ij->j", Zs, Zs)
    colsq_safe = np.where(colsq < _DEGENERATE_TOL, 1.0, colsq)
    return _Design(Zs, mu, sigma, has_intercept, degenerate, colsq_safe)


def _selectable_columns(selectable, p1):
    """The sorted distinct entries of ``selectable``, each an integer in [0, p1)."""
    cols = []
    for j in np.asarray(selectable).ravel().tolist():
        integral = isinstance(j, int) or (isinstance(j, float) and j.is_integer())
        if not integral or not 0 <= j < p1:
            raise ConfigurationError(f"selectable index {j!r} is not a column index in [0, {p1 - 1}]")
        cols.append(int(j))
    return np.unique(np.array(cols, dtype=np.int64))


def _boost_paths(kernels, design, control, cols=None):
    """Boost every family in ``kernels`` (family -> PairKernel) on one design.

    Each iteration evaluates the kernel once (the log density gives
    risk[m], the gradient drives step m + 1) and scans the covariates with
    the matrix-vector product ``Zs.T @ g``.  On a design of at least
    ``_GEMM_MIN_BYTES`` several families share one loop instead, and one
    product of their (F, N) gradients with the design scans for all of
    them.  That product sums in another order, and where a step overshoots
    (the risk rises) the rounding difference can grow into another path, so
    such a family is boosted again alone.  ``cols`` restricts the scan to
    those columns of the design, copied contiguously, and the picks are
    mapped back to the design's column indices.  Returns family ->
    :class:`BoostPath`, or family -> the exception that stopped it: a kernel
    that raises drops out alone and the others go on.
    """
    scan = np.arange(design.Zs.shape[1]) if cols is None else cols
    Zs = design.Zs if cols is None else np.ascontiguousarray(design.Zs[:, cols])
    colsq_safe, mask = design.colsq_safe[scan], ~design.degenerate[scan]
    if not np.any(mask):
        return {family: ConfigurationError("no selectable covariates") for family in kernels}

    n, p = Zs.shape
    if len(kernels) > 1 and Zs.nbytes < _GEMM_MIN_BYTES:
        return {family: _boost_paths({family: kernel}, design, control, cols)[family]
                for family, kernel in kernels.items()}

    families, fitted = list(kernels), list(kernels.values())
    gemm = len(families) > 1
    m_stop, nu = control.m_stop, control.nu
    selected = [np.zeros(m_stop, dtype=np.int64) for _ in families]
    increments = [np.zeros(m_stop) for _ in families]
    risk = [np.zeros(m_stop + 1) for _ in families]
    active = [np.zeros(m_stop + 1, dtype=np.int64) for _ in families]
    beta_std = [np.zeros(p) for _ in families]
    eta = [np.zeros(n) for _ in families]
    grads = [None] * len(families)
    n_active = [0] * len(families)
    live = list(range(len(families)))
    out, alone = {}, []

    def evaluate(m):
        for i in live.copy():
            try:
                if m < m_stop:
                    logpdf, grads[i] = fitted[i].value_and_grad(eta[i])
                else:
                    logpdf = fitted[i].log_density(eta[i])
            except _CANDIDATE_ERRORS as exc:
                out[families[i]] = exc
                live.remove(i)
                continue
            risk[i][m] = -np.mean(logpdf)
            if gemm and m > 0 and risk[i][m] > risk[i][m - 1]:
                alone.append(families[i])
                live.remove(i)

    evaluate(0)
    for m in range(1, m_stop + 1):
        if not live:
            break
        numer = np.stack([grads[i] for i in live]) @ Zs if gemm else [Zs.T @ grads[0]]
        for i, numer_i in zip(live, numer):
            score = np.where(mask, numer_i * numer_i / colsq_safe, -np.inf)
            j = int(np.argmax(score))
            step = nu * numer_i[j] / colsq_safe[j]
            beta_i = beta_std[i]
            was_active = beta_i[j] != 0.0
            beta_i[j] += step
            n_active[i] += int(beta_i[j] != 0.0) - int(was_active)
            eta[i] += step * Zs[:, j]
            selected[i][m - 1] = j
            increments[i][m - 1] = step
            active[i][m] = n_active[i]
        evaluate(m)

    for family in alone:
        out.update(_boost_paths({family: kernels[family]}, design, control, cols))
    for i in live:
        out[families[i]] = BoostPath(
            family=families[i],
            selected=scan[selected[i]],
            increments=increments[i],
            risk=risk[i],
            active_size=active[i],
            mu=design.mu,
            sigma=design.sigma,
            has_intercept=design.has_intercept,
            degenerate=design.degenerate,
            n_obs=n,
        )
    return {family: out[family] for family in families}


def boost(pairs, Z, family, control, selectable=None):
    """Run the componentwise boosting loop (no stopping, no deselection).

    ``selectable`` optionally restricts which covariate columns may be
    picked (integers in [0, p], else :class:`ConfigurationError`); only
    those columns are scanned.  Degenerate (zero-variance) columns are never
    selectable and are flagged on the returned path rather than raising.
    """
    pairs, Z = _checked_data(pairs, Z)
    cols = None if selectable is None else _selectable_columns(selectable, Z.shape[1])
    kernel = prepare(family, pairs[:, 0], pairs[:, 1])
    path = _boost_paths({family: kernel}, _design(Z), control, cols)[family]
    if isinstance(path, Exception):
        raise path
    return path


def stop_aic(path):
    """Optimal iteration count by AIC over the recorded path.

    AIC(m) = 2 N r[m] + 2 df(m) with df the active-set size; ties resolve to
    the smallest m.  Iteration 0 (the all-zero model) is a candidate.
    """
    aic = 2.0 * path.n_obs * path.risk + 2.0 * path.active_size
    return int(np.argmin(aic))


def _cv_paths(pairs, Z, family, control):
    """Per-fold selections and held-out risks of seeded K-fold CV.

    The K folds are boosted together.  Fold k's rows sit in the order
    "training rows, then held-out rows" in row k of a (K, N) index; the
    training rows are standardized as :func:`boost` does and the held-out
    rows with the same mean and scale, stacked into one (K, N, p+1) design
    (K·N·(p+1) floats).  Each iteration evaluates the kernel once on the
    (K, N) linear predictor: fold k's step is the exact GEMV of its
    training block, so it makes the decisions of :func:`boost` on the
    training rows, and its held-out risk is the mean negative log density
    of the remaining rows.  Returns ``selected`` (K, m_stop) and the
    held-out risk (K, m_stop + 1).
    """
    pairs, Z = _checked_data(pairs, Z)
    n, p1 = Z.shape
    k = control.cv_folds
    rng = np.random.default_rng(control.seed)
    folds = np.array_split(rng.permutation(n), k)
    if min(len(f) for f in folds) < 10:
        raise ConfigurationError("each CV fold needs at least 10 observations")
    n_train = n - np.array([len(f) for f in folds])
    order = np.stack([np.concatenate([np.setdiff1d(np.arange(n), f), f]) for f in folds])

    Zs = np.empty((k, n, p1))
    mask = np.empty((k, p1), dtype=bool)
    colsq = np.empty((k, p1))
    for i, t in enumerate(n_train):
        train, mu, sigma, has_intercept, degenerate = _standardize(Z[order[i, :t]])
        if degenerate.all():
            raise ConfigurationError("no selectable covariates")
        Zs[i, :t] = train
        Zs[i, t:] = (Z[order[i, t:]] - mu) / sigma
        mask[i] = ~degenerate
        colsq[i] = np.einsum("ij,ij->j", train, train)
    colsq_safe = np.where(colsq < _DEGENERATE_TOL, 1.0, colsq)
    kernel = prepare(family, pairs[order, 0], pairs[order, 1])
    # GEMV operands per fold, and the folds grouped by held-out size
    train_T = [Zs[i, :t].T for i, t in enumerate(n_train)]
    held = [(np.flatnonzero(n_train == t), t) for t in np.unique(n_train)]

    m_stop = control.m_stop
    selected = np.zeros((k, m_stop), dtype=np.int64)
    risk = np.zeros((k, m_stop + 1))
    folds_ix = np.arange(k)
    numer = np.empty((k, p1))
    eta = np.zeros((k, n))
    logpdf, g = kernel.value_and_grad(eta)
    for m in range(m_stop + 1):
        for rows, t in held:
            risk[rows, m] = -logpdf[rows, t:].mean(axis=1)
        if m == m_stop:
            break
        for i, t in enumerate(n_train):
            np.matmul(train_T[i], g[i, :t], out=numer[i])
        score = np.where(mask, numer * numer / colsq_safe, -np.inf)
        j = np.argmax(score, axis=1)
        step = control.nu * numer[folds_ix, j] / colsq_safe[folds_ix, j]
        eta += step[:, None] * Zs[folds_ix, :, j]
        selected[:, m] = j
        if m + 1 < m_stop:
            logpdf, g = kernel.value_and_grad(eta)
        else:
            logpdf = kernel.log_density(eta)
    return selected, risk


def stop_cv(pairs, Z, family, control):
    """Optimal iteration count by seeded K-fold cross-validation.

    The argmin over m of the held-out risk summed over the folds; all folds
    are boosted in one loop (see :func:`_cv_paths`).
    """
    _, risk = _cv_paths(pairs, Z, family, control)
    return int(np.argmin(risk.sum(axis=0)))


def attributable_risk(path):
    """Per-covariate risk reduction credited over the whole path.

    R_j sums the drops r[m-1] - r[m] of the iterations that selected j.
    """
    drops = path.risk[:-1] - path.risk[1:]
    out = np.zeros(len(path.mu))
    np.add.at(out, path.selected, drops)
    return out


def deselect(path, gamma, protect_intercept=True):
    """Indices of covariates kept by the attributable-risk rule.

    A covariate survives when its attributable risk reduction reaches
    ``gamma`` times the total reduction of the path.  When the total
    reduction is not positive only the (protected) intercept survives.
    """
    risks = attributable_risk(path)
    total = path.risk[0] - path.risk[-1]
    if total <= 0.0:
        warnings.warn("total risk reduction is not positive; keeping only the intercept")
        kept = np.array([0], dtype=int) if protect_intercept and path.has_intercept else np.array([], dtype=int)
        return kept
    kept = np.flatnonzero(risks >= gamma * total)
    if protect_intercept and path.has_intercept and 0 not in kept:
        kept = np.concatenate([[0], kept])
    return np.sort(kept.astype(int))


@dataclass
class FittedPairCopula:
    """One fitted conditional bivariate copula.

    ``kept`` is the covariate set of the final model (nonzero coefficients,
    plus the protected intercept); ``survivors`` records the outcome of the
    deselection step, i.e. the columns the final refit was allowed to use.
    """

    family: CopulaFamily
    beta: np.ndarray
    m_opt: int
    aic: float
    loglik: float
    kept: tuple
    survivors: tuple | None = None
    risk_path: BoostPath | None = None
    refit_path: BoostPath | None = None
    selection_scores: dict | None = None
    n_obs: int = 0

    @classmethod
    def from_coefficients(cls, family, beta):
        """Wrap given coefficients as a (synthetic) fitted copula."""
        beta = np.asarray(beta, dtype=float)
        return cls(
            family=family,
            beta=beta,
            m_opt=0,
            aic=0.0,
            loglik=0.0,
            kept=tuple(np.flatnonzero(beta)),
        )

    @classmethod
    def independence(cls, n_covariates):
        return cls.from_coefficients(CopulaFamily.INDEPENDENCE, np.zeros(n_covariates))


def predict_tau(model, Z):
    """Per-row Kendall's tau implied by the fitted linear predictor."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != len(model.beta):
        raise InterfaceError(
            f"covariate row length {Z.shape[-1]} does not match the model's {len(model.beta)}"
        )
    return link_tau(Z @ model.beta)


def _pair_loglik(family, pairs, Z, beta):
    eta = np.asarray(Z, dtype=float) @ beta
    pairs = np.asarray(pairs, dtype=float)
    return float(np.sum(log_density(family, pairs[:, 0], pairs[:, 1], link_tau(eta))))


def _kept_from_beta(beta, path, control):
    kept = set(int(j) for j in np.flatnonzero(beta))
    if path.has_intercept and control.protect_intercept:
        kept.add(0)
    return tuple(sorted(kept))


def _stop_and_refit(pairs, Z, kernel, path, design, control, refit):
    """Stopping, then (with ``refit``) deselection and the survivor-only
    refit of one family's main path; see :func:`fit_family`."""
    family = path.family
    if control.stopping == "cv":
        m_opt = stop_cv(pairs, Z, family, control)
    else:
        m_opt = stop_aic(path)
    final, m_final = path, m_opt
    survivors = refit_path = None
    if refit:
        survivors = tuple(int(j) for j in deselect(path, control.gamma, control.protect_intercept))
        if m_opt > 0 and survivors:
            refit_control = replace(control, m_stop=m_opt)
            refit_path = _boost_paths({family: kernel}, design, refit_control, np.array(survivors))[family]
            if isinstance(refit_path, Exception):
                raise refit_path
            final = refit_path
        else:
            m_final = 0  # iteration 0 of a path is the all-zero model
    beta = final.beta_at(m_final)
    loglik = -path.n_obs * final.risk[m_final]
    df = int(final.active_size[m_final])
    return FittedPairCopula(
        family=family,
        beta=beta,
        m_opt=int(m_opt),
        aic=-2.0 * loglik + 2.0 * df,
        loglik=loglik,
        kept=_kept_from_beta(beta, path, control),
        survivors=survivors,
        risk_path=path,
        refit_path=refit_path,
        n_obs=path.n_obs,
    )


def _fit_families(pairs, Z, families, control, refit=True):
    """Fit every family on one standardized design of checked ``Z``.

    The main paths run through one :func:`_boost_paths` call; each family
    then stops, is deselected and refits on its survivors.  Returns family ->
    :class:`FittedPairCopula`, or family -> the :class:`EvaluationError`,
    ``FloatingPointError`` or :class:`ConfigurationError` that stopped it.
    """
    design = _design(Z)
    kernels = {family: prepare(family, pairs[:, 0], pairs[:, 1]) for family in families}
    results = _boost_paths(kernels, design, control)
    for family, path in results.items():
        if not isinstance(path, Exception):
            try:
                results[family] = _stop_and_refit(pairs, Z, kernels[family], path, design, control, refit)
            except _CANDIDATE_ERRORS as exc:
                results[family] = exc
    return results


def fit_family(pairs, Z, family, control, refit=True):
    """Boost one family and stop early by AIC or cross-validation.

    With ``refit`` the covariates are then deselected and the model is
    boosted again on the survivors, scanning only their columns; when
    ``m_opt`` is 0 or nothing survives the result is the all-zero model.
    Without ``refit`` the coefficients at the stopping iteration are
    returned and ``survivors`` and ``refit_path`` stay ``None``.
    """
    pairs, Z = _checked_data(pairs, Z)
    fit = _fit_families(pairs, Z, [family], control, refit)[family]
    if isinstance(fit, Exception):
        raise fit
    return fit


def fit_pair(pairs, Z, families, control=None, criterion="aic"):
    """Fit candidate families and return the winner.

    ``criterion`` selects among candidates: "aic" (default), "loglik"
    (in-sample) or "predictive_risk" (negative log likelihood on the last
    25% of rows, candidates fitted on the first 75%, winner refitted on all
    rows).  The candidates are boosted together on one standardized design
    (see :func:`_boost_paths`).  Candidate failures are collected; if every
    family fails a :class:`FitError` carries the per-family diagnostics.
    """
    control = control or BoostControl()
    families = list(families)
    if not families:
        raise ConfigurationError("families must be non-empty")
    if criterion not in ("aic", "loglik", "predictive_risk"):
        raise ConfigurationError(f"unknown selection criterion {criterion!r}")

    # The holdout rows of "predictive_risk" are never boosted on; check all.
    pairs, Z = _checked_data(pairs, Z)
    if criterion == "predictive_risk":
        split = int(round(0.75 * len(pairs)))
        if split < 1 or split >= len(pairs):
            raise ConfigurationError("too few rows for a 25% holdout")
        fit_pairs, fit_Z = pairs[:split], Z[:split]
    else:
        fit_pairs, fit_Z = pairs, Z

    results = _fit_families(fit_pairs, fit_Z, families, control)
    fits = {family: fit for family, fit in results.items() if not isinstance(fit, Exception)}
    if not fits:
        failures = {family: repr(exc) for family, exc in results.items()}
        raise FitError("all candidate families failed", diagnostics=failures)

    if criterion == "aic":
        scores = {family: fit.aic for family, fit in fits.items()}
        best = min(fits, key=lambda f: (scores[f], f.value))
    elif criterion == "loglik":
        scores = {family: fit.loglik for family, fit in fits.items()}
        best = max(fits, key=lambda f: (scores[f], f.value))
    else:
        hold_pairs, hold_Z = pairs[split:], Z[split:]
        scores = {
            family: -_pair_loglik(family, hold_pairs, hold_Z, fit.beta) / len(hold_pairs)
            for family, fit in fits.items()
        }
        best = min(fits, key=lambda f: (scores[f], f.value))

    if criterion == "predictive_risk":
        winner = fit_family(pairs, Z, best, control)
    else:
        winner = fits[best]
    winner.selection_scores = {family.value: float(score) for family, score in scores.items()}
    return winner
