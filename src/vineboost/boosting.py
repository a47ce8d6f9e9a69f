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

import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, EvaluationError, FitError, InterfaceError
from .families import _BASE, CopulaFamily, _checked_array, _family, link_tau, log_density, prepare

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


def _require_type(obj, names, types, what):
    """Raise :class:`ConfigurationError` unless each field of ``obj`` named
    in ``names`` is an instance of ``types`` and not a bool."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, types):
            raise ConfigurationError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class BoostControl:
    """Tuning knobs for the boosting estimator."""

    m_stop: int = 500
    nu: float = 0.1
    gamma: float = 0.01
    stopping: str = "aic"
    cv_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        _require_type(self, ("m_stop", "cv_folds", "seed"), (int, np.integer), "an integer")
        _require_type(self, ("nu", "gamma"), numbers.Real, "a real number")
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
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


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


def _checked_pairs(pairs):
    """``pairs`` as a checked (N, 2) float array with at least one row."""
    pairs = _checked_array("pairs", pairs, cols=2)
    if len(pairs) == 0:
        raise InterfaceError("pairs must hold at least one row")
    return pairs


def _checked_data(pairs, Z):
    """``pairs`` and ``Z`` as checked float arrays with the same rows."""
    pairs = _checked_pairs(pairs)
    return pairs, _checked_array("Z", Z, rows=len(pairs))


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

# From this design size up, a stack holding several families scans the
# design with one GEMM per iteration; below it with one batched GEMV.  The
# GEMM reads the design once per iteration instead of once per row, which
# pays once the design no longer fits a core's L2 cache: for fit_pair over
# the five families at N=1000, the GEMM took 1.46x the GEMV's time with p=101
# (0.8 MiB), 0.99-1.08x with p=201 to 351 (1.5 to 2.7 MiB) and 0.71-0.77x
# with p=401 to 501 (3.1 to 3.8 MiB), on a 2-vCPU Xeon with 2 MiB of L2 per
# core and OpenBLAS on one thread.  The threshold sits in the even band.
_GEMM_MIN_BYTES = 2 << 20


@dataclass(frozen=True)
class _Design:
    """The standardized covariates of a stack's rows in :func:`_boost_paths`.

    Either one (N, p+1) design shared by every row (the families and refits
    of one fit), or a leading axis with one design per kernel row (the K
    folds of CV).  A row trains on its rows before ``n_train`` and holds out
    the rest.
    """

    Zs: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    has_intercept: bool
    degenerate: np.ndarray
    colsq_safe: np.ndarray
    n_train: int

    def row(self, e):
        """The design of kernel row e."""
        return self if self.Zs.ndim == 2 else _Design(*(getattr(self, f.name)[e] for f in fields(self)))


def _design(Z):
    Zs, mu, sigma, has_intercept, degenerate = _standardize(Z)
    colsq = np.einsum("ij,ij->j", Zs, Zs)
    colsq_safe = np.where(colsq < _DEGENERATE_TOL, 1.0, colsq)
    return _Design(Zs, mu, sigma, has_intercept, degenerate, colsq_safe, len(Zs))


class _Stack:
    """The live rows of :func:`_boost_paths`: their linear predictors, loss
    values, scan columns and records, one column per live row, and the
    kernels that evaluate them.

    A row is row ``drow`` of the kernel of family ``fam``, and ``rows`` are
    the initial stack positions of the live rows.  The rows are grouped by
    base copula: the live rows of base b are the span ``spans[b]``, and
    ``kernels[b]`` holds them, in that order, in one kernel.  The stack is
    given the kernels of each base's families and joins them
    (``PairKernel._join``); they then view the data of the joint kernel.
    """

    def __init__(self, families, kernels, base, fam, drow, stop, held, scan, blocks_T, n):
        width = scan[0].shape[1]
        self.families = families
        self.kernels = [k[0]._join(*k[1:]) if len(k) > 1 else k[0] for k in kernels]
        self.rows, self.base, self.fam, self.drow = np.arange(len(stop)), base, fam, drow
        self.stop, self.held = stop, held
        self.cols, self.mask, self.colsq = scan
        self.blocks_T = blocks_T
        self.eta = np.zeros((len(stop), n))
        self.logpdf = np.zeros((len(stop), n))
        self.grad = np.zeros((len(stop), n))
        self.numer = np.zeros((len(stop), width))
        m_max = int(stop.max())
        self.selected = np.zeros((m_max, len(stop)), dtype=np.int64)
        self.increments = np.zeros((m_max, len(stop)))
        self.risk = np.zeros((m_max + 1, len(stop)))
        self._index()

    def _index(self):
        self.offsets = np.arange(len(self.rows)) * self.numer.shape[1]
        bounds = np.searchsorted(self.base, np.arange(len(self.kernels) + 1))
        self.spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        # the live rows grouped by their first held-out row, 0 for those
        # training on all rows: each row's risk rows
        held = np.unique(self.held)
        self.risk_rows = [(slice(None) if len(held) == 1 else self.held == t, t) for t in held]

    def keep(self, rows):
        """Drop every live row but those at the positions ``rows``."""
        for b, span in enumerate(self.spans):
            kept = rows[(rows >= span.start) & (rows < span.stop)] - span.start
            if len(kept) < span.stop - span.start:
                self.kernels[b] = self.kernels[b].take(kept) if len(kept) else None
        if self.blocks_T is not None:
            self.blocks_T = [self.blocks_T[i] for i in rows]
        for name in ("rows", "base", "fam", "drow", "stop", "held", "cols", "mask", "colsq", "eta", "logpdf",
                     "grad", "numer"):
            setattr(self, name, getattr(self, name)[rows])
        for name in ("selected", "increments", "risk"):
            setattr(self, name, getattr(self, name)[:, rows])
        self._index()

    def kernel(self, i):
        """The kernel of the live row at position i alone."""
        b = self.base[i]
        return self.kernels[b].take([i - self.spans[b].start])

    def evaluate(self, m):
        """The log density of every live row at iteration m into ``logpdf``
        and the gradient into ``grad``, with one kernel call per base copula;
        the call asks for the gradient when one of its rows goes on after m.
        A call that raises is made again for each of its rows alone, with
        the gradient only if that row goes on.  Returns row position -> the
        exception that stopped that row."""
        failed = {}
        for kernel, span in zip(self.kernels, self.spans):
            if span.start == span.stop:
                continue
            try:
                self._evaluate(kernel, span, self.stop[span].max() > m)
            except _CANDIDATE_ERRORS:
                for i in range(span.start, span.stop):
                    try:
                        self._evaluate(self.kernel(i), slice(i, i + 1), self.stop[i] > m)
                    except _CANDIDATE_ERRORS as exc:
                        failed[i] = exc
        return failed

    def _evaluate(self, kernel, at, gradient):
        if gradient:
            logpdf, grad = kernel.value_and_grad(self.eta[at])
        else:
            logpdf, grad = kernel.log_density(self.eta[at]), None
        if at.stop - at.start == len(self.rows):  # every row: no copy
            self.logpdf = logpdf
            if gradient:
                self.grad = grad
        else:
            self.logpdf[at] = logpdf
            if gradient:
                self.grad[at] = grad

    def record_risk(self, m, n):
        """risk[m] of every live row: the mean of its risk rows' negative log density."""
        for rows, t in self.risk_rows:
            self.risk[m, rows] = -(np.add.reduce(self.logpdf[rows, t:], axis=1) / (n - t))

    def scan(self, Zs, gemm):
        """``numer`` row i = the GEMV of live row i's training block with its
        gradient: one batched GEMV on a shared design, one call per row on
        the rows' own blocks, or with ``gemm`` one GEMM, which sums in
        another order."""
        if gemm:
            self.numer = self.grad @ Zs
        elif self.blocks_T is None:
            np.matmul(Zs.T, self.grad[:, :, None], out=self.numer[:, :, None])
        else:
            for Zs_T, g, numer in zip(self.blocks_T, self.grad, self.numer):
                np.matmul(Zs_T, g[: Zs_T.shape[1]], out=numer[: Zs_T.shape[0]])

    def step(self, m, nu, Zs):
        """Iteration m of every live row, from its scan ``numer`` = Zs.T @ g."""
        numer, colsq = self.numer, self.colsq
        score = np.where(self.mask, numer * numer / colsq, -np.inf)
        at = self.offsets + score.argmax(axis=1)
        step = nu * numer.take(at) / colsq.take(at)
        cols = self.cols.take(at)
        update = Zs[:, cols] if Zs.ndim == 2 else Zs[self.drow, :, cols].T
        update *= step
        self.eta += update.T
        self.selected[m - 1] = cols
        self.increments[m - 1] = step

    def path(self, i, design):
        """The finished path of the live row at position i, on its design."""
        m = int(self.stop[i])
        selected, increments = self.selected[:m, i].copy(), self.increments[:m, i].copy()
        return BoostPath(
            family=self.families[self.fam[i]],
            selected=selected,
            increments=increments,
            risk=self.risk[: m + 1, i].copy(),
            active_size=_active_sizes(selected, increments),
            mu=design.mu,
            sigma=design.sigma,
            has_intercept=design.has_intercept,
            degenerate=design.degenerate,
            n_obs=int(design.n_train),
        )


def _active_sizes(selected, increments):
    """The nonzero coefficients after each iteration of a path, replaying
    its updates in order."""
    beta, active = {}, [0]
    for j, step in zip(selected.tolist(), increments.tolist()):
        was = beta.get(j, 0.0)
        beta[j] = now = was + step
        active.append(active[-1] + (now != 0.0) - (was != 0.0))
    return np.array(active, dtype=np.int64)


def _take(kernel, rows, n_rows):
    """``kernel`` on its rows ``rows``; the kernel itself when that is all of them."""
    return kernel if len(rows) == n_rows else kernel.take(rows)


def _boost_paths(kernels, design, nu, m_stop, cols=None):
    """Boost the rows of every kernel in ``kernels`` (family -> PairKernel)
    on one design, as one stack.

    Each kernel holds K rows as (K, N) arrays: vine edges on one shared
    design, or CV folds on a design with one entry per kernel row (see
    :class:`_Design`).  ``m_stop[family]`` gives each row of the family's
    kernel its iteration count, and ``cols[family]``, if given, its scan
    columns of a shared design, which are copied contiguously (once for
    rows with the same columns) and whose picks are mapped back to the
    design's column indices.  The rows are grouped by base copula, and the
    kernels of the families of one base, such as Clayton I and II, are made
    one kernel (``PairKernel._join``).  Each iteration evaluates the log
    density of every row (it gives risk[m]) and its gradient (it drives step
    m + 1) with one call of each base's kernel.  It then scans the
    covariates of every row and makes the coordinate choice and the step for
    all rows at once.  The risk is the mean negative log density over a
    row's held-out rows, or over all rows when it has none.  A row leaves
    the stack when it has run its iterations.

    The scan is one batched GEMV of the shared design with every row's
    gradient or, with ``cols`` or held-out rows, one GEMV of each row's
    training block, so every row takes the path it takes alone, bit for
    bit.  On a shared design of at least ``_GEMM_MIN_BYTES`` a stack of
    several families scans with one GEMM, ``G @ Zs``, instead.  That sums
    in another order, and where a step overshoots (the risk rises) the
    rounding difference can grow into another path, so such a row is
    boosted again alone.

    Returns family -> one :class:`BoostPath` per kernel row, or the
    exception that stopped it.  A row fails on its own: when a base's
    kernel call raises, its rows are evaluated again one at a time (see
    :meth:`_Stack.evaluate`); the rows that raise alone leave the stack with
    that error and the others go on.
    """
    groups = {}
    for family in kernels:
        groups.setdefault(_BASE[family], []).append(family)
    families = [family for group in groups.values() for family in group]
    n, p1 = design.Zs.shape[-2:]
    counts = [len(m_stop[family]) for family in families]
    fam = np.repeat(np.arange(len(families)), counts)
    base = np.repeat([b for b, group in enumerate(groups.values()) for _ in group], counts)
    drow = np.concatenate([np.arange(c) for c in counts])
    stop = np.concatenate([np.asarray(m_stop[family], dtype=np.int64) for family in families])
    scans = [np.arange(p1)] * len(stop) if cols is None else [s for family in families for s in cols[family]]

    # each row's scan columns, padded to one width: unselectable past the end
    designs = [design.row(e) for e in drow]
    width = max(len(s) for s in scans)
    scan = (np.zeros((len(stop), width), dtype=np.int64), np.zeros((len(stop), width), dtype=bool),
            np.ones((len(stop), width)))
    for r, (s, d) in enumerate(zip(scans, designs)):
        scan[0][r, : len(s)] = s
        scan[1][r, : len(s)] = ~d.degenerate[s]
        scan[2][r, : len(s)] = d.colsq_safe[s]
    shared = cols is None and design.Zs.ndim == 2 and design.n_train == n
    gemm = shared and len(families) > 1 and design.Zs.nbytes >= _GEMM_MIN_BYTES
    if shared:
        blocks_T = None
    elif cols is None:  # CV: the training rows of each row's own design
        blocks_T = [d.Zs[: d.n_train].T for d in designs]
    else:  # one contiguous copy of the shared design per distinct column set
        copies = {}
        for s in scans:
            if tuple(s) not in copies:
                copies[tuple(s)] = np.ascontiguousarray(design.Zs[:, s]).T
        blocks_T = [copies[tuple(s)] for s in scans]
    held = np.array([d.n_train % n for d in designs])

    def alone(stack, i):
        r, family = stack.rows[i], families[stack.fam[i]]
        return _boost_paths({family: stack.kernel(i)}, designs[r], nu, {family: stop[[r]]},
                            None if cols is None else {family: [scans[r]]})[family][0]

    out = {family: [ConfigurationError("no selectable covariates") for _ in m_stop[family]] for family in kernels}
    rows = np.flatnonzero(scan[1].any(axis=1))
    if not len(rows):
        return out
    stack = _Stack(families, [[kernels[family] for family in group] for group in groups.values()], base, fam,
                   drow, stop, held, scan, blocks_T, n)
    del kernels  # the stack's now: data of rows that leave is freed with their kernels
    if len(rows) < len(stop):
        stack.keep(rows)
    for m in range(int(stack.stop.max()) + 1):
        if m > 0:
            stack.scan(design.Zs, gemm)
            stack.step(m, nu, design.Zs)
        failed = stack.evaluate(m)
        stack.record_risk(m, n)
        rose = stack.risk[m] > stack.risk[m - 1] if gemm and m > 0 else np.zeros(len(stack.rows), dtype=bool)
        leave = (stack.stop == m) | rose
        leave[list(failed)] = True
        if not leave.any():
            continue
        for i in np.flatnonzero(leave):
            if i in failed:
                path = failed[i]
            elif rose[i]:
                path = alone(stack, i)
            else:
                path = stack.path(i, designs[stack.rows[i]])
            out[families[stack.fam[i]]][stack.drow[i]] = path
        if leave.all():
            break
        stack.keep(np.flatnonzero(~leave))
    return out


def boost(pairs, Z, family, control):
    """Run the componentwise boosting loop (no stopping, no deselection).

    Degenerate (zero-variance) columns are never selectable and are flagged
    on the returned path rather than raising.  To boost on a subset of the
    covariates, pass those columns of ``Z``.
    """
    pairs, Z = _checked_data(pairs, Z)
    kernel = prepare(family, pairs[None, :, 0], pairs[None, :, 1])
    (path,) = _boost_paths({family: kernel}, _design(Z), control.nu, {family: [control.m_stop]})[family]
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


def _check_fold_rows(n, k):
    """Raise :class:`ConfigurationError` unless each of ``k`` CV folds of
    ``n`` rows holds at least 10; the smallest fold has ``n // k``."""
    if n // k < 10:
        raise ConfigurationError(f"each CV fold needs at least 10 observations ({n} rows, {k} folds)")


def _cv_paths(pairs, Z, family, control):
    """Per-fold selections and held-out risks of seeded K-fold CV.

    Fold k's rows sit in the order "training rows, then held-out rows" in
    row k of a (K, N) index.  Its training rows are standardized as
    :func:`boost` does and its held-out rows with the same mean and scale,
    in row k of one (K, N, p+1) design, and the K folds are boosted as the
    rows of one :func:`_boost_paths` stack.  Returns ``selected``
    (K, m_stop) and the held-out risk (K, m_stop + 1), or raises the error
    of the first fold that failed.
    """
    pairs, Z = _checked_data(pairs, Z)
    n, p1 = Z.shape
    k = control.cv_folds
    _check_fold_rows(n, k)
    rng = np.random.default_rng(control.seed)
    folds = np.array_split(rng.permutation(n), k)
    n_train = n - np.array([len(f) for f in folds])
    order = np.stack([np.concatenate([np.setdiff1d(np.arange(n), f), f]) for f in folds])

    Zs = np.empty((k, n, p1))
    stats = []
    for i, t in enumerate(n_train):
        train = _design(Z[order[i, :t]])
        Zs[i, :t] = train.Zs
        Zs[i, t:] = (Z[order[i, t:]] - train.mu) / train.sigma
        stats.append((train.mu, train.sigma, train.has_intercept, train.degenerate, train.colsq_safe))
    del train  # a fold's standardized rows, already copied into Zs
    design = _Design(Zs, *map(np.array, zip(*stats)), n_train)
    kernel = prepare(family, pairs[order, 0], pairs[order, 1])
    paths = _boost_paths({family: kernel}, design, control.nu, {family: [control.m_stop] * k})[family]
    for path in paths:
        if isinstance(path, Exception):
            raise path
    return np.array([path.selected for path in paths]), np.array([path.risk for path in paths])


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


def deselect(path, gamma):
    """Indices of covariates kept by the attributable-risk rule.

    A covariate survives when its attributable risk reduction reaches
    ``gamma`` times the total reduction of the path; the intercept, when
    the design has one, always survives.  When the total reduction is not
    positive only the intercept survives.
    """
    risks = attributable_risk(path)
    total = path.risk[0] - path.risk[-1]
    if total <= 0.0:
        warnings.warn("total risk reduction is not positive; keeping only the intercept")
        return np.array([0] if path.has_intercept else [], dtype=int)
    kept = np.flatnonzero(risks >= gamma * total)
    if path.has_intercept and 0 not in kept:
        kept = np.concatenate([[0], kept])
    return np.sort(kept.astype(int))


@dataclass
class FittedPairCopula:
    """One fitted conditional bivariate copula.

    ``kept`` is the covariate set of the final model (nonzero coefficients,
    plus the intercept); ``survivors`` records the outcome of the
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


def _kept_from_beta(beta, path):
    kept = set(int(j) for j in np.flatnonzero(beta))
    if path.has_intercept:
        kept.add(0)
    return tuple(sorted(kept))


def _fitted(path, m_opt, survivors, refit_path):
    """The :class:`FittedPairCopula` of a main path stopped at ``m_opt``;
    ``survivors`` is None without deselection (see :func:`fit_family`)."""
    if survivors is None:
        final, m_final = path, m_opt
    elif refit_path is None:
        final, m_final = path, 0  # iteration 0 of a path is the all-zero model
    else:
        final, m_final = refit_path, m_opt
    beta = final.beta_at(m_final)
    loglik = -path.n_obs * final.risk[m_final]
    df = int(final.active_size[m_final])
    return FittedPairCopula(
        family=path.family,
        beta=beta,
        m_opt=int(m_opt),
        aic=-2.0 * loglik + 2.0 * df,
        loglik=loglik,
        kept=_kept_from_beta(beta, path),
        survivors=survivors,
        risk_path=path,
        refit_path=refit_path,
        n_obs=path.n_obs,
    )


def _fit_edges(pairs, Z, design, families, control, refit=True):
    """Fit every family on each edge of a stack of checked copula data.

    ``pairs`` is (E, N, 2), one vine edge per row, all on the covariates
    ``Z`` whose standardized design is ``design``.  The main paths of every
    edge and family run through one :func:`_boost_paths` call.  Each edge
    then stops and, with ``refit``, is deselected on its own; the refits of
    every family and edge run in one more call, each on its own survivor
    columns.  Returns family -> one :class:`FittedPairCopula` per edge, or
    the :class:`EvaluationError`, ``FloatingPointError`` or
    :class:`ConfigurationError` that stopped the family on that edge.
    With CV stopping, too few rows for the folds raise
    :class:`ConfigurationError` before any family is boosted.
    """
    n_edges = len(pairs)
    if control.stopping == "cv":
        _check_fold_rows(pairs.shape[1], control.cv_folds)
    kernels = {family: prepare(family, pairs[..., 0], pairs[..., 1]) for family in families}
    results = _boost_paths(kernels, design, control.nu, {family: [control.m_stop] * n_edges for family in kernels})
    stops = {}
    for family, fits in results.items():
        for e, path in enumerate(fits):
            if isinstance(path, Exception):
                continue
            try:
                m_opt = stop_cv(pairs[e], Z, family, control) if control.stopping == "cv" else stop_aic(path)
                survivors = None
                if refit:
                    survivors = tuple(int(j) for j in deselect(path, control.gamma))
            except _CANDIDATE_ERRORS as exc:
                fits[e] = exc
                continue
            stops[family, e] = (m_opt, survivors)
    redo = {}
    for (family, e), (m_opt, survivors) in stops.items():
        if survivors and m_opt > 0:
            redo.setdefault(family, []).append(e)
    refits = {}
    if redo:
        m_opts = {family: [stops[family, e][0] for e in edges] for family, edges in redo.items()}
        cols = {family: [np.array(stops[family, e][1]) for e in edges] for family, edges in redo.items()}
        # the refit stack takes the kernels over (pop), so that the data of
        # its rows is freed as they leave it
        paths = _boost_paths({family: _take(kernels.pop(family), edges, n_edges) for family, edges in redo.items()},
                             design, control.nu, m_opts, cols)
        refits = {(family, e): path for family, edges in redo.items() for e, path in zip(edges, paths[family])}
    for (family, e), (m_opt, survivors) in stops.items():
        refit_path = refits.get((family, e))
        if isinstance(refit_path, Exception):
            results[family][e] = refit_path
        else:
            results[family][e] = _fitted(results[family][e], m_opt, survivors, refit_path)
    return results


def _fit_families(pairs, Z, families, control, refit=True):
    """:func:`_fit_edges` on the one edge of checked (N, 2) ``pairs``:
    family -> its :class:`FittedPairCopula` or the error that stopped it."""
    results = _fit_edges(pairs[None], Z, _design(Z), families, control, refit)
    return {family: fits[0] for family, fits in results.items()}


def fit_family(pairs, Z, family, control, refit=True):
    """Boost one family (a :class:`CopulaFamily` or its tag) and stop early by AIC or CV.

    With ``refit`` the covariates are then deselected and the model is
    boosted again on the survivors, scanning only their columns; when
    ``m_opt`` is 0 or nothing survives the result is the all-zero model.
    Without ``refit`` the coefficients at the stopping iteration are
    returned and ``survivors`` and ``refit_path`` stay ``None``.
    """
    pairs, Z = _checked_data(pairs, Z)
    (fit,) = _fit_families(pairs, Z, [_family(family)], control, refit).values()
    if isinstance(fit, Exception):
        raise fit
    return fit


def _check_criterion(criterion):
    if criterion not in ("aic", "loglik", "predictive_risk"):
        raise ConfigurationError(f"unknown selection criterion {criterion!r}")


def _candidates(families, criterion):
    """The candidate families as :class:`CopulaFamily` values, checked with the criterion."""
    if isinstance(families, str):  # one tag or CopulaFamily (a str too), not a list of them
        raise ConfigurationError(f"families must be a list of families, got {str.__str__(families)!r}")
    families = [_family(f) for f in families]
    if not families:
        raise ConfigurationError("families must be non-empty")
    _check_criterion(criterion)
    return families


def _fit_pairs(pairs, Z, families, control, criterion):
    """:func:`fit_pair` on each edge of a stack of checked copula data.

    ``pairs`` is (E, N, 2), one vine edge per row, on the covariates ``Z``;
    ``families`` and ``criterion`` are checked by :func:`_candidates`.
    The edges are fitted together (see :func:`_fit_edges`) and each picks
    its own winner.  Returns one :class:`FittedPairCopula` per edge, or
    the exception that edge's :func:`fit_pair` raises.
    """
    n = pairs.shape[1]
    split = n
    if criterion == "predictive_risk":
        split = int(round(0.75 * n))
        if split < 1 or split >= n:
            raise ConfigurationError("too few rows for a 25% holdout")
    results = _fit_edges(pairs[:, :split], Z[:split], _design(Z[:split]), families, control)

    winners, refit = [], {}
    for e in range(len(pairs)):
        fits = {family: r[e] for family, r in results.items() if not isinstance(r[e], Exception)}
        if not fits:
            failures = {family: repr(r[e]) for family, r in results.items()}
            winners.append(FitError("all candidate families failed", diagnostics=failures))
            continue
        if criterion == "aic":
            scores = {family: fit.aic for family, fit in fits.items()}
            best = min(fits, key=lambda f: (scores[f], f.value))
        elif criterion == "loglik":
            scores = {family: fit.loglik for family, fit in fits.items()}
            best = max(fits, key=lambda f: (scores[f], f.value))
        else:
            hold_pairs, hold_Z = pairs[e, split:], Z[split:]
            scores = {
                family: -_pair_loglik(family, hold_pairs, hold_Z, fit.beta) / len(hold_pairs)
                for family, fit in fits.items()
            }
            best = min(fits, key=lambda f: (scores[f], f.value))
            refit.setdefault(best, []).append(e)
        fits[best].selection_scores = {family.value: float(score) for family, score in scores.items()}
        winners.append(fits[best])

    # "predictive_risk" refits each winner on all rows, the edges won by
    # one family together
    for family, edges in refit.items():
        for e, fit in zip(edges, _fit_edges(pairs[edges], Z, _design(Z), [family], control)[family]):
            if not isinstance(fit, Exception):
                fit.selection_scores = winners[e].selection_scores
            winners[e] = fit
    return winners


def fit_pair(pairs, Z, families, control=None, criterion="aic"):
    """Fit candidate families and return the winner.

    ``criterion`` selects among candidates: "aic" (default), "loglik"
    (in-sample) or "predictive_risk" (negative log likelihood on the last
    25% of rows, candidates fitted on the first 75%, winner refitted on all
    rows).  The candidates, :class:`CopulaFamily` values or tags, are boosted
    together on one standardized design (see :func:`_boost_paths`).  If every
    family fails, a :class:`FitError` carries the per-family diagnostics.
    """
    control = control or BoostControl()
    families = _candidates(families, criterion)
    # The holdout rows of "predictive_risk" are never boosted on; check all.
    pairs, Z = _checked_data(pairs, Z)
    (winner,) = _fit_pairs(pairs[None], Z, families, control, criterion)
    if isinstance(winner, Exception):
        raise winner
    return winner
