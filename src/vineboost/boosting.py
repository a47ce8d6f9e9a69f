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


_CANDIDATE_ERRORS = (EvaluationError, FloatingPointError, ConfigurationError)


def _gamma(k, u):
    """Higham's gamma(k) = k u / (1 - k u), which bounds the relative error
    of k roundings at unit roundoff u; inf from k u = 1 on, where it bounds
    nothing."""
    return k * u / (1.0 - k * u) if k * u < 1.0 else np.inf


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


def _design(Z, n_train=None):
    """The standardized design of Z: the mean and scale of its first
    ``n_train`` rows (all by default), applied to every row.  A column of
    ones is the intercept and stays one; a zero-variance column is flagged
    degenerate and only centred."""
    Z = np.asarray(Z, dtype=float)
    t = len(Z) if n_train is None else int(n_train)
    has_intercept = bool(np.all(Z[:t, 0] == 1.0))
    mu = Z[:t].mean(axis=0)
    sigma = Z[:t].std(axis=0)
    if has_intercept:
        mu[0] = 0.0
        sigma[0] = 1.0
    degenerate = sigma < _DEGENERATE_TOL
    sigma = np.where(degenerate, 1.0, sigma)
    Zs = (Z - mu) / sigma
    colsq = np.einsum("ij,ij->j", Zs[:t], Zs[:t])
    colsq_safe = np.where(colsq < _DEGENERATE_TOL, 1.0, colsq)
    return _Design(Zs, mu, sigma, has_intercept, degenerate, colsq_safe, t)


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
    A row trains on its data rows before ``held``, or on all of them when
    ``held`` is 0.  The float32 design ``Zs32`` that :meth:`step` is given
    is shared by every row, with row i's scan columns at ``spots[i]`` when
    those are given, unless ``blocks32`` holds each row's own float32
    training block.
    """

    def __init__(self, families, kernels, base, fam, drow, stop, held, scan, spots, blocks32, n):
        self.families = families
        self.kernels = [k[0]._join(*k[1:]) if len(k) > 1 else k[0] for k in kernels]
        self.rows, self.base, self.fam, self.drow = np.arange(len(stop)), base, fam, drow
        self.stop, self.held = stop, held
        self.cols, self.mask, self.colsq = scan
        self.inv_norm = np.where(self.mask, 1.0 / np.sqrt(self.colsq), 0.0)
        # (gamma, floor) with 2c = gamma |g| + floor in :meth:`screen`
        self.slack = 2.0 * (_gamma(n + 2, 2.0**-24) + _gamma(n, 2.0**-53)), n * 2.0**-129
        self.spots, self.blocks32 = spots, blocks32
        self.eta = np.zeros((len(stop), n))
        self.logpdf = np.zeros((len(stop), n))
        self.grad = np.zeros((len(stop), n))
        m_max = int(stop.max())
        self.selected = np.zeros((m_max, len(stop)), dtype=np.int64)
        self.increments = np.zeros((m_max, len(stop)))
        self.risk = np.zeros((m_max + 1, len(stop)))
        self._index()

    def _index(self):
        self.live = np.arange(len(self.rows))
        self.offsets = self.live * self.cols.shape[1]
        bounds = np.searchsorted(self.base, np.arange(len(self.kernels) + 1))
        self.spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        # the live rows grouped by their first held-out row, 0 for those
        # training on all rows: each row's risk rows and training rows
        held = np.unique(self.held)
        self.risk_rows = [(slice(None) if len(held) == 1 else self.held == t, t) for t in held]

    def keep(self, rows):
        """Drop every live row but those at the positions ``rows``."""
        for b, span in enumerate(self.spans):
            kept = rows[(rows >= span.start) & (rows < span.stop)] - span.start
            if len(kept) < span.stop - span.start:
                self.kernels[b] = self.kernels[b].take(kept) if len(kept) else None
        if self.blocks32 is not None:
            self.blocks32 = [self.blocks32[i] for i in rows]
        if self.spots is not None:
            self.spots = self.spots[rows]
        for name in ("rows", "base", "fam", "drow", "stop", "held", "cols", "mask", "colsq", "inv_norm", "eta", "logpdf",
                     "grad"):
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

    def screen(self, Zs32):
        """The scan positions of every live row that may hold its best
        column, as a (rows, width) mask: the screen only rules columns out.

        Column j's exact numerator e_j is z_j . g over the row's training
        rows, and its score e_j^2 / |z_j|^2.  The gradient is cast to
        float32 and s_j = z_j . g formed in float32, with one GEMM on the
        float32 design ``Zs32`` or, on CV folds, one GEMV per row on its own
        float32 block.  When some row's |g| lies outside (2^-100, 2^100),
        or is 0, each row is first scaled by the power of two 2^k that puts
        its max|g| in [1, 2), exact but for entries it makes subnormal;
        otherwise k = 0.  Either way float32 cannot overflow.
        By Higham's dot-product bound (*Accuracy and Stability of Numerical
        Algorithms*, 2002, ch. 3) and Cauchy-Schwarz, in any summation order
        and with or without FMA, |s_j - 2^k e_j| <= c |z_j| for N data rows,

            c = (gamma32(N + 2) + gamma64(N)) |2^k g| + N 2^-130:

        gamma32(N + 2) covers the float32 products and sums and both casts,
        gamma64(N) the float64 numerator, and the rest, generously, every
        underflow in either precision that the gamma term does not, as a
        selectable column, standardized to mean square 1 over its training
        rows or the intercept, has |z_j| >= 1.  So r_j = |s_j| / |z_j| lies
        within c of 2^k |e_j| / |z_j|, and the best column has
        r_j >= max r - 2c.  A column stays a candidate when
        r_j >= (1 - 1e-6) max r - 2c over its row's selectable columns: the
        margin covers the float64 rounding of r, c and the scores, a few
        ulps each, and where c is too large for that the bound is negative
        and every column stays.  That holds while the scores are normal
        float64 numbers: with |k| <= 480 a best column the bound can tell
        apart has e_j^2 / |z_j|^2 > 2^(-46 - 2k) >= 2^-1006 and e_j^2 below
        the overflow threshold.  Beyond that two different numerators can
        give equal scores, so a row with |k| > 480 keeps every selectable
        column.
        """
        g, exact = self.grad, None
        sq = np.einsum("ij,ij->i", g, g)
        if not 2.0**-200 < sq.min() <= sq.max() < 2.0**200:  # |g| far from 1, or 0: scale by 2^k first
            k = 1 - np.frexp(np.abs(g).max(axis=1))[1]
            g, exact = np.ldexp(g, k[:, None]), np.abs(k) > 480
            sq = np.einsum("ij,ij->i", g, g)
        g32 = g.astype(np.float32)
        if self.blocks32 is None:
            s = g32 @ Zs32
            if self.spots is not None:
                s = s[self.live[:, None], self.spots]
        else:
            s = np.zeros(self.cols.shape, dtype=np.float32)
            for block, gi, si in zip(self.blocks32, g32, s):
                np.matmul(gi[: len(block)], block, out=si[: block.shape[1]])
        r = np.abs(s) * self.inv_norm
        gamma, floor = self.slack
        candidates = (r >= ((1.0 - 1e-6) * r.max(axis=1) - (gamma * np.sqrt(sq) + floor))[:, None]) & self.mask
        if exact is not None and exact.any():
            candidates[exact] = self.mask[exact]
        return candidates

    def step(self, m, nu, Zs, Zs32):
        """Iteration m of every live row: the candidates of its screen (see
        :meth:`screen`) decide by their exact numerators, numpy's pairwise
        sum of z_j * g over the row's training rows.  The first best in
        column order is taken, with the step nu e_j / |z_j|^2, and the
        predictor moves by the same column times the step."""
        candidates, live = self.screen(Zs32), self.live
        if np.count_nonzero(candidates) == len(live):  # each row has one
            at_row, at, grad = live, self.offsets + candidates.argmax(axis=1), self.grad
        else:
            at = np.flatnonzero(candidates)
            at_row = at // candidates.shape[1]
            grad = self.grad[at_row]
        cols, colsq = self.cols.take(at), self.colsq.take(at)
        # one C-contiguous row per candidate: its column over all data rows
        block = Zs.T[cols] if Zs.ndim == 2 else Zs[self.drow[at_row], :, cols]
        numer = np.empty(len(cols))
        for rows, t in self.risk_rows:
            k = slice(None) if isinstance(rows, slice) else rows[at_row]
            numer[k] = np.add.reduce(block[k, : t or None] * grad[k, : t or None], axis=1)
        if len(cols) > len(live):  # a row with several candidates takes its first best
            score = np.full(candidates.shape, -np.inf)
            score.flat[at] = numer * numer / colsq
            pick = np.searchsorted(at, self.offsets + score.argmax(axis=1))
            numer, cols, colsq, block = numer[pick], cols[pick], colsq[pick], block[pick]
        step = nu * numer / colsq
        block *= step[:, None]
        self.eta += block
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


def _boost_paths(kernels, design, nu, m_stop, cols=None):
    """Boost the rows of every kernel in ``kernels`` (family -> PairKernel)
    on one design, as one stack.

    Each kernel holds K rows as (K, N) arrays: vine edges on one shared
    design, or CV folds on a design with one entry per kernel row (see
    :class:`_Design`).  ``m_stop[family]`` gives each row of the family's
    kernel its iteration count, and ``cols[family]``, if given, its scan
    columns of a shared design, whose picks are mapped back to the design's
    column indices.  The rows are grouped by base copula, and the kernels of
    the families of one base, such as Clayton I and II, are made one kernel
    (``PairKernel._join``).  Each iteration evaluates the log density of
    every row (it gives risk[m]) and its gradient (it drives step m + 1)
    with one call of each base's kernel.  The risk is the mean negative log
    density over a row's held-out rows, or over all rows when it has none.
    A row leaves the stack when it has run its iterations.

    The coordinate choice is screened in float32 and decided exactly (see
    :meth:`_Stack.screen` and :meth:`_Stack.step`): one float32 GEMM over a
    float32 copy of the design columns the rows scan, or on CV folds one
    float32 GEMV per row on its fold's training block, rules out the
    columns that cannot score best under a rigorous error bound.
    The few left decide by their exact numerators, numpy's pairwise sum of
    z_j * g over the row's training rows, which depends only on the column
    and the gradient: not on the BLAS, the other rows or the other
    candidates.  So every row takes the path it takes alone, bit for bit,
    and a refit on survivor columns the path a fit on all columns with only
    those selectable takes.

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
    spots = blocks32 = None
    if cols is None:
        Zs32 = design.Zs.astype(np.float32)
        if Zs32.ndim == 3 or design.n_train < n:  # CV: the training rows of each row's own design
            blocks32 = [(Zs32 if Zs32.ndim == 2 else Zs32[e])[: d.n_train] for e, d in zip(drow, designs)]
    else:  # a float32 copy of the columns some row scans, and where each row's columns sit in it
        union = np.unique(np.concatenate(scans))
        Zs32 = design.Zs[:, union].astype(np.float32)
        spots = np.searchsorted(union, scan[0])
    held = np.array([d.n_train % n for d in designs])

    out = {family: [ConfigurationError("no selectable covariates") for _ in m_stop[family]] for family in kernels}
    rows = np.flatnonzero(scan[1].any(axis=1))
    if not len(rows):
        return out
    stack = _Stack(families, [[kernels[family] for family in group] for group in groups.values()], base, fam,
                   drow, stop, held, scan, spots, blocks32, n)
    del kernels  # the stack's now: data of rows that leave is freed with their kernels
    if len(rows) < len(stop):
        stack.keep(rows)
    for m in range(int(stack.stop.max()) + 1):
        if m > 0:
            stack.step(m, nu, design.Zs, Zs32)
        failed = stack.evaluate(m)
        stack.record_risk(m, n)
        leave = stack.stop == m
        leave[list(failed)] = True
        if not leave.any():
            continue
        for i in np.flatnonzero(leave):
            path = failed[i] if i in failed else stack.path(i, designs[stack.rows[i]])
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
    row k of a (K, N) index.  All its rows are standardized with the mean
    and scale of its training rows (:func:`_design`), in row k of one
    (K, N, p+1) design, and the K folds are boosted as the rows of one
    :func:`_boost_paths` stack.  Returns ``selected``
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
        fold = _design(Z[order[i]], t)
        Zs[i] = fold.Zs
        stats.append((fold.mu, fold.sigma, fold.has_intercept, fold.degenerate, fold.colsq_safe))
    del fold  # a fold's standardized rows, already copied into Zs
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
            family=_family(family),
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
    return link_tau(_checked_array("Z", Z, cols=len(model.beta)) @ model.beta)


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


def _fit_edges(pairs, Z, candidates, control, refit=True):
    """Fit each edge of a stack of checked copula data on its candidate families.

    ``pairs`` is (E, N, 2), one vine edge per row, all on the covariates
    ``Z`` and their one standardized design; ``candidates[e]`` holds edge
    e's families, maybe none.  Each family has one kernel over its edges,
    and all main paths run through one :func:`_boost_paths` call.  Each
    then stops and, with ``refit``, is deselected on its own; the refits
    run in one more call, each on its own survivor columns.  Returns one
    dict per edge, family -> :class:`FittedPairCopula`, or the
    :class:`EvaluationError`, ``FloatingPointError`` or
    :class:`ConfigurationError` that stopped the family on that edge.
    With CV stopping, too few rows for the folds raise
    :class:`ConfigurationError` before any family is boosted.
    """
    if control.stopping == "cv":
        _check_fold_rows(pairs.shape[1], control.cv_folds)
    out = [dict.fromkeys(families) for families in candidates]
    at = {}  # family -> the edges it is fitted on, one kernel row each
    for e, fits in enumerate(out):
        for family in fits:
            at.setdefault(family, []).append(e)
    if not at:
        return out
    design = _design(Z)
    kernels = {family: prepare(family, pairs[edges, :, 0], pairs[edges, :, 1]) for family, edges in at.items()}
    results = _boost_paths(kernels, design, control.nu, {family: [control.m_stop] * len(at[family]) for family in at})
    stops = {}
    for family, paths in results.items():
        for row, (e, path) in enumerate(zip(at[family], paths)):
            out[e][family] = path
            if isinstance(path, Exception):
                continue
            try:
                m_opt = stop_cv(pairs[e], Z, family, control) if control.stopping == "cv" else stop_aic(path)
                survivors = None
                if refit:
                    survivors = tuple(int(j) for j in deselect(path, control.gamma))
            except _CANDIDATE_ERRORS as exc:
                out[e][family] = exc
                continue
            stops[family, row] = (m_opt, survivors)
    redo = {}
    for (family, row), (m_opt, survivors) in stops.items():
        if survivors and m_opt > 0:
            redo.setdefault(family, []).append(row)
    refits = {}
    if redo:
        m_opts = {family: [stops[family, row][0] for row in rows] for family, rows in redo.items()}
        cols = {family: [np.array(stops[family, row][1]) for row in rows] for family, rows in redo.items()}
        # the refit stack takes the kernels over (pop), so that the data of
        # its rows is freed as they leave it
        paths = _boost_paths({family: kernels.pop(family).take(rows) for family, rows in redo.items()},
                             design, control.nu, m_opts, cols)
        refits = {(family, row): path for family, rows in redo.items() for row, path in zip(rows, paths[family])}
    for (family, row), (m_opt, survivors) in stops.items():
        e, refit_path = at[family][row], refits.get((family, row))
        if isinstance(refit_path, Exception):
            out[e][family] = refit_path
        else:
            out[e][family] = _fitted(out[e][family], m_opt, survivors, refit_path)
    return out


def fit_family(pairs, Z, family, control, refit=True):
    """Boost one family (a :class:`CopulaFamily` or its tag) and stop early by AIC or CV.

    With ``refit`` the covariates are then deselected and the model is
    boosted again on the survivors, scanning only their columns; when
    ``m_opt`` is 0 or nothing survives the result is the all-zero model.
    Without ``refit`` the coefficients at the stopping iteration are
    returned and ``survivors`` and ``refit_path`` stay ``None``.
    """
    pairs, Z = _checked_data(pairs, Z)
    family = _family(family)
    fit = _fit_edges(pairs[None], Z, [[family]], control, refit)[0][family]
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


def _fit_pairs(pairs, Z, candidates, control, criterion):
    """:func:`fit_pair` on each edge of a stack of checked copula data.

    ``pairs`` is (E, N, 2), one vine edge per row, on the covariates ``Z``;
    ``candidates[e]`` holds edge e's checked families.  The edges are fitted
    together (see :func:`_fit_edges`), each picks its own winner, and the
    "predictive_risk" winners are refitted together.  Returns one
    :class:`FittedPairCopula` per edge, or the exception that edge's
    :func:`fit_pair` raises.
    """
    n = pairs.shape[1]
    split = n
    if criterion == "predictive_risk":
        split = int(round(0.75 * n))
        if split < 1 or split >= n:
            raise ConfigurationError("too few rows for a 25% holdout")
    results = _fit_edges(pairs[:, :split], Z[:split], candidates, control)

    winners, refit = [], [()] * len(pairs)
    for e, tried in enumerate(results):
        fits = {family: fit for family, fit in tried.items() if not isinstance(fit, Exception)}
        if not fits:
            failures = {family: repr(fit) for family, fit in tried.items()}
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
            refit[e] = (best,)
        fits[best].selection_scores = {family.value: float(score) for family, score in scores.items()}
        winners.append(fits[best])

    # "predictive_risk" refits each edge's winner on all rows
    if criterion == "predictive_risk":
        for e, refits in enumerate(_fit_edges(pairs, Z, refit, control)):
            for fit in refits.values():
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
    (winner,) = _fit_pairs(pairs[None], Z, [families], control, criterion)
    if isinstance(winner, Exception):
        raise winner
    return winner
