"""Multivariate verification tools and dependence baselines.

Implements the energy score (exact pairwise form and the consecutive-pair
Monte-Carlo form for sampled forecasts), the variogram score, a
Diebold-Mariano test with Bartlett-kernel HAC variance and automatic lag
selection, ensemble copula coupling reordering, the Gaussian copula
approach, and multivariate verification rank histograms with the
reliability index.  Marginal distributions never enter here: everything
operates on ensemble values or latent/uniform scales supplied by the
caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError, InterfaceError

__all__ = [
    "energy_score",
    "variogram_score",
    "DMResult",
    "dm_test",
    "ecc_reorder",
    "nearest_pd_correlation",
    "gca_fit",
    "gca_sample",
    "mv_rank_histogram",
    "reliability_index",
    "rank_histogram_to_csv",
]


def _members_obs(forecast, obs):
    x = np.asarray(forecast, dtype=float)
    y = np.asarray(obs, dtype=float)
    if x.ndim != 2:
        raise InterfaceError("forecast must be an (m, d) array of ensemble members")
    if x.shape[0] < 1:
        raise InterfaceError("forecast needs at least one ensemble member")
    if y.shape != (x.shape[1],):
        raise InterfaceError(f"observation must be a length-{x.shape[1]} vector")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InterfaceError("forecast and observation must be finite")
    return x, y


def _row_norms(a):
    return np.sqrt(np.add.reduce(a * a, axis=1))


def energy_score(forecast, obs, method="pairwise"):
    """Energy score of an m-member ensemble against one observation.

    "pairwise" evaluates the exact double sum over member pairs;
    "consecutive" uses the Monte-Carlo spread term over consecutive sample
    pairs, appropriate when the members are draws from a forecast
    distribution.
    """
    x, y = _members_obs(forecast, obs)
    m = x.shape[0]
    accuracy = np.mean(_row_norms(x - y))
    if method == "pairwise":
        # blocked double sum keeps memory at O(block * m); the squared
        # distances accumulate one coordinate at a time
        block = max(1, int(2**22 // m))
        total = 0.0
        for start in range(0, m, block):
            part = x[start : start + block]
            sq = np.zeros((len(part), m))
            diff = np.empty_like(sq)
            for k in range(x.shape[1]):
                np.subtract(part[:, k, None], x[:, k], out=diff)
                diff *= diff
                sq += diff
            total += np.sum(np.sqrt(sq, out=sq))
        spread = total / (2.0 * m * m)
    elif method == "consecutive":
        if m < 2:
            raise ConfigurationError("the consecutive-pair form needs at least 2 members")
        spread = np.sum(_row_norms(x[:-1] - x[1:])) / (2.0 * (m - 1))
    else:
        raise ConfigurationError(f"unknown energy score method {method!r}")
    return float(accuracy - spread)


def variogram_score(forecast, obs, order=0.5, weights=None):
    """Variogram score of order p with optional nonnegative pair weights."""
    x, y = _members_obs(forecast, obs)
    if order <= 0:
        raise ConfigurationError("order must be positive")
    d = x.shape[1]
    if weights is None:
        w = np.ones((d, d))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (d, d):
            raise InterfaceError(f"weights must have shape ({d}, {d})")
        if np.any(w < 0):
            raise InterfaceError("weights must be nonnegative")
    obs_gamma = np.abs(y[:, None] - y[None, :]) ** order
    ens_gamma = np.mean(np.abs(x[:, :, None] - x[:, None, :]) ** order, axis=0)
    return float(np.sum(w * (obs_gamma - ens_gamma) ** 2))


@dataclass(frozen=True)
class DMResult:
    statistic: float
    p_value: float
    lag: int
    degenerate: bool = False


def dm_test(scores_a, scores_b):
    """Two-sided Diebold-Mariano test on the mean score differential.

    The variance is heteroscedasticity-and-autocorrelation consistent with
    Bartlett weights and the automatic lag floor(4 (T/100)^{2/9}); the
    reference distribution is standard normal.  A zero-variance differential
    is reported as the degenerate case (statistic undefined, p = 1).
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InterfaceError("score series must be 1-d arrays of equal length")
    t_len = len(a)
    if t_len < 10:
        raise ConfigurationError("need at least 10 score pairs")
    d = a - b
    d_bar = d.mean()
    lag = int(np.floor(4.0 * (t_len / 100.0) ** (2.0 / 9.0)))
    centered = d - d_bar
    variance = np.mean(centered * centered)
    for ell in range(1, lag + 1):
        gamma = np.mean(centered[ell:] * centered[:-ell])
        variance += 2.0 * (1.0 - ell / (lag + 1.0)) * gamma
    if variance <= 0.0:
        return DMResult(statistic=float("nan"), p_value=1.0, lag=lag, degenerate=True)
    stat = d_bar / np.sqrt(variance / t_len)
    p = 2.0 * (1.0 - ndtr(abs(stat)))
    return DMResult(statistic=float(stat), p_value=float(p), lag=lag, degenerate=False)


def _random_ranks(values, rng):
    """Ascending ranks (0-based) with ties resolved at random."""
    n = len(values)
    order = np.lexsort((rng.random(n), values))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return ranks


def ecc_reorder(samples, raw, seed):
    """Reorder samples into the raw ensemble's per-margin rank structure.

    Column by column, the sorted sample values are arranged so that member k
    receives the value whose rank equals raw member k's rank (ties in the
    raw ensemble are resolved at random, seeded).
    """
    x = np.asarray(samples, dtype=float)
    r = np.asarray(raw, dtype=float)
    if x.shape != r.shape or x.ndim != 2:
        raise InterfaceError("samples and raw ensemble must share an (m, d) shape")
    rng = np.random.default_rng(seed)
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        ranks = _random_ranks(r[:, j], rng)
        out[:, j] = np.sort(x[:, j])[ranks]
    return out


def nearest_pd_correlation(corr, floor=1e-8):
    """Eigenvalue-clipped positive-definite repair with unit diagonal."""
    vals, vecs = np.linalg.eigh(np.asarray(corr, dtype=float))
    vals = np.clip(vals, floor, None)
    out = (vecs * vals) @ vecs.T
    scale = np.sqrt(np.diag(out))
    return out / np.outer(scale, scale)


def gca_fit(latent):
    """Empirical correlation matrix of latent standard-normal scores.

    A genuinely indefinite matrix (negative eigenvalue beyond rounding,
    possible on short records) triggers a nearest-positive-definite repair
    with a warning; singular-but-PSD matrices pass through unchanged.
    """
    y = np.asarray(latent, dtype=float)
    if y.ndim != 2 or y.shape[0] < 2:
        raise InterfaceError("latent scores must be an (N, d) array with N >= 2")
    corr = np.atleast_2d(np.corrcoef(y, rowvar=False))
    if np.linalg.eigvalsh(corr)[0] < -1e-10:
        warnings.warn("empirical correlation matrix is not positive semi-definite; repairing")
        corr = nearest_pd_correlation(corr)
    return corr


def gca_sample(corr, m, seed):
    """Draw m uniform-scale rows from the Gaussian copula with this matrix."""
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise InterfaceError("corr must be a square matrix")
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    rng = np.random.default_rng(seed)
    try:
        factor = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        # singular PSD matrices (e.g. perfectly correlated margins)
        vals, vecs = np.linalg.eigh(corr)
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    z = rng.standard_normal((m, corr.shape[0])) @ factor.T
    return ndtr(z)


_RANK_BLOCK = 256  # cases per domination test: a (256, m+1, m+1) bool array


def mv_rank_histogram(forecasts, observations, seed):
    """Multivariate verification rank histogram over ranks 1..m+1.

    Each case pools the observation with the m ensemble members, computes
    componentwise domination pre-ranks, and draws the observation's rank
    uniformly among its pre-rank ties (seeded, one draw per case in case
    order).  Returns the counts per rank.
    """
    if len(forecasts) != len(observations):
        raise InterfaceError("need one observation per forecast case")
    if len(forecasts) == 0:
        raise InterfaceError("need at least one case")
    cases = [_members_obs(members, obs) for members, obs in zip(forecasts, observations)]
    m, d = cases[0][0].shape
    for x, _ in cases:
        if x.shape[0] != m:
            raise InterfaceError("all cases must share the ensemble size")
        if x.shape[1] != d:
            raise InterfaceError("all cases must share the dimension")
    rng = np.random.default_rng(seed)
    counts = np.zeros(m + 1, dtype=np.int64)
    for start in range(0, len(cases), _RANK_BLOCK):
        blk = np.empty((min(_RANK_BLOCK, len(cases) - start), m + 1, d))
        for i, (x, y) in enumerate(cases[start : start + _RANK_BLOCK]):
            blk[i, 0] = y
            blk[i, 1:] = x
        # le[c, i, j]: pooled vector i is componentwise <= vector j in case c
        le = np.ones((len(blk), m + 1, m + 1), dtype=bool)
        for k in range(d):
            le &= blk[:, :, None, k] <= blk[:, None, :, k]
        rho = le.sum(axis=1)
        below = np.sum(rho < rho[:, :1], axis=1)
        ties = np.sum(rho[:, 1:] == rho[:, :1], axis=1)
        for b, t in zip(below.tolist(), ties.tolist()):
            counts[b + rng.integers(t + 1)] += 1
    return counts


def reliability_index(histogram):
    """Total absolute deviation of the rank histogram from uniformity."""
    counts = np.asarray(histogram, dtype=float)
    if counts.ndim != 1 or counts.sum() <= 0:
        raise InterfaceError("histogram must be a 1-d array of nonnegative counts")
    freq = counts / counts.sum()
    return float(np.sum(np.abs(freq - 1.0 / len(counts))))


def rank_histogram_to_csv(histogram, path):
    """Write rank-histogram counts as a two-column (rank, count) CSV."""
    counts = np.asarray(histogram)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("rank,count\n")
        for rank, count in enumerate(counts, start=1):
            fh.write(f"{rank},{int(count)}\n")
