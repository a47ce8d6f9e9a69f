"""Bivariate copula families parameterized through Kendall's tau.

Five one-parameter families are available for fitting: the Gaussian copula
and the Clayton/Gumbel copulas in two rotation variants each.  A type-I
family is the base copula for tau >= 0 and the base copula rotated by a
quarter turn for tau < 0; a type-II family is the survival (half-turn)
copula for tau >= 0 and the three-quarter turn for tau < 0.  One table,
``_FLIPS``, names each rotation as a pair of flags saying whether u1 and u2
are complemented; the density, the loss gradient, the h-functions and their
inverses all read it, with the sign of tau picking the pair row by row.  An
explicit independence family is provided for truncated vine edges.

Every operation -- parameter transforms, log density, the h-functions and
their inverses, the boosting loss gradient and the pair sampler -- is
elementwise in ``(u1, u2, tau)`` and accepts scalars or broadcastable numpy
arrays.  All functions are pure; samplers take an explicit seed.

For boosting, :func:`prepare` computes the data-only terms of one family
on fixed data once; the returned :class:`PairKernel` then evaluates the log
density and the loss gradient at each new linear predictor together.  Each
family has one link from tau to its parameter, ``_Base.link``, and one loss
core, ``_loss``, which chains the score through that link to eta: the kernel,
:func:`log_density` and :func:`loss_gradient` all go through it, and the
h-functions take their parameter from the same link.  The reference formulas
they are tested against live with the tests.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError, DomainError, EvaluationError, InterfaceError

__all__ = [
    "CopulaFamily",
    "FIT_FAMILIES",
    "TAU_CLAMP",
    "U_EPS",
    "tau_to_theta",
    "theta_to_tau",
    "link_tau",
    "log_density",
    "loss_gradient",
    "PairKernel",
    "prepare",
    "hfunc",
    "hinv",
    "sample_pair",
]

# Upper bound on |tanh(eta)|; keeps the copula parameter finite near tau = +-1.
TAU_CLAMP = 0.9999
# Copula data is clamped into [U_EPS, 1 - U_EPS] before any evaluation.
U_EPS = 1e-10
# Evaluation-time parameter caps (~ tau = 0.96); the tau <-> theta bijections
# themselves are never capped so roundtrips stay exact.
_CLAYTON_THETA_CAP = 28.0
_GUMBEL_THETA_CAP = 50.0
# Below this theta the Clayton formulas switch to their independence limits.
_CLAYTON_THETA_TINY = 1e-8

_HFUNC_TOL = 1e-8


class CopulaFamily(str, Enum):
    """Tags for the supported bivariate copula families."""

    GAUSSIAN = "gaussian"
    CLAYTON_I = "claytonI"
    CLAYTON_II = "claytonII"
    GUMBEL_I = "gumbelI"
    GUMBEL_II = "gumbelII"
    INDEPENDENCE = "independence"


def _family(value):
    """``value`` as a :class:`CopulaFamily`; an unknown tag's error lists the known ones."""
    try:
        return CopulaFamily(value)
    except (TypeError, ValueError):
        known = ", ".join(f.value for f in CopulaFamily)
        raise ConfigurationError(f"unknown copula family {value!r}; known: {known}") from None


#: The candidate set used for fitting (independence is reserved for
#: truncated vine edges).
FIT_FAMILIES = (
    CopulaFamily.GAUSSIAN,
    CopulaFamily.CLAYTON_I,
    CopulaFamily.CLAYTON_II,
    CopulaFamily.GUMBEL_I,
    CopulaFamily.GUMBEL_II,
)

_CLAYTONS = (CopulaFamily.CLAYTON_I, CopulaFamily.CLAYTON_II)
_GUMBELS = (CopulaFamily.GUMBEL_I, CopulaFamily.GUMBEL_II)

# The rotation of each family: (flips for tau >= 0, flips for tau < 0), where
# a flip pair says whether u1 and u2 are complemented before the base copula
# is evaluated.  All three base copulas are exchangeable, so a flip pair names
# the whole rotation.  The Gaussian needs none for tau < 0.
_TYPE_I = ((False, False), (True, False))
_TYPE_II = ((True, True), (False, True))
_FLIPS = {
    CopulaFamily.GAUSSIAN: ((False, False), None),
    CopulaFamily.CLAYTON_I: _TYPE_I,
    CopulaFamily.CLAYTON_II: _TYPE_II,
    CopulaFamily.GUMBEL_I: _TYPE_I,
    CopulaFamily.GUMBEL_II: _TYPE_II,
    CopulaFamily.INDEPENDENCE: ((False, False), None),
}


def _scalarize(out):
    # 0-d results come back as numpy scalars, everything else as arrays.
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


def _broadcast(*args):
    """The shape the arguments broadcast to, and the arguments broadcast and
    made at least 1-d, so that the base functions can work in place."""
    args = np.broadcast_arrays(*args)
    return args[0].shape, [a.reshape(1) if a.ndim == 0 else a for a in args]


def _clamp_u(u):
    u = np.asarray(u, dtype=float)
    return np.clip(u, U_EPS, 1.0 - U_EPS)


def _check_tau(tau):
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)) or np.any(np.abs(tau) >= 1.0):
        raise DomainError("Kendall's tau must be finite with |tau| < 1")
    return tau


def _checked_array(name, x, cols=None, rows=None):
    """``x`` as a 2-D float array with ``cols`` columns and ``rows`` rows
    (None: any).  A wrong shape or a non-finite entry raises
    :class:`InterfaceError` naming the array and its shape, or the row and
    column of the first non-finite entry."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or cols not in (None, x.shape[1]) or rows not in (None, x.shape[0]):
        want = f"({'N' if rows is None else rows}, {'p' if cols is None else cols})"
        raise InterfaceError(f"{name} must be an {want} array, got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), x.shape)
        raise InterfaceError(f"{name} row {i}, column {j} is not finite ({x[i, j]})")
    return x


def _check_finite(name, out, where_args=()):
    finite = np.isfinite(out)
    if finite.all():
        return
    idx = np.unravel_index(np.argmin(finite), finite.shape)
    point = tuple(float(np.broadcast_to(a, finite.shape)[idx]) for a in where_args)
    raise EvaluationError(f"{name} produced a non-finite value at {point}")


# ---------------------------------------------------------------------------
# Parameter transforms
# ---------------------------------------------------------------------------


def tau_to_theta(family, tau):
    """Map Kendall's tau to the family's copula parameter.

    Gaussian uses sin(pi*tau/2); Clayton uses 2*tau/(1-|tau|); Gumbel uses
    sgn(tau)/(1-|tau|) with the sgn(0)=+1 convention so tau=0 lands on the
    independence parameter.  For Clayton/Gumbel the sign of the result
    encodes the rotation.
    """
    tau = _check_tau(tau)
    if family == CopulaFamily.GAUSSIAN:
        theta = np.sin(0.5 * np.pi * tau)
    elif family in _CLAYTONS:
        theta = 2.0 * tau / (1.0 - np.abs(tau))
    elif family in _GUMBELS:
        sgn = np.where(tau < 0.0, -1.0, 1.0)
        theta = sgn / (1.0 - np.abs(tau))
    elif family == CopulaFamily.INDEPENDENCE:
        theta = np.zeros_like(tau)
    else:
        raise DomainError(f"unknown family {family!r}")
    return _scalarize(theta)


def theta_to_tau(family, theta):
    """Exact inverse of :func:`tau_to_theta`."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")
    if family == CopulaFamily.GAUSSIAN:
        if np.any(np.abs(theta) >= 1.0):
            raise DomainError("Gaussian theta must satisfy |theta| < 1")
        tau = 2.0 / np.pi * np.arcsin(theta)
    elif family in _CLAYTONS:
        tau = theta / (np.abs(theta) + 2.0)
    elif family in _GUMBELS:
        if np.any(np.abs(theta) < 1.0):
            raise DomainError("Gumbel theta must satisfy |theta| >= 1")
        tau = np.sign(theta) * (1.0 - 1.0 / np.abs(theta))
    elif family == CopulaFamily.INDEPENDENCE:
        tau = np.zeros_like(theta)
    else:
        raise DomainError(f"unknown family {family!r}")
    return _scalarize(tau)


def _check_eta(eta):
    eta = np.asarray(eta, dtype=float)
    if not np.isfinite(eta).all():
        raise DomainError("linear predictor must be finite")
    return eta


def link_tau(eta):
    """Fisher link from the linear predictor to Kendall's tau, clamped."""
    return _scalarize(np.clip(np.tanh(_check_eta(eta)), -TAU_CLAMP, TAU_CLAMP))


# The link of each base family, ``_Base.link(tau, at, gradient)``: from tau,
# whose sign alone is read, and at = |tau| (clamped where tau came from eta),
# the evaluation parameter theta of the unrotated base copula, capped, and
# when asked for d theta / d|tau| (d theta / d tau for the Gaussian, which
# is not rotated), which is zero where the cap is active.

_HALF_PI = 0.5 * np.pi


def _gauss_link(tau, at, gradient):
    arg = np.copysign(at, tau)
    arg *= _HALF_PI
    theta = np.sin(arg)
    if not gradient:
        return theta, None
    dtheta = np.cos(arg, out=arg)
    dtheta *= _HALF_PI
    return theta, dtheta


def _ratio_link(num, k, cap, at, gradient):
    # theta = num / (1 - |tau|) and its derivative k / (1 - |tau|)^2, which is
    # zero where theta is capped
    om = 1.0 - at
    theta = num / om
    dtheta = None
    if gradient:
        dtheta = np.square(om, out=om)
        np.divide(k, dtheta, out=dtheta)
        capped = theta >= cap
        if capped.any():
            dtheta[capped] = 0.0
    return np.minimum(theta, cap, out=theta), dtheta


def _clayton_link(tau, at, gradient):
    return _ratio_link(2.0 * at, 2.0, _CLAYTON_THETA_CAP, at, gradient)


def _gumbel_link(tau, at, gradient):
    return _ratio_link(1.0, 1.0, _GUMBEL_THETA_CAP, at, gradient)


# ---------------------------------------------------------------------------
# Base-family building blocks (theta in the positive/base parameter space)
#
# The log density and the score of a base copula are split into three steps
# so that boosting can keep the data-only part fixed across iterations:
# ``*_terms(u, v)`` depends on the data alone, ``*_parts(terms, theta)``
# computes the intermediates the log density and the score share, and
# ``*_logpdf``/``*_score`` finish from both.
#
# The data and theta arrive at least 1-d with theta in the shape of the data,
# so each function works in place on the arrays it allocates (``out=``,
# augmented assignment); none writes to its arguments.
#
# ``*_h(v, u, theta)`` is P(V <= v | U = u) and ``*_hinv(w, u, theta)`` its
# inverse in v: conditioned value first, conditioning value second.
# ---------------------------------------------------------------------------


def _gauss_terms(u, v):
    x = ndtri(u)
    y = ndtri(v)
    return x * x + y * y, x * y


def _gauss_parts(terms, theta):
    r2 = theta * theta
    return r2, 1.0 - r2


def _gauss_logpdf(terms, theta, parts):
    ss, xy = terms
    r2, d = parts
    return -0.5 * np.log1p(-r2) - (r2 * ss - 2.0 * theta * xy) / (2.0 * d)


def _gauss_score(terms, theta, parts):
    ss, xy = terms
    r2, d = parts
    return theta / d + (xy * (1.0 + r2) - theta * ss) / (d * d)


def _gauss_h(v, u, theta):
    x = ndtri(u)
    y = ndtri(v)
    return ndtr((y - theta * x) / np.sqrt(1.0 - theta * theta))


def _gauss_hinv(w, u, theta):
    y = ndtri(w) * np.sqrt(1.0 - theta * theta) + theta * ndtri(u)
    return ndtr(y)


def _clayton_terms(u, v):
    return np.log(u), np.log(v)


def _clayton_expm1(lu, lv, theta):
    # S = u^-t + v^-t - 1 >= 1 is 1 + expm1(a) + expm1(b) with a = -t log u and
    # b = -t log v; log S = log1p(expm1(a) + expm1(b)) is accurate near S = 1
    # and finite on every row: a <= 28 * -log(U_EPS) ~ 645 < log(max float).
    nt = -theta
    ea = nt * lu
    eb = nt * lv
    return np.expm1(ea, out=ea), np.expm1(eb, out=eb)


def _clayton_tiny(theta):
    # Rows below the tiny-theta threshold take the independence limits; they
    # are evaluated at t = 1 so no division by zero occurs.  Returns the mask
    # of those rows, None when no row is tiny, and t.
    tiny = theta < _CLAYTON_THETA_TINY
    if tiny.any():
        return tiny, np.where(tiny, 1.0, theta)
    return None, theta


def _clayton_parts(terms, theta):
    lu, lv = terms
    tiny, t = _clayton_tiny(theta)
    ea, eb = _clayton_expm1(lu, lv, t)
    sm1 = ea + eb  # S - 1
    k = 1.0 / t
    k += 2.0
    return tiny, t, ea, eb, sm1, np.log1p(sm1), lu + lv, k


def _clayton_logpdf(terms, theta, parts):
    # log1p(t) - (t + 1)(lu + lv) - (1/t + 2) log S
    tiny, t, _, _, _, logS, luv, k = parts
    out = (t + 1.0) * luv
    np.subtract(np.log1p(t), out, out=out)
    out -= k * logS
    return out if tiny is None else np.where(tiny, 0.0, out)


def _clayton_wlog(lu, lv, ea, eb, sm1):
    # wa lu + wb lv = -d log S / d theta, where wa = u^-t / S = (expm1(a) + 1) / S
    # and wb = (expm1(b) + 1) / S are the shares of S
    w = ea + 1.0
    w *= lu
    wb = eb + 1.0
    wb *= lv
    w += wb
    w /= np.add(sm1, 1.0, out=wb)
    return w


def _clayton_score(terms, theta, parts):
    # 1/(1 + t) - (lu + lv) + log S / t^2 + (1/t + 2)(wa lu + wb lv)
    lu, lv = terms
    tiny, t, ea, eb, sm1, logS, luv, k = parts
    w = _clayton_wlog(lu, lv, ea, eb, sm1)
    w *= k
    out = np.subtract(1.0 / (1.0 + t), luv)
    out += logS / (t * t)
    out += w
    if tiny is None:
        return out
    # Limit of d log c / d theta as theta -> 0.
    return np.where(tiny, 1.0 + lu + lv + lu * lv, out)


def _clayton_h(v, u, theta):
    lu, lv = np.log(u), np.log(v)
    tiny, t = _clayton_tiny(theta)
    ea, eb = _clayton_expm1(lu, lv, t)
    ea += eb
    logS = np.log1p(ea, out=ea)
    out = np.exp(-(t + 1.0) * lu - (1.0 / t + 1.0) * logS)
    return out if tiny is None else np.where(tiny, np.exp(lv), out)


def _clayton_hinv(w, u, theta):
    lw, lu = np.log(w), np.log(u)
    tiny, t = _clayton_tiny(theta)
    inner = np.exp(-t * lu) * np.expm1(-t * lw / (1.0 + t))
    out = np.exp(-np.log1p(inner) / t)
    return out if tiny is None else np.where(tiny, np.exp(lw), out)


def _log_expm1(d):
    # log(exp(d) - 1) without overflow for large d.
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    big = d > 33.0
    if np.any(big):
        out[big] = d[big] + np.log1p(-np.exp(-d[big]))
    small = ~big
    if np.any(small):
        with np.errstate(divide="ignore"):
            out[small] = np.log(np.expm1(d[small]))
    return out


def _neg_log(u):
    x = np.log(u)
    return np.negative(x, out=x)


def _gumbel_terms(u, v):
    # x + y, lx + ly, l_max = max(lx, ly) and Delta = l_max - l_min, where
    # x = -log u, y = -log v, lx = log x and ly = log y
    x = _neg_log(u)
    y = _neg_log(v)
    lx = np.log(x)
    ly = np.log(y)
    x += y
    lmax = np.maximum(lx, ly)
    ls = np.add(lx, ly, out=y)
    delta = np.subtract(lx, ly, out=lx)
    return x, ls, lmax, np.abs(delta, out=delta)


def _gumbel_S(lmax, delta, theta):
    # S = x^theta + y^theta = exp(theta l_max) (1 + e) with e = exp(-theta Delta)
    # in (0, 1], so log S = theta l_max + log1p(e) and the root
    # T = S^(1/theta) = exp(l_max + log1p(e) / theta) take no logaddexp.
    e = theta * delta
    np.negative(e, out=e)
    np.exp(e, out=e)
    l1p = np.log1p(e)
    logS = theta * lmax
    logS += l1p
    l1p /= theta
    l1p += lmax
    return e, logS, np.exp(l1p, out=l1p)


def _gumbel_parts(terms, theta):
    _, _, lmax, delta = terms
    return _gumbel_S(lmax, delta, theta)


def _gumbel_logpdf(terms, theta, parts):
    # -T + (theta - 1)(lx + ly) + (x + y) + (1/theta - 2) log S + log(T + theta - 1)
    s, ls, _, _ = terms
    _, logS, T = parts
    out = theta - 1.0
    out *= ls
    out -= T
    out += s
    tmp = 1.0 / theta
    tmp -= 2.0
    tmp *= logS
    out += tmp
    np.add(T, theta, out=tmp)
    tmp -= 1.0
    out += np.log(tmp, out=tmp)
    return out


def _gumbel_q(lmax, delta, e):
    # q = d log S / d theta = l_max - Delta e / (1 + e): the mean of lx and ly
    # weighted by their shares x^theta / S and y^theta / S of S
    q = e / (1.0 + e)
    q *= delta
    return np.subtract(lmax, q, out=q)


def _gumbel_score(terms, theta, parts):
    # -dT + (lx + ly) - log S / theta^2 + (1/theta - 2) q + (dT + 1) / (T + theta - 1)
    # with dT = dT / dtheta
    _, ls, lmax, delta = terms
    e, logS, T = parts
    q = _gumbel_q(lmax, delta, e)
    lS2 = logS / (theta * theta)
    dT = q / theta
    dT -= lS2
    dT *= T
    out = np.subtract(ls, dT)
    out -= lS2
    tmp = np.divide(1.0, theta, out=lS2)
    tmp -= 2.0
    tmp *= q
    out += tmp
    np.add(T, theta, out=tmp)
    tmp -= 1.0
    dT += 1.0
    dT /= tmp
    out += dT
    return out


def _gumbel_h(v, u, theta):
    # exp(-T + (1/theta - 1) log S + (theta - 1) lx + x)
    x = _neg_log(u)
    lx = np.log(x)
    ly = _neg_log(v)
    np.log(ly, out=ly)
    lmax = np.maximum(lx, ly)
    delta = np.subtract(lx, ly, out=ly)
    logS, T = _gumbel_S(lmax, np.abs(delta, out=delta), theta)[1:]
    del lmax, delta  # h runs on whole samples: hold as few arrays as the sum needs
    out = 1.0 / theta
    out -= 1.0
    out *= logS
    out -= T
    tmp = np.subtract(theta, 1.0, out=T)
    tmp *= lx
    out += tmp
    out += x
    return np.exp(out, out=out)


def _gumbel_root(b, lo, theta):
    # Solve g(T) = T + (theta-1)*log(T) = b on [lo, max(1, b)]; g is increasing.
    # Each element stops at its first iterate within tolerance, so its root does
    # not depend on the other elements of the call. Converged elements stay in
    # the working arrays, frozen, until at most half of them are live: dropping
    # them every iteration would allocate more than the full arrays hold.
    shape = b.shape
    b, lo, tm1 = b.ravel(), lo.ravel(), (theta - 1.0).ravel()
    hi = np.maximum(np.maximum(1.0, b), lo)
    T = np.clip(b, lo, hi)
    lo = lo.copy()
    tol = 1e-14 * (1.0 + np.abs(b))
    live = np.ones(T.size, dtype=bool)
    out, rows = T, None  # rows: positions in out of the working elements
    for _ in range(80):
        g = T + tm1 * np.log(T) - b
        live &= ~(np.abs(g) <= tol)
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if 2 * n_live <= live.size:
            if rows is None:
                out, rows = T, np.flatnonzero(live)
            else:
                out[rows] = T
                rows = rows[live]
            b, lo, hi, T, tm1, tol, g = (a[live] for a in (b, lo, hi, T, tm1, tol, g))
            live = np.ones(n_live, dtype=bool)
        np.copyto(lo, T, where=g < 0.0)
        np.copyto(hi, T, where=g >= 0.0)
        T_new = T - g / (1.0 + tm1 / T)
        inside = (T_new > lo) & (T_new < hi)
        np.copyto(T, np.where(inside, T_new, 0.5 * (lo + hi)), where=live)
    if rows is None:
        out = T
    else:
        out[rows] = T
    return out.reshape(shape)


def _gumbel_hinv(w, u, theta):
    w, u, theta = np.broadcast_arrays(
        np.asarray(w, dtype=float), np.asarray(u, dtype=float), np.asarray(theta, dtype=float)
    )
    x = -np.log(u)
    lx = np.log(x)
    b = x + (theta - 1.0) * lx - np.log(w)
    T = _gumbel_root(b, x, theta)
    delta = np.maximum(theta * (np.log(T) - lx), 0.0)
    with np.errstate(divide="ignore"):
        ly = lx + _log_expm1(delta) / theta
    return np.exp(-np.exp(ly))


class _Base(NamedTuple):
    """The building blocks of one unrotated base copula."""

    terms: Callable
    parts: Callable
    logpdf: Callable
    score: Callable
    h: Callable
    hinv: Callable
    link: Callable


_BASE = {
    CopulaFamily.GAUSSIAN: _Base(
        _gauss_terms, _gauss_parts, _gauss_logpdf, _gauss_score, _gauss_h, _gauss_hinv,
        _gauss_link,
    ),
    CopulaFamily.CLAYTON_I: _Base(
        _clayton_terms, _clayton_parts, _clayton_logpdf, _clayton_score, _clayton_h, _clayton_hinv,
        _clayton_link,
    ),
    CopulaFamily.GUMBEL_I: _Base(
        _gumbel_terms, _gumbel_parts, _gumbel_logpdf, _gumbel_score, _gumbel_h, _gumbel_hinv,
        _gumbel_link,
    ),
}
_BASE[CopulaFamily.CLAYTON_II] = _BASE[CopulaFamily.CLAYTON_I]
_BASE[CopulaFamily.GUMBEL_II] = _BASE[CopulaFamily.GUMBEL_I]
# Independence: no data terms, log density and score 0, h(v | u) = v.
_BASE[CopulaFamily.INDEPENDENCE] = _Base(
    lambda u, v: (), lambda terms, theta: None, lambda terms, theta, parts: np.zeros_like(theta),
    lambda terms, theta, parts: np.zeros_like(theta), lambda v, u, theta: v, lambda w, u, theta: w,
    lambda tau, at, gradient: (np.zeros_like(at), np.zeros_like(at) if gradient else None),
)


def _flipped(flips, u1, u2):
    """(u1, u2) with each value complemented where its flip is set."""
    return tuple(1.0 - u if f else u for f, u in zip(flips, (u1, u2)))


def _branches(family, u1, u2):
    """Base-copula coordinates that realize the rotated density.

    Returns the pair for tau >= 0 and the pair for tau < 0, flipped as
    ``_FLIPS`` says; the second is ``None`` for the Gaussian.  The negative
    pair is listed as (u2, u1): the order leaves the density of an
    exchangeable base unchanged, but the small-theta limit of the Clayton
    score was written for it and is not symmetric in its last bit.
    """
    pos, negative = _FLIPS[family]
    return _flipped(pos, u1, u2), None if negative is None else _flipped(negative, u1, u2)[::-1]


def _pick(neg, pos, negative):
    """Per-element choice between two tuples of arrays by the sign of tau."""
    if negative is None or not neg.any():
        return pos
    if neg.all():
        return negative
    return tuple(np.where(neg, b, a) for a, b in zip(pos, negative))


def _loss(family, terms, tau, clamp, gradient, neg=None):
    """The log density of ``family`` at its picked data ``terms`` and tau,
    and -d loss / d eta when ``gradient`` is set (else None).

    With ``clamp`` (the only way to ask for the gradient), ``tau`` is
    tanh(eta), unclamped: |tau| is clamped at TAU_CLAMP, where d tau / d eta
    is zero, and ``tau`` is overwritten by d tau / d eta.  The gradient is
    score * d theta / d|tau| * d tau / d eta, where ``neg`` marks the rows
    whose terms came from the negative branch: there the rotation flips the
    sign of d theta / d|tau|.  ``neg`` is None when there are none.
    """
    base = _BASE[family]
    at = np.abs(tau)
    if clamp:
        on_clamp = at >= TAU_CLAMP if gradient else None
        np.minimum(at, TAU_CLAMP, out=at)
    theta, dtheta = base.link(tau, at, gradient)
    del at  # the density runs on whole samples: drop what it does not need
    parts = base.parts(terms, theta)
    logpdf = base.logpdf(terms, theta, parts)
    if not gradient:
        return logpdf, None
    grad = base.score(terms, theta, parts)
    if neg is not None:  # np.negative(where=neg) is slower on mixed signs
        dtheta = np.where(neg, -dtheta, dtheta)
    grad *= dtheta
    dtau = np.multiply(tau, tau, out=tau)
    np.subtract(1.0, dtau, out=dtau)
    dtau[on_clamp] = 0.0
    grad *= dtau
    return logpdf, grad


def log_density(family, u1, u2, tau):
    """Natural log of the copula density at (u1, u2) for Kendall's tau.

    Inputs are clamped into [U_EPS, 1 - U_EPS]; a non-finite result raises
    :class:`EvaluationError` carrying the offending point.
    """
    tau = _check_tau(tau)
    u1 = _clamp_u(u1)
    u2 = _clamp_u(u2)
    shape, (u1, u2, tau) = _broadcast(u1, u2, tau)
    # each row's terms from its branch only: half the work of both branches
    terms = _BASE[family].terms(*_pick(tau < 0.0, *_branches(family, u1, u2)))
    out = _loss(family, terms, tau, False, False)[0]
    _check_finite("log_density", out, (u1, u2, tau))
    return _scalarize(out.reshape(shape))


def loss_gradient(family, u1, u2, eta):
    """Negative gradient of the boosting loss at linear predictor eta.

    The loss is the negative copula log likelihood with tau = tanh(eta); the
    returned value is -d loss / d eta, i.e. the working response of the
    componentwise base learners.  It is zero wherever the tau clamp or the
    parameter cap is active.
    """
    eta = _check_eta(eta)
    u1 = _clamp_u(u1)
    u2 = _clamp_u(u2)
    shape, (u1, u2, eta) = _broadcast(u1, u2, eta)
    tau = np.tanh(eta)
    neg = tau < 0.0
    terms = _BASE[family].terms(*_pick(neg, *_branches(family, u1, u2)))
    out = _loss(family, terms, tau, True, True, None if _FLIPS[family][1] is None else neg)[1]
    _check_finite("loss_gradient", out, (u1, u2, eta))
    return _scalarize(out.reshape(shape))


class PairKernel:
    """The boosting loss of one family on fixed copula data.

    Made by :func:`prepare`, which computes the data-only terms of both
    rotation branches once; each evaluation at a linear predictor then costs
    only the parameter-dependent part.  :meth:`value_and_grad` returns
    ``log_density(family, u1, u2, link_tau(eta))`` and
    ``loss_gradient(family, u1, u2, eta)`` from shared intermediates of the
    same loss core, with the same checks.
    """

    def __init__(self, family, u1, u2, pos, negative):
        self.family = family
        self.u1 = u1
        self.u2 = u2
        self._pos = pos
        self._neg = negative

    def take(self, rows):
        """The kernel on the given rows of (K, N) stacked data."""
        terms = [None if t is None else t[:, rows] for t in (self._pos, self._neg)]
        return PairKernel(self.family, self.u1[rows], self.u2[rows], *terms)

    def _join(self, *others):
        """One kernel on the rows of this kernel and then those of ``others``,
        (K, N) kernels of families with the same base copula (Clayton I and
        II, or Gumbel I and II): only their data terms differ, so one
        evaluation serves all their rows, each as its own kernel would.

        The joined kernel holds the only copy of the data: each given kernel
        keeps its values, as a view of the joined arrays."""
        kernels = (self, *others)
        joined = {}
        for name in ("u1", "u2", "_pos", "_neg"):
            if getattr(self, name) is None:
                continue
            joined[name] = np.concatenate([getattr(k, name) for k in kernels], axis=-2)
            start = 0
            for k in kernels:
                rows = getattr(k, name).shape[-2]
                setattr(k, name, joined[name][..., start: start + rows, :])
                start += rows
        return PairKernel(self.family, joined["u1"], joined["u2"], joined["_pos"], joined.get("_neg"))

    def log_density(self, eta):
        """Per-row log density at tau = link_tau(eta)."""
        return self._evaluate(eta, gradient=False)[0]

    def value_and_grad(self, eta):
        """Per-row log density and negative loss gradient at eta, which
        broadcasts to the shape of the data."""
        return self._evaluate(eta, gradient=True)

    def _evaluate(self, eta, gradient):
        eta = _check_eta(eta)
        if eta.shape != self.u1.shape:  # theta takes the shape of the data
            eta = np.broadcast_to(eta, self.u1.shape)
        tau = np.tanh(eta)  # unclamped: it decides where the clamp is active
        neg = tau < 0.0
        flip = self._neg is not None and neg.any()
        terms = np.where(neg, self._neg, self._pos) if flip else self._pos
        logpdf, grad = _loss(self.family, terms, tau, True, gradient, neg if flip else None)
        if not np.isfinite(logpdf).all():  # tau for the message only when it is needed
            _check_finite("log_density", logpdf, (self.u1, self.u2, link_tau(eta)))
        if gradient:
            _check_finite("loss_gradient", grad, (self.u1, self.u2, eta))
        return logpdf, grad


def prepare(family, u1, u2):
    """A :class:`PairKernel` for ``family`` on the copula data (u1, u2).

    ``u1`` and ``u2`` are the two columns of an (N, 2) pairs array, whose
    non-finite entries raise :class:`InterfaceError` naming their row and
    column, or two (K, N) arrays with one row per CV fold or vine edge.
    Values are clamped into [U_EPS, 1 - U_EPS] as everywhere else.
    """
    _checked_array("pairs", np.column_stack([u1, u2]))
    u1 = _clamp_u(u1)
    u2 = _clamp_u(u2)

    def terms(pair):
        # one (n_terms, *u1.shape) array, so that one np.where picks every term
        return np.array(_BASE[family].terms(*pair)).reshape(-1, *u1.shape)

    pos, negative = _branches(family, u1, u2)
    return PairKernel(family, u1, u2, terms(pos), None if negative is None else terms(negative))


def _conditioned(which):
    """Position (0 for u1, 1 for u2) of the conditioned variable of ``which``."""
    if which == "1|2":
        return 0
    if which == "2|1":
        return 1
    raise DomainError(f"which must be '1|2' or '2|1', got {which!r}")


def _rotated(base_fn, family, k, y, c, tau):
    """``base_fn`` of the base copula under the rotation of each row.

    ``y`` belongs to the conditioned variable (position ``k`` of a flip pair)
    and ``c`` is the conditioning value.  Each is complemented where the flip
    pair picked by the sign of tau says so, and the result is complemented
    back where the conditioned variable was flipped.  Rows are gathered by
    sign only when the signs are mixed.
    """
    at = np.abs(tau)
    theta = _BASE[family].link(tau, at, False)[0]
    del at  # h runs on whole samples: hold no array the base function does not need

    def apply(flips, y, c, theta):
        fy, fc = flips[k], flips[1 - k]
        out = base_fn(1.0 - y if fy else y, 1.0 - c if fc else c, theta)
        return 1.0 - out if fy else out

    pos, negative = _FLIPS[family]
    neg = tau < 0.0
    if negative is None or not neg.any():
        return apply(pos, y, c, theta)
    if neg.all():
        return apply(negative, y, c, theta)
    out = np.empty(neg.shape)
    for flips, rows in ((pos, ~neg), (negative, neg)):
        out[rows] = apply(flips, y[rows], c[rows], theta[rows])
    return out


def hfunc(family, which, u1, u2, tau):
    """Conditional distribution (h-function) of the copula.

    ``which="1|2"`` returns P(U1 <= u1 | U2 = u2) = dC/du2 and ``which="2|1"``
    returns P(U2 <= u2 | U1 = u1) = dC/du1, with rotations applied
    consistently with :func:`log_density`.
    """
    k = _conditioned(which)
    tau = _check_tau(tau)
    u1 = _clamp_u(u1)
    u2 = _clamp_u(u2)
    shape, (u1, u2, tau) = _broadcast(u1, u2, tau)
    y, c = (u1, u2) if k == 0 else (u2, u1)
    out = _rotated(_BASE[family].h, family, k, y, c, tau)
    _check_finite("hfunc", out, (u1, u2, tau))
    if np.any(out < -_HFUNC_TOL) or np.any(out > 1.0 + _HFUNC_TOL):
        raise EvaluationError("hfunc left [0, 1] beyond tolerance")
    return _scalarize(np.clip(out, 0.0, 1.0).reshape(shape))


def hinv(family, which, w, u_cond, tau):
    """Inverse of :func:`hfunc` in its conditioned argument.

    For ``which="1|2"`` returns u1 with hfunc("1|2", u1, u_cond, tau) = w;
    for ``which="2|1"`` returns u2 with hfunc("2|1", u_cond, u2, tau) = w.
    Analytic for Gaussian/Clayton, safeguarded Newton for Gumbel.
    """
    k = _conditioned(which)
    tau = _check_tau(tau)
    w = _clamp_u(w)
    uc = _clamp_u(u_cond)
    shape, (w, uc, tau) = _broadcast(w, uc, tau)
    out = _rotated(_BASE[family].hinv, family, k, w, uc, tau)
    _check_finite("hinv", out, (w, uc, tau))
    return _scalarize(_clamp_u(out).reshape(shape))


def sample_pair(family, tau, n, seed):
    """Draw n pairs from the copula by conditional inversion.

    ``tau`` may be a scalar or an array of length n (one tau per draw).
    Deterministic for a fixed seed; returns an (n, 2) array in (0, 1)^2.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    shape = np.shape(tau)
    if shape and shape != (n,):
        raise InterfaceError(f"tau must be a scalar or an array of length n = {n}, got shape {shape}")
    rng = np.random.default_rng(seed)
    w1 = rng.random(n)
    w2 = rng.random(n)
    u2 = hinv(family, "2|1", w2, w1, tau)
    return np.column_stack([w1, np.asarray(u2, dtype=float)])
