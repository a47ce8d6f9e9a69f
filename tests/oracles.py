"""Reference formulas the library's kernels and boosting loop are tested against.

The copula parameter, the log density and the loss gradient, written
elementwise and apart from the library's link and loss core.  They reuse
the base copulas' data terms, parts, log density and score
(``TestBaseFormulas`` checks those against older formulas) and the rotation
table's branch pick (``TestLogDensity`` checks the rotation identities).
"""

import numpy as np

from vineboost import families as F
from vineboost.families import CopulaFamily

CLAYTONS = (CopulaFamily.CLAYTON_I, CopulaFamily.CLAYTON_II)
GUMBELS = (CopulaFamily.GUMBEL_I, CopulaFamily.GUMBEL_II)


def oracle_theta(fam, tau):
    """Evaluation parameter of the unrotated base copula, with caps."""
    if fam == CopulaFamily.GAUSSIAN:
        return np.sin(0.5 * np.pi * tau)
    at = np.abs(tau)
    if fam in CLAYTONS:
        return np.minimum(2.0 * at / (1.0 - at), F._CLAYTON_THETA_CAP)
    if fam in GUMBELS:
        return np.minimum(1.0 / (1.0 - at), F._GUMBEL_THETA_CAP)
    return np.zeros_like(at)


def oracle_theta_prime(fam, tau):
    """d(base theta)/d|tau|, zero where the evaluation cap is active."""
    if fam == CopulaFamily.GAUSSIAN:
        return 0.5 * np.pi * np.cos(0.5 * np.pi * tau)
    at = np.abs(tau)
    if fam in CLAYTONS:
        live = 2.0 * at / (1.0 - at) < F._CLAYTON_THETA_CAP
        return np.where(live, 2.0 / (1.0 - at) ** 2, 0.0)
    if fam in GUMBELS:
        live = 1.0 / (1.0 - at) < F._GUMBEL_THETA_CAP
        return np.where(live, 1.0 / (1.0 - at) ** 2, 0.0)
    return np.zeros_like(at)


def _oracle_terms(fam, u1, u2, neg):
    return F._BASE[fam].terms(*F._pick(neg, *F._branches(fam, u1, u2)))


def oracle_log_density(fam, u1, u2, tau):
    """Log density at (u1, u2) for Kendall's tau, with no clamp on tau."""
    u1, u2, tau = np.broadcast_arrays(F._clamp_u(u1), F._clamp_u(u2), np.asarray(tau, dtype=float))
    base = F._BASE[fam]
    terms = _oracle_terms(fam, u1, u2, tau < 0.0)
    theta = oracle_theta(fam, tau)
    return base.logpdf(terms, theta, base.parts(terms, theta))


def oracle_loss_gradient(fam, u1, u2, eta):
    """-d loss / d eta: the score chained through theta(tau) and tau(eta)."""
    tau_raw = np.tanh(np.asarray(eta, dtype=float))
    tau = np.clip(tau_raw, -F.TAU_CLAMP, F.TAU_CLAMP)
    u1, u2, tau_raw, tau = np.broadcast_arrays(F._clamp_u(u1), F._clamp_u(u2), tau_raw, tau)
    neg = tau < 0.0
    base = F._BASE[fam]
    terms = _oracle_terms(fam, u1, u2, neg)
    theta = oracle_theta(fam, tau)
    dtheta_dtau = oracle_theta_prime(fam, tau)
    if fam in CLAYTONS + GUMBELS:
        # theta is a function of |tau|; rotation flips the sign for tau < 0.
        dtheta_dtau = np.where(neg, -dtheta_dtau, dtheta_dtau)
    dtau_deta = np.where(np.abs(tau_raw) >= F.TAU_CLAMP, 0.0, 1.0 - tau_raw * tau_raw)
    return base.score(terms, theta, base.parts(terms, theta)) * dtheta_dtau * dtau_deta
