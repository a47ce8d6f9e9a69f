"""Reference formulas the library's kernels and boosting loop are tested against.

The copula parameter, the log density and the loss gradient, written
elementwise and apart from the library's link and loss core.  They reuse
the base copulas' data terms, parts, log density and score
(``TestBaseFormulas`` checks those against older formulas) and the rotation
table's branch pick (``TestLogDensity`` checks the rotation identities).
It also holds :class:`LabelledPrepare`, a ``prepare`` whose kernels fail on
chosen rows, for the tests of the boosting loop's failure rule.
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


class LabelledPrepare:
    """``prepare`` whose kernels label each row, count its evaluations and
    raise where ``fails`` says so.

    A row's label is (family, row): ``row`` is the row's position in the
    data of its ``prepare`` call, or what ``row_ids(u1, u2)`` gives for it on
    the clamped data.  Labels go with their rows through ``take`` and
    ``_join``.  Each evaluation first asks ``fails(label, k, gradient)`` for
    every row, ``k`` being the count of that row's evaluations so far, and
    raises the first error given (also appended to ``raised``).  Otherwise
    it counts one evaluation for each row: ``made`` holds one dict label ->
    count per ``prepare`` call.
    """

    def __init__(self, prepare, fails, row_ids=None):
        self.prepare, self.fails, self.row_ids = prepare, fails, row_ids
        self.made, self.raised = [], []

    def __call__(self, family, u1, u2):
        kernel = self.prepare(family, u1, u2)
        rows = range(len(kernel.u1)) if self.row_ids is None else self.row_ids(kernel.u1, kernel.u2)
        counts = {}
        self.made.append(counts)
        return LabelledKernel(self, kernel, [((family, row), counts) for row in rows])


class LabelledKernel:
    """A kernel of :class:`LabelledPrepare`: ``rows`` holds the label of each
    row with the counts it is counted in."""

    def __init__(self, owner, kernel, rows):
        self.owner, self.kernel, self.rows = owner, kernel, rows

    def take(self, rows):
        return LabelledKernel(self.owner, self.kernel.take(rows), [self.rows[i] for i in rows])

    def _join(self, *others):
        kernel = self.kernel._join(*(k.kernel for k in others))
        return LabelledKernel(self.owner, kernel, [row for k in (self, *others) for row in k.rows])

    def log_density(self, eta):
        return self._evaluate(eta, False)[0]

    def value_and_grad(self, eta):
        return self._evaluate(eta, True)

    def _evaluate(self, eta, gradient):
        for label, counts in self.rows:
            error = self.owner.fails(label, counts.get(label, 0), gradient)
            if error is not None:
                self.owner.raised.append(error)
                raise error
        out = self.kernel._evaluate(eta, gradient)
        for label, counts in self.rows:
            counts[label] = counts.get(label, 0) + 1
        return out
