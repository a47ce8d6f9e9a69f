import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kendalltau, kstest

from vineboost import families as F
from vineboost.errors import DomainError, EvaluationError, InterfaceError
from vineboost.families import CopulaFamily

ALL = list(F.FIT_FAMILIES)


def nll(fam, u1, u2, eta):
    return -F.log_density(fam, u1, u2, F.link_tau(eta))


# Reference formulas for the copula parameter, the log density and the loss
# gradient, written elementwise and apart from the library's link and loss
# core.  They reuse the base copulas' data terms, parts, log density and score
# (TestBaseFormulas checks those against older formulas) and the rotation
# table's branch pick (TestLogDensity checks the rotation identities).

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


class TestTransforms:
    def test_tau_to_theta_known_values(self):
        assert F.tau_to_theta(CopulaFamily.GAUSSIAN, 0.5) == pytest.approx(np.sin(np.pi / 4), abs=1e-12)
        assert F.tau_to_theta(CopulaFamily.CLAYTON_I, 0.0) == 0.0
        assert F.tau_to_theta(CopulaFamily.GUMBEL_I, 0.5) == pytest.approx(2.0, abs=1e-12)
        assert F.tau_to_theta(CopulaFamily.CLAYTON_I, -0.5) == pytest.approx(-2.0, abs=1e-12)
        # sgn(0) = +1 keeps the Gumbel map on the independence parameter
        assert F.tau_to_theta(CopulaFamily.GUMBEL_I, 0.0) == 1.0

    def test_theta_to_tau_known_values(self):
        assert F.theta_to_tau(CopulaFamily.GAUSSIAN, np.sin(np.pi / 4)) == pytest.approx(0.5, abs=1e-12)
        assert F.theta_to_tau(CopulaFamily.GUMBEL_I, 1.0) == 0.0
        # solve 2t/(1-t) = 4 by hand: t = 2/3
        assert F.theta_to_tau(CopulaFamily.CLAYTON_II, 4.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("fam", ALL)
    def test_roundtrip_grid(self, fam):
        grid = np.linspace(-0.999, 0.999, 1999)
        back = F.theta_to_tau(fam, F.tau_to_theta(fam, grid))
        assert np.max(np.abs(back - grid)) < 1e-12

    @given(tau=st.floats(-0.995, 0.995))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, tau):
        for fam in ALL:
            assert F.theta_to_tau(fam, F.tau_to_theta(fam, tau)) == pytest.approx(tau, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            F.tau_to_theta(CopulaFamily.GAUSSIAN, 1.0)
        with pytest.raises(DomainError):
            F.tau_to_theta(CopulaFamily.CLAYTON_I, np.nan)
        with pytest.raises(DomainError):
            F.theta_to_tau(CopulaFamily.GAUSSIAN, 1.5)
        with pytest.raises(DomainError):
            F.theta_to_tau(CopulaFamily.GUMBEL_I, 0.5)

    def test_link_tau(self):
        assert F.link_tau(0.0) == 0.0
        assert F.link_tau(50.0) == F.TAU_CLAMP
        assert F.link_tau(-50.0) == -F.TAU_CLAMP
        assert F.link_tau(1.0) == pytest.approx(0.761594155, abs=1e-9)


class TestLogDensity:
    def test_gaussian_independence(self):
        assert F.log_density(CopulaFamily.GAUSSIAN, 0.5, 0.5, 0.0) == 0.0

    def test_gaussian_closed_form_at_center(self):
        # at u1 = u2 = 0.5 the quadratic form vanishes: log c = -0.5 log(1 - theta^2)
        tau = F.theta_to_tau(CopulaFamily.GAUSSIAN, 0.5)
        expect = -0.5 * np.log(0.75)
        assert F.log_density(CopulaFamily.GAUSSIAN, 0.5, 0.5, tau) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(0.143841, abs=1e-6)

    def test_clayton_exchangeable(self):
        # exchangeability holds on the unrotated branch (tau >= 0); the
        # 90-degree rotation used for tau < 0 breaks it by construction
        rng = np.random.default_rng(1)
        u1, u2 = rng.uniform(0.01, 0.99, (2, 50))
        tau = rng.uniform(0.0, 0.9, 50)
        a = F.log_density(CopulaFamily.CLAYTON_I, u1, u2, tau)
        b = F.log_density(CopulaFamily.CLAYTON_I, u2, u1, tau)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize(
        "fam",
        [CopulaFamily.CLAYTON_I, CopulaFamily.GUMBEL_I, CopulaFamily.CLAYTON_II, CopulaFamily.GUMBEL_II],
    )
    def test_rotation_identity(self, fam):
        # negative-tau path equals the same family at (u2, 1-u1) with -tau: the
        # 90-degree rotation of the base for type I, the 270-degree one for type II
        rng = np.random.default_rng(2)
        u1, u2 = rng.uniform(0.01, 0.99, (2, 100))
        tau = -rng.uniform(0.05, 0.9, 100)
        neg = F.log_density(fam, u1, u2, tau)
        rotated = F.log_density(fam, u2, 1.0 - u1, -tau)
        np.testing.assert_allclose(neg, rotated, rtol=1e-12)

    @pytest.mark.parametrize(
        "fam2,fam1",
        [(CopulaFamily.CLAYTON_II, CopulaFamily.CLAYTON_I), (CopulaFamily.GUMBEL_II, CopulaFamily.GUMBEL_I)],
    )
    def test_survival_identity(self, fam2, fam1):
        rng = np.random.default_rng(3)
        u1, u2 = rng.uniform(0.01, 0.99, (2, 100))
        tau = rng.uniform(-0.9, 0.9, 100)
        a = F.log_density(fam2, u1, u2, tau)
        b = F.log_density(fam1, 1.0 - u1, 1.0 - u2, tau)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("fam", ALL)
    @pytest.mark.parametrize("tau", [-0.7, 0.7])
    def test_normalization(self, fam, tau):
        g = (np.arange(400) + 0.5) / 400
        U1, U2 = np.meshgrid(g, g, indexing="ij")
        integral = np.exp(F.log_density(fam, U1.ravel(), U2.ravel(), tau)).mean()
        assert 0.99 <= integral <= 1.01

    def test_independence_family_is_flat(self):
        rng = np.random.default_rng(4)
        u = rng.random((2, 20))
        assert np.all(F.log_density(CopulaFamily.INDEPENDENCE, u[0], u[1], 0.0) == 0.0)


class TestLossGradient:
    def test_zero_at_gaussian_stationary_point(self):
        # finite differences of the loss at (0.5, 0.5, eta=0) vanish
        assert F.loss_gradient(CopulaFamily.GAUSSIAN, 0.5, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("fam", ALL)
    def test_matches_finite_differences(self, fam):
        rng = np.random.default_rng(10)
        n = 500
        u1 = rng.uniform(0.02, 0.98, n)
        u2 = rng.uniform(0.02, 0.98, n)
        eta = rng.uniform(0.05, 2.0, n) * rng.choice([-1.0, 1.0], n)
        g = F.loss_gradient(fam, u1, u2, eta)
        h = 1e-6
        fd = -(nll(fam, u1, u2, eta + h) - nll(fam, u1, u2, eta - h)) / (2 * h)
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(fd))
        assert rel.max() < 1e-5

    def test_gumbel_survival_sign_matches_fd_on_diagonal(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.05, 0.95, 100)
        eta = rng.uniform(0.05, 1.5, 100) * rng.choice([-1.0, 1.0], 100)
        g = F.loss_gradient(CopulaFamily.GUMBEL_II, u, u, eta)
        h = 1e-6
        fd = -(nll(CopulaFamily.GUMBEL_II, u, u, eta + h) - nll(CopulaFamily.GUMBEL_II, u, u, eta - h)) / (2 * h)
        keep = np.abs(fd) > 1e-10
        assert np.all(np.sign(g[keep]) == np.sign(fd[keep]))

    def test_zero_beyond_tau_clamp(self):
        # tanh(5) already exceeds TAU_CLAMP; at 40 it rounds to exactly 1
        for eta in (5.0, -6.0, 40.0):
            assert F.loss_gradient(CopulaFamily.GAUSSIAN, 0.3, 0.7, eta) == 0.0


def _assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


SIX = ALL + [CopulaFamily.INDEPENDENCE]


class TestLossCore:
    """The link and the public log density and loss gradient against the oracles."""

    # -0.0 and 0.0, the clamp, and |tau| -> 1 past the clamp and the caps
    SPECIAL = np.array([-0.0, 0.0, F.TAU_CLAMP, -F.TAU_CLAMP, 1.0 - 1e-8, -(1.0 - 1e-8)])
    TAU = np.concatenate([SPECIAL, np.linspace(-1.0 + 1e-8, 1.0 - 1e-8, 20_001)])

    @pytest.mark.parametrize("fam", SIX)
    def test_link_matches_oracle_bitwise(self, fam):
        theta, dtheta = F._BASE[fam].link(self.TAU, np.abs(self.TAU), True)
        _assert_bitwise(theta, oracle_theta(fam, self.TAU))
        _assert_bitwise(dtheta, oracle_theta_prime(fam, self.TAU))
        _assert_bitwise(F._BASE[fam].link(self.TAU, np.abs(self.TAU), False)[0], theta)

    @pytest.mark.parametrize("fam", SIX)
    def test_log_density_matches_oracle(self, fam):
        u1, u2 = TestPairKernel.data(7)
        tau = np.resize(np.concatenate([self.SPECIAL, np.linspace(-0.99, 0.99, 21)]), len(u1))
        np.testing.assert_allclose(F.log_density(fam, u1, u2, tau), oracle_log_density(fam, u1, u2, tau),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fam", SIX)
    def test_loss_gradient_matches_oracle(self, fam):
        eta_grid = np.concatenate([-TestPairKernel.ETA, TestPairKernel.ETA])
        u1, u2 = TestPairKernel.data(len(eta_grid))
        eta = np.repeat(eta_grid, len(u1) // len(eta_grid))
        np.testing.assert_allclose(F.loss_gradient(fam, u1, u2, eta), oracle_loss_gradient(fam, u1, u2, eta),
                                   rtol=1e-12, atol=0.0)
        # one eta broadcast over the data
        np.testing.assert_allclose(F.loss_gradient(fam, u1, u2, -0.7), oracle_loss_gradient(fam, u1, u2, -0.7),
                                   rtol=1e-12, atol=0.0)


class TestPairKernel:
    """The fused boosting kernel against the oracles."""

    # 0 is the Clayton tiny-theta branch; |eta| >= 5 sits on the tau clamp;
    # |eta| >= 1.7 passes the Clayton theta cap and |eta| >= 2.3 the Gumbel one.
    ETA = np.array([0.0, 0.05, 0.5, 1.0, 1.7, 2.0, 2.3, 3.0, 5.0, 6.0, 40.0])

    @staticmethod
    def data(n_rep):
        # boundary values exercise the clamp into [U_EPS, 1 - U_EPS]
        u = np.array([0.0, 1e-12, 0.03, 0.2, 0.5, 0.77, 0.99, 1.0])
        u1, u2 = np.meshgrid(u, u[::-1])
        return np.tile(u1.ravel(), n_rep), np.tile(u2.ravel(), n_rep)

    @pytest.mark.parametrize("fam", ALL + [CopulaFamily.INDEPENDENCE])
    @pytest.mark.parametrize("signs", ["mixed", "positive", "negative"])
    def test_matches_elementwise(self, fam, signs):
        eta_grid = {"mixed": np.concatenate([-self.ETA, self.ETA]),
                    "positive": self.ETA, "negative": -self.ETA[1:]}[signs]
        u1, u2 = self.data(len(eta_grid))
        eta = np.repeat(eta_grid, len(u1) // len(eta_grid))
        kernel = F.prepare(fam, u1, u2)
        value, grad = kernel.value_and_grad(eta)
        ref_value = oracle_log_density(fam, u1, u2, np.clip(np.tanh(eta), -F.TAU_CLAMP, F.TAU_CLAMP))
        ref_grad = oracle_loss_gradient(fam, u1, u2, eta)
        np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(kernel.log_density(eta), ref_value, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fam", ALL + [CopulaFamily.INDEPENDENCE])
    def test_stacked_rows_match_one_row_kernels(self, fam):
        # rows of stacked data, and the kernel on some of them, evaluate
        # bit for bit as a kernel on each row alone
        rng = np.random.default_rng(12)
        u1, u2 = rng.random((2, 4, 200))
        eta = rng.normal(0.0, 1.5, (4, 200))
        kernel = F.prepare(fam, u1, u2)
        rows = [3, 1]
        part = kernel.take(rows)
        value, grad = kernel.value_and_grad(eta)
        part_value, part_grad = part.value_and_grad(eta[rows])
        for k, r in enumerate(rows):
            alone_value, alone_grad = F.prepare(fam, u1[r], u2[r]).value_and_grad(eta[r])
            for got in (value[r], part_value[k]):
                np.testing.assert_array_equal(got, alone_value)
            for got in (grad[r], part_grad[k]):
                np.testing.assert_array_equal(got, alone_grad)

    def test_non_finite_eta_is_domain_error(self):
        kernel = F.prepare(CopulaFamily.GUMBEL_I, np.full(3, 0.3), np.full(3, 0.6))
        with pytest.raises(DomainError):
            kernel.value_and_grad(np.array([0.1, np.nan, 0.2]))
        with pytest.raises(DomainError):
            kernel.log_density(np.array([0.1, 0.2, np.inf]))

    def test_non_finite_data_names_row_and_column(self):
        u1 = np.array([0.2, 0.3, 0.4])
        u2 = np.array([0.5, np.inf, 0.6])
        with pytest.raises(InterfaceError, match="pairs row 1, column 1"):
            F.prepare(CopulaFamily.CLAYTON_I, u1, u2)

    # Warnings are errors in these two: a finiteness test by one sum would
    # warn of the overflow and of inf - inf.

    @pytest.mark.filterwarnings("error")
    def test_finite_eta_whose_sum_overflows_passes(self):
        # finite values summing to inf pass the finiteness check
        kernel = F.prepare(CopulaFamily.GUMBEL_I, np.full(2, 0.3), np.full(2, 0.6))
        eta = np.array([1e308, 1e308])
        value, grad = kernel.value_and_grad(eta)
        np.testing.assert_array_equal(kernel.log_density(eta), value)
        np.testing.assert_array_equal(value, F.log_density(CopulaFamily.GUMBEL_I, 0.3, 0.6, F.TAU_CLAMP))
        np.testing.assert_array_equal(grad, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eta", [[np.inf, -np.inf], [-np.inf, -np.inf]])
    def test_non_finite_eta_raises_whatever_its_sum(self, eta):
        # sums of NaN and of -inf; test_non_finite_eta_is_domain_error has NaN and +inf
        kernel = F.prepare(CopulaFamily.CLAYTON_II, np.full(2, 0.3), np.full(2, 0.6))
        with pytest.raises(DomainError, match="linear predictor must be finite"):
            kernel.value_and_grad(np.array(eta))
        with pytest.raises(DomainError, match="linear predictor must be finite"):
            kernel.log_density(np.array(eta))

    @pytest.mark.parametrize("part", ["logpdf", "score"])
    def test_non_finite_result_names_its_row(self, part, monkeypatch):
        # a base function that returns NaN at one row of stacked data: the
        # error names that row's (u1, u2, tau), or (u1, u2, eta) for the gradient
        fam = CopulaFamily.CLAYTON_I
        u1 = np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]])
        u2 = np.array([[0.9, 0.8, 0.1], [0.35, 0.25, 0.15]])
        eta = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])
        kernel = F.prepare(fam, u1, u2)
        real = getattr(F._BASE[fam], part)

        def nan_at_one_row(*args):
            out = real(*args)
            out[1, 2] = np.nan
            return out

        monkeypatch.setitem(F._BASE, fam, F._BASE[fam]._replace(**{part: nan_at_one_row}))
        at = (1, 2)
        if part == "logpdf":
            name, point = "log_density", (u1[at], u2[at], F.link_tau(eta)[at])
        else:
            name, point = "loss_gradient", (u1[at], u2[at], eta[at])
        message = re.escape(f"{name} produced a non-finite value at {tuple(float(x) for x in point)}")
        with pytest.raises(EvaluationError, match=message):
            kernel.value_and_grad(eta)
        if part == "logpdf":
            with pytest.raises(EvaluationError, match=message):
                kernel.log_density(eta)


def _clayton_logS_two_branch(lu, lv, theta):
    """log S of the Clayton copula as computed before the one-branch form."""
    a = -theta * lu
    b = -theta * lv
    m = np.maximum(a, b)
    small = np.log1p(np.expm1(a) + np.expm1(b))
    big = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
    return np.where(m < 1.0, small, big)


def _gumbel_logaddexp(lx, ly, theta):
    """Gumbel log S, T = S^(1/theta) and q = d log S / d theta through logaddexp."""
    logS = np.logaddexp(theta * lx, theta * ly)
    wa = np.exp(theta * lx - logS)
    wb = np.exp(theta * ly - logS)
    return logS, np.exp(logS / theta), wa * lx + wb * ly


class TestBaseFormulas:
    """The one-branch Clayton and logaddexp-free Gumbel formulas against the
    formulas they replaced, on a grid out to the clamp and the theta caps."""

    U = np.concatenate([[F.U_EPS, 1e-8, 1e-5, 1e-3], np.linspace(0.01, 0.99, 99), [1.0 - 1e-5, 1.0 - F.U_EPS]])

    def grid(self, thetas):
        u, v, theta = (a.ravel() for a in np.meshgrid(self.U, self.U, thetas, indexing="ij"))
        return u, v, theta

    def test_clayton_log_S_and_weights(self):
        u, v, theta = self.grid(np.geomspace(1e-8, F._CLAYTON_THETA_CAP, 25))
        lu, lv = F._clayton_terms(u, v)
        tiny, t, ea, eb, sm1, logS, _, _ = F._clayton_parts((lu, lv), theta)
        assert tiny is None and t is theta
        ref_logS = _clayton_logS_two_branch(lu, lv, theta)
        np.testing.assert_allclose(logS, ref_logS, rtol=1e-12, atol=1e-15)
        # wa = u^-theta / S, wb = v^-theta / S as exponentials of the reference log S
        ref_w = lu * np.exp(-theta * lu - ref_logS) + lv * np.exp(-theta * lv - ref_logS)
        np.testing.assert_allclose(F._clayton_wlog(lu, lv, ea, eb, sm1), ref_w, rtol=1e-12, atol=1e-15)

    def test_gumbel_log_S_root_and_weights(self):
        u, v, theta = self.grid(np.geomspace(1.0, F._GUMBEL_THETA_CAP, 25))
        s, ls, lmax, delta = F._gumbel_terms(u, v)
        x, y = -np.log(u), -np.log(v)
        lx, ly = np.log(x), np.log(y)
        np.testing.assert_array_equal(s, x + y)
        np.testing.assert_array_equal(ls, lx + ly)
        np.testing.assert_array_equal(lmax, np.maximum(lx, ly))
        np.testing.assert_array_equal(delta, np.maximum(lx, ly) - np.minimum(lx, ly))
        e, logS, T = F._gumbel_parts((s, ls, lmax, delta), theta)
        ref_logS, ref_T, ref_q = _gumbel_logaddexp(lx, ly, theta)
        np.testing.assert_allclose(logS, ref_logS, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(T, ref_T, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(F._gumbel_q(lmax, delta, e), ref_q, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("fam", [CopulaFamily.CLAYTON_I, CopulaFamily.GUMBEL_I])
    def test_finite_at_the_cap_and_the_clamp(self, fam):
        # theta at its cap and u, v at the clamp: S spans its widest range
        base = F._BASE[fam]
        cap = F._CLAYTON_THETA_CAP if fam == CopulaFamily.CLAYTON_I else F._GUMBEL_THETA_CAP
        edge = np.array([F.U_EPS, 1.0 - F.U_EPS])
        u, v = (a.ravel() for a in np.meshgrid(edge, edge))
        theta = np.full(u.shape, cap)
        terms = base.terms(u, v)
        parts = base.parts(terms, theta)
        for out in (*terms, *(p for p in parts if p is not None), base.logpdf(terms, theta, parts),
                    base.score(terms, theta, parts), base.h(v, u, theta), base.h(u, v, theta)):
            assert np.all(np.isfinite(out))


class TestHFunctions:
    @pytest.mark.parametrize("fam", ALL)
    def test_independence_limit(self, fam):
        u1 = np.linspace(0.05, 0.95, 9)
        for u2 in (0.2, 0.8):
            np.testing.assert_allclose(F.hfunc(fam, "1|2", u1, u2, 0.0), u1, atol=1e-9)
            np.testing.assert_allclose(F.hfunc(fam, "2|1", u2, u1, 0.0), u1, atol=1e-9)

    @pytest.mark.parametrize("fam", ALL)
    @pytest.mark.parametrize("tau", [-0.55, 0.35])
    def test_matches_quadrature_of_density(self, fam, tau):
        # h(1|2)(u1 | u2) = d C / d u2 = integral of the density over [0, u1] x {u2}
        for u1, u2 in [(0.3, 0.6), (0.7, 0.25), (0.5, 0.5)]:
            val = F.hfunc(fam, "1|2", u1, u2, tau)
            oracle, err = quad(lambda s: np.exp(F.log_density(fam, s, u2, tau)), 0.0, u1, limit=200)
            assert err < 1e-7
            assert val == pytest.approx(oracle, abs=1e-5)

    @pytest.mark.parametrize("fam", ALL)
    def test_monotone_in_conditioned_argument(self, fam):
        u1 = np.linspace(0.01, 0.99, 200)
        for tau in (-0.6, 0.4):
            h = F.hfunc(fam, "1|2", u1, 0.37, tau)
            assert np.all(np.diff(h) >= -1e-12)

    @pytest.mark.parametrize("fam", ALL)
    def test_boundary_limits(self, fam):
        for tau in (-0.5, 0.5):
            assert F.hfunc(fam, "1|2", 1.0 - 1e-9, 0.4, tau) > 1.0 - 1e-4
            assert F.hfunc(fam, "1|2", 1e-9, 0.4, tau) < 1e-4


class TestHInverse:
    def test_independence_identity(self):
        w = np.linspace(0.05, 0.95, 9)
        for fam in ALL:
            np.testing.assert_allclose(F.hinv(fam, "1|2", w, 0.3, 0.0), w, atol=1e-9)

    @pytest.mark.parametrize("fam", ALL)
    def test_roundtrip(self, fam):
        rng = np.random.default_rng(20)
        n = 1000
        u1 = rng.uniform(0.05, 0.95, n)
        uc = rng.uniform(0.05, 0.95, n)
        tau = rng.uniform(-0.6, 0.6, n)
        w = F.hfunc(fam, "1|2", u1, uc, tau)
        assert np.max(np.abs(F.hinv(fam, "1|2", w, uc, tau) - u1)) < 1e-8
        w = F.hfunc(fam, "2|1", uc, u1, tau)
        assert np.max(np.abs(F.hinv(fam, "2|1", w, uc, tau) - u1)) < 1e-8

    @pytest.mark.parametrize("fam", ALL)
    def test_monotone_in_w(self, fam):
        w = np.linspace(0.01, 0.99, 100)
        for tau in (-0.5, 0.65):
            out = F.hinv(fam, "1|2", w, 0.42, tau)
            assert np.all(np.diff(out) >= 0.0)


# Rotation code (degrees) of each family for tau >= 0 and for tau < 0.
ROTATIONS = {
    CopulaFamily.GAUSSIAN: (0, 0),
    CopulaFamily.CLAYTON_I: (0, 90),
    CopulaFamily.GUMBEL_I: (0, 90),
    CopulaFamily.CLAYTON_II: (180, 270),
    CopulaFamily.GUMBEL_II: (180, 270),
}


def _by_rotation(fam, tau, arm, *args):
    # Evaluate each rotation code's rows with its ladder arm, gathering by code.
    pos, neg = ROTATIONS[fam]
    rot = np.where(tau < 0.0, neg, pos)
    theta = oracle_theta(fam, tau)
    out = np.empty_like(args[0])
    for code in np.unique(rot):
        m = rot == code
        out[m] = arm(code, *(a[m] for a in args), theta[m])
    return out


def _ladder_hfunc(fam, which, u1, u2, tau):
    """h-function by the 0/90/180/270 rotation ladder, on the base h."""
    u1, u2, tau = np.broadcast_arrays(F._clamp_u(u1), F._clamp_u(u2), np.asarray(tau, float))
    if fam == CopulaFamily.INDEPENDENCE:
        return (u1 if which == "1|2" else u2).copy()
    h = F._BASE[fam].h

    def h_1g2(p, q, t):
        return h(p, q, t)

    def h_2g1(p, q, t):
        return h(q, p, t)

    def arm(code, p, q, t):
        if which == "1|2":
            if code == 0:
                return h_1g2(p, q, t)
            if code == 90:
                return 1.0 - h_2g1(q, 1.0 - p, t)
            if code == 180:
                return 1.0 - h_1g2(1.0 - p, 1.0 - q, t)
            return h_2g1(1.0 - q, p, t)
        if code == 0:
            return h_2g1(p, q, t)
        if code == 90:
            return h_1g2(q, 1.0 - p, t)
        if code == 180:
            return 1.0 - h_2g1(1.0 - p, 1.0 - q, t)
        return 1.0 - h_1g2(1.0 - q, p, t)

    return np.clip(_by_rotation(fam, tau, arm, u1, u2), 0.0, 1.0)


def _ladder_hinv(fam, which, w, uc, tau):
    """h-inverse by the 0/90/180/270 rotation ladder, on the base h-inverse."""
    w, uc, tau = np.broadcast_arrays(F._clamp_u(w), F._clamp_u(uc), np.asarray(tau, float))
    if fam == CopulaFamily.INDEPENDENCE:
        return w.copy()
    hinv_1g2 = hinv_2g1 = F._BASE[fam].hinv

    def arm(code, ww, cc, t):
        if which == "1|2":
            if code == 0:
                return hinv_1g2(ww, cc, t)
            if code == 90:
                return 1.0 - hinv_2g1(1.0 - ww, cc, t)
            if code == 180:
                return 1.0 - hinv_1g2(1.0 - ww, 1.0 - cc, t)
            return hinv_2g1(ww, 1.0 - cc, t)
        if code == 0:
            return hinv_2g1(ww, cc, t)
        if code == 90:
            return hinv_1g2(ww, 1.0 - cc, t)
        if code == 180:
            return 1.0 - hinv_2g1(1.0 - ww, 1.0 - cc, t)
        return 1.0 - hinv_1g2(1.0 - ww, cc, t)

    return np.clip(_by_rotation(fam, tau, arm, w, uc), F.U_EPS, 1.0 - F.U_EPS)


def _rotation_inputs():
    # Interior points plus the clamp boundaries 0, 1e-13 and 1 in both slots.
    rng = np.random.default_rng(30)
    edge = np.array([0.0, 1e-13, 1e-10, 0.5, 1.0 - 1e-13, 1.0])
    e1, e2 = np.meshgrid(edge, edge)
    a = np.concatenate([rng.random(2000), e1.ravel()])
    b = np.concatenate([rng.random(2000), e2.ravel()])
    n = a.size
    mixed = rng.uniform(-0.99, 0.99, n)
    mixed[::9] = -0.0
    taus = {
        "nonneg": np.concatenate([np.zeros(5), rng.uniform(0.0, 0.99, n - 5)]),
        "neg": -rng.uniform(1e-12, 0.99, n),
        "mixed": mixed,
        "negzero": np.full(n, -0.0),
    }
    return a, b, taus


class TestRotationTable:
    """The flip table against the rotation-code ladders it replaced, bit for bit."""

    @pytest.mark.parametrize("fam", SIX)
    @pytest.mark.parametrize("which", ["1|2", "2|1"])
    @pytest.mark.parametrize("sign", ["nonneg", "neg", "mixed", "negzero"])
    def test_hfunc_matches_ladder(self, fam, which, sign):
        a, b, taus = _rotation_inputs()
        tau = taus[sign]
        _assert_bitwise(F.hfunc(fam, which, a, b, tau), _ladder_hfunc(fam, which, a, b, tau))

    @pytest.mark.parametrize("fam", SIX)
    @pytest.mark.parametrize("which", ["1|2", "2|1"])
    @pytest.mark.parametrize("sign", ["nonneg", "neg", "mixed", "negzero"])
    def test_hinv_matches_ladder(self, fam, which, sign):
        a, b, taus = _rotation_inputs()
        tau = taus[sign]
        _assert_bitwise(F.hinv(fam, which, a, b, tau), _ladder_hinv(fam, which, a, b, tau))

    @pytest.mark.parametrize("fam", SIX)
    def test_which_is_checked_for_every_family(self, fam):
        with pytest.raises(DomainError, match="which"):
            F.hfunc(fam, "bogus", 0.3, 0.7, 0.0)
        with pytest.raises(DomainError, match="which"):
            F.hinv(fam, "bogus", 0.3, 0.7, 0.0)


def _gumbel_root_full(b, lo, theta):
    """Reference: Newton steps on every element until all meet the tolerance at once."""
    hi = np.maximum(np.maximum(1.0, b), lo)
    T = np.clip(b, lo, hi)
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(80):
        g = T + (theta - 1.0) * np.log(T) - b
        lo = np.where(g < 0.0, T, lo)
        hi = np.where(g >= 0.0, T, hi)
        if np.all(np.abs(g) <= 1e-14 * (1.0 + np.abs(b))):
            break
        step = g / (1.0 + (theta - 1.0) / T)
        T_new = T - step
        inside = (T_new > lo) & (T_new < hi)
        T = np.where(inside, T_new, 0.5 * (lo + hi))
    return T


def _interior_inputs(n, seed):
    # w and the conditioning value away from the clamp, tau of both signs
    rng = np.random.default_rng(seed)
    w, uc = rng.uniform(1e-6, 1.0 - 1e-6, (2, n))
    return w, uc, rng.uniform(-0.95, 0.95, n)


def _roundtrip_error(fam, which, out, w, uc, tau):
    pair = (out, uc) if which == "1|2" else (uc, out)
    return np.abs(F.hfunc(fam, which, *pair, tau) - w)


class TestGumbelRoot:
    """Per-element Newton convergence against the full-array loop."""

    @pytest.mark.parametrize("fam", GUMBELS)
    @pytest.mark.parametrize("which", ["1|2", "2|1"])
    def test_rows_independent_of_batch(self, fam, which):
        w, uc, tau = _interior_inputs(200, 21)
        full = F.hinv(fam, which, w, uc, tau)
        rng = np.random.default_rng(22)
        for rows in (rng.permutation(200)[:37], np.arange(0, 200, 7), np.flatnonzero(tau < 0.0)):
            np.testing.assert_array_equal(F.hinv(fam, which, w[rows], uc[rows], tau[rows]), full[rows])
        one = [F.hinv(fam, which, w[i], uc[i], tau[i]) for i in range(200)]
        np.testing.assert_array_equal(one, full)

    @pytest.mark.parametrize("fam", GUMBELS)
    @pytest.mark.parametrize("which", ["1|2", "2|1"])
    def test_hinv_matches_full_array_loop(self, fam, which, monkeypatch):
        w, uc, tau = _interior_inputs(20_000, 23)
        out = F.hinv(fam, which, w, uc, tau)
        monkeypatch.setattr(F, "_gumbel_root", _gumbel_root_full)
        expected = F.hinv(fam, which, w, uc, tau)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=0.0)
        new_err = _roundtrip_error(fam, which, out, w, uc, tau)
        old_err = _roundtrip_error(fam, which, expected, w, uc, tau)
        assert np.max(new_err) <= np.max(old_err)

    def test_every_root_meets_the_tolerance(self):
        # clamped extremes included: w and u down to the 1e-10 clamp, theta to the cap
        rng = np.random.default_rng(24)
        n = 50_000
        x = -np.log(10.0 ** rng.uniform(-10.0, np.log10(1.0 - 1e-10), n))
        theta = 10.0 ** rng.uniform(0.0, np.log10(50.0), n)
        b = x + (theta - 1.0) * np.log(x) - np.log(10.0 ** rng.uniform(-10.0, 0.0, n))
        T = F._gumbel_root(b, x, theta)
        g = T + (theta - 1.0) * np.log(T) - b
        assert np.all(np.abs(g) <= 1e-14 * (1.0 + np.abs(b)))
        assert np.all(T >= x)
        assert F._gumbel_root(b[:0], x[:0], theta[:0]).shape == (0,)


class TestSamplePair:
    def test_independence(self):
        U = F.sample_pair(CopulaFamily.GAUSSIAN, 0.0, 100_000, seed=5)
        assert abs(kendalltau(U[:, 0], U[:, 1]).statistic) < 0.01

    def test_gaussian_tau_recovery(self):
        U = F.sample_pair(CopulaFamily.GAUSSIAN, 0.7, 100_000, seed=6)
        assert kendalltau(U[:, 0], U[:, 1]).statistic == pytest.approx(0.7, abs=0.01)

    def test_margins_uniform(self):
        U = F.sample_pair(CopulaFamily.CLAYTON_I, -0.5, 100_000, seed=7)
        assert kstest(U[:, 0], "uniform").statistic < 0.01
        assert kstest(U[:, 1], "uniform").statistic < 0.01

    def test_tau_length_must_match_n(self):
        with pytest.raises(InterfaceError, match=r"length n = 5, got shape \(3,\)"):
            F.sample_pair(CopulaFamily.CLAYTON_I, [0.1, 0.2, 0.3], 5, seed=9)

    def test_deterministic_and_per_row_tau(self):
        tau = np.linspace(-0.5, 0.5, 1000)
        a = F.sample_pair(CopulaFamily.GUMBEL_II, tau, 1000, seed=8)
        b = F.sample_pair(CopulaFamily.GUMBEL_II, tau, 1000, seed=8)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1000, 2)
        assert np.all((a > 0) & (a < 1))
