from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from vineboost import boosting as B
from vineboost import families as F
from vineboost.boosting import BoostControl, BoostPath, FittedPairCopula
from vineboost.errors import ConfigurationError, EvaluationError, FitError, InterfaceError
from vineboost.families import CopulaFamily
from vineboost.simulation import gen_covariates, true_eta

from oracles import LabelledPrepare, oracle_log_density, oracle_loss_gradient

TRUE_BETA6 = np.array([0.1, -0.2, 0.3, 0.2, 0.5, -0.4])


def toeplitz_covariates(n, p, rho, rng):
    eps = rng.standard_normal((n, p - 1))
    z = np.empty_like(eps)
    z[:, 0] = eps[:, 0]
    c = np.sqrt(1.0 - rho * rho)
    for j in range(1, p - 1):
        z[:, j] = rho * z[:, j - 1] + c * eps[:, j]
    return np.column_stack([np.ones(n), z])


def simulate_pair_data(family, n, p, rho, seed, beta=TRUE_BETA6):
    rng = np.random.default_rng(seed)
    Z = toeplitz_covariates(n, p, rho, rng)
    tau = np.tanh(Z[:, : len(beta)] @ beta)
    w1 = rng.random(n)
    w2 = rng.random(n)
    u2 = F.hinv(family, "2|1", w2, w1, tau)
    return np.column_stack([w1, u2]), Z


def synthetic_path(selected, risks, p=4, has_intercept=True):
    selected = np.asarray(selected, dtype=np.int64)
    risks = np.asarray(risks, dtype=float)
    m = len(selected)
    active = np.zeros(m + 1, dtype=np.int64)
    seen = set()
    for i, j in enumerate(selected, start=1):
        seen.add(int(j))
        active[i] = len(seen)
    return BoostPath(
        family=CopulaFamily.GAUSSIAN,
        selected=selected,
        increments=np.full(m, 0.01),
        risk=risks,
        active_size=active,
        mu=np.zeros(p),
        sigma=np.ones(p),
        has_intercept=has_intercept,
        degenerate=np.zeros(p, dtype=bool),
        n_obs=100,
    )


class TestBoostControl:
    @pytest.mark.parametrize("field, value", [
        ("m_stop", 10.5), ("m_stop", True), ("cv_folds", 2.5), ("cv_folds", np.True_), ("seed", 1.5),
        ("seed", -1), ("nu", "0.1"), ("nu", True), ("gamma", None),
    ])
    def test_field_types_checked(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            BoostControl(**{field: value})

    def test_numpy_scalars_accepted(self):
        control = BoostControl(m_stop=np.int64(5), nu=np.float64(0.5), gamma=1e-2, seed=np.int32(3))
        assert control.m_stop == 5 and control.nu == 0.5


class TestBoost:
    def test_zero_gradient_fixed_point(self):
        # all observations at the Gaussian stationary point (0.5, 0.5)
        n = 50
        pairs = np.full((n, 2), 0.5)
        Z = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
        path = B.boost(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl(m_stop=25))
        assert np.all(path.beta_at(25) == 0.0)
        assert np.all(path.risk == path.risk[0])

    def test_informative_covariate_selected_first(self):
        rng = np.random.default_rng(3)
        n = 800
        Z = np.column_stack([np.ones(n), rng.standard_normal((n, 5))])
        tau = np.tanh(1.2 * Z[:, 1])
        w1 = rng.random(n)
        u2 = F.hinv(CopulaFamily.GAUSSIAN, "2|1", rng.random(n), w1, tau)
        pairs = np.column_stack([w1, u2])
        control = BoostControl(m_stop=5)
        path = B.boost(pairs, Z, CopulaFamily.GAUSSIAN, control)

        # oracle: exhaustive residual-sum-of-squares scan at iteration 1
        Zs = (Z - Z.mean(0)) / np.where(Z.std(0) < 1e-12, 1.0, Z.std(0))
        Zs[:, 0] = 1.0
        g = F.loss_gradient(CopulaFamily.GAUSSIAN, pairs[:, 0], pairs[:, 1], np.zeros(n))
        rss = [np.sum((g - (g @ Zs[:, j]) / (Zs[:, j] @ Zs[:, j]) * Zs[:, j]) ** 2) for j in range(6)]
        assert int(np.argmin(rss)) == 1
        assert path.selected[0] == 1

    def test_one_coefficient_changes_per_iteration(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 400, 11, 0.2, seed=4)
        path = B.boost(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl(m_stop=60))
        for m in range(1, 61):
            delta = path.beta_std_at(m) - path.beta_std_at(m - 1)
            changed = np.flatnonzero(delta)
            assert len(changed) <= 1
            if len(changed) == 1:
                assert changed[0] == path.selected[m - 1]
                assert delta[changed[0]] == pytest.approx(path.increments[m - 1])

    @pytest.mark.parametrize("fam", [CopulaFamily.GAUSSIAN, CopulaFamily.CLAYTON_I, CopulaFamily.GUMBEL_II])
    def test_risk_descends(self, fam):
        pairs, Z = simulate_pair_data(fam, 500, 11, 0.2, seed=5)
        path = B.boost(pairs, Z, fam, BoostControl(m_stop=200))
        assert np.all(np.diff(path.risk) <= 1e-9)

    def test_degenerate_covariate_flagged_and_skipped(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 300, 6, 0.2, seed=6)
        Z = np.column_stack([Z, np.full(300, 3.14)])
        path = B.boost(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl(m_stop=50))
        assert path.degenerate[-1]
        assert not np.any(path.selected == Z.shape[1] - 1)

    def test_deterministic(self):
        pairs, Z = simulate_pair_data(CopulaFamily.CLAYTON_II, 300, 11, 0.2, seed=7)
        control = BoostControl(m_stop=80)
        a = B.boost(pairs, Z, CopulaFamily.CLAYTON_II, control)
        b = B.boost(pairs, Z, CopulaFamily.CLAYTON_II, control)
        np.testing.assert_array_equal(a.beta_at(80), b.beta_at(80))
        np.testing.assert_array_equal(a.risk, b.risk)

    def test_shape_errors(self):
        with pytest.raises(InterfaceError):
            B.boost(np.zeros((10, 3)), np.ones((10, 2)), CopulaFamily.GAUSSIAN, BoostControl())
        with pytest.raises(InterfaceError):
            B.boost(np.full((10, 2), 0.5), np.ones((9, 2)), CopulaFamily.GAUSSIAN, BoostControl())

    @pytest.mark.parametrize("fit", [
        lambda pairs, Z: B.boost(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl()),
        lambda pairs, Z: B.fit_family(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl()),
        lambda pairs, Z: B.fit_pair(pairs, Z, F.FIT_FAMILIES),
    ], ids=["boost", "fit_family", "fit_pair"])
    def test_zero_rows_is_an_interface_error(self, fit):
        with pytest.raises(InterfaceError, match="^pairs must hold at least one row$"):
            fit(np.zeros((0, 2)), np.ones((0, 3)))


def oracle_risk(family, u1, u2, eta):
    """The mean negative log likelihood at the linear predictor eta, by the oracles."""
    return -np.mean(oracle_log_density(family, u1, u2, np.clip(np.tanh(eta), -F.TAU_CLAMP, F.TAU_CLAMP)))


def reference_boost(pairs, Z, family, control, selectable=None):
    """The boosting loop on the oracle loss and gradient, as the fused path's reference."""
    u1, u2 = pairs[:, 0], pairs[:, 1]
    n, p1 = Z.shape
    design = B._design(Z)
    Zs, mask = design.Zs, ~design.degenerate
    if selectable is not None:
        sel = np.zeros(p1, dtype=bool)
        sel[np.asarray(selectable, dtype=int)] = True
        mask &= sel
    colsq = np.einsum("ij,ij->j", Zs, Zs)
    colsq_safe = np.where(colsq < B._DEGENERATE_TOL, 1.0, colsq)
    Zs_T = np.ascontiguousarray(Zs.T)
    m_stop = control.m_stop
    selected = np.zeros(m_stop, dtype=np.int64)
    risk = np.zeros(m_stop + 1)
    active = np.zeros(m_stop + 1, dtype=np.int64)
    beta_std = np.zeros(p1)
    eta = np.zeros(n)
    risk[0] = oracle_risk(family, u1, u2, eta)
    for m in range(1, m_stop + 1):
        g = oracle_loss_gradient(family, u1, u2, eta)
        numer = np.add.reduce(Zs_T * g, axis=1)  # each column's pairwise sum: the exact numerators
        score = np.where(mask, numer * numer / colsq_safe, -np.inf)
        j = int(np.argmax(score))
        step = control.nu * numer[j] / colsq_safe[j]
        beta_std[j] += step
        eta += step * Zs[:, j]
        selected[m - 1] = j
        risk[m] = oracle_risk(family, u1, u2, eta)
        active[m] = int(np.count_nonzero(beta_std))
    return selected, risk, active


def fit_families(pairs, Z, families, control):
    """family -> the fit of ``B._fit_edges`` on the one edge ``pairs``, or its error."""
    return {family: fits[0] for family, fits in B._fit_edges(pairs[None], Z, families, control).items()}


def holdout_risk_path(path, pairs, Z):
    """Held-out mean negative log likelihood after each iteration of ``path``."""
    u1, u2 = pairs[:, 0], pairs[:, 1]
    Zs = (Z - path.mu) / path.sigma
    if path.has_intercept:
        Zs[:, 0] = 1.0
    eta = np.zeros(len(pairs))
    out = np.zeros(path.m_stop + 1)
    out[0] = oracle_risk(path.family, u1, u2, eta)
    for m in range(1, path.m_stop + 1):
        eta += path.increments[m - 1] * Zs[:, path.selected[m - 1]]
        out[m] = oracle_risk(path.family, u1, u2, eta)
    return out


def cv_folds(n, control):
    """The held-out rows of each fold of ``stop_cv``'s seeded split."""
    rng = np.random.default_rng(control.seed)
    return np.array_split(rng.permutation(n), control.cv_folds)


def reference_cv(pairs, Z, family, control):
    """K-fold CV one fold at a time: ``boost`` on the training rows, then a
    replay of its path on the held-out rows; the fold-batched path's reference."""
    n = len(pairs)
    selected, risk = [], []
    for fold in cv_folds(n, control):
        train = np.setdiff1d(np.arange(n), fold)
        path = B.boost(pairs[train], Z[train], family, control)
        selected.append(path.selected)
        risk.append(holdout_risk_path(path, pairs[fold], Z[fold]))
    total = np.zeros(control.m_stop + 1)
    for r in risk:
        total += r
    return np.array(selected), np.array(risk), int(np.argmin(total))


class TestFusedPath:
    @pytest.mark.parametrize("fam", list(F.FIT_FAMILIES))
    @pytest.mark.parametrize("selectable", [None, (0, 2, 4, 7)])
    def test_boost_matches_reference_loop(self, fam, selectable):
        # negative intercept and slopes make tau change sign across rows;
        # ``selectable`` picks the columns of Z that both loops boost on
        beta = np.array([-0.1, -0.4, 0.3, 0.6, 0.5, -0.4])
        pairs, Z = simulate_pair_data(fam, 300, 21, 0.3, seed=31, beta=beta)
        if selectable is not None:
            Z = Z[:, selectable]
        control = BoostControl(m_stop=150, nu=0.3)
        path = B.boost(pairs, Z, fam, control)
        selected, risk, active = reference_boost(pairs, Z, fam, control)
        np.testing.assert_array_equal(path.selected, selected)
        np.testing.assert_array_equal(path.active_size, active)
        np.testing.assert_allclose(path.risk, risk, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fam", list(F.FIT_FAMILIES))
    def test_holdout_risk_is_summed_log_density(self, fam):
        pairs, Z = simulate_pair_data(fam, 300, 11, 0.3, seed=32)
        train, fold = np.arange(240), np.arange(240, 300)
        path = B.boost(pairs[train], Z[train], fam, BoostControl(m_stop=60, nu=0.3))
        held = holdout_risk_path(path, pairs[fold], Z[fold])
        u1, u2 = pairs[fold, 0], pairs[fold, 1]
        for m in range(path.m_stop + 1):
            Zs = (Z[fold] - path.mu) / path.sigma
            Zs[:, 0] = 1.0
            eta = Zs @ path.beta_std_at(m)
            total = np.sum(F.log_density(fam, u1, u2, F.link_tau(eta)))
            assert held[m] == pytest.approx(-total / len(fold), rel=1e-12)


def sign_changing_data(family, p):
    """The parity-gate data: negative intercept and slopes make tau change sign."""
    beta = np.array([-0.1, -0.4, 0.3, 0.6, 0.5, -0.4])
    return simulate_pair_data(family, 300, p, 0.3, seed=31, beta=beta)


# Each shape once screened and once with the screen opened: every
# selectable column then decides by its exact numerator.  The screen only
# rules columns out, so both give the same paths.
BATCHED_SHAPES = [(21, False), (21, True), (201, False), (201, True)]


def open_screen(monkeypatch, opened):
    if opened:
        monkeypatch.setattr(B._Stack, "screen", lambda stack, Zs32: stack.mask.copy())


class TestFamilyBatched:
    """The candidate families boosted together against one-family reference loops."""

    @pytest.mark.parametrize("p, opened", BATCHED_SHAPES)
    @pytest.mark.parametrize("fam", list(F.FIT_FAMILIES))
    def test_paths_match_reference_loop(self, monkeypatch, fam, p, opened):
        open_screen(monkeypatch, opened)
        pairs, Z = sign_changing_data(fam, p)
        control = BoostControl(m_stop=150, nu=0.3)
        fits = fit_families(pairs, Z, F.FIT_FAMILIES, control)
        for family, fit in fits.items():
            selected, risk, active = reference_boost(pairs, Z, family, control)
            np.testing.assert_array_equal(fit.risk_path.selected, selected)
            np.testing.assert_array_equal(fit.risk_path.active_size, active)
            np.testing.assert_allclose(fit.risk_path.risk, risk, rtol=1e-12, atol=0.0)
            # A column's numerator does not depend on the columns scanned
            # with it, so the refit on the survivors is the reference loop
            # with only those selectable, bit for bit.
            assert fit.m_opt > 0
            refit = replace(control, m_stop=fit.m_opt)
            selected, risk, active = reference_boost(pairs, Z, family, refit, fit.survivors)
            np.testing.assert_array_equal(fit.refit_path.selected, selected)
            np.testing.assert_array_equal(fit.refit_path.active_size, active)
            np.testing.assert_array_equal(fit.refit_path.risk, risk)
        winner = B.fit_pair(pairs, Z, F.FIT_FAMILIES, control)
        assert winner.selection_scores == {f.value: fit.aic for f, fit in fits.items()}
        np.testing.assert_array_equal(winner.beta, fits[winner.family].beta)


def screened_steps(Zs, grad, mask, nu=0.3):
    """Step 1 of a :class:`B._Stack` whose rows have the gradients ``grad``
    on the design ``Zs``, screened with one GEMM, with one GEMM whose
    columns the rows find through ``spots``, and with one GEMV per row:
    (selected, increments, eta) of each."""
    rows, n = grad.shape
    colsq = np.einsum("ij,ij->j", Zs, Zs)
    colsq = np.where(colsq < B._DEGENERATE_TOL, 1.0, colsq)
    scan = tuple(np.tile(a, (rows, 1)) for a in (np.arange(Zs.shape[1]), mask, colsq))
    Zs32 = Zs.astype(np.float32)
    zero = np.zeros(rows, dtype=np.int64)
    out = []
    for spots, blocks32 in ((None, None), (scan[0], None), (None, [Zs32] * rows)):
        stack = B._Stack([CopulaFamily.GAUSSIAN], [[None]], zero, zero, np.arange(rows), zero + 1, zero, scan,
                         spots, blocks32, n)
        stack.grad = grad
        stack.step(1, nu, Zs, Zs32)
        out.append((stack.selected[0], stack.increments[0], stack.eta))
    return out


def assert_exact_choice(Zs, grad, mask, nu=0.3):
    """Each row of both screens picks the first best column of its exact
    numerators over all columns, with that numerator's step, bit for bit."""
    numer = np.add.reduce(np.ascontiguousarray(Zs.T) * grad[:, None, :], axis=2)
    colsq = np.einsum("ij,ij->j", Zs, Zs)
    colsq = np.where(colsq < B._DEGENERATE_TOL, 1.0, colsq)
    best = np.where(mask, numer * numer / colsq, -np.inf).argmax(axis=1)
    step = nu * numer[np.arange(len(grad)), best] / colsq[best]
    eta = np.zeros(grad.shape) + step[:, None] * Zs[:, best].T
    for selected, increments, moved in screened_steps(Zs, grad, mask, nu):
        np.testing.assert_array_equal(selected, best)
        np.testing.assert_array_equal(increments.view(np.uint64), step.view(np.uint64))
        np.testing.assert_array_equal(moved.view(np.uint64), eta.view(np.uint64))
    return best


def ulp_apart_columns(rng, n, p1):
    """A design whose columns 4 and 9 differ in one entry, and a gradient
    along them under which their scores are one ulp apart."""
    while True:
        Zs = rng.standard_normal((n, p1))
        Zs[:, 9] = Zs[:, 4]
        Zs[rng.integers(n), 9] += rng.uniform(-1e-12, 1e-12)
        g = Zs[:, 4] + 0.1 * rng.standard_normal(n)
        numer = np.add.reduce(np.ascontiguousarray(Zs[:, [4, 9]].T) * g, axis=1)
        a, b = numer * numer / np.einsum("ij,ij->j", Zs[:, [4, 9]], Zs[:, [4, 9]])
        if np.nextafter(min(a, b), np.inf) == max(a, b):
            return Zs, g


class TestOneStack:
    """The rows of every family in one stack: the screened exact choice and
    the joined kernels give each row the path it has alone."""

    @pytest.mark.parametrize("n, p1, rows", [(500, 12, 20), (450, 102, 5), (1000, 502, 5), (301, 21, 7)])
    def test_screened_choice_is_exact_argmax(self, n, p1, rows):
        rng = np.random.default_rng(n + p1)
        Zs = rng.standard_normal((n, p1))
        assert_exact_choice(Zs, rng.standard_normal((rows, n)), np.ones(p1, dtype=bool))

    def test_screened_choice_on_planted_inputs(self):
        rng = np.random.default_rng(7)
        n, p1 = 200, 30
        # two columns with equal exact scores, a column and its negation
        Zs = rng.standard_normal((n, p1))
        Zs[:, 12], Zs[:, 17] = Zs[:, 5], -Zs[:, 5]
        grad = np.stack([Zs[:, 5] + 0.1 * rng.standard_normal(n), -Zs[:, 5]])
        assert list(assert_exact_choice(Zs, grad, np.ones(p1, dtype=bool))) == [5, 5]
        # scores one ulp apart, either of the two the better one
        picks = set()
        for _ in range(2):
            Zs, g = ulp_apart_columns(rng, n, p1)
            picks.add(int(assert_exact_choice(Zs, g[None], np.ones(p1, dtype=bool))[0]))
            Zs[:, [4, 9]] = Zs[:, [9, 4]]
            picks.add(int(assert_exact_choice(Zs, g[None], np.ones(p1, dtype=bool))[0]))
        assert picks == {4, 9}
        # a gradient orthogonal to every column: each float32 numerator is
        # rounding noise, so no column can be ruled out
        Zs = rng.standard_normal((n, p1))
        noise = rng.standard_normal(n)
        noise -= Zs @ np.linalg.lstsq(Zs, noise, rcond=None)[0]
        assert_exact_choice(Zs, noise[None], np.ones(p1, dtype=bool))
        # an all-zero gradient, with the first column masked, and gradients
        # whose entries or rows span 1e-30 to 1e30
        Zs = rng.standard_normal((n, p1))
        mask = np.ones(p1, dtype=bool)
        mask[0] = False
        spans = rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n)
        grad = np.stack([np.zeros(n), spans, 1e-30 * rng.standard_normal(n), 1e30 * rng.standard_normal(n)])
        assert assert_exact_choice(Zs, grad, mask)[0] == 1
        # gradients so small or so large that the scores underflow to 0 or
        # overflow to inf: the tied scores pick the first selectable column
        grad = np.stack([1e-180 * rng.standard_normal(n), 1e170 * rng.standard_normal(n)])
        with np.errstate(over="ignore"):
            assert list(assert_exact_choice(Zs, grad, mask)) == [1, 1]
        # degenerate and masked columns, the gradient along a masked one
        Zs[:, 3] = 0.0
        mask = np.ones(p1, dtype=bool)
        mask[[3, 8]] = False
        grad = np.stack([Zs[:, 8], Zs[:, 8] + Zs[:, 11], rng.standard_normal(n)])
        best = assert_exact_choice(Zs, grad, mask)
        assert 8 not in best and 3 not in best and best[1] == 11

    def test_screened_numerator_is_exact(self):
        # On a design of +-1 entries with N a power of two, |z_j|^2 = N
        # exactly, so at nu = 1 the step N e_j / N gives back the numerator
        # without rounding.
        rng = np.random.default_rng(11)
        n, p1 = 512, 40
        Zs = rng.choice([-1.0, 1.0], (n, p1))
        grad = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-30, 30, (6, 1))
        best = assert_exact_choice(Zs, grad, np.ones(p1, dtype=bool), nu=1.0)
        numer = np.add.reduce(np.ascontiguousarray(Zs[:, best].T) * grad, axis=1)
        for _, increments, _ in screened_steps(Zs, grad, np.ones(p1, dtype=bool), nu=1.0):
            np.testing.assert_array_equal((increments * n).view(np.uint64), numer.view(np.uint64))

    def test_wide_stack_rows_fit_as_alone(self):
        # the seed-2 pair-wide data set of the Gumbel I truth: N = 1000,
        # p = 501 and five families, where a stacked scan with one float64
        # GEMM moved every main path from its alone fit in the last bits
        rng = np.random.default_rng(np.random.SeedSequence(2).spawn(5)[3])
        Z = gen_covariates(1000, 501, 0.2, rng)
        tau = F.link_tau(true_eta(Z))
        w1, w2 = rng.random(1000), rng.random(1000)
        pairs = np.column_stack([w1, F.hinv(CopulaFamily.GUMBEL_I, "2|1", w2, w1, tau)])
        control = BoostControl()
        fits = fit_families(pairs, Z, F.FIT_FAMILIES, control)
        for family, fit in fits.items():
            alone = fit_families(pairs, Z, [family], control)[family]
            for path, alone_path in ((fit.risk_path, alone.risk_path), (fit.refit_path, alone.refit_path)):
                assert (path is None) == (alone_path is None)
                for name in ("selected", "increments", "risk", "active_size"):
                    if path is not None:
                        np.testing.assert_array_equal(getattr(path, name), getattr(alone_path, name))

    def test_same_base_families_apart_fit_as_alone(self):
        # Gumbel I and II are joined across the Gaussian rows between them
        fams = [CopulaFamily.GUMBEL_II, CopulaFamily.GAUSSIAN, CopulaFamily.GUMBEL_I]
        pairs, Z = sign_changing_data(CopulaFamily.GUMBEL_I, 21)
        control = BoostControl(m_stop=150, nu=0.3)
        fits = fit_families(pairs, Z, fams, control)
        assert list(fits) == fams
        for family, fit in fits.items():
            alone = B.fit_family(pairs, Z, family, control)
            for path, alone_path in ((fit.risk_path, alone.risk_path), (fit.refit_path, alone.refit_path)):
                for name in ("selected", "increments", "risk", "active_size"):
                    np.testing.assert_array_equal(getattr(path, name), getattr(alone_path, name))
            for name in ("m_opt", "survivors", "kept", "aic"):
                assert getattr(fit, name) == getattr(alone, name)
            np.testing.assert_array_equal(fit.beta, alone.beta)


def fail_from(families, at, folds=None):
    """``fails`` of a :class:`LabelledPrepare`: the rows of ``families`` raise
    from their evaluation ``at`` on; with ``folds``, only rows at those
    positions, which only the K-row kernels of CV have."""

    def fails(label, k, gradient):
        family, row = label
        if family in families and k >= at and (folds is None or row in folds):
            where = "" if folds is None else f" on folds [{row}]"
            return EvaluationError(f"{family.value} kernel failed at iteration {at}{where}")

    return fails


def assert_once_per_iteration(counts, family, fit):
    """The row of ``family`` in ``counts`` was evaluated once at each
    iteration of each path of ``fit``: m + 1 times for m iterations."""
    paths = [path for path in (fit.risk_path, fit.refit_path) if path is not None]
    assert counts[family, 0] == sum(path.m_stop + 1 for path in paths)


def assert_fit_as_alone(fit, alone):
    np.testing.assert_array_equal(fit.risk_path.selected, alone.risk_path.selected)
    np.testing.assert_allclose(fit.risk_path.risk, alone.risk_path.risk, rtol=1e-12, atol=0.0)
    # same survivors and m_opt give the same refit, bit for bit
    assert (fit.m_opt, fit.survivors, fit.kept) == (alone.m_opt, alone.survivors, alone.kept)
    np.testing.assert_array_equal(fit.beta, alone.beta)
    assert fit.aic == alone.aic


class TestCandidateFailure:
    """A row whose kernel raises inside the batched loop leaves alone, with
    the error it raises alone; the other rows keep their paths."""

    @pytest.mark.parametrize("p, opened", BATCHED_SHAPES)
    def test_other_families_fit_as_alone(self, monkeypatch, p, opened):
        pairs, Z = sign_changing_data(CopulaFamily.GAUSSIAN, p)
        control = BoostControl(m_stop=100)
        bad = CopulaFamily.CLAYTON_I
        solo = {f: B.fit_family(pairs, Z, f, control) for f in F.FIT_FAMILIES if f != bad}
        open_screen(monkeypatch, opened)
        prepare = LabelledPrepare(F.prepare, fail_from({bad}, at=17))
        monkeypatch.setattr(B, "prepare", prepare)
        fits = fit_families(pairs, Z, F.FIT_FAMILIES, control)
        assert isinstance(fits[bad], EvaluationError)
        counts = {label: n for made in prepare.made for label, n in made.items()}
        # the failing row was evaluated at iterations 0 to 16 only, and
        # every other row once per iteration of its main path and refit
        assert counts[bad, 0] == 17
        for family, alone in solo.items():
            assert_once_per_iteration(counts, family, fits[family])
            assert_fit_as_alone(fits[family], alone)
        winner = B.fit_pair(pairs, Z, F.FIT_FAMILIES, control)
        assert set(winner.selection_scores) == {f.value for f in solo}
        with pytest.raises(EvaluationError, match="claytonI kernel failed at iteration 17"):
            B.fit_family(pairs, Z, bad, control)

    def test_every_family_failing_is_one_fit_error(self, monkeypatch):
        pairs, Z = sign_changing_data(CopulaFamily.GAUSSIAN, 21)
        monkeypatch.setattr(B, "prepare", LabelledPrepare(F.prepare, fail_from(set(F.FIT_FAMILIES), at=17)))
        with pytest.raises(FitError) as info:
            B.fit_pair(pairs, Z, F.FIT_FAMILIES, BoostControl(m_stop=100, nu=0.3))
        assert info.value.diagnostics == {
            f: repr(EvaluationError(f"{f.value} kernel failed at iteration 17")) for f in F.FIT_FAMILIES
        }

    def test_ending_row_failing_only_on_its_gradient_keeps_its_path(self, monkeypatch):
        pairs, Z = sign_changing_data(CopulaFamily.CLAYTON_I, 21)
        control = BoostControl(m_stop=100)
        fams = [CopulaFamily.CLAYTON_I, CopulaFamily.CLAYTON_II]
        solo = {f: B.fit_family(pairs, Z, f, control) for f in fams}
        # the refit of the first to stop ends while the other goes on, so
        # the kernel call of their base asks for its gradient too
        short, long = sorted(fams, key=lambda f: solo[f].m_opt)
        assert 0 < solo[short].m_opt < solo[long].m_opt
        last = control.m_stop + 1 + solo[short].m_opt

        def fails(label, k, gradient):
            if label == (short, 0) and k == last and gradient:
                return EvaluationError("gradient failed")

        prepare = LabelledPrepare(F.prepare, fails)
        monkeypatch.setattr(B, "prepare", prepare)
        fits = fit_families(pairs, Z, fams, control)
        assert [str(e) for e in prepare.raised] == ["gradient failed"]
        counts = {label: n for made in prepare.made for label, n in made.items()}
        for family in fams:
            assert_once_per_iteration(counts, family, fits[family])
            assert_fit_as_alone(fits[family], solo[family])
            np.testing.assert_array_equal(fits[family].refit_path.risk, solo[family].refit_path.risk)

    def test_failing_cv_fold_fails_its_family_alone(self, monkeypatch):
        pairs, Z = sign_changing_data(CopulaFamily.GAUSSIAN, 21)
        control = BoostControl(m_stop=60, nu=0.3, stopping="cv", cv_folds=5, seed=4)
        bad = CopulaFamily.CLAYTON_I
        solo = {f: B.fit_family(pairs, Z, f, control) for f in F.FIT_FAMILIES if f != bad}
        # the folds 2 and 4 of the CV stop fail alone; the first is reported
        monkeypatch.setattr(B, "prepare", LabelledPrepare(F.prepare, fail_from({bad}, at=17, folds={2, 4})))
        with pytest.raises(EvaluationError, match=r"^claytonI kernel failed at iteration 17 on folds \[2\]$"):
            B.fit_family(pairs, Z, bad, control)
        prepare = LabelledPrepare(F.prepare, fail_from({bad}, at=17, folds={2, 4}))
        monkeypatch.setattr(B, "prepare", prepare)
        fits = fit_families(pairs, Z, F.FIT_FAMILIES, control)
        assert isinstance(fits[bad], EvaluationError)
        # one kernel for the main paths of each family, then one for the
        # folds of each family's CV stop
        main, folds = prepare.made[: len(F.FIT_FAMILIES)], prepare.made[len(F.FIT_FAMILIES):]
        assert [list(c) for c in main] == [[(f, 0)] for f in F.FIT_FAMILIES]
        assert [list(c) for c in folds] == [[(f, k) for k in range(5)] for f in F.FIT_FAMILIES]
        assert main[F.FIT_FAMILIES.index(bad)][bad, 0] == control.m_stop + 1
        fold_counts = folds[F.FIT_FAMILIES.index(bad)]
        assert [fold_counts[bad, k] for k in range(5)] == [61, 61, 17, 61, 17]
        for family, alone in solo.items():
            fit = fits[family]
            assert_once_per_iteration(main[F.FIT_FAMILIES.index(family)], family, fit)
            assert set(folds[F.FIT_FAMILIES.index(family)].values()) == {control.m_stop + 1}
            np.testing.assert_array_equal(fit.risk_path.risk, alone.risk_path.risk)
            assert_fit_as_alone(fit, alone)
        winner = B.fit_pair(pairs, Z, F.FIT_FAMILIES, control)
        assert set(winner.selection_scores) == {f.value for f in solo}

    def test_every_family_failing_a_cv_fold_is_one_fit_error(self, monkeypatch):
        pairs, Z = sign_changing_data(CopulaFamily.GAUSSIAN, 21)
        control = BoostControl(m_stop=60, nu=0.3, stopping="cv", cv_folds=5, seed=4)
        prepare = LabelledPrepare(F.prepare, fail_from(set(F.FIT_FAMILIES), at=17, folds={2, 4}))
        monkeypatch.setattr(B, "prepare", prepare)
        with pytest.raises(FitError) as info:
            B.fit_pair(pairs, Z, F.FIT_FAMILIES, control)
        assert info.value.diagnostics == {
            f: repr(EvaluationError(f"{f.value} kernel failed at iteration 17 on folds [2]")) for f in F.FIT_FAMILIES
        }


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@hst.composite
def drawn_stacks(draw):
    """A stack for :func:`B._boost_paths`: 1-5 families with 1-4 rows each,
    N of 40-200, 3-30 columns (the last one constant, maybe), m_stop of 1-40
    per row, survivor columns per row of a shared design or else a fold
    design, and the iteration from which some (family, row) kernels fail."""
    families = draw(hst.lists(hst.sampled_from(F.FIT_FAMILIES), min_size=1, max_size=5, unique=True))
    rows = {family: draw(hst.integers(1, 4)) for family in families}
    n, p1 = draw(hst.integers(40, 200)), draw(hst.integers(3, 30))
    m_stop = {family: draw(hst.lists(hst.integers(1, 40), min_size=k, max_size=k)) for family, k in rows.items()}
    cols = None
    if draw(hst.booleans()):
        survivors = hst.lists(hst.integers(0, p1 - 1), min_size=1, max_size=5, unique=True).map(sorted).map(np.array)
        cols = {family: [draw(survivors) for _ in range(k)] for family, k in rows.items()}
    fails = draw(hst.dictionaries(hst.tuples(hst.sampled_from(families), hst.integers(0, 3)), hst.integers(0, 40),
                                  max_size=3))
    return SimpleNamespace(families=families, rows=rows, n=n, p1=p1, m_stop=m_stop, cols=cols, fails=fails,
                           constant=draw(hst.booleans()), seed=draw(hst.integers(0, 2**32 - 1)))


def fold_design(Z, k, rng):
    """A K-fold design as :func:`B._cv_paths` builds it: fold i's rows in
    the order "training rows, then held-out rows", standardized by its
    training rows."""
    n = len(Z)
    folds = np.array_split(rng.permutation(n), k)
    designs = [B._design(Z[np.r_[np.setdiff1d(np.arange(n), f), f]], n - len(f)) for f in folds]
    return B._Design(*(np.array([getattr(d, name) for d in designs]) for name in B._Design.__dataclass_fields__))


class TestStackProperty:
    """Every row of a drawn stack against that row boosted alone."""

    @given(stack=drawn_stacks())
    @PROPERTY
    def test_rows_fit_as_alone(self, stack):
        rng = np.random.default_rng(stack.seed)
        Z = np.column_stack([np.ones(stack.n), rng.standard_normal((stack.n, stack.p1 - 1))])
        if stack.constant:
            Z[:, -1] = 0.5
        if stack.cols is None:
            design = fold_design(Z, max(2, *stack.rows.values()), rng)
        else:
            design = B._design(Z)
        data = {family: rng.random((2, k, stack.n)) for family, k in stack.rows.items()}

        def fails(label, k, gradient):
            if label in stack.fails and k >= stack.fails[label]:
                return EvaluationError(f"{label[0].value} row {label[1]} failed at {stack.fails[label]}")

        prepare = LabelledPrepare(F.prepare, fails)
        out = B._boost_paths({family: prepare(family, *data[family]) for family in stack.families}, design, 0.3,
                             stack.m_stop, stack.cols)
        counts = {label: count for made in prepare.made for label, count in made.items()}
        for family, k in stack.rows.items():
            for r in range(k):
                kernel = LabelledPrepare(F.prepare, fails)(family, *data[family]).take([r])
                cols = None if stack.cols is None else {family: [stack.cols[family][r]]}
                (alone,) = B._boost_paths({family: kernel}, design.row(r), 0.3, {family: [stack.m_stop[family][r]]},
                                          cols)[family]
                path, m = out[family][r], stack.m_stop[family][r]
                if isinstance(alone, Exception):
                    assert (type(path), str(path)) == (type(alone), str(alone))
                else:
                    for name in ("selected", "increments", "risk", "active_size"):
                        np.testing.assert_array_equal(getattr(path, name), getattr(alone, name))
                # once per iteration, up to the one that fails
                unselectable = isinstance(alone, ConfigurationError)
                at = min(stack.fails.get((family, r), m + 1), m + 1)
                assert counts.get((family, r), 0) == (0 if unselectable else at)
                assert isinstance(alone, EvaluationError) == (at <= m and not unselectable)


def assert_cv_matches_reference(pairs, Z, family, control):
    selected, risk = B._cv_paths(pairs, Z, family, control)
    ref_selected, ref_risk, ref_m_opt = reference_cv(pairs, Z, family, control)
    np.testing.assert_array_equal(selected, ref_selected)
    np.testing.assert_allclose(risk, ref_risk, rtol=1e-12, atol=0.0)
    assert B.stop_cv(pairs, Z, family, control) == ref_m_opt


class TestFoldBatchedCV:
    """The fold-batched CV loop against per-fold ``boost`` plus a held-out replay."""

    @pytest.mark.parametrize("fam", list(F.FIT_FAMILIES))
    @pytest.mark.parametrize("intercept", [True, False])
    def test_matches_per_fold_reference(self, fam, intercept):
        # negative intercept and slopes make tau change sign across rows
        beta = np.array([-0.1, -0.4, 0.3, 0.6, 0.5, -0.4])
        pairs, Z = simulate_pair_data(fam, 300, 21, 0.3, seed=34, beta=beta)
        if not intercept:
            Z = Z[:, 1:]
        control = BoostControl(m_stop=150, nu=0.3, cv_folds=5, seed=4)
        assert_cv_matches_reference(pairs, Z, fam, control)

    def test_uneven_folds(self):
        pairs, Z = simulate_pair_data(CopulaFamily.CLAYTON_II, 204, 11, 0.3, seed=35)
        control = BoostControl(m_stop=100, nu=0.3, cv_folds=7, seed=5)
        assert len({len(f) for f in cv_folds(204, control)}) == 2
        assert_cv_matches_reference(pairs, Z, CopulaFamily.CLAYTON_II, control)

    def test_two_folds(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GUMBEL_I, 200, 11, 0.3, seed=36)
        control = BoostControl(m_stop=100, nu=0.3, cv_folds=2, seed=6)
        assert_cv_matches_reference(pairs, Z, CopulaFamily.GUMBEL_I, control)

    def test_covariate_degenerate_in_one_fold_only(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 250, 11, 0.3, seed=37)
        control = BoostControl(m_stop=100, nu=0.3, cv_folds=5, seed=7)
        # column 4 varies only on the rows fold 2 holds out
        held = cv_folds(250, control)[2]
        Z[:, 4] = 0.5
        Z[held, 4] = np.linspace(-1.0, 1.0, len(held))
        assert_cv_matches_reference(pairs, Z, CopulaFamily.GAUSSIAN, control)
        selected, _ = B._cv_paths(pairs, Z, CopulaFamily.GAUSSIAN, control)
        assert not np.any(selected[2] == 4)
        assert np.any(selected == 4)

    def test_fold_with_every_column_degenerate(self):
        pairs, _ = simulate_pair_data(CopulaFamily.GAUSSIAN, 100, 6, 0.3, seed=38)
        control = BoostControl(m_stop=20, cv_folds=5, seed=8)
        # one covariate and no intercept: constant on fold 3's training rows
        Z = np.full((100, 1), 2.0)
        held = cv_folds(100, control)[3]
        Z[held, 0] = np.linspace(-1.0, 1.0, len(held))
        with pytest.raises(ConfigurationError, match="no selectable covariates"):
            B.stop_cv(pairs, Z, CopulaFamily.GAUSSIAN, control)
        with pytest.raises(ConfigurationError, match="no selectable covariates"):
            reference_cv(pairs, Z, CopulaFamily.GAUSSIAN, control)


class TestNonFiniteInput:
    def data(self):
        return simulate_pair_data(CopulaFamily.GAUSSIAN, 200, 6, 0.2, seed=33)

    def test_nan_pair_is_one_interface_error(self):
        pairs, Z = self.data()
        pairs[17, 1] = np.nan
        with pytest.raises(InterfaceError, match="pairs row 17, column 1"):
            B.fit_pair(pairs, Z, F.FIT_FAMILIES, BoostControl(m_stop=20))

    def test_nan_in_predictive_risk_holdout(self):
        pairs, Z = self.data()
        pairs[190, 0] = np.nan
        with pytest.raises(InterfaceError, match="pairs row 190, column 0"):
            B.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN], BoostControl(m_stop=20),
                       criterion="predictive_risk")

    def test_inf_covariate(self):
        pairs, Z = self.data()
        Z[5, 3] = np.inf
        with pytest.raises(InterfaceError, match="Z row 5, column 3"):
            B.boost(pairs, Z, CopulaFamily.CLAYTON_I, BoostControl(m_stop=20))
        with pytest.raises(InterfaceError, match="Z row 5, column 3"):
            B.stop_cv(pairs, Z, CopulaFamily.CLAYTON_I, BoostControl(m_stop=20, cv_folds=5))

    def test_values_at_zero_and_one_are_clamped(self):
        pairs, Z = self.data()
        pairs[0] = [0.0, 1.0]
        pairs[1] = [1.0, 1.0]
        fit = B.fit_pair(pairs, Z, F.FIT_FAMILIES, BoostControl(m_stop=20))
        assert np.isfinite(fit.loglik)


class TestStopping:
    def test_aic_is_bruteforce_argmin(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 500, 11, 0.2, seed=8)
        path = B.boost(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl(m_stop=150))
        m_opt = B.stop_aic(path)
        aic = 2.0 * 500 * path.risk + 2.0 * path.active_size
        assert m_opt == int(np.argmin(aic))

    def test_constant_risk_stops_at_zero(self):
        path = synthetic_path([1, 2, 3], [1.0, 1.0, 1.0, 1.0])
        assert B.stop_aic(path) == 0

    def test_aic_tie_breaks_to_smallest_m(self):
        # strictly equal AIC at m = 1 and m = 2: same risk drop exactly offset by df
        risks = np.array([1.0, 1.0, 1.0, 1.0])
        path = synthetic_path([1, 1, 1], risks)
        assert B.stop_aic(path) == 0

    def test_cv_identical_folds_degenerates_to_insample(self):
        # a fold identical to the training data reproduces the in-sample path,
        # so the fold-summed criterion has the same argmin
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 400, 6, 0.2, seed=9)
        path = B.boost(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl(m_stop=100))
        held = holdout_risk_path(path, pairs, Z)
        np.testing.assert_allclose(held, path.risk, rtol=1e-12)

    def test_cv_deterministic_under_seed(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 300, 6, 0.2, seed=10)
        control = BoostControl(m_stop=60, stopping="cv", cv_folds=5, seed=11)
        a = B.stop_cv(pairs, Z, CopulaFamily.GAUSSIAN, control)
        b = B.stop_cv(pairs, Z, CopulaFamily.GAUSSIAN, control)
        assert a == b

    def test_cv_small_fold_is_configuration_error(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 40, 6, 0.2, seed=12)
        with pytest.raises(ConfigurationError):
            B.stop_cv(pairs, Z, CopulaFamily.GAUSSIAN, BoostControl(cv_folds=10))

    def test_aic_stops_later_than_cv_on_average(self):
        # statistical tendency over 20 seeds on scaled-down simulation data
        control = BoostControl(m_stop=300, cv_folds=5, seed=0)
        m_aic, m_cv = [], []
        for seed in range(20):
            pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 500, 51, 0.2, seed=100 + seed)
            path = B.boost(pairs, Z, CopulaFamily.GAUSSIAN, control)
            m_aic.append(B.stop_aic(path))
            m_cv.append(B.stop_cv(pairs, Z, CopulaFamily.GAUSSIAN, control))
        assert np.mean(m_aic) > np.mean(m_cv)


class TestDeselect:
    def test_never_selected_is_dropped(self):
        path = synthetic_path([1, 1, 2], [1.0, 0.8, 0.7, 0.65])
        kept = B.deselect(path, gamma=0.0001)
        assert 3 not in kept

    def test_single_covariate_takes_all_credit(self):
        path = synthetic_path([2, 2, 2], [1.0, 0.8, 0.7, 0.65], has_intercept=False)
        kept = B.deselect(path, gamma=0.5)
        assert list(kept) == [2]

    def test_partition_of_total_reduction(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GUMBEL_I, 500, 11, 0.2, seed=13)
        path = B.boost(pairs, Z, CopulaFamily.GUMBEL_I, BoostControl(m_stop=200))
        risks = B.attributable_risk(path)
        assert risks.sum() == pytest.approx(path.risk[0] - path.risk[-1], abs=1e-9)

    def test_nonpositive_reduction_keeps_intercept_only(self):
        path = synthetic_path([1, 2], [1.0, 1.0, 1.0])
        with pytest.warns(UserWarning):
            kept = B.deselect(path, gamma=0.01)
        assert list(kept) == [0]

    def test_threshold_rule_matches_definition(self):
        # R_1 = 0.2 + 0.05, R_2 = 0.01; total = 0.26
        path = synthetic_path([1, 1, 2], [1.0, 0.8, 0.75, 0.74])
        kept = B.deselect(path, gamma=0.05)
        assert 1 in kept and 2 not in kept


class TestFitPair:
    def test_singleton_family_is_identity(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GUMBEL_I, 400, 6, 0.2, seed=14)
        fit = B.fit_pair(pairs, Z, [CopulaFamily.GUMBEL_I], BoostControl(m_stop=100))
        assert fit.family == CopulaFamily.GUMBEL_I

    def test_refit_respects_deselection(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 800, 21, 0.2, seed=15)
        fit = B.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN], BoostControl(m_stop=300))
        deselected = np.setdiff1d(np.arange(Z.shape[1]), fit.survivors)
        assert np.all(fit.beta[deselected] == 0.0)
        # the reported covariate set is the final model's active set
        dropped = np.setdiff1d(np.arange(Z.shape[1]), fit.kept)
        assert np.all(fit.beta[dropped] == 0.0)
        assert set(fit.kept) <= set(fit.survivors)

    def test_aic_recompute_matches_stored(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 600, 11, 0.2, seed=16)
        fit = B.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN], BoostControl(m_stop=200))
        eta = Z @ fit.beta
        loglik = np.sum(F.log_density(CopulaFamily.GAUSSIAN, pairs[:, 0], pairs[:, 1], F.link_tau(eta)))
        df = np.count_nonzero(fit.beta) if not fit.risk_path.has_intercept else None
        # recompute from scratch using the refit path's own bookkeeping
        assert fit.loglik == pytest.approx(loglik, abs=1e-8)
        assert fit.aic == pytest.approx(-2.0 * loglik + 2.0 * fit.refit_path.active_size[fit.m_opt], abs=1e-6)

    def test_gaussian_identified_in_majority_of_runs(self):
        wins = 0
        runs = 6
        for seed in range(runs):
            pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 1000, 11, 0.2, seed=200 + seed)
            fit = B.fit_pair(pairs, Z, F.FIT_FAMILIES, BoostControl(m_stop=200))
            wins += fit.family == CopulaFamily.GAUSSIAN
        assert wins > runs / 2

    def test_predictive_risk_selection_available(self):
        pairs, Z = simulate_pair_data(CopulaFamily.CLAYTON_I, 400, 6, 0.2, seed=17)
        fit = B.fit_pair(
            pairs, Z, [CopulaFamily.CLAYTON_I, CopulaFamily.GAUSSIAN], BoostControl(m_stop=80),
            criterion="predictive_risk",
        )
        assert fit.family in (CopulaFamily.CLAYTON_I, CopulaFamily.GAUSSIAN)
        assert set(fit.selection_scores) == {"claytonI", "gaussian"}

    def test_loglik_selection_available(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 300, 6, 0.2, seed=18)
        fit = B.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN, CopulaFamily.GUMBEL_I],
                         BoostControl(m_stop=60), criterion="loglik")
        assert fit.selection_scores is not None

    @pytest.mark.parametrize("n, criterion, boosted", [(60, "aic", 60), (120, "predictive_risk", 90)])
    def test_too_few_rows_per_cv_fold_is_a_configuration_error(self, n, criterion, boosted):
        # checked once from the rows boosted, not turned into a family failure
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, n, 6, 0.2, seed=21)
        control = BoostControl(m_stop=20, stopping="cv", cv_folds=10)
        message = rf"each CV fold needs at least 10 observations \({boosted} rows, 10 folds\)"
        with pytest.raises(ConfigurationError, match=message):
            B.fit_pair(pairs, Z, F.FIT_FAMILIES, control, criterion=criterion)
        if criterion == "aic":
            with pytest.raises(ConfigurationError, match=message):
                B.fit_family(pairs, Z, CopulaFamily.GAUSSIAN, control)
            with pytest.raises(ConfigurationError, match=message):
                B.stop_cv(pairs, Z, CopulaFamily.GAUSSIAN, control)

    def test_empty_families_rejected(self):
        with pytest.raises(ConfigurationError):
            B.fit_pair(np.full((20, 2), 0.5), np.ones((20, 1)), [], BoostControl())

    def test_family_names_give_family_values(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GUMBEL_I, 300, 6, 0.2, seed=22)
        control = BoostControl(m_stop=40)
        by_name = B.fit_pair(pairs, Z, ["gaussian", "gumbelI"], control)
        by_value = B.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN, CopulaFamily.GUMBEL_I], control)
        assert type(by_name.family) is CopulaFamily and by_name.family == by_value.family
        assert by_name.selection_scores == by_value.selection_scores
        np.testing.assert_array_equal(by_name.beta, by_value.beta)
        fit = B.fit_family(pairs, Z, "claytonII", control)
        assert type(fit.family) is CopulaFamily and fit.risk_path.family is CopulaFamily.CLAYTON_II

    @pytest.mark.parametrize("stopping", ["aic", "cv"])
    @pytest.mark.parametrize("dependent", [True, False])
    def test_fit_family_refit_switch(self, stopping, dependent):
        pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 400, 11, 0.2, seed=19)
        control = BoostControl(m_stop=100, stopping=stopping, cv_folds=5, seed=2)
        if not dependent:
            # independent data, a strict threshold and no intercept column:
            # nothing survives deselection
            pairs = np.random.default_rng(19).random(pairs.shape)
            Z = Z[:, 1:]
            control = replace(control, gamma=0.9)
        plain = B.fit_family(pairs, Z, CopulaFamily.GAUSSIAN, control, refit=False)
        np.testing.assert_array_equal(plain.beta, plain.risk_path.beta_at(plain.m_opt))
        assert plain.survivors is None and plain.refit_path is None
        full = B.fit_family(pairs, Z, CopulaFamily.GAUSSIAN, control)
        assert (full.survivors != ()) == dependent
        assert np.any(full.beta != 0.0) == dependent
        pair = B.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN], control)
        np.testing.assert_array_equal(full.beta, pair.beta)
        assert (full.m_opt, full.kept, full.aic) == (pair.m_opt, pair.kept, pair.aic)

    def test_full_determinism(self):
        pairs, Z = simulate_pair_data(CopulaFamily.GUMBEL_II, 400, 11, 0.2, seed=20)
        control = BoostControl(m_stop=100, stopping="cv", cv_folds=5, seed=3)
        a = B.fit_pair(pairs, Z, [CopulaFamily.GUMBEL_II], control)
        b = B.fit_pair(pairs, Z, [CopulaFamily.GUMBEL_II], control)
        assert a.m_opt == b.m_opt and a.aic == b.aic
        np.testing.assert_array_equal(a.beta, b.beta)


class TestPredictTau:
    def test_zero_coefficients(self):
        model = FittedPairCopula.from_coefficients(CopulaFamily.GAUSSIAN, np.zeros(4))
        Z = np.random.default_rng(0).standard_normal((10, 4))
        assert np.all(B.predict_tau(model, Z) == 0.0)

    def test_intercept_only(self):
        model = FittedPairCopula.from_coefficients(CopulaFamily.GAUSSIAN, np.array([0.1, 0.0, 0.0]))
        Z = np.column_stack([np.ones(5), np.zeros((5, 2))])
        np.testing.assert_allclose(B.predict_tau(model, Z), np.tanh(0.1), rtol=1e-12)
        assert np.tanh(0.1) == pytest.approx(0.0996679946, abs=1e-9)

    def test_true_predictor_at_unit_intercept_row(self):
        beta = np.concatenate([TRUE_BETA6, np.zeros(4)])
        model = FittedPairCopula.from_coefficients(CopulaFamily.GAUSSIAN, beta)
        z = np.zeros((1, 10))
        z[0, 0] = 1.0
        assert B.predict_tau(model, z)[0] == pytest.approx(np.tanh(0.1), abs=1e-12)

    def test_dimension_mismatch(self):
        model = FittedPairCopula.from_coefficients(CopulaFamily.GAUSSIAN, np.zeros(4))
        with pytest.raises(InterfaceError):
            B.predict_tau(model, np.zeros((3, 5)))


class TestTendency:
    def test_cv_coefficients_farther_from_truth_than_aic(self):
        # median distance to the true coefficients, tendency over 20 seeds
        dev_aic, dev_cv = [], []
        for seed in range(20):
            pairs, Z = simulate_pair_data(CopulaFamily.GAUSSIAN, 500, 31, 0.2, seed=300 + seed)
            fa = B.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN], BoostControl(m_stop=300))
            fc = B.fit_pair(
                pairs, Z, [CopulaFamily.GAUSSIAN],
                BoostControl(m_stop=300, stopping="cv", cv_folds=5, seed=seed),
            )
            dev_aic.append(np.abs(fa.beta[:6] - TRUE_BETA6))
            dev_cv.append(np.abs(fc.beta[:6] - TRUE_BETA6))
        assert np.median(dev_cv) >= np.median(dev_aic)
