import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chi2, kstest

from vineboost import scoring as S
from vineboost.errors import ConfigurationError, InterfaceError


class TestEnergyScore:
    def test_perfect_deterministic_forecast(self):
        assert S.energy_score(np.array([[1.0, 2.0]]), np.array([1.0, 2.0])) == 0.0

    def test_hand_example_d1(self):
        # (1/2)(1+1) - (1/8)(0+2+2+0) = 0.5
        members = np.array([[0.0], [2.0]])
        assert S.energy_score(members, np.array([1.0])) == pytest.approx(0.5, abs=1e-12)

    def test_pairwise_vs_consecutive_forms(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10_000, 3))
        y = rng.standard_normal(3)
        p = S.energy_score(x, y, "pairwise")
        c = S.energy_score(x, y, "consecutive")
        assert abs(p - c) / p < 0.02

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 4))
        y = rng.standard_normal(4)
        perm = rng.permutation(40)
        assert S.energy_score(x, y) == pytest.approx(S.energy_score(x[perm], y), rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 3))
        y = rng.standard_normal(3)
        shift = np.array([5.0, -2.0, 0.5])
        assert S.energy_score(x + shift, y + shift) == pytest.approx(S.energy_score(x, y), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InterfaceError):
            S.energy_score(np.zeros((5, 3)), np.zeros(2))


@pytest.mark.parametrize(
    "score",
    [
        lambda f, y: S.energy_score(f, y),
        lambda f, y: S.energy_score(f, y, "consecutive"),
        lambda f, y: S.variogram_score(f, y),
        lambda f, y: S.mv_rank_histogram([f], [y], seed=0),
    ],
    ids=["energy", "energy-consecutive", "variogram", "rank-histogram"],
)
def test_empty_ensemble_rejected(score):
    with pytest.raises(InterfaceError, match="at least one ensemble member"):
        score(np.zeros((0, 3)), np.zeros(3))


def _energy_score_norm(forecast, obs, method="pairwise"):
    """Reference: the energy score through np.linalg.norm on difference cubes."""
    x = np.asarray(forecast, dtype=float)
    y = np.asarray(obs, dtype=float)
    m = x.shape[0]
    accuracy = np.mean(np.linalg.norm(x - y, axis=1))
    if method == "pairwise":
        total = 0.0
        for start in range(0, m, 64):
            part = x[start : start + 64]
            total += np.sum(np.linalg.norm(part[:, None, :] - x[None, :, :], axis=2))
        spread = total / (2.0 * m * m)
    else:
        spread = np.sum(np.linalg.norm(x[:-1] - x[1:], axis=1)) / (2.0 * (m - 1))
    return accuracy - spread


class TestEnergyScoreParity:
    """The column-accumulated energy score against the norm-of-differences form."""

    @pytest.mark.parametrize(
        "m, method",
        [(m, "pairwise") for m in (1, 2, 50, 3000)] + [(m, "consecutive") for m in (2, 50, 3000)],
    )
    @pytest.mark.parametrize("d", [1, 5, 9])
    def test_matches_norm_form(self, m, method, d):
        rng = np.random.default_rng(100 * m + d)
        x = rng.standard_normal((m, d))
        y = rng.standard_normal(d)
        expected = _energy_score_norm(x, y, method)
        assert S.energy_score(x, y, method) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestVariogramScore:
    def test_perfect_match(self):
        x = np.tile([1.0, 2.0, 3.0], (7, 1))
        assert S.variogram_score(x, np.array([1.0, 2.0, 3.0])) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_single_dimension(self):
        assert S.variogram_score(np.array([[3.0], [7.0]]), np.array([5.0])) == 0.0

    def test_hand_example(self):
        # both (i,j) orderings contribute (|0-1|^1 - 0)^2 = 1
        val = S.variogram_score(np.array([[0.0, 0.0]]), np.array([0.0, 1.0]), order=1.0)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((25, 3))
        y = rng.standard_normal(3)
        perm = rng.permutation(25)
        assert S.variogram_score(x, y) == pytest.approx(S.variogram_score(x[perm], y), rel=1e-12)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(3)
        assert S.variogram_score(x + 3.5, y + 3.5) == pytest.approx(S.variogram_score(x, y), rel=1e-12)

    def test_weights_validated(self):
        with pytest.raises(InterfaceError):
            S.variogram_score(np.zeros((3, 2)), np.zeros(2), weights=np.array([[1.0, -1.0], [1.0, 1.0]]))
        with pytest.raises(ConfigurationError):
            S.variogram_score(np.zeros((3, 2)), np.zeros(2), order=0.0)

    @pytest.mark.parametrize("order", [np.nan, np.inf, -np.inf])
    def test_order_must_be_finite_and_positive(self, order):
        with pytest.raises(ConfigurationError, match="order must be finite and positive"):
            S.variogram_score(np.zeros((3, 2)), np.zeros(2), order=order)


class TestDMTest:
    def test_identical_series_degenerate(self):
        a = np.random.default_rng(5).standard_normal(200)
        res = S.dm_test(a, a)
        assert res.degenerate and res.p_value == 1.0 and np.isnan(res.statistic)

    def test_null_calibration(self):
        ps = []
        for seed in range(200):
            d = np.random.default_rng(2000 + seed).standard_normal(1000)
            ps.append(S.dm_test(d, np.zeros(1000)).p_value)
        assert kstest(ps, "uniform").statistic < 0.1

    def test_obvious_alternative(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal(500)
        res = S.dm_test(base + 1.0 + 1e-3 * rng.standard_normal(500), base)
        assert res.p_value < 0.001

    def test_antisymmetric(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(300)
        b = a + rng.standard_normal(300)
        assert S.dm_test(a, b).statistic == pytest.approx(-S.dm_test(b, a).statistic, rel=1e-12)

    def test_p_value_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a, b = rng.standard_normal((2, 50))
            assert 0.0 <= S.dm_test(a, b).p_value <= 1.0

    def test_lag_rule(self):
        a = np.random.default_rng(9).standard_normal(100)
        assert S.dm_test(a, np.zeros(100)).lag == 4  # floor(4 * 1^(2/9))

    def test_short_series_rejected(self):
        with pytest.raises(ConfigurationError):
            S.dm_test(np.zeros(5), np.ones(5))


class TestECC:
    def test_rank_pattern_example(self):
        raw = np.array([[2.0], [1.0], [3.0]])
        samples = np.array([[10.0], [30.0], [20.0]])
        out = S.ecc_reorder(samples, raw, seed=0)
        np.testing.assert_array_equal(out.ravel(), [20.0, 10.0, 30.0])

    def test_rank_correlation_one_without_ties(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(10)
        raw = rng.standard_normal((40, 3))
        samples = rng.standard_normal((40, 3))
        out = S.ecc_reorder(samples, raw, seed=1)
        for j in range(3):
            assert spearmanr(out[:, j], raw[:, j]).statistic == pytest.approx(1.0)

    def test_margins_are_permutations_of_sorted_sample(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((30, 2))
        samples = rng.standard_normal((30, 2))
        out = S.ecc_reorder(samples, raw, seed=2)
        for j in range(2):
            np.testing.assert_array_equal(np.sort(out[:, j]), np.sort(samples[:, j]))

    def test_tie_resolution_is_seeded(self):
        raw = np.zeros((10, 1))
        samples = np.arange(10, dtype=float)[:, None]
        a = S.ecc_reorder(samples, raw, seed=3)
        b = S.ecc_reorder(samples, raw, seed=3)
        np.testing.assert_array_equal(a, b)


class TestGCA:
    def test_perfectly_correlated_latent(self):
        lat = np.random.default_rng(12).standard_normal(2000)
        corr = S.gca_fit(np.column_stack([lat, lat]))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_sample_recovers_correlation(self):
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        u = S.gca_sample(corr, 100_000, seed=13)
        z = ndtri(u)
        assert np.corrcoef(z, rowvar=False)[0, 1] == pytest.approx(0.6, abs=0.02)

    def test_singular_degenerate_matrix_not_distorted(self):
        # rank-deficient but PSD records pass through and stay samplable
        corr = np.array([[1.0, 1.0], [1.0, 1.0]])
        u = S.gca_sample(corr, 1000, seed=21)
        np.testing.assert_allclose(u[:, 0], u[:, 1], atol=1e-12)

    def test_indefinite_matrix_repair(self):
        indefinite = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        repaired = S.nearest_pd_correlation(indefinite)
        assert np.linalg.eigvalsh(repaired)[0] > 0
        np.testing.assert_allclose(np.diag(repaired), 1.0, atol=1e-12)

    def test_composite_with_gaussian_margins_is_multivariate_normal(self):
        # Mardia skewness: m*b1/6 ~ chi2 with d(d+1)(d+2)/6 dof under normality
        corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        x = ndtri(S.gca_sample(corr, 100_000, seed=14))
        x = x - x.mean(axis=0)
        cov = np.cov(x, rowvar=False)
        vals, vecs = np.linalg.eigh(cov)
        y = x @ (vecs / np.sqrt(vals)) @ vecs.T
        third = np.einsum("ip,iq,ir->pqr", y, y, y) / len(y)
        b1 = float(np.sum(third**2))
        stat = len(y) * b1 / 6.0
        dof = 3 * 4 * 5 // 6
        assert chi2.sf(stat, dof) > 0.01


class TestRankHistogram:
    def test_dominating_observation(self):
        fc = [np.zeros((3, 2)) for _ in range(10)]
        obs = [np.ones(2) for _ in range(10)]
        counts = S.mv_rank_histogram(fc, obs, seed=0)
        np.testing.assert_array_equal(counts, [0, 0, 0, 10])

    def test_uniform_histogram_has_zero_delta(self):
        assert S.reliability_index(np.full(51, 10)) == 0.0

    def test_calibrated_forecast_near_noise_floor(self):
        # multinomial noise floor at 2000 cases / 51 bins: E[Delta] = 0.126,
        # sd = 0.0135 (the Delta < 0.1 event has probability ~2%)
        rng = np.random.default_rng(15)
        fcs = [rng.standard_normal((50, 2)) for _ in range(2000)]
        obss = [rng.standard_normal(2) for _ in range(2000)]
        delta = S.reliability_index(S.mv_rank_histogram(fcs, obss, seed=1))
        assert 0.126 - 4 * 0.0135 < delta < 0.126 + 4 * 0.0135

    def test_calibrated_forecast_small_delta_at_6000_cases(self):
        rng = np.random.default_rng(16)
        fcs = [rng.standard_normal((50, 2)) for _ in range(6000)]
        obss = [rng.standard_normal(2) for _ in range(6000)]
        delta = S.reliability_index(S.mv_rank_histogram(fcs, obss, seed=2))
        assert delta < 0.1

    def test_seeded_tie_resolution(self):
        rng = np.random.default_rng(17)
        fcs = [rng.standard_normal((10, 2)) for _ in range(50)]
        obss = [rng.standard_normal(2) for _ in range(50)]
        a = S.mv_rank_histogram(fcs, obss, seed=3)
        b = S.mv_rank_histogram(fcs, obss, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_shape_validation(self):
        cases = [
            ([np.zeros((5, 2))], [np.zeros(2), np.zeros(2)], "one observation per"),
            ([1.0], [1.0], "array of ensemble members"),
            ([np.zeros((5, 2, 1))], [np.zeros(2)], "array of ensemble members"),
            ([np.zeros((5, 2))], [np.zeros(3)], "length-2 vector"),
            ([np.zeros((5, 2)), np.zeros((4, 2))], [np.zeros(2)] * 2, "share the ensemble size"),
            ([np.zeros((5, 2)), np.zeros((5, 3))], [np.zeros(2), np.zeros(3)], "share the dimension"),
            # a bad case after a full block of good ones is still rejected
            ([np.zeros((5, 2))] * 300 + [np.full((5, 2), np.nan)], [np.zeros(2)] * 301, "finite"),
        ]
        for forecasts, observations, message in cases:
            with pytest.raises(InterfaceError, match=message):
                S.mv_rank_histogram(forecasts, observations, seed=0)

    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "hist.csv"
        S.rank_histogram_to_csv(np.array([3, 0, 7]), path)
        assert path.read_text() == "rank,count\n1,3\n2,0\n3,7\n"


def _rank_histogram_loop(forecasts, observations, seed):
    """Reference: pre-ranks and the tie-break draw one case at a time."""
    rng = np.random.default_rng(seed)
    m = np.asarray(forecasts[0]).shape[0]
    counts = np.zeros(m + 1, dtype=np.int64)
    for members, obs in zip(forecasts, observations):
        pool = np.vstack([np.asarray(obs, dtype=float)[None, :], np.asarray(members, dtype=float)])
        rho = np.all(pool[:, None, :] <= pool[None, :, :], axis=2).sum(axis=0)
        below = int(np.sum(rho < rho[0]))
        ties = int(np.sum(rho[1:] == rho[0]))
        counts[below + int(rng.integers(ties + 1))] += 1
    return counts


class TestRankHistogramParity:
    """Block-vectorized pre-ranks against the per-case loop, count for count."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("decimals", [None, 1], ids=["continuous", "heavy-ties"])
    @pytest.mark.parametrize("shape", [(600, 20, 3), (300, 50, 5), (40, 7, 1), (30, 4, 0)])
    def test_matches_per_case_loop(self, seed, decimals, shape):
        rng = np.random.default_rng(seed)
        cases, m, d = shape
        fcs = rng.standard_normal(shape)
        obss = rng.standard_normal((cases, d))
        if decimals is not None:
            fcs, obss = np.round(fcs, decimals), np.round(obss, decimals)
        expected = _rank_histogram_loop(fcs, obss, seed)
        np.testing.assert_array_equal(S.mv_rank_histogram(fcs, obss, seed), expected)
        # lists of per-case arrays take the same path as one stacked array
        np.testing.assert_array_equal(S.mv_rank_histogram(list(fcs), list(obss), seed), expected)
