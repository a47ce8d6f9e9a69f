import pickle
import re
import warnings

import numpy as np
import pytest

from vineboost import simulation
from vineboost.boosting import BoostControl
from vineboost.errors import ConfigurationError
from vineboost.simulation import (
    INFORMATIVE,
    TRUE_BETA,
    ScenarioConfig,
    _bicop_rep,
    _rep_seeds,
    _vine_rep,
    benchmark_rvine_structure,
    gen_covariates,
    mae_tau,
    run_bicop_scenario,
    run_scenario,
    run_vine_scenario,
    true_eta,
)
from vineboost.vine import validate_structure


def quick_control(m_stop=120):
    return BoostControl(m_stop=m_stop)


class TestCovariates:
    def test_toeplitz_neighbour_correlation(self):
        Z = gen_covariates(100_000, 8, 0.2, seed=0)
        assert np.corrcoef(Z[:, 1], Z[:, 2])[0, 1] == pytest.approx(0.2, abs=0.02)

    def test_toeplitz_lag_two_correlation(self):
        Z = gen_covariates(100_000, 8, 0.2, seed=1)
        assert np.corrcoef(Z[:, 1], Z[:, 3])[0, 1] == pytest.approx(0.04, abs=0.02)

    def test_standard_normal_margins(self):
        Z = gen_covariates(100_000, 6, 0.8, seed=2)
        assert np.allclose(Z[:, 1:].mean(axis=0), 0.0, atol=0.02)
        assert np.allclose(Z[:, 1:].std(axis=0), 1.0, atol=0.03)

    def test_intercept_column(self):
        Z = gen_covariates(50, 7, 0.5, seed=3)
        assert np.all(Z[:, 0] == 1.0)
        assert Z.shape == (50, 7)


class TestTrueEta:
    def test_intercept_only_row(self):
        z = np.zeros((1, 10))
        z[0, 0] = 1.0
        assert true_eta(z)[0] == pytest.approx(0.1, abs=1e-15)

    def test_all_ones_row(self):
        z = np.zeros((1, 10))
        z[0, :6] = 1.0
        assert true_eta(z)[0] == pytest.approx(0.5, abs=1e-12)  # 0.1-0.2+0.3+0.2+0.5-0.4

    def test_zero_covariates(self):
        Z = np.column_stack([np.ones(4), np.zeros((4, 7))])
        np.testing.assert_allclose(np.tanh(true_eta(Z)), np.tanh(0.1))

    def test_oracle_mae_is_zero(self):
        Z = gen_covariates(500, 10, 0.3, seed=4)
        eta = true_eta(Z)
        assert mae_tau(eta, eta) == 0.0


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(kind="other")
        with pytest.raises(ConfigurationError):
            ScenarioConfig(rho=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(p=3)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(family=None, family_draw=False)
        with pytest.raises(ValueError):
            ScenarioConfig(family="studentt")

    def test_dict_roundtrip(self):
        cfg = ScenarioConfig(kind="vine", N=500, p=11, n_reps=2, family=None, family_draw=True,
                             control=BoostControl(m_stop=50), seed=9)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("obj, message", [
        ([1, 2], "scenario: expected an object, got [1, 2]"),
        ({"bogus": 1}, "scenario: unknown key 'bogus'"),
        ({"control": {"m_stop": 5, "bogus": 1}}, "scenario control: unknown key 'bogus'"),
        ({"rho": "0.2"}, "rho must be a real number, got '0.2'"),
        ({"N": -1}, "N must be >= 1"),
        ({"N": 0}, "N must be >= 1"),
        ({"N": 50, "control": {"stopping": "cv"}}, "each CV fold needs at least 10 observations (50 rows, 10 folds)"),
    ])
    def test_malformed_document(self, obj, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            ScenarioConfig.from_dict(obj)

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"rho": 1.5}')
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}: rho must lie in"):
            ScenarioConfig.from_json(path)


class TestBicopScenario:
    def test_small_gaussian_run(self):
        cfg = ScenarioConfig(N=400, p=11, rho=0.2, n_reps=4, family="gaussian",
                             control=quick_control(), seed=11)
        rep = run_bicop_scenario(cfg)
        assert rep.failures == []
        assert rep.beta_hat.shape == (4, 6)
        # medians land near the data-generating coefficients
        assert np.max(np.abs(rep.median_beta() - TRUE_BETA)) < 0.2

    def test_tp_fp_partition_kept_size(self):
        cfg = ScenarioConfig(N=400, p=11, rho=0.2, n_reps=3, family="claytonI",
                             control=quick_control(), seed=12)
        rep = run_bicop_scenario(cfg)
        np.testing.assert_array_equal(rep.tp + rep.fp, rep.kept_sizes)

    def test_deterministic_under_master_seed(self):
        cfg = ScenarioConfig(N=300, p=8, rho=0.2, n_reps=2, family="gumbelII",
                             control=quick_control(80), seed=13)
        a = run_bicop_scenario(cfg)
        b = run_bicop_scenario(cfg)
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)
        np.testing.assert_array_equal(a.mae, b.mae)
        assert a.selected_family == b.selected_family

    def test_null_model_keeps_intercept_only(self):
        # pure-noise data with CV stopping: the held-out risk never improves,
        # boosting stops at (or next to) zero and the model stays intercept-only
        import vineboost.boosting as bst
        from vineboost.families import CopulaFamily

        control = BoostControl(m_stop=200, stopping="cv", cv_folds=5, seed=0)
        kept = []
        for rep_seed in range(5):
            rng = np.random.default_rng(rep_seed)
            Z = gen_covariates(1000, 51, 0.2, rng)
            pairs = rng.random((1000, 2))
            fit = bst.fit_pair(pairs, Z, [CopulaFamily.GAUSSIAN], control)
            kept.append(fit.kept)
        assert np.median([len(k) for k in kept]) == 1  # median kept set = {intercept}

    def test_specified_mode(self):
        cfg = ScenarioConfig(N=400, p=11, rho=0.2, n_reps=2, family="gaussian",
                             mode="specified", control=quick_control(), seed=15)
        rep = run_bicop_scenario(cfg)
        assert rep.failures == []
        # specified mode fits only the informative block
        assert rep.beta_hat.shape == (2, 6)

    def test_family_draw(self):
        cfg = ScenarioConfig(N=300, p=8, rho=0.2, n_reps=6, family=None, family_draw=True,
                             control=quick_control(60), seed=16)
        rep = run_bicop_scenario(cfg)
        assert len(set(rep.true_family)) > 1

    def test_failed_repetition_records_nan(self, tmp_path, monkeypatch):
        import vineboost.boosting as bst

        fit_pair, calls = bst.fit_pair, []

        def failing_first_two(*args, **kwargs):
            calls.append(None)
            if len(calls) <= 2:
                raise FloatingPointError("forced failure")
            return fit_pair(*args, **kwargs)

        monkeypatch.setattr(bst, "fit_pair", failing_first_two)
        cfg = ScenarioConfig(N=300, p=8, rho=0.2, n_reps=3, family="gaussian",
                             control=quick_control(60), seed=17)
        rep = run_bicop_scenario(cfg)
        assert [r for r, _ in rep.failures] == [0, 1]
        assert np.all(np.isnan(rep.beta_hat[:2])) and np.all(np.isnan(rep.mae[:2]))
        assert np.all(np.isfinite(rep.beta_hat[2])) and np.isfinite(rep.mae[2])
        np.testing.assert_array_equal(rep.median_beta(), rep.beta_hat[2])
        rep.write_csv(tmp_path)
        coefficients = (tmp_path / "coefficients.csv").read_text().splitlines()
        assert coefficients[1] == "0," + ",".join(["nan"] * 6)
        assert (tmp_path / "mae.csv").read_text().splitlines()[1:3] == ["0,nan", "1,nan"]

    def test_failed_repetition_is_not_a_zero_selection(self, tmp_path, monkeypatch):
        import vineboost.boosting as bst

        fit_pair, calls = bst.fit_pair, []

        def failing_first(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise FloatingPointError("forced failure")
            return fit_pair(*args, **kwargs)

        monkeypatch.setattr(bst, "fit_pair", failing_first)
        cfg = ScenarioConfig(N=300, p=8, rho=0.2, n_reps=2, family="gaussian",
                             control=quick_control(60), seed=17)
        rep = run_bicop_scenario(cfg)
        assert [r for r, _ in rep.failures] == [0]
        counts = (rep.kept_sizes, rep.tp, rep.fp, rep.m_opt)
        assert all(np.isnan(a[0]) and np.isfinite(a[1]) for a in counts)
        # the rate is over the one repetition that ran
        exact = rep.tp[1] == len(INFORMATIVE) and rep.fp[1] == 0
        assert rep.exactly_informative_rate() == float(exact)
        rep.write_csv(tmp_path)
        selection = (tmp_path / "selection.csv").read_text().splitlines()
        assert selection[1] == "0,nan,nan,nan,nan"
        assert selection[2] == "1," + ",".join(str(int(a[1])) for a in counts)

    def test_every_repetition_failing_is_quiet(self, monkeypatch):
        def failing(*args, **kwargs):
            raise FloatingPointError("forced failure")

        monkeypatch.setattr(simulation.bst, "fit_pair", failing)
        cfg = ScenarioConfig(N=100, p=8, rho=0.2, n_reps=2, family="gaussian",
                             control=quick_control(20), seed=18)
        rep = run_bicop_scenario(cfg)
        assert [r for r, _ in rep.failures] == [0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isnan(rep.median_beta())) and rep.median_beta().shape == (6,)
            assert np.isnan(rep.exactly_informative_rate())

    def test_csv_writer(self, tmp_path):
        cfg = ScenarioConfig(N=300, p=8, rho=0.2, n_reps=2, family="gaussian",
                             control=quick_control(60), seed=17)
        rep = run_bicop_scenario(cfg)
        rep.write_csv(tmp_path)
        for name in ("coefficients.csv", "selection.csv", "families.csv", "mae.csv"):
            assert (tmp_path / name).exists()


class TestVineScenario:
    def test_structure_and_report_shapes(self):
        cfg = ScenarioConfig(kind="vine", N=400, p=11, rho=0.2, n_reps=2, family=None,
                             family_draw=True, mode="specified", control=quick_control(100), seed=18)
        rep = run_vine_scenario(cfg)
        assert validate_structure(rep.structure) == []
        assert len(rep.rep) == 2 * 10  # 10 edges per repetition
        assert set(rep.tree.tolist()) == {1, 2, 3, 4}
        assert rep.failures == []

    def test_specified_independence_truth_estimates_flat(self):
        # a truth with all couplings at tau ~ 0 keeps estimated paths near zero
        import vineboost.boosting as bst
        from vineboost.families import CopulaFamily
        from vineboost.vine import ConditionalVineModel, fit_vine

        structure = benchmark_rvine_structure()
        n = 1500
        Z = gen_covariates(n, 6, 0.2, seed=19)
        betas = [np.zeros(6)] * 10
        truth = ConditionalVineModel.from_coefficients(structure, [CopulaFamily.GAUSSIAN] * 10, betas)
        U = truth.sample(Z, seed=20)
        edge_fams = [[CopulaFamily.GAUSSIAN] * len(t) for t in structure.trees]
        fitted = fit_vine(U, Z, structure, None, control=quick_control(100),
                          edge_families=edge_fams, deselect=False)
        for fits in fitted.models:
            for f in fits:
                # spurious coefficients stay at noise scale (true signals are ~0.3)
                assert np.mean(np.abs(np.tanh(Z @ f.beta))) < 0.1

    def test_mae_trend_and_family_recovery_keys(self):
        cfg = ScenarioConfig(kind="vine", N=500, p=11, rho=0.2, n_reps=3, family=None,
                             family_draw=True, mode="selected", control=quick_control(100), seed=21)
        rep = run_vine_scenario(cfg)
        med = rep.median_mae_by_tree()
        assert sorted(med) == [1, 2, 3, 4]
        rec = rep.family_recovery_by_tree()
        assert all(0.0 <= v <= 1.0 for v in rec.values())

    def test_csv_writer(self, tmp_path):
        cfg = ScenarioConfig(kind="vine", N=300, p=8, rho=0.2, n_reps=1, family="gaussian",
                             mode="specified", control=quick_control(60), seed=22)
        rep = run_vine_scenario(cfg)
        rep.write_csv(tmp_path)
        assert (tmp_path / "edges.csv").exists()

    def test_dispatch(self):
        cfg = ScenarioConfig(N=300, p=8, rho=0.2, n_reps=1, family="gaussian",
                             control=quick_control(50), seed=23)
        assert run_scenario(cfg).beta_hat.shape == (1, 6)

    def test_failed_repetition_has_no_rows(self, tmp_path, monkeypatch):
        fit_vine, calls = simulation.fit_vine, []

        def failing_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise FloatingPointError("forced failure")
            return fit_vine(*args, **kwargs)

        monkeypatch.setattr(simulation, "fit_vine", failing_second)
        cfg = ScenarioConfig(kind="vine", N=300, p=8, rho=0.2, n_reps=3, family="gaussian",
                             mode="specified", control=quick_control(40), seed=24)
        rep = run_vine_scenario(cfg)
        assert rep.failures == [(1, "FloatingPointError('forced failure')")]
        np.testing.assert_array_equal(rep.rep, np.repeat([0, 2], 10))
        assert rep.beta_hat.shape == (20, 6) and len(rep.true_family) == len(rep.selected_family) == 20
        rep.write_csv(tmp_path)
        lines = (tmp_path / "edges.csv").read_text().splitlines()
        assert len(lines) == 1 + 20
        assert sorted({line.split(",")[0] for line in lines[1:]}) == ["0", "2"]

    def test_every_repetition_failing_leaves_empty_columns(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise FloatingPointError("forced failure")

        monkeypatch.setattr(simulation, "fit_vine", failing)
        cfg = ScenarioConfig(kind="vine", N=200, p=8, rho=0.2, n_reps=2, family="gaussian",
                             control=quick_control(40), seed=25)
        rep = run_vine_scenario(cfg)
        assert [r for r, _ in rep.failures] == [0, 1]
        assert rep.beta_hat.shape == (0, 6) and rep.beta_hat.dtype == float
        for column in (rep.rep, rep.tree, rep.tp, rep.fp, rep.kept_sizes):
            assert column.shape == (0,) and column.dtype == int
        assert rep.mae.shape == (0,) and rep.edge_label == rep.true_family == rep.selected_family == []
        rep.write_csv(tmp_path)
        assert (tmp_path / "edges.csv").read_text().splitlines() == [
            "rep,tree,edge,true_family,selected_family,kept,tp,fp,mae_tau," + ",".join(f"beta{j}" for j in range(6))
        ]


class TestRepetitionFunctions:
    """One repetition is a module-level function of the configuration and its
    spawned seed, so a process pool can run it: the r-th seed reproduces
    repetition r of the full run, and the function and its outcome pickle."""

    def test_bicop_rep_reproduces_its_repetition(self):
        cfg = ScenarioConfig(N=300, p=8, rho=0.2, n_reps=3, family=None, family_draw=True,
                             control=quick_control(60), seed=29)
        report = run_bicop_scenario(cfg)
        seed = _rep_seeds(cfg.seed, cfg.n_reps)[2]
        assert pickle.loads(pickle.dumps(_bicop_rep)) is _bicop_rep
        outcome = _bicop_rep(*pickle.loads(pickle.dumps((cfg, seed))))
        # the outcome is the report row alone, not the covariates or the fit
        assert len(pickle.dumps(outcome)) < cfg.N * 8
        [(beta, kept, tp, fp, mae, m_opt, true_family, selected_family)], error = pickle.loads(pickle.dumps(outcome))
        assert error is None
        np.testing.assert_array_equal(beta, report.beta_hat[2])
        assert [kept, tp, fp, mae, m_opt] == [report.kept_sizes[2], report.tp[2], report.fp[2],
                                              report.mae[2], report.m_opt[2]]
        assert (true_family, selected_family) == (report.true_family[2], report.selected_family[2])

    def test_vine_rep_reproduces_its_repetition(self):
        cfg = ScenarioConfig(kind="vine", N=300, p=8, rho=0.2, n_reps=2, family=None, family_draw=True,
                             mode="specified", control=quick_control(40), seed=27)
        report = run_vine_scenario(cfg)
        seed = _rep_seeds(cfg.seed, cfg.n_reps)[1]
        assert pickle.loads(pickle.dumps(_vine_rep)) is _vine_rep
        outcome = _vine_rep(*pickle.loads(pickle.dumps((cfg, seed))))
        assert len(pickle.dumps(outcome)) < cfg.N * 8
        rows, error = pickle.loads(pickle.dumps(outcome))
        assert error is None
        tree, label, true_family, selected_family, kept, tp, fp, mae, beta = zip(*rows)
        ran = report.rep == 1
        np.testing.assert_array_equal(tree, report.tree[ran])
        assert list(label) == [v for v, r in zip(report.edge_label, ran) if r]
        assert list(true_family) == [v for v, r in zip(report.true_family, ran) if r]
        assert list(selected_family) == [v for v, r in zip(report.selected_family, ran) if r]
        for column, expected in ((kept, report.kept_sizes), (tp, report.tp), (fp, report.fp), (mae, report.mae)):
            np.testing.assert_array_equal(column, expected[ran])
        np.testing.assert_array_equal(beta, report.beta_hat[ran])

    @pytest.mark.parametrize("kind", ["bicop", "vine"])
    def test_failed_outcome_is_its_row_and_message(self, kind, monkeypatch):
        import vineboost.boosting as bst

        def failing(*args, **kwargs):
            raise FloatingPointError("forced failure")

        monkeypatch.setattr(bst, "fit_pair", failing)
        monkeypatch.setattr(simulation, "fit_vine", failing)
        cfg = ScenarioConfig(kind=kind, N=100, p=8, rho=0.2, n_reps=1, family="gaussian",
                             control=quick_control(20), seed=28)
        rep_fn = _bicop_rep if kind == "bicop" else _vine_rep
        rows, error = pickle.loads(pickle.dumps(rep_fn(cfg, _rep_seeds(cfg.seed, 1)[0])))
        # the message alone is kept, not the exception and the frames its traceback holds
        assert error == "FloatingPointError('forced failure')"
        if kind == "vine":
            assert rows == []
        else:
            [(beta, *counts, true_family, selected_family)] = rows
            assert np.isnan(beta).all() and beta.shape == (6,) and np.isnan(counts).all()
            assert (true_family, selected_family) == ("gaussian", "failed")
