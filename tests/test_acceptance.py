"""End-to-end acceptance gate.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or in the
captured output).  Criteria needing simulated replications derive all
repetition seeds from one master seed, so every run is deterministic.

The rank-histogram reliability bound of criterion 10 is implemented exactly
as stated (m=50, 2000 cases, reliability index < 0.1) although that
configuration is statistically infeasible for a calibrated forecast: the
index is a sum of 51 absolute multinomial deviations whose expected value
at 2000 cases is 0.126 (sd 0.0135), so the bound holds with probability
~2%.  The check is kept faithful and is expected to fail; a supplementary
diagnostic at 6000 cases (noise floor 0.073) is printed alongside.
"""

import csv
import json
import time

import numpy as np
import pytest
from scipy.stats import kendalltau, kstest, qmc

from vineboost import boosting as bst
from vineboost import families as fam
from vineboost import scoring as sco
from vineboost.boosting import BoostControl
from vineboost.cli import main as cli_main
from vineboost.families import CopulaFamily, FIT_FAMILIES, hinv, link_tau, sample_pair
from vineboost.simulation import (
    TRUE_BETA,
    ScenarioConfig,
    benchmark_rvine_structure,
    gen_covariates,
    run_bicop_scenario,
    run_vine_scenario,
    true_eta,
)
from vineboost.vine import ConditionalVineModel, dvine_structure

MASTER_SEED = 20260809


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_link_transform_exactness():
    start = time.perf_counter()
    grid = np.linspace(-0.999, 0.999, 1999)
    worst = 0.0
    for family in FIT_FAMILIES:
        back = fam.theta_to_tau(family, fam.tau_to_theta(family, grid))
        worst = max(worst, float(np.max(np.abs(back - grid))))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"tau<->theta roundtrip max err {worst:.2e} on 1999-point grid, {elapsed:.2f}s")


def test_criterion_02_density_normalization():
    start = time.perf_counter()
    g = (np.arange(400) + 0.5) / 400
    U1, U2 = np.meshgrid(g, g, indexing="ij")
    u1, u2 = U1.ravel(), U2.ravel()
    worst = 0.0
    for family in FIT_FAMILIES:
        for tau in (-0.7, -0.3, 0.3, 0.7):
            integral = float(np.exp(fam.log_density(family, u1, u2, tau)).mean())
            worst = max(worst, abs(integral - 1.0))
    elapsed = time.perf_counter() - start
    report(2, worst <= 0.01 and elapsed < 30.0,
           f"400x400 midpoint integrals within {worst:.4f} of 1 for all 20 cases, {elapsed:.1f}s")


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    step = 1e-6
    worst = 0.0
    for family in FIT_FAMILIES:
        u1 = rng.uniform(0.02, 0.98, 500)
        u2 = rng.uniform(0.02, 0.98, 500)
        eta = rng.uniform(0.05, 2.0, 500) * rng.choice([-1.0, 1.0], 500)
        grad = fam.loss_gradient(family, u1, u2, eta)
        nll_hi = -fam.log_density(family, u1, u2, link_tau(eta + step))
        nll_lo = -fam.log_density(family, u1, u2, link_tau(eta - step))
        fd = -(nll_hi - nll_lo) / (2.0 * step)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.abs(fd))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-5 and elapsed < 10.0,
           f"max relative error vs central differences {worst:.2e} (500 draws x 5 families), {elapsed:.1f}s")


def test_criterion_04_sampler_consistency():
    start = time.perf_counter()
    worst_tau, worst_ks = 0.0, 0.0
    for family in FIT_FAMILIES:
        for tau in (-0.7, -0.3, 0.3, 0.7):
            U = sample_pair(family, tau, 100_000, seed=MASTER_SEED)
            t_emp = kendalltau(U[:, 0], U[:, 1]).statistic
            worst_tau = max(worst_tau, abs(t_emp - tau))
            for j in (0, 1):
                worst_ks = max(worst_ks, kstest(U[:, j], "uniform").statistic)
    elapsed = time.perf_counter() - start
    report(4, worst_tau < 0.01 and worst_ks < 0.01 and elapsed < 120.0,
           f"empirical tau within {worst_tau:.4f}, margin KS <= {worst_ks:.4f} "
           f"(1e5 draws, 5 families x 4 taus), {elapsed:.0f}s")


def test_criterion_05_low_dimensional_median_replication():
    start = time.perf_counter()
    config = ScenarioConfig(
        kind="bicop", N=1000, p=101, rho=0.2, n_reps=20, family="gaussian",
        control=BoostControl(), seed=MASTER_SEED,
    )
    rep = run_bicop_scenario(config)
    med = rep.median_beta()
    dev = np.max(np.abs(med - TRUE_BETA))
    elapsed = time.perf_counter() - start
    report(5, rep.failures == [] and dev < 0.05 and elapsed < 900.0,
           f"median coefficients {np.round(med, 3).tolist()} within {dev:.3f} "
           f"of truth over 20 reps, {elapsed:.0f}s")


def test_criterion_06_covariate_selection():
    start = time.perf_counter()
    config = ScenarioConfig(
        kind="bicop", N=2000, p=501, rho=0.2, n_reps=20, family="gaussian",
        control=BoostControl(), seed=MASTER_SEED + 1,
    )
    rep = run_bicop_scenario(config)
    rate = rep.exactly_informative_rate()
    max_kept = int(np.nanmax(rep.kept_sizes))  # a failed repetition's count is NaN
    elapsed = time.perf_counter() - start
    report(6, rep.failures == [] and rate >= 0.5 and max_kept <= 15,
           f"exactly-6-informative rate {rate:.2f} (need >= 0.5), max kept {max_kept} "
           f"(cap 15), {elapsed:.0f}s")


def test_criterion_07_family_selection():
    start = time.perf_counter()
    rates = {}
    for i, family in enumerate((CopulaFamily.GAUSSIAN, CopulaFamily.CLAYTON_I, CopulaFamily.CLAYTON_II)):
        wins = 0
        for seed in np.random.SeedSequence(MASTER_SEED + 2 + i).spawn(20):
            rng = np.random.default_rng(seed)
            Z = gen_covariates(2000, 101, 0.2, rng)
            tau = link_tau(true_eta(Z))
            w1, w2 = rng.random(2000), rng.random(2000)
            pairs = np.column_stack([w1, hinv(family, "2|1", w2, w1, tau)])
            fit = bst.fit_pair(pairs, Z, FIT_FAMILIES, BoostControl())
            wins += fit.family == family
        rates[family.value] = wins / 20.0
    elapsed = time.perf_counter() - start
    report(7, all(rate >= 0.6 for rate in rates.values()),
           f"AIC identification rates {rates} (need >= 0.6 each), {elapsed:.0f}s")


def test_criterion_08_vine_tree_level_trend():
    start = time.perf_counter()
    config = ScenarioConfig(
        kind="vine", N=2000, p=101, rho=0.2, n_reps=20, family=None, family_draw=True,
        mode="specified", control=BoostControl(), seed=MASTER_SEED + 5,
    )
    rep = run_vine_scenario(config)
    med = rep.median_mae_by_tree()
    mae_path = [med[t] for t in (1, 2, 3, 4)]
    monotone = all(a <= b + 1e-12 for a, b in zip(mae_path, mae_path[1:]))
    bias = rep.coefficient_bias_by_tree()
    low = 0.5 * (bias[1] + bias[2])
    high = 0.5 * (bias[3] + bias[4])
    elapsed = time.perf_counter() - start
    report(8, rep.failures == [] and monotone and low <= 0.5 * high,
           f"median MAE by tree {[round(v, 4) for v in mae_path]} non-decreasing; "
           f"tree-1/2 bias {low:.4f} <= half of tree-3/4 bias {high:.4f}, {elapsed:.0f}s")


def test_criterion_09_vine_self_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 6)
    structure = benchmark_rvine_structure()
    families = [CopulaFamily(v) for v in rng.choice([f.value for f in FIT_FAMILIES], 10)]
    betas = [np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)]) for _ in range(10)]
    model = ConditionalVineModel.from_coefficients(structure, families, betas)
    Z = np.column_stack([np.ones(100), rng.standard_normal(100)])
    W = rng.random((100, 5))
    U = model.inverse_rosenblatt(W, Z)
    roundtrip = float(np.max(np.abs(model.rosenblatt(U, Z) - W)))

    st3 = dvine_structure(range(3))
    fams3 = [CopulaFamily.CLAYTON_II, CopulaFamily.GAUSSIAN, CopulaFamily.GUMBEL_I]
    betas3 = [np.array([0.3, 0.4]), np.array([-0.2, 0.5]), np.array([0.1, -0.3])]
    model3 = ConditionalVineModel.from_coefficients(st3, fams3, betas3)
    pts = qmc.Sobol(d=3, scramble=True, seed=MASTER_SEED).random_base2(20)
    Z3 = np.tile([1.0, 0.7], (len(pts), 1))
    integral = float(np.exp(model3.log_density(pts, Z3)).mean())
    elapsed = time.perf_counter() - start
    report(9, roundtrip < 1e-6 and abs(integral - 1.0) <= 0.02,
           f"inverse-Rosenblatt roundtrip {roundtrip:.2e} (100 points); "
           f"3-dim Monte-Carlo normalization {integral:.4f} with 2^20 quasi-random points, {elapsed:.0f}s")


def test_criterion_10_scoring_oracles():
    start = time.perf_counter()
    es_hand = sco.energy_score(np.array([[0.0], [2.0]]), np.array([1.0]))
    vs_hand = sco.variogram_score(np.array([[0.0, 0.0]]), np.array([0.0, 1.0]), order=1.0)

    rng = np.random.default_rng(MASTER_SEED + 7)
    x = rng.standard_normal((10_000, 3))
    y = rng.standard_normal(3)
    es_pair = sco.energy_score(x, y, "pairwise")
    es_mc = sco.energy_score(x, y, "consecutive")
    form_gap = abs(es_pair - es_mc) / es_pair

    pvals = []
    for seed in np.random.SeedSequence(MASTER_SEED + 8).spawn(200):
        d = np.random.default_rng(seed).standard_normal(1000)
        pvals.append(sco.dm_test(d, np.zeros(1000)).p_value)
    dm_ks = kstest(pvals, "uniform").statistic
    elapsed = time.perf_counter() - start
    report("10a", es_hand == 0.5 and vs_hand == 2.0 and form_gap < 0.02 and dm_ks < 0.1,
           f"hand ES=0.5/VS=2.0 exact; ES pairwise-vs-consecutive gap {form_gap:.4f}; "
           f"DM null-calibration KS {dm_ks:.3f} over 200 seeds, {elapsed:.0f}s")


def test_criterion_10_rank_histogram_reliability():
    # Faithful to the stated configuration (m=50, 2000 cases, Delta < 0.1);
    # see the module docstring: the bound sits below the multinomial noise
    # floor of a calibrated forecast, so this check is expected to fail.
    rng = np.random.default_rng(MASTER_SEED + 9)
    forecasts = [rng.standard_normal((50, 2)) for _ in range(2000)]
    observations = [rng.standard_normal(2) for _ in range(2000)]
    delta = sco.reliability_index(sco.mv_rank_histogram(forecasts, observations, seed=MASTER_SEED))

    forecasts6 = [rng.standard_normal((50, 2)) for _ in range(6000)]
    observations6 = [rng.standard_normal(2) for _ in range(6000)]
    delta6 = sco.reliability_index(sco.mv_rank_histogram(forecasts6, observations6, seed=MASTER_SEED))
    print(f"[INFO] supplementary diagnostic: Delta = {delta6:.4f} < 0.1 at 6000 cases "
          f"(machinery calibrated; the 2000-case bound is below the noise floor 0.126 +- 0.0135)")
    report("10b", delta < 0.1,
           f"calibrated rank histogram Delta = {delta:.4f} at m=50, 2000 cases (stated bound 0.1)")


@pytest.fixture
def cli_workdir(tmp_path):
    rng = np.random.default_rng(MASTER_SEED + 10)
    n = 300
    z1 = rng.standard_normal(n)
    tau = np.tanh(0.3 + 0.5 * z1)
    U = sample_pair(CopulaFamily.GAUSSIAN, tau, n, seed=MASTER_SEED)
    with open(tmp_path / "u.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u1", "u2"])
        w.writerows([[repr(float(a)), repr(float(b))] for a, b in U])
    with open(tmp_path / "z.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["z1"])
        w.writerows([[repr(float(v))] for v in z1])
    rows = []
    for t in range(12):
        for method in ("m1", "m2"):
            for k in range(5):
                vec = rng.standard_normal(2) + (0.2 if method == "m2" else 0.0)
                rows.append([t, method, k, repr(float(vec[0])), repr(float(vec[1]))])
    with open(tmp_path / "fc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "method", "member", "y1", "y2"])
        w.writerows(rows)
    with open(tmp_path / "obs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "y1", "y2"])
        w.writerows([[t, repr(float(rng.standard_normal())), repr(float(rng.standard_normal()))]
                     for t in range(12)])
    (tmp_path / "scenario.json").write_text(json.dumps(
        {"kind": "bicop", "N": 300, "p": 8, "rho": 0.2, "n_reps": 1, "family": "gaussian",
         "control": {"m_stop": 60}, "seed": 5}
    ))
    return tmp_path


def test_criterion_11_cli_determinism(cli_workdir):
    start = time.perf_counter()
    wd = cli_workdir

    def run_twice(args, outputs):
        # identical invocation twice, byte-comparing all outputs in between
        paths = {key: wd / name for key, name in outputs.items()}
        argv = [str(a) for a in args] + [f"--{key.replace('_', '-')}={paths[key]}" for key in paths]
        assert cli_main(argv) == 0
        first = tuple(paths[key].read_bytes() for key in sorted(paths))
        assert cli_main(argv) == 0
        second = tuple(paths[key].read_bytes() for key in sorted(paths))
        return first == second

    ok_fit = run_twice(
        ["fit", "--data", wd / "u.csv", "--covariates", wd / "z.csv", "--m-stop", 60,
         "--families", "gaussian", "--seed", 3],
        {"out_model": "model.json", "out_report": "report.csv", "manifest": "fit.manifest.json"},
    )
    ok_sample = run_twice(
        ["sample", "--model", wd / "model.json", "--covariates", wd / "z.csv",
         "--per-row", 3, "--seed", 11],
        {"out": "samples.csv", "manifest": "sample.manifest.json"},
    )
    ok_score = run_twice(
        ["score", "--forecasts", wd / "fc.csv", "--observations", wd / "obs.csv"],
        {"out_scores": "scores.csv", "out_dm": "dm.csv", "manifest": "score.manifest.json"},
    )
    sim_args = ["simulate", "--scenario", str(wd / "scenario.json"),
                "--out-dir", str(wd / "sim"), "--manifest", str(wd / "sim" / "m.json")]
    sim_blobs = []
    for _ in range(2):
        assert cli_main(sim_args) == 0
        sim_blobs.append(tuple(sorted((p.name, p.read_bytes()) for p in (wd / "sim").glob("*"))))
    ok_sim = sim_blobs[0] == sim_blobs[1]
    elapsed = time.perf_counter() - start
    report(11, ok_fit and ok_sample and ok_score and ok_sim,
           f"fit/sample/score/simulate each byte-identical across re-runs, {elapsed:.0f}s")
