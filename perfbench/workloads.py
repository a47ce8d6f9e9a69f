"""The benchmark's workloads: seeded set-up, one operation, output checks.

Each workload is a class whose constructor is the set-up: it makes every
input from the workload seed through ``vineboost.simulation`` and keeps
only generated arrays (or writes generated files).  ``run(k)`` is operation
k of a closed loop; inputs repeat with period ``cycle``.  ``check(k, out)``
returns a list of problems (empty when the output is correct) from
invariants that hold on any seed; ``summary(k, out)`` is the part compared
with the reference outputs recorded on the default seed.

Operations call vineboost through module attributes and class methods, so
the tracer's swapped names are the ones used.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from vineboost import boosting as bst
from vineboost import cli
from vineboost import scoring as sco
from vineboost import simulation as sim
from vineboost import vine
from vineboost.boosting import BoostControl
from vineboost.families import FIT_FAMILIES, U_EPS, hinv, link_tau, log_density

RHO = 0.2

#: Relative tolerance of loglik against the summed log density.
LOGLIK_RTOL = 1e-8
#: Rosenblatt round-trip bound (acceptance criterion 9).
ROUNDTRIP_ATOL = 1e-6


def _pair_inputs(seed, n, p):
    """One (pairs, Z, family) per fit family, each from its own spawned seed."""
    inputs = []
    for family, child in zip(FIT_FAMILIES, np.random.SeedSequence(seed).spawn(len(FIT_FAMILIES))):
        rng = np.random.default_rng(child)
        Z = sim.gen_covariates(n, p, RHO, rng)
        tau = link_tau(sim.true_eta(Z))
        w1, w2 = rng.random(n), rng.random(n)
        inputs.append((np.column_stack([w1, hinv(family, "2|1", w2, w1, tau)]), Z, family))
    return inputs


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _fit_problems(fit, pairs, Z, where):
    """Invariants of one fitted pair copula (from ``fit_pair``)."""
    problems = []
    if not np.all(np.isfinite(fit.beta)):
        problems.append(f"{where}: non-finite beta")
    if fit.survivors is None or not set(fit.kept) <= set(fit.survivors):
        problems.append(f"{where}: kept {fit.kept} not within survivors {fit.survivors}")
    if not set(np.flatnonzero(fit.beta)) <= set(fit.kept):
        problems.append(f"{where}: kept {fit.kept} misses a nonzero coefficient")
    df = int(fit.refit_path.active_size[fit.m_opt]) if fit.refit_path is not None else 0
    if not _rel_close(fit.aic, -2.0 * fit.loglik + 2.0 * df, 1e-12):
        problems.append(f"{where}: aic {fit.aic!r} != -2 loglik + 2 df ({df})")
    tau = bst.predict_tau(fit, Z)
    ll = float(np.sum(log_density(fit.family, pairs[:, 0], pairs[:, 1], tau)))
    if not _rel_close(ll, fit.loglik, LOGLIK_RTOL):
        problems.append(f"{where}: loglik {fit.loglik!r} != summed log density {ll!r}")
    return problems


def _fit_summary(fit):
    """Family, m_opt, kept and the coefficients at the kept indices (the checks
    require zeros elsewhere)."""
    return {
        "family": fit.family.value,
        "m_opt": int(fit.m_opt),
        "kept": [int(j) for j in fit.kept],
        "beta": [float(fit.beta[j]) for j in fit.kept],
        "loglik": float(fit.loglik),
    }


class PairWide:
    """``fit_pair`` over the five candidate families, AIC stopping, p = 501."""

    name = "pair-wide"
    N, P = 1000, 501
    cycle = len(FIT_FAMILIES)

    def __init__(self, seed, workdir):
        self.inputs = _pair_inputs(seed, self.N, self.P)

    def params(self):
        return {"N": self.N, "p": self.P}

    def run(self, k):
        pairs, Z, _ = self.inputs[k % self.cycle]
        return bst.fit_pair(pairs, Z, FIT_FAMILIES, BoostControl())

    def check(self, k, fit):
        pairs, Z, family = self.inputs[k % self.cycle]
        return _fit_problems(fit, pairs, Z, f"op {k} ({family.value} truth)")

    def summary(self, k, fit):
        return _fit_summary(fit)


class PairCV(PairWide):
    """``fit_pair`` on the true family with 10-fold CV stopping, p = 101."""

    name = "pair-cv"
    N, P = 500, 101
    FOLDS = 10

    def params(self):
        return {"N": self.N, "p": self.P, "cv_folds": self.FOLDS}

    def run(self, k):
        pairs, Z, family = self.inputs[k % self.cycle]
        return bst.fit_pair(pairs, Z, [family], BoostControl(stopping="cv", cv_folds=self.FOLDS))


def _write_csv(path, header, rows):
    np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="", fmt="%.17g")


class VineCli:
    """``vineboost fit`` run in-process on the 5-d benchmark vine."""

    name = "vine-cli"
    N, P = 500, 11
    M_STOP = 100
    # Three data sets: the refit length (sum of m_opt over 50 candidate
    # fits) varies by about 7% between data sets; cycling three per run
    # keeps that variation from dominating the run-to-run spread.
    cycle = 3

    def __init__(self, seed, workdir):
        structure = sim.benchmark_rvine_structure()
        n_edges = sum(len(tree) for tree in structure.trees)
        families = [FIT_FAMILIES[i % len(FIT_FAMILIES)] for i in range(n_edges)]
        beta = np.concatenate([sim.TRUE_BETA, np.zeros(self.P - len(sim.TRUE_BETA))])
        truth = vine.ConditionalVineModel.from_coefficients(structure, families, [beta] * n_edges)
        workdir = Path(workdir)
        self.structure_file = str(workdir / "structure.json")
        with open(self.structure_file, "w", encoding="utf-8") as fh:
            json.dump(structure.to_dict(), fh)
        self.inputs = []
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(self.cycle)):
            rng = np.random.default_rng(child)
            Z = sim.gen_covariates(self.N, self.P, RHO, rng)
            U = truth.sample(Z, seed=int(rng.integers(2**63)))
            files = {key: str(workdir / f"{i}-{name}") for key, name in (
                ("data", "u.csv"), ("covariates", "z.csv"), ("model", "model.json"), ("report", "report.csv"),
            )}
            _write_csv(files["data"], [f"u{j + 1}" for j in range(structure.d)], U)
            _write_csv(files["covariates"], [f"z{j}" for j in range(1, self.P)], Z[:, 1:])
            self.inputs.append((U, Z, files))

    def params(self):
        return {"N": self.N, "p": self.P, "m_stop": self.M_STOP}

    def run(self, k):
        _, _, f = self.inputs[k % self.cycle]
        return cli.main([
            "fit", "--data", f["data"], "--covariates", f["covariates"],
            "--structure", self.structure_file, "--m-stop", str(self.M_STOP),
            "--out-model", f["model"], "--out-report", f["report"],
        ])

    def _model(self, k):
        return vine.ConditionalVineModel.from_json(self.inputs[k % self.cycle][2]["model"])

    def check(self, k, code):
        if code != 0:
            return [f"op {k}: exit code {code}"]
        U, Z, _ = self.inputs[k % self.cycle]
        model = self._model(k)
        pseudo = model.pseudo_observations(U, Z)
        problems = []
        total = 0.0
        for tree, fits in zip(model.structure.trees, model.models):
            for e, fit in zip(tree, fits):
                where = f"op {k} edge {e.label()}"
                nonzero = np.flatnonzero(fit.beta[1:]).size
                df = (fit.aic + 2.0 * fit.loglik) / 2.0
                if not np.all(np.isfinite(fit.beta)):
                    problems.append(f"{where}: non-finite beta")
                if not set(np.flatnonzero(fit.beta)) <= set(fit.kept):
                    problems.append(f"{where}: kept {fit.kept} misses a nonzero coefficient")
                if not (abs(df - round(df)) <= 1e-6 * max(1.0, abs(fit.aic))
                        and nonzero <= round(df) <= nonzero + 1):
                    problems.append(f"{where}: aic {fit.aic!r} != -2 loglik + 2 df")
                if not 0 <= fit.m_opt <= self.M_STOP:
                    problems.append(f"{where}: m_opt {fit.m_opt} outside [0, {self.M_STOP}]")
                ua, ub = pseudo[e]
                ll = float(np.sum(log_density(fit.family, ua, ub, bst.predict_tau(fit, Z))))
                if not _rel_close(ll, fit.loglik, LOGLIK_RTOL):
                    problems.append(f"{where}: loglik {fit.loglik!r} != summed log density {ll!r}")
                total += fit.loglik
        vine_ll = float(np.sum(model.log_density(U, Z)))
        if not _rel_close(vine_ll, total, LOGLIK_RTOL):
            problems.append(f"op {k}: edge logliks sum to {total!r}, model log density to {vine_ll!r}")
        return problems

    def summary(self, k, code):
        model = self._model(k)
        return {
            e.label(): _fit_summary(fit)
            for tree, fits in zip(model.structure.trees, model.models)
            for e, fit in zip(tree, fits)
        }


class Forecast:
    """One verification round of a fixed conditional vine over 2000 covariate rows."""

    name = "forecast"
    CASES, MEMBERS, P = 2000, 50, 6
    cycle = 1

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        structure = sim.benchmark_rvine_structure()
        n_edges = sum(len(tree) for tree in structure.trees)
        # every family on two edges; opposite-signed coefficients on the two,
        # and tau of both signs on each edge, so every rotation branch runs
        families = [FIT_FAMILIES[i % len(FIT_FAMILIES)] for i in range(n_edges)]
        betas = [sim.TRUE_BETA * (-1.0) ** (i // len(FIT_FAMILIES)) for i in range(n_edges)]
        self.model = vine.ConditionalVineModel.from_coefficients(structure, families, betas)
        Z = sim.gen_covariates(self.CASES, self.P, RHO, rng)
        self.Zrep = np.repeat(Z, self.MEMBERS, axis=0)
        self.W_hold = rng.random((len(self.Zrep), structure.d))
        self.U_hold = self.model.inverse_rosenblatt(self.W_hold, self.Zrep)
        self.obs = self.U_hold[:: self.MEMBERS]
        self.latent = ndtri(self.model.sample(Z, seed=int(rng.integers(2**63))))
        self.seeds = [int(s) for s in rng.integers(2**63, size=4)]

    def params(self):
        return {"cases": self.CASES, "members": self.MEMBERS, "p": self.P}

    def run(self, k):
        model, rows = self.model, len(self.Zrep)
        shape = (self.CASES, self.MEMBERS, model.d)
        steps = {}
        clock = _clock()
        U = model.sample(self.Zrep, seed=self.seeds[0])
        steps["vine.sample.rows_per_s"] = rows / clock()
        logdens = model.log_density(self.U_hold, self.Zrep)
        steps["vine.log_density.rows_per_s"] = rows / clock()
        pit = model.rosenblatt(self.U_hold, self.Zrep)
        steps["vine.rosenblatt.rows_per_s"] = rows / clock()
        text = model.to_json()
        back = vine.ConditionalVineModel.from_json(text)
        corr = sco.gca_fit(self.latent)
        gca = sco.gca_sample(corr, rows, self.seeds[1]).reshape(shape)
        ens = U.reshape(shape)
        clock()
        scores = {}
        for method, members, seed in (("vine", ens, self.seeds[2]), ("gca", gca, self.seeds[3])):
            es = np.array([sco.energy_score(m, y) for m, y in zip(members, self.obs)])
            vs = np.array([sco.variogram_score(m, y) for m, y in zip(members, self.obs)])
            hist = sco.mv_rank_histogram(members, self.obs, seed)
            scores[method] = (es, vs, hist, sco.reliability_index(hist))
        steps["scoring.cases_per_s"] = 2 * self.CASES / clock()
        dm = sco.dm_test(scores["vine"][0], scores["gca"][0])
        return {"U": U, "logdens": logdens, "pit": pit, "json": (text, back),
                "scores": scores, "dm": dm, "steps": steps}

    def check(self, k, out):
        problems = []
        U = out["U"]
        if not (np.all(np.isfinite(U)) and np.all((U > 0.0) & (U < 1.0))):
            problems.append(f"op {k}: sample outside (0, 1)")
        if not np.all(np.isfinite(out["logdens"])):
            problems.append(f"op {k}: non-finite log density")
        err = float(np.max(np.abs(out["pit"] - np.clip(self.W_hold, U_EPS, 1.0 - U_EPS))))
        if not err <= ROUNDTRIP_ATOL:
            problems.append(f"op {k}: Rosenblatt round trip error {err:.3g} > {ROUNDTRIP_ATOL}")
        text, back = out["json"]
        same = back.to_json() == text and all(
            a.family == b.family and np.array_equal(a.beta, b.beta)
            for fa, fb in zip(self.model.models, back.models) for a, b in zip(fa, fb)
        )
        if not same:
            problems.append(f"op {k}: model JSON round trip is not bit-exact")
        for method, (es, vs, hist, ri) in out["scores"].items():
            if not (np.all(np.isfinite(es)) and np.all(np.isfinite(vs)) and math.isfinite(ri)):
                problems.append(f"op {k}: non-finite {method} scores")
            if int(hist.sum()) != self.CASES:
                problems.append(f"op {k}: {method} rank histogram counts {int(hist.sum())} cases")
        dm = out["dm"]
        if not (dm.degenerate or math.isfinite(dm.statistic)):
            problems.append(f"op {k}: non-finite DM statistic")
        return problems

    def summary(self, k, out):
        summary = {
            "sample_sum": float(np.sum(out["U"])),
            "logdens_sum": float(np.sum(out["logdens"])),
            "pit_sum": float(np.sum(out["pit"])),
            "dm_statistic": float(out["dm"].statistic),
        }
        for method, (es, vs, _, ri) in out["scores"].items():
            summary[f"{method}_es_mean"] = float(np.mean(es))
            summary[f"{method}_vs_mean"] = float(np.mean(vs))
            summary[f"{method}_reliability"] = float(ri)
        return summary


def _clock():
    """A lap timer: each call returns seconds since the previous call."""
    last = [time.perf_counter()]

    def lap():
        now = time.perf_counter()
        elapsed, last[0] = now - last[0], now
        return elapsed

    return lap


WORKLOADS = {w.name: w for w in (PairWide, PairCV, VineCli, Forecast)}
