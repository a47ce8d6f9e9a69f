import csv
import json

import numpy as np
import pytest

from vineboost.cli import main
from vineboost.families import CopulaFamily, sample_pair
from vineboost.scoring import energy_score, variogram_score
from vineboost.vine import ConditionalVineModel, VineStructure, dvine_structure, validate_structure


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def gaussian_pair_files(tmp_path):
    rng = np.random.default_rng(0)
    n = 500
    z1 = rng.standard_normal(n)
    tau = np.tanh(0.3 + 0.6 * z1)
    U = sample_pair(CopulaFamily.GAUSSIAN, tau, n, seed=1)
    u_path = tmp_path / "u.csv"
    z_path = tmp_path / "z.csv"
    write_csv(u_path, ["u1", "u2"], [[repr(float(a)), repr(float(b))] for a, b in U])
    write_csv(z_path, ["z1"], [[repr(float(v))] for v in z1])
    return u_path, z_path


def run(args):
    return main([str(a) for a in args])


class TestFit:
    def test_gaussian_toy_fit_selects_gaussian(self, tmp_path, gaussian_pair_files):
        u_path, z_path = gaussian_pair_files
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.csv"
        code = run(["fit", "--data", u_path, "--covariates", z_path, "--m-stop", 150,
                    "--out-model", model_path, "--out-report", report_path])
        assert code == 0
        model = ConditionalVineModel.from_json(str(model_path))
        assert model.models[0][0].family == CopulaFamily.GAUSSIAN
        # the informative covariate carries a clearly positive coefficient
        assert model.models[0][0].beta[1] > 0.3

    def test_auto_structure_recorded_and_valid(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 400
        x0 = rng.standard_normal(n)
        x1 = 0.8 * x0 + 0.6 * rng.standard_normal(n)
        x2 = 0.8 * x1 + 0.6 * rng.standard_normal(n)
        from scipy.stats import rankdata

        U = np.column_stack([rankdata(c) / (n + 1) for c in (x0, x1, x2)])
        u_path = tmp_path / "u3.csv"
        write_csv(u_path, ["u1", "u2", "u3"], [[repr(float(v)) for v in row] for row in U])
        model_path = tmp_path / "m.json"
        code = run(["fit", "--data", u_path, "--structure", "auto", "--m-stop", 50,
                    "--families", "gaussian", "--out-model", model_path,
                    "--out-report", tmp_path / "r.csv", "--manifest", tmp_path / "manifest.json"])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        recorded = VineStructure.from_dict(manifest["config"]["selected_structure"])
        assert validate_structure(recorded) == []

    def test_single_family_flag_gives_all_gaussian_edges(self, tmp_path):
        rng = np.random.default_rng(3)
        U = rng.uniform(0.02, 0.98, (300, 3))
        u_path = tmp_path / "u.csv"
        write_csv(u_path, ["u1", "u2", "u3"], [[repr(float(v)) for v in row] for row in U])
        model_path = tmp_path / "m.json"
        code = run(["fit", "--data", u_path, "--families", "gaussian", "--m-stop", 30,
                    "--out-model", model_path, "--out-report", tmp_path / "r.csv"])
        assert code == 0
        model = ConditionalVineModel.from_json(str(model_path))
        for fits in model.models:
            for f in fits:
                assert f.family == CopulaFamily.GAUSSIAN

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,u2\nx,0.5\n")
        assert run(["fit", "--data", bad, "--out-model", tmp_path / "m.json",
                    "--out-report", tmp_path / "r.csv"]) == 2

    def test_row_count_mismatch_exits_2(self, tmp_path, gaussian_pair_files):
        u_path, _ = gaussian_pair_files
        z_bad = tmp_path / "zbad.csv"
        write_csv(z_bad, ["z1"], [["0.1"], ["0.2"]])
        assert run(["fit", "--data", u_path, "--covariates", z_bad,
                    "--out-model", tmp_path / "m.json", "--out-report", tmp_path / "r.csv"]) == 2

    def test_out_of_range_data_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        write_csv(bad, ["u1", "u2"], [["0.5", "1.5"], ["0.2", "0.3"]])
        assert run(["fit", "--data", bad, "--out-model", tmp_path / "m.json",
                    "--out-report", tmp_path / "r.csv"]) == 2

    def test_unknown_family_exits_2(self, tmp_path, caplog, gaussian_pair_files):
        u_path, _ = gaussian_pair_files
        assert run(["fit", "--data", u_path, "--families", "gaussian,frank",
                    "--out-model", tmp_path / "m.json", "--out-report", tmp_path / "r.csv"]) == 2
        assert caplog.messages[-1] == ("unknown copula family 'frank'; known: gaussian, claytonI, claytonII, "
                                       "gumbelI, gumbelII, independence")

    def test_structure_violation_exits_2(self, tmp_path, gaussian_pair_files):
        u_path, _ = gaussian_pair_files
        st_path = tmp_path / "st.json"
        st_path.write_text(json.dumps({"d": 3, "trees": [[{"a": 0, "b": 1, "conditioning": []}]]}))
        assert run(["fit", "--data", u_path, "--structure", st_path,
                    "--out-model", tmp_path / "m.json", "--out-report", tmp_path / "r.csv"]) == 2


class TestSample:
    @pytest.fixture
    def independence_model(self, tmp_path):
        model = ConditionalVineModel.from_coefficients(
            dvine_structure(range(3)), [CopulaFamily.INDEPENDENCE] * 3, [np.zeros(1)] * 3
        )
        path = tmp_path / "indep.json"
        model.to_json(path)
        return path

    def test_independence_samples_uniform(self, tmp_path, independence_model):
        out = tmp_path / "s.csv"
        code = run(["sample", "--model", independence_model, "--per-row", 20000,
                    "--seed", 4, "--out", out])
        assert code == 0
        from scipy.stats import kstest

        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        for j in (1, 2, 3):
            assert kstest(rows[:, j], "uniform").statistic < 0.02

    def test_same_seed_byte_identical(self, tmp_path, independence_model):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["sample", "--model", independence_model, "--per-row", 500,
                        "--seed", 9, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_covariate_width_mismatch_exits_2(self, tmp_path):
        model = ConditionalVineModel.from_coefficients(
            dvine_structure(range(2)), [CopulaFamily.GAUSSIAN], [np.array([0.3, 0.2, 0.1])]
        )
        mp = tmp_path / "m.json"
        model.to_json(mp)
        z = tmp_path / "z.csv"
        write_csv(z, ["z1"], [["0.5"], ["0.2"]])  # model wants 3 columns incl. intercept
        assert run(["sample", "--model", mp, "--covariates", z, "--out", tmp_path / "s.csv"]) == 2


class TestScore:
    def make_inputs(self, tmp_path, identical_methods=False, n_times=12):
        rng = np.random.default_rng(5)
        fc = tmp_path / "fc.csv"
        ob = tmp_path / "obs.csv"
        rows = []
        for t in range(n_times):
            base = rng.standard_normal((4, 2))
            for method in ("m1", "m2"):
                members = base if identical_methods else base + (0.3 if method == "m2" else 0.0)
                for k in range(4):
                    rows.append([t, method, k, repr(float(members[k, 0])), repr(float(members[k, 1]))])
        write_csv(fc, ["time", "method", "member", "y1", "y2"], rows)
        write_csv(ob, ["time", "y1", "y2"],
                  [[t, repr(float(rng.standard_normal())), repr(float(rng.standard_normal()))]
                   for t in range(n_times)])
        return fc, ob

    def test_hand_example_reproduced_exactly(self, tmp_path):
        fc = tmp_path / "fc.csv"
        ob = tmp_path / "obs.csv"
        write_csv(fc, ["time", "method", "member", "y1"],
                  [[0, "m", 0, "0.0"], [0, "m", 1, "2.0"]])
        write_csv(ob, ["time", "y1"], [[0, "1.0"]])
        out = tmp_path / "scores.csv"
        code = run(["score", "--forecasts", fc, "--observations", ob, "--scores", "es",
                    "--out-scores", out, "--out-dm", tmp_path / "dm.csv"])
        assert code == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            row = next(reader)
        assert row["es"] == "0.5"

    def test_perfect_forecast_scores_zero(self, tmp_path):
        fc = tmp_path / "fc.csv"
        ob = tmp_path / "obs.csv"
        write_csv(fc, ["time", "method", "member", "y1", "y2"],
                  [[0, "m", k, "1.5", "-2.0"] for k in range(3)])
        write_csv(ob, ["time", "y1", "y2"], [[0, "1.5", "-2.0"]])
        out = tmp_path / "scores.csv"
        assert run(["score", "--forecasts", fc, "--observations", ob, "--scores", "es,vs",
                    "--out-scores", out, "--out-dm", tmp_path / "dm.csv"]) == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert float(row["es"]) == 0.0
        assert float(row["vs"]) == pytest.approx(0.0, abs=1e-15)

    def test_identical_methods_dm_degenerate(self, tmp_path):
        fc, ob = self.make_inputs(tmp_path, identical_methods=True)
        dm = tmp_path / "dm.csv"
        assert run(["score", "--forecasts", fc, "--observations", ob,
                    "--out-scores", tmp_path / "s.csv", "--out-dm", dm]) == 0
        with open(dm) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["degenerate"] == "1" and r["p_value"] == "1.0" for r in rows)

    def test_dm_table_for_distinct_methods(self, tmp_path):
        fc, ob = self.make_inputs(tmp_path)
        dm = tmp_path / "dm.csv"
        assert run(["score", "--forecasts", fc, "--observations", ob,
                    "--out-scores", tmp_path / "s.csv", "--out-dm", dm]) == 0
        with open(dm) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["score"] for r in rows} == {"es", "vs"}
        assert all(0.0 <= float(r["p_value"]) <= 1.0 for r in rows)

    def test_misaligned_rows_exit_2(self, tmp_path):
        fc, ob = self.make_inputs(tmp_path)
        # drop one observation time
        lines = ob.read_text().splitlines()
        ob.write_text("\n".join(lines[:-1]) + "\n")
        assert run(["score", "--forecasts", fc, "--observations", ob,
                    "--out-scores", tmp_path / "s.csv", "--out-dm", tmp_path / "dm.csv"]) == 2

    @pytest.mark.parametrize("order", ["nan", "inf", "0"])
    def test_bad_variogram_order_exits_2(self, tmp_path, order):
        fc, ob = self.make_inputs(tmp_path)
        assert run(["score", "--forecasts", fc, "--observations", ob, "--vs-order", order,
                    "--out-scores", tmp_path / "s.csv", "--out-dm", tmp_path / "dm.csv"]) == 2
        # the scores are computed before any output is written
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "dm.csv").exists()

    def test_determinism(self, tmp_path):
        fc, ob = self.make_inputs(tmp_path)
        outs = []
        for tag in ("x", "y"):
            sp = tmp_path / f"s{tag}.csv"
            dp = tmp_path / f"d{tag}.csv"
            assert run(["score", "--forecasts", fc, "--observations", ob,
                        "--out-scores", sp, "--out-dm", dp]) == 0
            outs.append((sp.read_bytes(), dp.read_bytes()))
        assert outs[0] == outs[1]


class TestSimulate:
    def scenario(self, tmp_path, **overrides):
        cfg = {"kind": "bicop", "N": 300, "p": 8, "rho": 0.2, "n_reps": 1,
               "family": "gaussian", "control": {"m_stop": 60}, "seed": 5}
        cfg.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_smoke_run(self, tmp_path):
        path = self.scenario(tmp_path)
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", path, "--out-dir", out]) == 0
        for name in ("coefficients.csv", "selection.csv", "families.csv", "mae.csv"):
            assert (out / name).exists()

    def test_identical_config_and_seed_identical_outputs(self, tmp_path):
        path = self.scenario(tmp_path, n_reps=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--scenario", path, "--out-dir", out_a]) == 0
        assert run(["simulate", "--scenario", path, "--out-dir", out_b]) == 0
        for name in ("coefficients.csv", "selection.csv", "families.csv", "mae.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, caplog):
        path = self.scenario(tmp_path, rho=1.5)
        assert run(["simulate", "--scenario", path, "--out-dir", tmp_path / "o"]) == 2
        assert f"{path}: rho must lie in (0, 1)" in caplog.text

    def test_unknown_field_exits_2(self, tmp_path, caplog):
        path = self.scenario(tmp_path, bogus_field=1)
        assert run(["simulate", "--scenario", path, "--out-dir", tmp_path / "o"]) == 2
        assert f"{path}: scenario: unknown key 'bogus_field'" in caplog.text

    @pytest.mark.parametrize("text, message", [
        ("{kind: 1}", "Expecting property name enclosed in double quotes: line 1 column 2"),
        ("[1, 2]", "scenario: expected an object, got [1, 2]"),
        ('{"rho": null}', "rho must be a real number, got None"),
        ('{"control": {"protect_intercept": true}}', "scenario control: unknown key 'protect_intercept'"),
    ], ids=["invalid-json", "not-an-object", "rho-null", "unknown-control-key"])
    def test_bad_document_exits_2_naming_the_file(self, tmp_path, caplog, text, message):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert run(["simulate", "--scenario", path, "--out-dir", tmp_path / "o"]) == 2
        assert f"{path}: {message}" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [
        ("family", "frank"), ("N", 100.5), ("N", True), ("p", 8.0), ("n_reps", 1.5), ("seed", 5.5),
        ("control", [1]), ("control", {"m_stop": 60.5}), ("control", {"m_stop": True}),
        ("control", {"m_stop": 60, "stopping": "cv", "cv_folds": 2.5}), ("family_draw", "yes"),
        ("count_intercept_tp", True), ("control", {"m_stop": 60, "protect_intercept": True}),
        ("seed", -1), ("control", {"m_stop": 60, "seed": -1}), ("N", -1), ("N", 0),
        ("control", {"m_stop": 60, "stopping": "cv", "cv_folds": 31}),
    ])
    def test_malformed_field_exits_2_before_any_output(self, tmp_path, caplog, field, value):
        path = self.scenario(tmp_path, **{field: value})
        assert run(["simulate", "--scenario", path, "--out-dir", tmp_path / "o"]) == 2
        assert caplog.messages[-1].startswith(f"{path}: ")
        assert not (tmp_path / "o").exists()


def table_text(header, rows):
    """An output table as the commands write it: comma-separated fields, a
    field holding a comma in double quotes, every line ending in \\r\\n."""
    def field(x):
        x = str(x)
        return f'"{x}"' if "," in x else x
    return "".join(",".join(field(x) for x in row) + "\r\n" for row in [header, *rows])


class TestOutputFormat:
    """Each output table is its header and rows, floats as ``repr(float(x))``."""

    def test_fit_report(self, tmp_path):
        rng = np.random.default_rng(11)
        write_csv(tmp_path / "u.csv", ["u1", "u2", "u3"],
                  [[repr(float(v)) for v in row] for row in rng.uniform(0.05, 0.95, (120, 3))])
        (tmp_path / "st.json").write_text(GOOD_STRUCTURE)
        write_csv(tmp_path / "z.csv", ["z1"], [[repr(float(v))] for v in rng.standard_normal(120)])
        report = tmp_path / "r.csv"
        assert run(["fit", "--data", tmp_path / "u.csv", "--covariates", tmp_path / "z.csv",
                    "--structure", tmp_path / "st.json", "--families", "gaussian,claytonI", "--m-stop", 30,
                    "--out-model", tmp_path / "m.json", "--out-report", report]) == 0
        model = ConditionalVineModel.from_json(str(tmp_path / "m.json"))
        names = model.covariate_names
        rows = [
            [t, e.label(), fit.family.value, fit.m_opt, repr(float(fit.aic)), repr(float(fit.loglik)),
             "|".join(str(j) for j in fit.kept),
             "|".join(f"{names[j]}={repr(float(fit.beta[j]))}" for j in np.flatnonzero(fit.beta))]
            for t, (tree, fits) in enumerate(zip(model.structure.trees, model.models), start=1)
            for e, fit in zip(tree, fits)
        ]
        header = ["tree", "edge", "family", "m_opt", "aic", "loglik", "kept", "coefficients"]
        assert report.read_bytes() == table_text(header, rows).encode()

    def test_sample_file(self, tmp_path):
        (tmp_path / "m.json").write_text(model_json())
        z1 = [0.1, -0.4, 1.2]
        write_csv(tmp_path / "z.csv", ["z1"], [[repr(v)] for v in z1])
        out = tmp_path / "s.csv"
        assert run(["sample", "--model", tmp_path / "m.json", "--covariates", tmp_path / "z.csv",
                    "--per-row", 3, "--seed", 4, "--out", out]) == 0
        model = ConditionalVineModel.from_json(model_json())
        U = model.sample(np.repeat(np.column_stack([np.ones(3), z1]), 3, axis=0), seed=4)
        rows = [[i // 3] + [repr(float(v)) for v in U[i]] for i in range(len(U))]
        assert out.read_bytes() == table_text(["row", "u1", "u2", "u3"], rows).encode()

    def test_score_table(self, tmp_path):
        rng = np.random.default_rng(12)
        members = {(t, m): rng.standard_normal((4, 2)) for t in ("0", "1") for m in ("a", "b")}
        obs = {t: rng.standard_normal(2) for t in ("0", "1")}
        write_csv(tmp_path / "fc.csv", ["time", "method", "member", "y1", "y2"],
                  [[t, m, k] + [repr(float(v)) for v in x[k]] for (t, m), x in members.items() for k in range(4)])
        write_csv(tmp_path / "obs.csv", ["time", "y1", "y2"],
                  [[t] + [repr(float(v)) for v in y] for t, y in obs.items()])
        out, dm = tmp_path / "s.csv", tmp_path / "dm.csv"
        assert run(["score", "--forecasts", tmp_path / "fc.csv", "--observations", tmp_path / "obs.csv",
                    "--scores", "es,vs", "--out-scores", out, "--out-dm", dm]) == 0
        rows = [[t, m, repr(float(energy_score(x, obs[t], "pairwise"))),
                 repr(float(variogram_score(x, obs[t], order=0.5)))] for (t, m), x in members.items()]
        assert out.read_bytes() == table_text(["time", "method", "es", "vs"], rows).encode()
        header = ["score", "method_a", "method_b", "statistic", "p_value", "lag", "degenerate"]
        assert dm.read_bytes() == table_text(header, []).encode()


class TestManifest:
    def test_manifest_digests_inputs_and_outputs(self, tmp_path, gaussian_pair_files):
        u_path, z_path = gaussian_pair_files
        manifest_path = tmp_path / "run.json"
        code = run(["fit", "--data", u_path, "--covariates", z_path, "--m-stop", 40,
                    "--families", "gaussian", "--out-model", tmp_path / "m.json",
                    "--out-report", tmp_path / "r.csv", "--manifest", manifest_path])
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "fit"
        assert str(u_path) in manifest["inputs"]
        assert len(manifest["outputs"]) == 2
        for digest in manifest["outputs"].values():
            assert len(digest) == 64


# One row per malformed input: (command, file to corrupt, its contents, where
# the message points after the file name).  A target starting with "--" is a
# flag given the contents as its value; the message must then contain
# ``where``.
GOOD_DATA = "u1,u2,u3\n0.2,0.3,0.4\n0.5,0.6,0.7\n0.8,0.1,0.3\n0.4,0.9,0.6\n"
GOOD_COVARIATES = "z1\n0.1\n-0.4\n1.2\n0.3\n"
GOOD_FORECASTS = "time,method,member,y1,y2\n" + "".join(
    f"{t},m1,{k},{0.1 * k},{0.2 * t}\n" for t in range(2) for k in range(3)
)
GOOD_OBSERVATIONS = "time,y1,y2\n0,0.1,0.2\n1,0.3,0.4\n"
GOOD_STRUCTURE = json.dumps(dvine_structure([0, 1, 2]).to_dict())


def model_json(edit=None, truncation_level=None):
    """A 3-variable D-vine model document on (intercept, z1), optionally edited."""
    model = ConditionalVineModel.from_coefficients(
        dvine_structure([0, 1, 2]),
        [CopulaFamily.GAUSSIAN, CopulaFamily.CLAYTON_I, CopulaFamily.GUMBEL_II],
        [[0.2, 0.1], [0.3, -0.2], [0.1, 0.0]],
        covariate_names=("(intercept)", "z1"),
    )
    obj = model.to_dict()
    obj["truncation_level"] = truncation_level
    if edit is not None:
        edit(obj["trees"])
    return json.dumps(obj)


MALFORMED = [
    ("fit", "data", "u1,u2,u3\n0.2,0.3,0.4\nnan,0.6,0.7\n0.8,0.1,0.3\n", ":3:"),
    ("fit", "data", "u1,u2,u3\n0.2,0.3,0.4\n0.5,0.6,0.7\n0.8,inf,0.3\n", ":4:"),
    ("fit", "covariates", "z1\n0.1\n-0.4\ninf\n0.3\n", ":4:"),
    ("fit", "covariates", "z1\n0.1\nnan\n1.2\n0.3\n", ":3:"),
    ("score", "observations", "", ":1:"),
    ("score", "observations", "time,y1,y2\n0,0.1,0.2\n\n1,0.3,0.4\n", ":3:"),
    ("score", "observations", "time,y1,y2\n0,0.1,0.2\n1,0.3\n", ":3:"),
    ("score", "observations", "time,y1,y2\n0,0.1,0.2\n1,0.3,0.4\n0,0.5,0.6\n", ":4:"),
    ("score", "forecasts", GOOD_FORECASTS.replace("1,m1,1,0.1,", "1,m1,1,nan,"), ":6: column 4 (y1)"),
    ("score", "observations", "time,y1,y2\n0,0.1,0.2\n1,0.3,inf\n", ":3: column 3 (y2)"),
    ("sample", "model", model_json(lambda trees: trees[0][0].update(family="frank")),
     ": model edge 0,1: key 'family'"),
    ("sample", "model", model_json(lambda trees: trees[0].pop()), ": model: tree 1 has 1 edges"),
    ("sample", "model", model_json(lambda trees: trees[1][0].pop("beta")),
     ": model edge 0,2;1: missing key 'beta'"),
    ("sample", "model", model_json(lambda trees: trees[0][1].pop("kept")),
     ": model edge 1,2: missing key 'kept'"),
    ("sample", "model", model_json(lambda trees: trees[0][1].update(beta=[0.3])),
     ": model edge 1,2: key 'beta'"),
    ("sample", "model", model_json(truncation_level=0), ": model: key 'truncation_level'"),
    ("sample", "model", model_json(truncation_level=-2), ": model: key 'truncation_level'"),
    ("fit", "--truncate", "0", "truncation level must lie in [1, 2]"),
    ("fit", "--truncate", "3", "truncation level must lie in [1, 2]"),
    ("fit", "--stopping", "cv", "edge 0,1: each CV fold needs at least 10 observations (4 rows, 10 folds)"),
    ("fit", "--seed", "-1", "seed must be >= 0"),
    ("sample", "--seed", "-1", "--seed must be >= 0"),
    ("fit", "structure", json.dumps({"d": 3, "trees": [[{"a": 0, "b": 1}], [{"a": 0, "b": 0}]]}),
     ": structure tree 2 edge 1: edge must join two distinct variables"),
    ("fit", "structure", json.dumps({"d": 3, "trees": [[{"a": 0, "b": 1, "conditioning": [1]}]]}),
     ": structure tree 1 edge 1: conditioned variables cannot appear in the conditioning set"),
    ("fit", "structure", json.dumps({"trees": []}), ": structure: missing key 'd'"),
    ("fit", "structure", json.dumps({"d": 3, "trees": [[{"a": 0, "b": 1, "conditioning": []}]]}),
     ": expected 2 trees, found 1"),
    ("fit", "structure", "{\"d\": 3,", ": Expecting property name enclosed in double quotes: line 1 column 9"),
    ("sample", "model", model_json(lambda trees: trees[1][0].update(conditioning=[0])),
     ": model tree 2 edge 1: conditioned variables cannot appear in the conditioning set"),
    ("sample", "model", model_json()[:-1], ": Expecting ',' delimiter"),
    ("fit --structure auto", "data", "u1,u2,u3\n" + "".join(f"0.{k + 10},0.5,0.{89 - k}\n" for k in range(30)),
     ": U column 1 is constant: its Kendall's tau is undefined"),
    ("fit --structure auto", "data", "u1,u2,u3\n0.2,0.3,0.4\n",
     ": structure selection needs at least 30 observations"),
    ("fit", "--families", " , ", "families must be non-empty"),
]


@pytest.mark.parametrize(
    "command,target,contents,where", MALFORMED,
    ids=["data-nan", "data-inf", "covariate-inf", "covariate-nan",
         "observations-empty", "observations-blank-row", "observations-short-row",
         "observations-duplicate-time", "forecasts-nan", "observations-inf",
         "model-unknown-family", "model-missing-edge", "model-missing-beta",
         "model-missing-kept", "model-beta-length", "model-truncation-zero",
         "model-truncation-negative", "fit-truncate-zero", "fit-truncate-above-d",
         "fit-cv-folds-too-small", "fit-negative-seed", "sample-negative-seed",
         "structure-edge-to-itself", "structure-conditioned-in-conditioning", "structure-missing-d",
         "structure-not-a-vine",
         "structure-invalid-json", "model-conditioned-in-conditioning", "model-invalid-json",
         "auto-structure-constant-column", "auto-structure-one-row", "fit-no-families"],
)
def test_malformed_input_exits_2_with_file_and_line(tmp_path, caplog, command, target, contents, where):
    files = {"data": GOOD_DATA, "covariates": GOOD_COVARIATES, "structure": GOOD_STRUCTURE,
             "forecasts": GOOD_FORECASTS, "observations": GOOD_OBSERVATIONS, "model": model_json()}
    command, *flags = command.split()  # a command may carry flags of its own
    if target.startswith("--"):
        flags += [target, contents]
    else:
        files[target] = contents
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text)
    if command == "fit":
        outputs = [tmp_path / "m.json", tmp_path / "r.csv"]
        args = ["fit", "--data", paths["data"], "--covariates", paths["covariates"],
                "--structure", paths["structure"], "--m-stop", 5,
                "--out-model", outputs[0], "--out-report", outputs[1], *flags]
    elif command == "sample":
        outputs = [tmp_path / "u.csv"]
        args = ["sample", "--model", paths["model"], "--covariates", paths["covariates"],
                "--out", outputs[0], *flags]
    else:
        outputs = [tmp_path / "s.csv", tmp_path / "dm.csv"]
        args = ["score", "--forecasts", paths["forecasts"], "--observations", paths["observations"],
                "--out-scores", outputs[0], "--out-dm", outputs[1]]
    assert run(args) == 2
    assert (where if target.startswith("--") else f"{paths[target]}{where}") in caplog.text
    assert not any(path.exists() for path in outputs)
