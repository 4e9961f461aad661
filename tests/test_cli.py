"""End-to-end CLI pipelines."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gausstat
from gausstat.cli import main
from gausstat.serialize import dump, load, params_to_json
from gausstat.states import GaussianParams, balanced_beamsplitter_duplicate


def write_params(tmp_path, params, name="state.json"):
    path = tmp_path / name
    dump(params_to_json(params), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_thermal_values(self, tmp_path):
        path = write_params(tmp_path, GaussianParams.single_mode(occupation=1.0))
        out = tmp_path / "meas.json"
        assert run("simulate", path, "--out", out) == 0
        doc = load(out)
        assert doc["g2"][0][0] == pytest.approx(2.0)
        assert doc["g3"][0]["value"] == pytest.approx(6.0)
        assert doc["p0"][0] == pytest.approx(0.5)

    def test_deterministic_without_noise(self, tmp_path):
        path = write_params(tmp_path, GaussianParams.single_mode(r=0.3, occupation=0.1))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        run("simulate", path, "--out", out_a, "--seed", 7)
        run("simulate", path, "--out", out_b, "--seed", 7)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noise_recorded_and_seeded(self, tmp_path):
        path = write_params(tmp_path, GaussianParams.single_mode(r=0.3, occupation=0.1))
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        run("simulate", path, "--out", out_a, "--seed", 7, "--noise", "g2=1e-3")
        run("simulate", path, "--out", out_b, "--seed", 7, "--noise", "g2=1e-3")
        doc = load(out_a)
        assert doc["sigma"]["g2"] == 1e-3
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_invalid_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert run("simulate", bad) == 2


class TestRejectBadInput:
    @pytest.mark.parametrize("spec", ["g4=1e-3", "g2=1e-3,sigma_g3=1e-3", "g2=-1e-3", "g3=nan"])
    def test_bad_noise_spec(self, tmp_path, spec):
        path = write_params(tmp_path, GaussianParams.single_mode(r=0.3, occupation=0.1))
        assert run("simulate", path, "--noise", spec) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_json_token(self, tmp_path, capsys, value):
        doc = params_to_json(GaussianParams.single_mode(r=0.3, occupation=0.1))
        doc["thermal"][0] = value
        path = tmp_path / "state.json"
        dump(doc, path)
        assert run("simulate", path) == 2
        assert "non-finite JSON number" in capsys.readouterr().err

    def test_non_finite_parameter(self, tmp_path, capsys):
        # 1e400 is valid JSON and parses to inf
        path = write_params(tmp_path, GaussianParams.single_mode(r=0.3, occupation=0.1))
        path.write_text(path.read_text().replace("0.1", "1e400", 1))
        assert run("simulate", path) == 2
        assert "thermal must be finite" in capsys.readouterr().err

    def test_overflowing_squeeze_is_numerical_failure(self, tmp_path):
        path = write_params(tmp_path, GaussianParams.single_mode(r=400.0))
        assert run("simulate", path) == 4


def test_cli_import_leaves_scipy_optimize_out():
    env = dict(os.environ, PYTHONPATH=str(Path(gausstat.__file__).parents[1]))
    code = "import sys, gausstat.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


class TestClassifyReconstruct:
    def test_squeezed_thermal_pipeline(self, tmp_path):
        params = GaussianParams.single_mode(r=0.5, occupation=0.2)
        spath = write_params(tmp_path, params)
        meas = tmp_path / "meas.json"
        run("simulate", spath, "--out", meas)
        report = tmp_path / "report.json"
        assert run("classify", meas, "--out", report) == 0
        doc = load(report)
        assert doc["sector"] == "NonDisplaced"
        assert any("evidence only" in n for n in doc["notes"])
        rec_path = tmp_path / "rec.json"
        assert run("reconstruct", meas, "--sector", "nd", "--out", rec_path) == 0
        rec = load(rec_path)
        z = rec["params"]["squeeze"][0][0]
        assert abs(complex(z[0], z[1])) == pytest.approx(0.5, abs=1e-8)
        assert rec["params"]["thermal"][0] == pytest.approx(0.2, abs=1e-8)

    def test_auto_sector_multimode(self, tmp_path, rng):
        from conftest import random_hermitian

        amp = rng.uniform(0.3, 0.6, 3)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        params = GaussianParams(alpha, np.zeros((3, 3)),
                                random_hermitian(rng, 3, 0.7), rng.uniform(0.1, 0.4, 3))
        spath = write_params(tmp_path, params)
        meas = tmp_path / "meas.json"
        run("simulate", spath, "--out", meas)
        rec_path = tmp_path / "rec.json"
        assert run("reconstruct", meas, "--sector", "auto", "--out", rec_path) == 0
        rec = load(rec_path)
        assert rec["meta"]["sector"] == "ns"
        assert rec["meta"]["observable_residual"] < 1e-7

    @pytest.mark.parametrize("modes,displaced,sector", [(3, False, "NonDisplaced"),
                                                        (4, True, "NonSqueezed")])
    def test_classify_multimode(self, tmp_path, rng, modes, displaced, sector):
        from conftest import random_hermitian, random_symmetric

        alpha = np.zeros(modes)
        z = random_symmetric(rng, modes, 0.5)
        if displaced:
            alpha = rng.uniform(0.3, 0.6, modes) * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
            z = np.zeros((modes, modes))
        params = GaussianParams(alpha, z, random_hermitian(rng, modes, 0.7),
                                rng.uniform(0.1, 0.4, modes))
        spath = write_params(tmp_path, params)
        meas, report = tmp_path / "meas.json", tmp_path / "report.json"
        assert run("simulate", spath, "--out", meas) == 0
        assert run("classify", meas, "--out", report) == 0
        assert load(report)["sector"] == sector

    def test_dst_two_files(self, tmp_path):
        params = GaussianParams.single_mode(alpha=0.3 * np.exp(0.6j), r=0.4,
                                            theta=0.1, occupation=0.1)
        plus, minus = balanced_beamsplitter_duplicate(params)
        p_minus = write_params(tmp_path, minus, "minus.json")
        p_orig = write_params(tmp_path, params, "orig.json")
        m_minus, m_orig = tmp_path / "m_minus.json", tmp_path / "m_orig.json"
        run("simulate", p_minus, "--out", m_minus)
        run("simulate", p_orig, "--out", m_orig)
        rec_path = tmp_path / "rec.json"
        assert run("reconstruct", m_minus, m_orig, "--sector", "dst",
                   "--out", rec_path) == 0
        rec = load(rec_path)
        assert rec["ambiguity"]["z2_reflection"] is True
        alpha = complex(*rec["params"]["alpha"][0])
        assert abs(alpha) == pytest.approx(0.3, abs=1e-7)

    def test_sector_mismatch_exit_code(self, tmp_path):
        params = GaussianParams.single_mode(r=0.5, occupation=0.2)  # g2 > 2
        spath = write_params(tmp_path, params)
        meas = tmp_path / "meas.json"
        run("simulate", spath, "--out", meas)
        assert run("reconstruct", meas, "--sector", "ns") == 3

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["g3"].append({"modes": [0, 0, 5], "value": 1.0}),
        lambda doc: doc["g3"][0].update(value=float("nan")),
        lambda doc: doc["g3"][0].update(value=float("inf")),
        lambda doc: doc["g2"][0].__setitem__(0, float("nan")),
        lambda doc: doc["nbar"].__setitem__(0, float("nan")),
        lambda doc: doc["nbar"].__setitem__(0, 0.0),
    ], ids=["g3-mode-out-of-range", "g3-nan", "g3-inf", "g2-nan", "nbar-nan", "nbar-zero"])
    def test_classify_rejects_malformed_single_mode_data(self, tmp_path, corrupt):
        params = GaussianParams.single_mode(alpha=0.5 * np.exp(0.4j), r=0.45,
                                            theta=0.3, occupation=0.1)
        meas = tmp_path / "meas.json"
        assert run("simulate", write_params(tmp_path, params), "--out", meas) == 0
        doc = load(meas)
        corrupt(doc)
        dump(doc, meas)
        assert run("classify", meas) == 2


    @pytest.mark.parametrize("corrupt", [
        lambda doc: [doc["g2"][0].__setitem__(1, float("nan")),
                     doc["g2"][1].__setitem__(0, float("nan"))],
        lambda doc: doc["g2"][1].__setitem__(1, float("inf")),
        lambda doc: [doc["g1_abs"][0].__setitem__(1, float("nan")),
                     doc["g1_abs"][1].__setitem__(0, float("nan"))],
    ], ids=["cross-g2-nan", "g2-inf", "g1-abs-nan"])
    def test_classify_rejects_non_finite_multimode_data(self, tmp_path, corrupt):
        params = GaussianParams(np.zeros(2), 0.3 * np.eye(2, dtype=complex),
                                np.zeros((2, 2)), np.array([0.1, 0.2]))
        meas = tmp_path / "meas.json"
        assert run("simulate", write_params(tmp_path, params), "--out", meas) == 0
        assert run("classify", meas) == 0
        doc = load(meas)
        corrupt(doc)
        dump(doc, meas)
        assert run("classify", meas) == 2


class TestScanCli:
    def test_scan_csv(self, tmp_path):
        from gausstat.states import derive_moments, single_mode_g2_g3

        a0, r0, n0 = 0.3, 0.4, 0.1
        deltas = [0.0, np.pi / 3, 2 * np.pi / 3]
        rows = ["g2,g3"]
        for d in deltas:
            g2, g3 = single_mode_g2_g3(GaussianParams.single_mode(
                alpha=a0 * np.exp(0.5j * d), r=r0, occupation=n0))
            rows.append(f"{g2!r},{g3!r}")
        scan = tmp_path / "scan.csv"
        scan.write_text("\n".join(rows) + "\n")
        nbar = derive_moments(GaussianParams.single_mode(alpha=a0, r=r0,
                                                         occupation=n0)).nbar[0]
        out = tmp_path / "scan_rec.json"
        assert run("reconstruct", "--scan", scan, "--nbar", nbar,
                   "--phase-steps", f"{np.pi/3},{np.pi/3}", "--out", out) == 0
        doc = load(out)
        assert doc["alpha_abs"] == pytest.approx(a0, abs=1e-6)
        assert doc["r"] == pytest.approx(r0, abs=1e-6)
        assert doc["z2_resolved"] is True


class TestVerifyCurvesBucket:
    def test_verify_small_state(self, tmp_path):
        params = GaussianParams.single_mode(alpha=0.3, r=0.2, occupation=0.1)
        spath = write_params(tmp_path, params)
        out = tmp_path / "verify.json"
        assert run("verify", spath, "--out", out) == 0
        doc = load(out)
        assert doc["worst_abs_error"] < 1e-6
        assert doc["cutoff"] == 50
        names = {row["observable"] for row in doc["rows"]}
        assert {"nbar_0", "g2_00", "g3_000", "p0", "g2_bucket"} <= names

    def test_verify_deepens_cutoff_when_budget_missed(self, tmp_path):
        # misses its budget at the default cutoff 50: g3 error 1.6e-5
        params = GaussianParams.single_mode(alpha=0.868 * np.exp(-1.815j), r=0.492,
                                            theta=2.482, occupation=0.492)
        spath = write_params(tmp_path, params)
        out = tmp_path / "verify.json"
        assert run("verify", spath, "--cutoff", "50") == 4
        assert run("verify", spath, "--out", out) == 0
        doc = load(out)
        assert doc["cutoff"] > 50
        assert doc["worst_abs_error"] <= doc["oracle_budget"]

    def test_curves_eq20_point(self, tmp_path, capsys):
        assert run("curves", "--relation", "eq20", "--g2-min", "3",
                   "--g2-max", "3", "--num", "1") == 0
        outp = capsys.readouterr().out.strip().splitlines()
        assert outp[0] == "g2,g3"
        g2, g3 = map(float, outp[1].split(","))
        assert (g2, g3) == (3.0, 15.0)

    def test_curves_eq21_rejects_high_g2(self):
        assert run("curves", "--relation", "eq21", "--g2-max", "3") == 2

    def test_bucket_command(self, tmp_path):
        params = GaussianParams(np.zeros(2), 0.3 * np.eye(2, dtype=complex),
                                np.zeros((2, 2)), np.zeros(2))
        spath = write_params(tmp_path, params)
        out = tmp_path / "bucket.json"
        assert run("bucket", spath, "--estimate-modes", "--out", out) == 0
        doc = load(out)
        assert doc["verdict"] == "certifies-squeezing"
        assert "Gaussian-state assumption" in doc["caveat"]
        assert doc["mode_estimate"]["mode_count"] == pytest.approx(2.0, abs=1e-6)

    def test_bucket_direct_values_mismatch_exit(self):
        assert run("bucket", "--g2b", "2.0", "--g3b", "6.0", "--estimate-modes") == 3


def test_verify_photon_csv(tmp_path):
    from gausstat.states import GaussianParams

    path = write_params(tmp_path, GaussianParams.single_mode(occupation=0.5))
    csv_path = tmp_path / "dist.csv"
    out = tmp_path / "verify.json"
    assert run("verify", path, "--photon-csv", csv_path, "--out", out) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "mode,n,probability"
    mode, n, p = lines[1].split(",")
    assert (mode, n) == ("0", "0")
    assert float(p) == pytest.approx(1 / 1.5, abs=1e-9)
