"""End-to-end CLI pipelines."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import balanced_beamsplitter_duplicate

import gausstat
from gausstat import fock
from gausstat.cli import build_parser, main
from gausstat.classify import MeasurementSet
from gausstat.recon_multi import measurement_residual
from gausstat.serialize import (
    dump,
    load,
    measurement_from_json,
    measurement_to_json,
    params_from_json,
    params_to_json,
)
from gausstat.states import GaussianParams, derive_moments, single_mode_g2_g3


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

    def test_g1_abs_noise_keeps_g1_symmetric(self, tmp_path):
        params = GaussianParams(np.array([0.5, 0.3j, -0.4]), np.zeros((3, 3)),
                                np.array([[0.0, 0.4, 0.2], [0.4, 0.0, 0.3], [0.2, 0.3, 0.0]]),
                                np.array([0.2, 0.3, 0.1]))
        path = write_params(tmp_path, params)
        out = tmp_path / "meas.json"
        assert run("simulate", path, "--out", out, "--seed", 0, "--noise", "g1_abs=1e-3") == 0
        g1_abs = np.array(load(out)["g1_abs"])
        exact = np.abs(derive_moments(params).g1)
        assert np.abs(g1_abs - exact).max() > 1e-4  # the noise was applied
        assert np.array_equal(g1_abs, g1_abs.T)

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


@pytest.fixture
def cli_inputs(tmp_path):
    """A single-mode displaced squeezed state, its measurements and a
    three-point phase scan of it at fixed |alpha|, r and N."""
    params = GaussianParams.single_mode(alpha=0.5 * np.exp(0.4j), r=0.45, theta=0.3,
                                        occupation=0.1)
    state = write_params(tmp_path, params)
    meas = tmp_path / "meas.json"
    assert run("simulate", state, "--out", meas) == 0
    rows = ["g2,g3"]
    for delta in (0.0, np.pi / 3, 2 * np.pi / 3):
        g2, g3 = single_mode_g2_g3(GaussianParams.single_mode(
            alpha=0.3 * np.exp(0.5j * delta), r=0.4, occupation=0.1))
        rows.append(f"{g2!r},{g3!r}")
    scan = tmp_path / "scan.csv"
    scan.write_text("\n".join(rows) + "\n")
    nbar = derive_moments(GaussianParams.single_mode(alpha=0.3, r=0.4, occupation=0.1)).nbar[0]
    return {"state": state, "meas": meas, "scan": scan, "nbar": repr(float(nbar)),
            "missing": tmp_path / "missing.json", "nodir": tmp_path / "no-such-dir" / "out"}


# a JSON integer that no float holds: json reads it, float() overflows on it
BEYOND_FLOAT = 10 ** 400


def _edit_json(path, edit):
    doc = load(path)
    edit(doc)
    dump(doc, path)


def _edit_scan_cell(path, column, value):
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("argv,corrupt", [
    (["classify", "meas", "--tol", "nan"], None),
    (["bucket", "--g2b", "nan", "--g3b", "3"], None),
    (["bucket", "--g2b", "inf", "--g3b", "3"], None),
    (["reconstruct", "--scan", "scan", "--nbar", "nan"], None),
    (["reconstruct", "--scan", "scan", "--nbar", "inf"], None),
    (["reconstruct", "--scan", "scan", "--nbar", "nbar", "--phase-steps", "nan,1.0"], None),
    (["curves", "--relation", "eq20", "--g2-min", "nan"], None),
    (["curves", "--relation", "eq20", "--num", "-1"], None),
    (["curves", "--relation", "eq20", "--num", "99999999999"], None),
    (["curves", "--relation", "eq20", "--num", "9" * 400], None),
    (["simulate", "state", "--noise", "g2=1e-3", "--seed", "-1"], None),
    (["simulate", "state"], lambda f: _edit_json(f["state"], lambda d: d.update(thermal=["x"]))),
    (["simulate", "state"],
     lambda f: _edit_json(f["state"], lambda d: d.update(alpha=[["a", 1]]))),
    (["simulate", "state"], lambda f: _edit_json(f["state"], lambda d: d.update(squeeze=5))),
    (["simulate", "state"],
     lambda f: _edit_json(f["state"], lambda d: d.update(alpha=[[BEYOND_FLOAT, 0]]))),
    (["simulate", "state"],
     lambda f: _edit_json(f["state"], lambda d: d.update(thermal=[BEYOND_FLOAT]))),
    (["classify", "meas"],
     lambda f: _edit_json(f["meas"], lambda d: d["g3"][0].update(value=BEYOND_FLOAT))),
    (["classify", "meas"],
     lambda f: _edit_json(f["meas"], lambda d: d["nbar"].__setitem__(0, BEYOND_FLOAT))),
    (["classify", "meas"],
     lambda f: _edit_json(f["meas"], lambda d: d.update(sigma={"g3": BEYOND_FLOAT}))),
    (["classify", "meas"],  # json reads 1e400 as inf, which is not an integer
     lambda f: f["meas"].write_text(
         f["meas"].read_text().replace('"modes": 1,', '"modes": 1e400,'))),
    (["reconstruct", "--scan", "scan", "--nbar", "nbar"],
     lambda f: _edit_scan_cell(f["scan"], "g3", "abc")),
    (["reconstruct", "--scan", "scan", "--nbar", "nbar"],
     lambda f: _edit_scan_cell(f["scan"], "g2", "nan")),
    (["reconstruct", "--scan", "scan", "--nbar", "nbar"],
     lambda f: _edit_scan_cell(f["scan"], "g3", "8.0,1e-3")),
    (["reconstruct"], None),
    (["classify", "missing"], None),
    (["verify", "missing"], None),
    (["reconstruct", "--scan", "missing", "--nbar", "1"], None),
    (["classify", "meas"], lambda f: f["meas"].write_bytes(b"\xff\xfe{}")),
    (["curves", "--relation", "eq20", "--out", "nodir"], None),
    (["simulate", "state", "--out", "nodir"], None),
    (["verify", "state", "--photon-csv", "nodir"], None),
], ids=["classify-tol-nan", "bucket-g2b-nan", "bucket-g2b-inf", "scan-nbar-nan",
        "scan-nbar-inf", "scan-phase-step-nan", "curves-g2-min-nan", "curves-num-negative",
        "curves-num-huge", "curves-num-400-digits", "simulate-seed-negative",
        "params-thermal-string", "params-alpha-string", "params-squeeze-scalar",
        "params-alpha-beyond-float", "params-thermal-beyond-float", "meas-g3-beyond-float",
        "meas-nbar-beyond-float", "meas-sigma-beyond-float", "meas-modes-beyond-float",
        "scan-g3-not-a-number", "scan-g2-nan", "scan-cell-past-header",
        "reconstruct-without-input", "classify-missing-file", "verify-missing-file",
        "scan-missing-file", "measurements-not-utf8", "curves-out-no-dir",
        "simulate-out-no-dir", "photon-csv-no-dir"])
def test_bad_input_is_a_validation_error(cli_inputs, capfd, argv, corrupt):
    """Non-finite flags, malformed file content and files that cannot be read
    or written stop where they enter: exit 2 with a validation error, and no
    report, NaN or traceback on stdout."""
    if corrupt is not None:
        corrupt(cli_inputs)
    capfd.readouterr()
    assert run(*[cli_inputs.get(a, a) for a in argv]) == 2
    out, err = capfd.readouterr()
    assert "validation error" in err
    assert out == ""


@pytest.mark.parametrize("command,name,modes,message", [
    ("classify", "meas", 1.5, "modes must be a positive integer, got 1.5"),
    ("classify", "meas", True, "modes must be a positive integer, got True"),
    ("classify", "meas", "1", "modes must be a positive integer, got '1'"),
    ("classify", "meas", 0, "modes must be a positive integer, got 0"),
    ("simulate", "state", 3, "modes must equal the length of alpha (1), got 3"),
], ids=["meas-modes-fractional", "meas-modes-bool", "meas-modes-string", "meas-modes-zero",
        "params-modes-mismatch"])
def test_modes_field_is_checked_where_it_enters(cli_inputs, capfd, command, name, modes,
                                                message):
    """A document's modes is a positive integer, and a state's (optional) modes
    equals the number of modes its arrays describe."""
    _edit_json(cli_inputs[name], lambda d: d.update(modes=modes))
    capfd.readouterr()
    assert run(command, cli_inputs[name]) == 2
    out, err = capfd.readouterr()
    assert err.splitlines() == [f"validation error: {message}"]
    assert out == ""


def test_scan_cell_error_names_file_and_line(cli_inputs, capsys):
    _edit_scan_cell(cli_inputs["scan"], "g3", "abc")
    assert run("reconstruct", "--scan", cli_inputs["scan"], "--nbar", cli_inputs["nbar"]) == 2
    assert f"{cli_inputs['scan']}: line 3: expected a finite number, got 'abc'" \
        in capsys.readouterr().err


def test_nonpositive_scan_sigma_is_a_validation_error(cli_inputs, capfd):
    """A sigma_g3 of -1 or 0 would weigh its point by 1/sigma^2; it stops where
    it enters, naming the file and the line."""
    scan = cli_inputs["scan"]
    lines = scan.read_text().splitlines()
    rows = [f"{row},{sigma}" for row, sigma in zip(lines[1:], ("-1", "0", "1e-3"))]
    scan.write_text("\n".join([lines[0] + ",sigma_g3"] + rows) + "\n")
    capfd.readouterr()
    assert run("reconstruct", "--scan", scan, "--nbar", cli_inputs["nbar"]) == 2
    out, err = capfd.readouterr()
    assert "validation error" in err
    assert f"{scan}: line 2: sigma_g3 must be positive, got -1.0" in err
    assert out == ""


@pytest.mark.parametrize("column,value", [("sigma_g2", "abc"), ("sigma-g3", "-5")])
def test_unknown_scan_column_is_a_validation_error(cli_inputs, capfd, column, value):
    """A scan column other than g2, g3 and sigma_g3 is never read, so it is
    rejected by name rather than silently ignored."""
    scan = cli_inputs["scan"]
    lines = scan.read_text().splitlines()
    scan.write_text("\n".join([f"{lines[0]},{column}"]
                              + [f"{row},{value}" for row in lines[1:]]) + "\n")
    capfd.readouterr()
    assert run("reconstruct", "--scan", scan, "--nbar", cli_inputs["nbar"]) == 2
    out, err = capfd.readouterr()
    assert f"{scan}: unknown scan CSV column {column!r}" in err
    assert out == ""


@pytest.mark.parametrize("text", ["[1, 2]", '"state"', "3", "null"],
                         ids=["array", "string", "number", "null"])
@pytest.mark.parametrize("command", ["simulate", "classify", "reconstruct", "verify", "bucket"])
def test_non_object_json_is_a_validation_error(tmp_path, capfd, command, text):
    """Every input document is a JSON object; any other top-level value exits 2
    with a validation error naming the file."""
    path = tmp_path / "doc.json"
    path.write_text(text + "\n")
    capfd.readouterr()
    assert run(command, path) == 2
    out, err = capfd.readouterr()
    assert f"validation error: {path}: expected a JSON object" in err
    assert out == ""


def test_auto_dst_on_one_file_says_auto_chose_it(cli_inputs, capfd):
    """One displaced-squeezed file and no --sector: the message says the sector
    came from auto's verdict and what dst needs, and names no flag."""
    capfd.readouterr()
    assert run("reconstruct", cli_inputs["meas"]) == 2
    out, err = capfd.readouterr()
    assert ("validation error: sector auto chose dst from the verdict "
            "DisplacedSqueezedConsistent; dst needs two measurement files: "
            "zero-mean port and reference port") in err
    assert "--sector" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [["simulate", "state"], ["classify", "meas"],
                                  ["reconstruct", "--scan", "scan", "--nbar", "nbar"]],
                         ids=["params", "measurements", "scan-csv"])
def test_input_digest_is_of_the_raw_bytes_read_once(cli_inputs, tmp_path, monkeypatch, argv):
    """meta.inputs holds the sha256 prefix of the file's raw bytes, CRLF line
    ends included, and the file is opened once: the digest comes from the
    bytes that were parsed."""
    name = argv[1] if argv[0] != "reconstruct" else argv[2]
    path = cli_inputs[name]
    lf = tmp_path / "lf.json"
    assert run(*[cli_inputs.get(a, a) for a in argv], "--out", lf) == 0
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    opened, real_open = [], io.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    crlf = tmp_path / "crlf.json"
    assert run(*[cli_inputs.get(a, a) for a in argv], "--out", crlf) == 0
    assert opened.count(str(path)) == 1
    doc_lf, doc_crlf = load(lf), load(crlf)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert doc_crlf.pop("meta")["inputs"] == {str(path): digest}
    assert doc_lf.pop("meta")["inputs"][str(path)] != digest
    assert doc_crlf == doc_lf


def _noisy_sector_file(tmp_path, sector, modes, seed, sigma):
    """Seeded noisy measurements of a non-displaced or non-squeezed state."""
    from conftest import random_hermitian, random_symmetric

    rng = np.random.default_rng([seed, modes, 19])
    phi = random_hermitian(rng, modes, rng.uniform(0.3, 1.0))
    occ = rng.uniform(0.05, 0.5, modes)
    if sector == "nd":
        z = random_symmetric(rng, modes, rng.uniform(0.2, 0.7))
        params = GaussianParams(np.zeros(modes), z, phi, occ)
    else:
        alpha = rng.uniform(0.3, 0.8, modes) * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
        params = GaussianParams(alpha, np.zeros((modes, modes)), phi, occ)
    state = write_params(tmp_path, params, f"{sector}{modes}_{seed}_{sigma}_state.json")
    meas = tmp_path / f"{sector}{modes}_{seed}_{sigma}.json"
    assert run("simulate", state, "--noise", f"g2={sigma},g3={sigma}", "--seed", seed,
               "--out", meas) == 0
    return meas


@pytest.mark.parametrize("sigma", ["1e-6", "1e-4", "1e-3"])
@pytest.mark.parametrize("modes", [2, 3, 4])
@pytest.mark.parametrize("sector", ["nd", "ns"])
def test_reconstruct_agrees_with_classify_on_noisy_data(tmp_path, sector, modes, sigma):
    """Whenever classify reports NonDisplaced or NonSqueezed, reconstruct with
    the default sector exits 0 in that sector: it builds on the phase solutions
    that classify found."""
    accepted = 0
    for seed in range(6):
        meas = _noisy_sector_file(tmp_path, sector, modes, seed, sigma)
        report, rec = tmp_path / "report.json", tmp_path / "rec.json"
        assert run("classify", meas, "--out", report) == 0
        verdict = load(report)["sector"]
        if verdict not in ("NonDisplaced", "NonSqueezed"):
            continue
        accepted += 1
        assert run("reconstruct", meas, "--out", rec) == 0, (seed, verdict)
        assert load(rec)["meta"]["sector"] == {"NonDisplaced": "nd", "NonSqueezed": "ns"}[verdict]
    assert accepted > 0


def test_explicit_sector_applies_classify_gates(tmp_path, capfd):
    """--sector ns on squeezed data, whose non-squeezed pre-gate fails, exits 3,
    and the message carries classify's note."""
    params = GaussianParams(np.zeros(3), np.array([[0.4, 0.1, 0.0], [0.1, 0.3, 0.05],
                                                   [0.0, 0.05, 0.2]], dtype=complex),
                            np.zeros((3, 3)), np.array([0.1, 0.2, 0.3]))
    meas = tmp_path / "meas.json"
    assert run("simulate", write_params(tmp_path, params), "--out", meas) == 0
    capfd.readouterr()
    assert run("reconstruct", meas, "--sector", "ns") == 3
    out, err = capfd.readouterr()
    assert "infeasible: data incompatible with a non-squeezed state" in err
    assert "a diagonal g2 exceeds 2: incompatible with zero squeezing" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "state"],
    ["simulate", "state", "--noise", "g2=1e-3,g3=1e-3", "--seed", "3"],
    ["classify", "meas"],
    ["classify", "nd_meas"],
    ["reconstruct", "nd_meas"],
    ["reconstruct", "--scan", "scan", "--nbar", "nbar"],
    ["verify", "state"],
    ["bucket", "state"],
    ["bucket", "--g2b", "7", "--g3b", "51", "--estimate-modes"],
], ids=lambda argv: "_".join(argv))
def test_reports_are_indented_key_sorted_json(cli_inputs, tmp_path, capsys, argv):
    """Every JSON report, on stdout and in the --out file, is byte for byte what
    json.dumps(doc, indent=2, sort_keys=True) writes, plus a newline.  (curves
    writes CSV.)"""
    nd_state = write_params(tmp_path, GaussianParams.single_mode(r=0.5, occupation=0.2),
                            "nd_state.json")
    assert run("simulate", nd_state, "--out", tmp_path / "nd_meas.json") == 0
    files = dict(cli_inputs, nd_meas=tmp_path / "nd_meas.json")
    argv = [str(files.get(a, a)) for a in argv]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert stdout == json.dumps(json.loads(stdout), indent=2, sort_keys=True) + "\n"
    assert written == json.dumps(json.loads(written), indent=2, sort_keys=True) + "\n"
    assert written == stdout


# The flags each subcommand reads; it takes no other.
SUBCOMMAND_FLAGS = {
    "simulate": {"--noise", "--seed", "--out"},
    "classify": {"--tol", "--out"},
    "reconstruct": {"--sector", "--ref-port", "--scan", "--nbar", "--phase-steps", "--tol",
                    "--out"},
    "verify": {"--cutoff", "--photon-csv", "--out"},
    "curves": {"--relation", "--g2-min", "--g2-max", "--num", "--out"},
    "bucket": {"--g2b", "--g3b", "--estimate-modes", "--out"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    flags = {name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
             for name, sub in action.choices.items()}
    assert flags == SUBCOMMAND_FLAGS


@pytest.mark.parametrize("argv", [
    ["verify", "state", "--tol", "1e-3"],
    ["curves", "--relation", "eq20", "--seed", "3"],
    ["classify", "meas", "--cutoff", "5"],
    ["bucket", "--g2b", "1.5", "--g3b", "3", "--cutoff", "9"],
    ["simulate", "state", "--tol", "1e-3"],
    ["reconstruct", "meas", "--sector", "nd", "--seed", "1"],
    ["reconstruct", "meas", "--sector", "nd", "--nbar", "nbar"],
    ["reconstruct", "meas", "--sector", "nd", "--phase-steps", "1.0"],
    ["reconstruct", "meas", "--scan", "scan", "--nbar", "nbar"],
    ["reconstruct", "--scan", "scan", "--nbar", "nbar", "--sector", "auto"],
    ["reconstruct", "--scan", "scan", "--nbar", "nbar", "--ref-port", "orig"],
    ["reconstruct", "meas", "meas", "--sector", "nd"],
    ["reconstruct", "meas", "--sector", "ns", "--ref-port", "orig"],
    ["bucket", "state", "--g2b", "1.5"],
    ["bucket", "state", "--g3b", "3"],
    ["verify", "state", "--cutoff", "0"],
    ["verify", "state", "--cutoff", "1"],
    ["verify", "state", "--cutoff", "2"],
    ["classify", "meas", "--tol", "0"],
    ["classify", "meas", "--tol", "-1e-3"],
    ["reconstruct", "meas", "--sector", "all"],
    ["verify"],
    [],
], ids=lambda argv: "_".join(argv) or "no-command")
def test_flag_the_command_would_not_read_exits_2(cli_inputs, capfd, argv):
    """A flag the subcommand does not take, or would ignore in the mode it runs
    in, a missing argument and an out-of-range cutoff or tolerance exit 2 with
    a validation error, from an in-process call too, and write no report."""
    capfd.readouterr()
    assert main([str(cli_inputs.get(a, a)) for a in argv]) == 2
    out, err = capfd.readouterr()
    assert "validation error" in err
    assert out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["verify", "--help"])
    assert stop.value.code == 0
    assert "--cutoff" in capsys.readouterr().out


@pytest.mark.parametrize("argv,config", [
    (["simulate", "state", "--seed", "7", "--noise", "g2=1e-3"],
     {"seed": 7, "noise_sigma": {"g2": 1e-3}}),
    (["simulate", "state"], {"seed": 0, "noise_sigma": {}}),
    (["classify", "meas", "--tol", "1e-6"], {"tolerance": 1e-6}),
    (["reconstruct", "--scan", "scan", "--nbar", "nbar"], {"tolerance": 1e-8}),
    (["verify", "state", "--cutoff", "50"], {"fock_cutoff": 50}),
    (["verify", "state"], {"fock_cutoff": None}),
    (["bucket", "state"], {}),
], ids=lambda v: "_".join(v) if isinstance(v, list) else "")
def test_meta_config_holds_only_the_flags_read(cli_inputs, tmp_path, argv, config):
    out = tmp_path / "report.json"
    assert main([str(cli_inputs.get(a, a)) for a in argv] + ["--out", str(out)]) == 0
    assert load(out)["meta"]["config"] == config


def _readme_command_line():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_line_matches_the_parser():
    """Every `gausstat ...` example in README parses, and the README's flag
    table lists the flags each subcommand takes."""
    section = _readme_command_line()
    examples = [line for line in section.split("```")[1].splitlines()
                if line.startswith("gausstat ")]
    assert {shlex.split(line)[1] for line in examples} == set(SUBCOMMAND_FLAGS)
    for line in examples:
        build_parser().parse_args(shlex.split(line)[1:])
    table = {}
    for row in section.splitlines():
        cells = row.split("|")
        if len(cells) == 4 and cells[1].strip().strip("`") in SUBCOMMAND_FLAGS:
            table[cells[1].strip().strip("`")] = {f.strip().strip("`")
                                                  for f in cells[2].split(",")}
    assert table == SUBCOMMAND_FLAGS


def test_cli_import_leaves_scipy_optimize_out():
    env = dict(os.environ, PYTHONPATH=str(Path(gausstat.__file__).parents[1]))
    code = "import sys, gausstat.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


# Makes a subcommand raise the base GausstatError, which no other path catches.
_GENERIC_ERROR = """
import sys
from gausstat import cli
from gausstat.errors import GausstatError


def fail(args):
    raise GausstatError("raised by no subclass")


cli.cmd_curves = fail  # bound to the subcommand when the parser is first built
sys.exit(cli.main(["curves", "--relation", "eq20"]))
"""


@pytest.mark.parametrize("case", ["usage", "infeasible", "numerical", "generic"])
def test_each_error_prints_one_stderr_line(tmp_path, case):
    """Every exit path but success writes exactly one line to stderr and none
    to stdout, each in a fresh interpreter."""
    overflowing = write_params(tmp_path, GaussianParams.single_mode(r=400.0))
    cli = [sys.executable, "-m", "gausstat.cli"]
    argv, code, line = {
        "usage": (cli + ["curves", "--relation", "eq20", "--seed", "3"], 2,
                  "validation error: gausstat: unrecognized arguments: --seed 3"),
        "infeasible": (cli + ["bucket", "--g2b", "2", "--g3b", "6", "--estimate-modes"], 3,
                       "infeasible: no admissible (K, sinh^2) solves the equal-squeezer model"),
        "numerical": (cli + ["simulate", str(overflowing)], 4, "numerical failure: "
                      "mean photon numbers too large: nbar^2 overflows a float"),
        "generic": ([sys.executable, "-c", _GENERIC_ERROR], 2, "error: raised by no subclass"),
    }[case]
    env = dict(os.environ, PYTHONPATH=str(Path(gausstat.__file__).parents[1]))
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (code, "", line + "\n")


# Run in a fresh interpreter where importing scipy raises ImportError; after
# each step it records the exit code and the scipy modules loaded so far.
_SCIPY_FREE_COMMANDS = """
import json, sys
from pathlib import Path


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked here: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = []
import gausstat
report.append(["import gausstat", 0, loaded()])
import gausstat.cli
report.append(["import gausstat.cli", 0, loaded()])

import numpy as np
from gausstat.cli import main
from gausstat.serialize import dump, params_to_json
from gausstat.states import GaussianParams

tmp = Path(sys.argv[1])
z2 = np.array([[0.3, 0.1], [0.1, 0.2]], dtype=complex)
phi2 = np.array([[0.0, 0.4], [0.4, 0.0]])
two_port = GaussianParams(np.array([0.4, 0.3j]), z2, phi2, np.array([0.1, 0.3]))
# the zero-mean port of a balanced beam splitter fed with two copies
minus = GaussianParams(np.zeros(2), z2, phi2, np.array([0.1, 0.3]))
states = {
    "squeezed": GaussianParams.single_mode(r=0.5, occupation=0.2),
    "displaced": GaussianParams.single_mode(alpha=0.7, occupation=0.2),
    "dst": GaussianParams.single_mode(alpha=0.7 * np.exp(0.4j), r=0.5, theta=0.3,
                                      occupation=0.1),
    "pair": GaussianParams(np.zeros(2), 0.3 * np.eye(2, dtype=complex),
                           np.zeros((2, 2)), np.zeros(2)),
    "nd2": GaussianParams(np.zeros(2), z2, phi2, np.array([0.1, 0.3])),
    "ns2": GaussianParams(np.array([0.5, 0.3j]), np.zeros((2, 2)), phi2,
                          np.array([0.1, 0.3])),
    "orig2": two_port,
    "minus2": minus,
    "m3": GaussianParams(np.array([0.3, 0.2j, 0.25]), 0.1 * np.eye(3, dtype=complex),
                         0.2 * np.ones((3, 3)), np.array([0.05, 0.1, 0.08])),
}
for name, params in states.items():
    dump(params_to_json(params), tmp / f"{name}.json")
for argv in (["simulate", "squeezed.json", "--out", "squeezed-m.json"],
             ["simulate", "displaced.json", "--out", "displaced-m.json"],
             ["simulate", "dst.json", "--out", "dst-m.json"],
             ["bucket", "pair.json", "--estimate-modes", "--out", "bucket.json"],
             ["classify", "dst-m.json", "--out", "classify.json"],
             ["reconstruct", "squeezed-m.json", "--out", "rec-nd.json"],
             ["reconstruct", "displaced-m.json", "--out", "rec-ns.json"],
             ["curves", "--relation", "eq20", "--num", "3", "--out", "curves.csv"],
             ["simulate", "nd2.json", "--out", "nd2-m.json"],
             ["simulate", "ns2.json", "--out", "ns2-m.json"],
             ["simulate", "orig2.json", "--out", "orig2-m.json"],
             ["simulate", "minus2.json", "--out", "minus2-m.json"],
             ["reconstruct", "nd2-m.json", "--sector", "nd", "--out", "rec-nd2.json"],
             ["reconstruct", "ns2-m.json", "--sector", "ns", "--out", "rec-ns2.json"],
             ["reconstruct", "minus2-m.json", "orig2-m.json", "--sector", "dst",
              "--out", "rec-dst2.json"],
             ["verify", "dst.json", "--out", "verify1.json"],
             ["verify", "orig2.json", "--out", "verify2.json"],
             ["verify", "m3.json", "--out", "verify3.json"]):
    code = main([str(tmp / a) if a.endswith((".json", ".csv")) else a for a in argv])
    report.append([" ".join(argv), code, loaded()])
print(json.dumps(report))
"""


def test_commands_without_scipy_leave_it_unloaded(tmp_path):
    """Every command, multimode reconstruct (nd, ns and dst) and verify at
    M = 1, 2 and 3 included, runs to exit 0 with scipy blocked from import,
    and none loads a scipy module."""
    env = dict(os.environ, PYTHONPATH=str(Path(gausstat.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE_COMMANDS, str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert len(report) == 20
    for step, code, loaded in report:
        assert (step, code, loaded) == (step, 0, [])
    for name in ("rec-nd2.json", "rec-ns2.json", "rec-dst2.json"):
        assert load(tmp_path / name)["residual"] < 1e-6
    verify3 = load(tmp_path / "verify3.json")
    assert "g3_012" in {row["observable"] for row in verify3["rows"]}
    assert verify3["worst_abs_error"] <= verify3["oracle_budget"]


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

    def test_classify_report_without_witness_reads_back(self, tmp_path):
        # no a in (0, 1] admits a physical c: the witness residual has no finite value
        data = MeasurementSet(1, nbar=[0.8291283895033408], g2=[[6.859234212700555]],
                              g3={(0, 0, 0): 3.3585575305464355})
        meas, report = tmp_path / "meas.json", tmp_path / "report.json"
        dump(measurement_to_json(data), meas)
        assert run("classify", meas, "--out", report) == 0
        doc = load(report)
        assert doc["sector"] == "Inconsistent"
        (row,) = [r for r in doc["residuals"]
                  if r["relation"] == "displaced-squeezed feasibility witness"]
        assert row["residual"] is None and row["passed"] is False
        assert doc["witness"] is None

    @pytest.mark.parametrize("ref_port", ["orig", "plus"])
    def test_dst_two_files(self, tmp_path, ref_port):
        params = GaussianParams.single_mode(alpha=0.3 * np.exp(0.6j), r=0.4,
                                            theta=0.1, occupation=0.1)
        plus, minus = balanced_beamsplitter_duplicate(params)
        p_minus = write_params(tmp_path, minus, "minus.json")
        p_ref = write_params(tmp_path, params if ref_port == "orig" else plus, "ref.json")
        m_minus, m_ref = tmp_path / "m_minus.json", tmp_path / "m_ref.json"
        run("simulate", p_minus, "--out", m_minus)
        run("simulate", p_ref, "--out", m_ref)
        rec_path = tmp_path / "rec.json"
        assert run("reconstruct", m_minus, m_ref, "--sector", "dst", "--ref-port", ref_port,
                   "--out", rec_path) == 0
        rec = load(rec_path)
        assert rec["ambiguity"]["z2_reflection"] is True
        alpha = complex(*rec["params"]["alpha"][0])
        assert abs(alpha) == pytest.approx(0.3, abs=1e-7)
        # both ports reproduced: the reference port with sqrt(2) alpha under plus
        got = params_from_json(rec["params"])
        scale = 1.0 if ref_port == "orig" else np.sqrt(2.0)
        for alpha_scale, port in ((scale, m_ref), (0.0, m_minus)):
            state = GaussianParams(alpha_scale * got.alpha, got.squeeze, got.rotation,
                                   got.thermal)
            assert measurement_residual(state, measurement_from_json(load(port))) < 1e-8
        assert rec["residual"] < 1e-8

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
        lambda doc: doc["g3"].append({"modes": [0, 0, 0.5], "value": 1.0}),
        lambda doc: doc["g3"].append({"modes": [False, 0, 0], "value": 1.0}),
        lambda doc: doc["g3"].append({"modes": [0, 0, 0], "value": 3.0}),
    ], ids=["g3-mode-out-of-range", "g3-nan", "g3-inf", "g2-nan", "nbar-nan", "nbar-zero",
            "g3-mode-fractional", "g3-mode-bool", "g3-duplicate"])
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


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["nbar"].__setitem__(1, None),
    lambda doc: doc["g1_phase"][0].__setitem__(1, None),
    lambda doc: doc["p0"].__setitem__(1, None),
], ids=["nbar", "g1_phase", "p0"])
def test_json_null_in_measurement_array_is_rejected(tmp_path, capsys, corrupt):
    """A null inside a measurement array would become NaN; both commands
    that read measurements stop it with a validation error (exit 2)."""
    params = GaussianParams(np.array([0.5, 0.3j]), np.zeros((2, 2)),
                            np.array([[0.0, 0.4], [0.4, 0.0]]), np.array([0.1, 0.2]))
    meas = tmp_path / "meas.json"
    assert run("simulate", write_params(tmp_path, params), "--out", meas) == 0
    assert run("classify", meas) == 0
    doc = load(meas)
    corrupt(doc)
    dump(doc, meas)
    capsys.readouterr()
    assert run("classify", meas) == 2
    assert run("reconstruct", meas) == 2
    assert run("reconstruct", meas, "--sector", "ns") == 2
    assert "entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc["g2"].__setitem__(1, None),
    lambda doc: doc["nbar"].append(0.5),
    lambda doc: doc.update(sigma={"g2": -1.0}),
    lambda doc: doc.update(sigma={"g2": "abc"}),
    lambda doc: doc.update(sigma=[1e-3]),
], ids=["null-row", "long-nbar", "negative-sigma", "string-sigma", "sigma-list"])
def test_malformed_measurement_document_is_rejected(tmp_path, corrupt):
    """Malformed arrays and sigma values end in a validation error (exit 2),
    not a traceback or a verdict resting on a negative uncertainty."""
    params = GaussianParams(np.array([0.5, 0.3j]), np.zeros((2, 2)),
                            np.array([[0.0, 0.4], [0.4, 0.0]]), np.array([0.1, 0.2]))
    meas = tmp_path / "meas.json"
    assert run("simulate", write_params(tmp_path, params), "--out", meas) == 0
    doc = load(meas)
    corrupt(doc)
    dump(doc, meas)
    assert run("classify", meas) == 2
    assert run("reconstruct", meas) == 2


class TestMissingFieldIsNamed:
    """A measurement file whose needed field is null stops with an error naming
    the field (exit 2), not a misleading message or a traceback."""

    @staticmethod
    def measurements(tmp_path, params, name="meas.json", **nulls):
        meas = tmp_path / name
        assert run("simulate", write_params(tmp_path, params, "state_" + name), "--out", meas) == 0
        doc = load(meas)
        doc.update(nulls)
        dump(doc, meas)
        return meas

    @pytest.mark.parametrize("argv", [["classify"], ["reconstruct"],
                                      ["reconstruct", "--sector", "ns"],
                                      ["reconstruct", "--sector", "nd"]])
    def test_multimode_without_g1_phase(self, tmp_path, capsys, argv):
        z = np.array([[0.3, 0.1], [0.1, 0.2]], dtype=complex)
        params = GaussianParams(np.zeros(2), z, np.array([[0.0, 0.4], [0.4, 0.0]]),
                                np.array([0.1, 0.3]))
        meas = self.measurements(tmp_path, params, g1_phase=None)
        capsys.readouterr()
        assert run(*argv, meas) == 2
        assert "needs g1_phase" in capsys.readouterr().err

    def test_single_mode_nd_reconstruction_without_g2(self, tmp_path, capsys):
        meas = self.measurements(tmp_path, GaussianParams.single_mode(r=0.5, occupation=0.2),
                                 g2=None)
        capsys.readouterr()
        assert run("reconstruct", meas, "--sector", "nd") == 2
        assert "single-mode reconstruction needs g2" in capsys.readouterr().err

    def test_single_mode_dst_without_g1(self, tmp_path):
        """One mode's g1 is 1 by definition, so single-mode files need not carry it."""
        params = GaussianParams.single_mode(alpha=0.3 * np.exp(0.6j), r=0.4, theta=0.1,
                                            occupation=0.1)
        _, minus = balanced_beamsplitter_duplicate(params)
        nulls = {"g1_abs": None, "g1_phase": None}
        m_minus = self.measurements(tmp_path, minus, "minus.json", **nulls)
        m_orig = self.measurements(tmp_path, params, "orig.json", **nulls)
        out = tmp_path / "rec.json"
        assert run("reconstruct", m_minus, m_orig, "--sector", "dst", "--out", out) == 0
        assert load(out)["residual"] < 1e-8

    @pytest.mark.parametrize("port", ["zero-mean", "reference"])
    @pytest.mark.parametrize("field", ["g2", "nbar"])
    def test_single_mode_dst_without_field(self, tmp_path, capsys, port, field):
        params = GaussianParams.single_mode(alpha=0.3 * np.exp(0.6j), r=0.4, theta=0.1,
                                            occupation=0.1)
        _, minus = balanced_beamsplitter_duplicate(params)
        nulled = {field: None}
        m_minus = self.measurements(tmp_path, minus, "minus.json",
                                    **(nulled if port == "zero-mean" else {}))
        m_orig = self.measurements(tmp_path, params, "orig.json",
                                   **(nulled if port == "reference" else {}))
        capsys.readouterr()
        assert run("reconstruct", m_minus, m_orig, "--sector", "dst") == 2
        assert f"the {port} port needs {field}" in capsys.readouterr().err


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

    def test_verify_climbs_past_truncation_error(self, tmp_path):
        # the top-level occupancy at cutoff 50 is 8.6e-3, above the build's
        # 1e-3 gate; the next rung of the ladder settles it
        params = GaussianParams.single_mode(alpha=5.8)
        spath = write_params(tmp_path, params)
        out = tmp_path / "verify.json"
        assert run("verify", spath, "--cutoff", "50") == 4
        assert run("verify", spath, "--out", out) == 0
        doc = load(out)
        assert doc["cutoff"] == 64
        assert doc["worst_abs_error"] <= doc["oracle_budget"]

    def test_verify_reports_thermal_columns(self, tmp_path):
        params = GaussianParams(np.array([0.2, 0.1j]), 0.1 * np.eye(2), np.full((2, 2), 0.2),
                                np.array([0.05, 0.1]))
        spath = write_params(tmp_path, params)
        out = tmp_path / "verify.json"
        assert run("verify", spath, "--out", out) == 0
        doc = load(out)
        assert 1 < doc["thermal_columns"] < doc["cutoff"] ** 2
        # the dropped weight times (M (d - 1))^3 = 38^3 stays at or below 1e-16
        assert 0 < doc["dropped_weight"] <= 1e-16 / 38**3
        pure = write_params(tmp_path, GaussianParams.single_mode(alpha=0.3, r=0.2), "pure.json")
        assert run("verify", pure, "--out", out) == 0
        doc = load(out)
        assert (doc["thermal_columns"], doc["dropped_weight"]) == (1, 0.0)

    @pytest.mark.parametrize("params,empty", [
        (GaussianParams.vacuum(1), 0),
        (GaussianParams.vacuum(3), 0),
        (GaussianParams(np.array([0.5, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)),
                        np.array([0.1, 0.0])), 1),
    ], ids=["vacuum-1", "vacuum-3", "empty-mode-1"])
    def test_verify_rejects_empty_mode_before_building(self, tmp_path, capfd, monkeypatch,
                                                       params, empty):
        """Every normalized row divides by nbar, so a state with an empty mode
        exits 2, naming the mode, before the oracle is built once."""
        builds = []
        build = fock.build_density
        monkeypatch.setattr(fock, "build_density",
                            lambda *a, **k: builds.append(a) or build(*a, **k))
        spath = write_params(tmp_path, params)
        capfd.readouterr()
        assert run("verify", spath) == 2
        assert f"mode {empty} has nbar = 0" in capfd.readouterr().err
        assert builds == []

    def test_verify_cutoff_below_tail_levels_is_rejected(self, tmp_path, capfd):
        """The truncation gate reads the top two levels of each mode, so at
        cutoff 2 it would read the whole marginal and reject every state."""
        spath = write_params(tmp_path, GaussianParams.single_mode(alpha=0.5))
        capfd.readouterr()
        assert run("verify", spath, "--cutoff", "2") == 2
        assert "top 2 levels" in capfd.readouterr().err
        assert run("verify", spath, "--cutoff", "3") == 4

    def test_curves_eq20_point(self, tmp_path, capsys):
        assert run("curves", "--relation", "eq20", "--g2-min", "3",
                   "--g2-max", "3", "--num", "1") == 0
        outp = capsys.readouterr().out.strip().splitlines()
        assert outp[0] == "g2,g3"
        g2, g3 = map(float, outp[1].split(","))
        assert (g2, g3) == (3.0, 15.0)

    @pytest.mark.parametrize("lo,hi", [("1.5", "2.5"), ("2.5", "1.5"), ("2.5", "2.5")])
    def test_curves_eq21_rejects_an_endpoint_above_2(self, capsys, lo, hi):
        # the non-squeezed curve has no value above g2 = 2, in either order
        assert run("curves", "--relation", "eq21", "--g2-min", lo, "--g2-max", hi) == 2
        assert capsys.readouterr().out == ""

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


def test_verify_photon_csv_three_modes(tmp_path):
    """Each mode's marginal in the CSV sums to the trace the oracle kept."""
    params = GaussianParams(np.array([0.3, 0.2j, 0.1]), 0.1 * np.eye(3), np.full((3, 3), 0.2),
                            np.array([0.05, 0.1, 0.0]))
    path = write_params(tmp_path, params)
    csv_path = tmp_path / "dist.csv"
    out = tmp_path / "verify.json"
    assert run("verify", path, "--photon-csv", csv_path, "--out", out) == 0
    doc = load(out)
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
    assert len(rows) == 3 * doc["cutoff"]
    for mode in range(3):
        total = sum(float(p) for m, _, p in rows if int(m) == mode)
        assert total == pytest.approx(1.0 - doc["trace_deficit"], abs=1e-10)
