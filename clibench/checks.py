"""Check each CLI output against the reference model or a property the method must have.

``check(item, text)`` returns a list of problems, empty when the output is
right.  It only sees operations that exited 0; failed ones are counted, not
checked.
"""

from __future__ import annotations

import json

import numpy as np

from reference import RefState

EXACT = 1e-9  # closed forms against the reference model, relative to max(1, |value|)
ROUND_TRIP = 1e-6  # observables of reconstructed parameters against their inputs
WITNESS_TOL = 1e-6  # the flat tolerance classify applies to data without sigmas


def _close(got, want, tol) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def _g3_map(entries) -> dict:
    return {tuple(e["modes"]): e["value"] for e in entries}


def _compare_observables(got: dict, want: dict, tol, problems, label=""):
    """nbar, |g1|, g1 phases (where defined), g2 and g3 of two measurement layouts."""
    for name in ("nbar", "g1_abs", "g2"):
        if not _close(got[name], want[name], tol):
            problems.append(f"{label}{name} differs from the reference")
    mask = np.array(want["g1_abs"]) > 1e-6
    np.fill_diagonal(mask, False)
    dphi = np.angle(np.exp(1j * (np.array(got["g1_phase"]) - np.array(want["g1_phase"]))))
    if mask.any() and np.abs(dphi[mask]).max() > tol:
        problems.append(f"{label}g1 phases differ from the reference")
    g3_got, g3_want = _g3_map(got["g3"]), _g3_map(want["g3"])
    if set(g3_got) != set(g3_want):
        problems.append(f"{label}g3 keys differ from the reference")
    elif not _close([g3_got[k] for k in g3_want], list(g3_want.values()), tol):
        problems.append(f"{label}g3 differs from the reference")


def _pushed_through(params_doc, zero_alpha=False) -> dict:
    """Observables of reconstructed parameters, computed by the reference model."""
    if zero_alpha:
        params_doc = dict(params_doc, alpha=[[0.0, 0.0]] * len(params_doc["alpha"]))
    ref = RefState.from_json(params_doc)
    g1 = ref.g1()
    return {"nbar": ref.nbar(), "g1_abs": np.abs(g1), "g1_phase": np.angle(g1),
            "g2": ref.g2(), "g3": [{"modes": list(k), "value": v} for k, v in ref.g3().items()]}


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_measurement(doc, want, problems):
    if doc.get("type") != "measurement_set":
        problems.append("not a measurement_set")
        return
    _compare_observables(doc, want, EXACT, problems)
    if not _close(doc["p0"], want["p0"], EXACT):
        problems.append("p0 differs from the reference")


def check_bucket(doc, want, problems):
    for name in ("g2_b", "g3_b", "total_nbar"):
        if not _close(doc[name], want[name], EXACT):
            problems.append(f"{name} differs from the reference")


def check_reconstruct(doc, want, problems):
    if doc.get("type") != "reconstructed_state":
        problems.append("not a reconstructed_state")
        return
    if doc["meta"]["sector"] != want["sector"]:
        problems.append(f"sector {doc['meta']['sector']} but the state was drawn in "
                        f"{want['sector']}")
    inputs = [_load(p) for p in want["inputs"]]
    if want["sector"] == "dst":
        minus, orig = inputs
        _compare_observables(_pushed_through(doc["params"]), orig, ROUND_TRIP, problems,
                             "reference port: ")
        _compare_observables(_pushed_through(doc["params"], zero_alpha=True), minus,
                             ROUND_TRIP, problems, "zero-mean port: ")
    else:
        _compare_observables(_pushed_through(doc["params"]), inputs[0], ROUND_TRIP, problems)


def check_classify_single(doc, want, problems):
    """Sector as drawn; the (a, c, x) witness is physical and reproduces (g2, g3)."""
    if doc.get("sector") != want["sector"]:
        problems.append(f"sector {doc.get('sector')}, drawn {want['sector']}")
        return
    data = _load(want["inputs"][0])
    g2, g3, nbar = data["g2"][0][0], data["g3"][0]["value"], data["nbar"][0]
    w = doc["witness"]
    a, c, x = w["a"], w["c"], w["x"]
    if not (0.0 <= a <= 1.0 and -1.0 <= x <= 1.0 and c is not None and c >= 0.0):
        problems.append(f"witness {w} outside the physical region")
        return
    if c * c > (1.0 - a) * (1.0 - a + 1.0 / nbar) + 1e-12:
        problems.append(f"witness {w} violates c^2 <= (1-a)(1-a+1/nbar)")
    g2_w = 2.0 + c * c - 2 * a * c * x - a * a
    g3_w = 6.0 + 9.0 * (c * c - 2 * a * c * x - a * a) + 4 * a**3 + 12 * a * a * c * x
    if abs(g2_w - g2) > EXACT * max(1.0, g2):
        problems.append(f"witness gives g2 = {g2_w}, data {g2}")
    if abs(g3_w - g3) > WITNESS_TOL * (1 + 1e-9):
        problems.append(f"witness gives g3 = {g3_w}, data {g3}")


def check_classify_multi(doc, want, problems):
    if doc.get("sector") != want["sector"]:
        problems.append(f"sector {doc.get('sector')}, drawn {want['sector']}")


def check_verify(doc, want, problems):
    if doc.get("cutoff") != want["cutoff"]:
        problems.append(f"cutoff {doc.get('cutoff')}, CLI default {want['cutoff']}")
    rows = {r["observable"]: r["closed_form"] for r in doc["rows"]}
    if set(rows) != set(want["rows"]):
        problems.append(f"rows {sorted(rows)} differ from {sorted(want['rows'])}")
        return
    for name, value in want["rows"].items():
        if not _close(rows[name], value, EXACT):
            problems.append(f"{name} closed form {rows[name]} differs from reference {value}")


CHECKS = {"measurement": check_measurement, "bucket": check_bucket,
          "reconstruct": check_reconstruct, "classify_single": check_classify_single,
          "classify_multi": check_classify_multi, "verify": check_verify}


def check(item: dict, text: str) -> list[str]:
    problems: list[str] = []
    try:
        doc = json.loads(text)
        CHECKS[item["check"]["type"]](doc, item["check"], problems)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        problems.append(f"malformed output: {type(err).__name__}: {err}")
    return problems
