"""Versioned JSON schemas for states, measurements, reports and reconstructions.

Complex numbers are stored as [re, im] pairs, matrices as row-major nested
lists.  Every document carries ``"schema": "gausstat/v1"``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .classify import Classification, MeasurementSet
from .errors import ValidationError
from .phases import PhaseSolution, PhaseSystem
from .recon_single import Ambiguity, ReconstructedState
from .states import GaussianParams, MomentSummary

SCHEMA = "gausstat/v1"


def _c2j(value) -> list:
    value = complex(value)
    return [value.real, value.imag]


def _j2c(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValidationError(f"expected [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])


def _cmat2j(mat) -> list:
    return [[_c2j(v) for v in row] for row in np.asarray(mat, dtype=complex)]


def _j2cmat(rows) -> np.ndarray:
    return np.array([[_j2c(v) for v in row] for row in rows], dtype=complex)


def _check_schema(doc: dict, kind: str) -> None:
    if doc.get("schema") != SCHEMA:
        raise ValidationError(f"missing or wrong schema field (expected {SCHEMA!r})")
    if doc.get("type") != kind:
        raise ValidationError(f"expected document type {kind!r}, got {doc.get('type')!r}")


def params_to_json(params: GaussianParams) -> dict:
    return {
        "schema": SCHEMA,
        "type": "gaussian_params",
        "modes": params.modes,
        "alpha": [_c2j(v) for v in params.alpha],
        "squeeze": _cmat2j(params.squeeze),
        "rotation": _cmat2j(params.rotation),
        "thermal": [float(v) for v in params.thermal],
    }


def params_from_json(doc: dict) -> GaussianParams:
    _check_schema(doc, "gaussian_params")
    try:
        return GaussianParams(
            np.array([_j2c(v) for v in doc["alpha"]]),
            _j2cmat(doc["squeeze"]),
            _j2cmat(doc["rotation"]),
            np.array(doc["thermal"], dtype=float),
        )
    except KeyError as err:
        raise ValidationError(f"gaussian_params document missing field {err}") from err


def moments_to_json(moments: MomentSummary) -> dict:
    return {
        "schema": SCHEMA,
        "type": "moment_summary",
        "modes": moments.modes,
        "nbar": [float(v) for v in moments.nbar],
        "g1": _cmat2j(np.nan_to_num(moments.g1)),
        "cov": _cmat2j(moments.cov),
        "alpha": [_c2j(v) for v in moments.alpha],
    }


def moments_from_json(doc: dict) -> MomentSummary:
    _check_schema(doc, "moment_summary")
    return MomentSummary(
        np.array(doc["nbar"], dtype=float),
        _j2cmat(doc["g1"]),
        _j2cmat(doc["cov"]),
        np.array([_j2c(v) for v in doc["alpha"]]),
    )


def measurement_to_json(m: MeasurementSet) -> dict:
    doc = {
        "schema": SCHEMA,
        "type": "measurement_set",
        "modes": m.modes,
        "g3": [{"modes": list(k), "value": v} for k, v in sorted(m.g3.items())],
        "sigma": dict(m.sigma),
    }
    for name in ("nbar", "p0"):
        val = getattr(m, name)
        doc[name] = None if val is None else [float(x) for x in val]
    for name in ("g1_abs", "g1_phase", "g2"):
        val = getattr(m, name)
        doc[name] = None if val is None else [[float(x) for x in row] for row in val]
    return doc


def measurement_from_json(doc: dict) -> MeasurementSet:
    _check_schema(doc, "measurement_set")
    try:
        g3 = {tuple(entry["modes"]): float(entry["value"]) for entry in doc.get("g3", [])}
        kwargs = {}
        for name in ("nbar", "p0"):
            val = doc.get(name)
            kwargs[name] = None if val is None else np.array(val, dtype=float)
        for name in ("g1_abs", "g1_phase", "g2"):
            val = doc.get(name)
            kwargs[name] = None if val is None else np.array(val, dtype=float)
        return MeasurementSet(int(doc["modes"]), g3=g3, sigma=doc.get("sigma", {}), **kwargs)
    except (KeyError, TypeError) as err:
        raise ValidationError(f"malformed measurement_set document: {err}") from err


def classification_to_json(cls: Classification, meta: dict | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "type": "classification",
        "sector": cls.sector,
        "residuals": [
            {"relation": r.relation, "residual": r.residual,
             "tolerance": r.tolerance, "passed": r.passed}
            for r in cls.residuals
        ],
        "notes": list(cls.notes),
        "witness": cls.witness,
    }
    if meta:
        doc["meta"] = meta
    return doc


def ambiguity_to_json(ambiguity: Ambiguity) -> dict:
    return {
        "global_phase": ambiguity.global_phase,
        "z2_reflection": ambiguity.z2_reflection,
        "discrete_solutions": [params_to_json(p) for p in ambiguity.discrete_solutions],
        "notes": list(ambiguity.notes),
    }


def reconstruction_to_json(rec: ReconstructedState, meta: dict | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "type": "reconstructed_state",
        "params": params_to_json(rec.params),
        "ambiguity": ambiguity_to_json(rec.ambiguity),
        "residual": rec.residual,
    }
    if meta:
        doc["meta"] = meta
    return doc


def reconstruction_from_json(doc: dict) -> ReconstructedState:
    _check_schema(doc, "reconstructed_state")
    amb = doc.get("ambiguity", {})
    ambiguity = Ambiguity(
        global_phase=bool(amb.get("global_phase", True)),
        z2_reflection=bool(amb.get("z2_reflection", False)),
        discrete_solutions=tuple(params_from_json(p)
                                 for p in amb.get("discrete_solutions", [])),
        notes=tuple(amb.get("notes", ())),
    )
    return ReconstructedState(params_from_json(doc["params"]), ambiguity,
                              residual=float(doc.get("residual", 0.0)))


def phase_system_to_json(system: PhaseSystem) -> dict:
    def clean(mat):
        return [[None if not np.isfinite(v) else float(v) for v in row] for row in mat]

    return {
        "schema": SCHEMA,
        "type": "phase_system",
        "kind": system.kind,
        "modes": system.modes,
        "big_phi": [[float(v) for v in row] for row in system.big_phi],
        "c": clean(system.c),
    }


def phase_system_from_json(doc: dict) -> PhaseSystem:
    _check_schema(doc, "phase_system")
    c = np.array([[np.nan if v is None else float(v) for v in row]
                  for row in doc["c"]])
    return PhaseSystem(doc["kind"], np.array(doc["big_phi"], dtype=float), c)


def phase_solutions_to_json(solutions: list[PhaseSolution],
                            degeneracy_notes: list[str] | None = None) -> dict:
    out = []
    for sol in solutions:
        entry = {
            "phases": [float(v) for v in sol.phases],
            "signature": list(sol.signature),
            "residual": sol.residual,
        }
        if sol.epsilon is not None:
            entry["epsilon"] = list(sol.epsilon)
        if sol.theta is not None:
            entry["theta"] = [[float(v) for v in row] for row in sol.theta]
        out.append(entry)
    return {
        "schema": SCHEMA,
        "type": "phase_solutions",
        "solutions": out,
        "degeneracy_notes": list(degeneracy_notes or []),
    }


def dump(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load(path) -> dict:
    def reject(token):
        raise ValidationError(f"{path}: non-finite JSON number {token}")

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: invalid JSON ({err})") from err
