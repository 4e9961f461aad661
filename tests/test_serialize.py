"""JSON schema round-trips and the report writer."""

import json

import numpy as np
import pytest
from conftest import random_params
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausstat.classify import classify, synthesize_measurements
from gausstat.errors import ValidationError
from gausstat.phases import DISPLACEMENT, PhaseSystem, solve_displacement_phases
from gausstat.recon_single import Ambiguity, ReconstructedState
from gausstat.serialize import (
    SCHEMA,
    classification_to_json,
    load,
    measurement_from_json,
    measurement_to_json,
    params_from_json,
    params_to_json,
    reconstruction_to_json,
    dump,
    dumps,
)
from gausstat.states import GaussianParams, derive_moments


def test_params_round_trip(rng):
    params = random_params(rng, 3)
    doc = params_to_json(params)
    assert doc["schema"] == SCHEMA
    back = params_from_json(doc)
    assert np.allclose(back.alpha, params.alpha)
    assert np.allclose(back.squeeze, params.squeeze)
    assert np.allclose(back.rotation, params.rotation)
    assert np.allclose(back.thermal, params.thermal)


def test_measurement_round_trip(rng):
    mom = derive_moments(random_params(rng, 2, alpha_max=0.5))
    mset = synthesize_measurements(mom)
    back = measurement_from_json(measurement_to_json(mset))
    assert back.g3 == mset.g3
    assert np.allclose(back.g2, mset.g2)
    assert np.allclose(back.g1_phase, mset.g1_phase)


def test_schema_checked():
    with pytest.raises(ValidationError):
        params_from_json({"schema": "other", "type": "gaussian_params"})
    with pytest.raises(ValidationError):
        params_from_json({"schema": SCHEMA, "type": "measurement_set"})


def test_classification_document(rng):
    params = GaussianParams.single_mode(r=0.4, occupation=0.2)
    mset = synthesize_measurements(derive_moments(params))
    doc = classification_to_json(classify(mset), meta={"inputs": {}})
    assert doc["sector"] == "NonDisplaced"
    assert any("evidence only" in note for note in doc["notes"])
    assert all({"relation", "residual", "tolerance", "passed"} <= set(r)
               for r in doc["residuals"])


def test_reconstruction_round_trip(rng):
    primary = random_params(rng, 2)
    alt = random_params(rng, 2)
    rec = ReconstructedState(primary, Ambiguity(z2_reflection=True,
                                                discrete_solutions=(alt,),
                                                notes=("note",)), residual=1e-9)
    doc = json.loads(json.dumps(reconstruction_to_json(rec)))
    assert doc["schema"] == SCHEMA and doc["type"] == "reconstructed_state"
    assert np.allclose(params_from_json(doc["params"]).alpha, primary.alpha)
    amb = doc["ambiguity"]
    assert amb["global_phase"] is True and amb["z2_reflection"] is True
    assert amb["notes"] == ["note"]
    (back_alt,) = [params_from_json(p) for p in amb["discrete_solutions"]]
    assert np.allclose(back_alt.squeeze, alt.squeeze)
    assert doc["residual"] == pytest.approx(1e-9)


def test_dump_and_load(tmp_path, rng):
    params = random_params(rng, 1)
    path = tmp_path / "state.json"
    dump(params_to_json(params), path)
    assert load(path)["type"] == "gaussian_params"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load(bad)


def phase_system_to_json(system: PhaseSystem) -> dict:
    """A phase system as a JSON document; unconstrained cosines become null."""
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
    assert (doc["schema"], doc["type"]) == (SCHEMA, "phase_system")
    c = np.array([[np.nan if v is None else float(v) for v in row]
                  for row in doc["c"]])
    return PhaseSystem(doc["kind"], np.array(doc["big_phi"], dtype=float), c)


def phase_solutions_to_json(solutions, degeneracy_notes=None) -> dict:
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


def test_phase_system_round_trip():
    big_phi = np.array([[0.0, 0.3], [-0.3, 0.0]])
    c = np.array([[np.nan, 0.4], [0.4, np.nan]])
    system = PhaseSystem(DISPLACEMENT, big_phi, c)
    back = phase_system_from_json(json.loads(json.dumps(phase_system_to_json(system))))
    assert back.kind == DISPLACEMENT
    assert np.isnan(back.c[0, 0]) and back.c[0, 1] == pytest.approx(0.4)
    doc = phase_solutions_to_json(solve_displacement_phases(back), ["note"])
    assert len(doc["solutions"]) == 2
    assert doc["degeneracy_notes"] == ["note"]


# --- the report writer against the stdlib's indented, key-sorted encoder ---

SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                   st.floats().map(np.float64))
ints = st.one_of(st.integers(), st.integers(-10**40, 10**40))
texts = st.one_of(st.text(), st.sampled_from(['"', '\\"q\\"', "\x00\x1f\n\t", "é€😀", ""]))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)


def _containers(children):
    record_keys = st.lists(texts, min_size=1, max_size=4, unique=True)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(floats, max_size=6),
        st.lists(ints, max_size=6),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(st.one_of(ints, floats, st.booleans()), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
        # records that share one key set, as the g3 entries and verify rows do
        record_keys.flatmap(lambda keys: st.lists(
            st.fixed_dictionaries({k: children for k in keys}), max_size=4)),
    )


documents = st.recursive(scalars, _containers, max_leaves=40)


def _stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


@settings(max_examples=400, deadline=None)
@given(documents)
@example([{1: 0}, {True: 0}, {1.0: 0}])
@example([{"a": 1, "b": [2, True]}, {"b": [], "a": {}}, {"a": -0.0, "b": [float("nan")]}])
@example([[1, 2], [True], [1.5, float("inf")], [np.float64(2.5)], ["x", None]])
@example({"g3": [{"modes": [0, 1, 2], "value": 1.25}], "g2": [[1.0, 2.0], [2.0, 1.0]]})
def test_dumps_equals_stdlib_indented_sorted_json(doc):
    try:
        expected = _stdlib(doc)
    except TypeError:  # keys of types that do not sort against each other
        with pytest.raises(TypeError):
            dumps(doc)
        return
    assert dumps(doc) == expected


@pytest.mark.parametrize("bad", [np.bool_(True), np.int64(3), 1j, {1, 2}],
                         ids=["numpy.bool_", "numpy.int64", "complex", "set"])
@pytest.mark.parametrize("place", [
    lambda v: v, lambda v: [v], lambda v: [1.0, v], lambda v: [1, v], lambda v: [[1], [v]],
    lambda v: {"k": v}, lambda v: [{"k": 1}, {"k": v}],
], ids=["top", "list", "float-list", "int-list", "nested-list", "dict", "records"])
def test_dumps_rejects_what_the_stdlib_rejects(bad, place):
    doc = place(bad)
    with pytest.raises(TypeError) as stdlib_err:
        _stdlib(doc)
    with pytest.raises(TypeError) as err:
        dumps(doc)
    assert str(err.value) == str(stdlib_err.value)


def test_dumps_rejects_unsupported_keys():
    for doc in ({(1, 2): 0}, {"a": 0, 1: 0}):
        with pytest.raises(TypeError):
            _stdlib(doc)
        with pytest.raises(TypeError):
            dumps(doc)
