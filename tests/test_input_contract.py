"""The input contract of classify and reconstruct, as a property: a valid
measurement file with one field replaced by a drawn value exits 0, 2, 3 or 4,
a nonzero exit writes exactly one stderr line, no exception escapes, and a
report carries no NaN or infinity."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstat.classify import SIGMA_NAMES, synthesize_measurements
from gausstat.cli import main
from gausstat.serialize import measurement_to_json
from gausstat.states import GaussianParams, derive_moments

STATES = {
    1: GaussianParams.single_mode(alpha=0.5 * np.exp(0.4j), r=0.45, theta=0.3,
                                  occupation=0.1),
    3: GaussianParams(np.zeros(3),
                      np.array([[0.3, 0.1, 0.05], [0.1, -0.25, 0.08j], [0.05, 0.08j, 0.2]]),
                      np.array([[0.0, 0.4, 0.2j], [0.4, 0.1, 0.3], [-0.2j, 0.3, 0.0]]),
                      np.array([0.1, 0.3, 0.6])),
}
ARRAYS = ("nbar", "p0", "g1_abs", "g1_phase", "g2")
BAD_G3_KEYS = ([0, 0], [0, 0, 0, 0], [-1, 0, 0], [True, 0, 0], [0.5, 0, 0], ["0", 0, 0],
               [None, 0, 0], "000", 7, None)


@lru_cache(maxsize=None)
def valid_document(modes: int) -> str:
    """The measurement file, with p0, of a state the commands accept."""
    mset = synthesize_measurements(derive_moments(STATES[modes]), include_p0=True)
    return json.dumps(measurement_to_json(mset))


@st.composite
def edits(draw):
    """(modes, path, value): the field at ``path`` of a valid file gets ``value``."""
    modes = draw(st.sampled_from(sorted(STATES)))
    mode = st.integers(0, modes - 1)
    entry = st.integers(0, len(json.loads(valid_document(modes))["g3"]) - 1)
    kind = draw(st.sampled_from(["beyond float", "null", "g3 key", "modes", "p0", "nbar",
                                 "sigma"]))
    if kind in ("beyond float", "null"):
        name = draw(st.sampled_from(ARRAYS + (("g3",) if kind == "beyond float" else ())))
        if name == "g3":
            path = ("g3", draw(entry), "value")
        elif name in ("nbar", "p0"):
            path = (name, draw(mode))
        else:
            path = (name, draw(mode), draw(mode))
        return modes, path, 10**400 if kind == "beyond float" else None
    if kind == "g3 key":
        bad = draw(st.sampled_from(BAD_G3_KEYS + ([0, 0, modes],)))
        return modes, ("g3", draw(entry), "modes"), bad
    if kind == "modes":
        return modes, ("modes",), draw(st.sampled_from([1.5, True, "1", 0]))
    if kind == "p0":
        return modes, ("p0", draw(mode)), draw(st.sampled_from([0.0, 2.0**-400, 1.0]))
    if kind == "nbar":
        return modes, ("nbar", draw(mode)), draw(st.sampled_from([0.0, -1.0, 1e200]))
    name = draw(st.sampled_from(SIGMA_NAMES))
    return modes, ("sigma", name), float(f"1e{draw(st.integers(0, 308))}")


def _finite(value) -> bool:
    """Whether every number in a parsed JSON document is finite."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


@pytest.fixture(scope="module")
def measurement_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "meas.json"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edit=edits())
def test_one_bad_field_exits_cleanly(measurement_file, edit):
    modes, path, value = edit
    doc = json.loads(valid_document(modes))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    measurement_file.write_text(json.dumps(doc))
    for command in ("classify", "reconstruct"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(measurement_file)])
        assert code in (0, 2, 3, 4), (command, code, err.getvalue())
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert out.getvalue() == ""
        else:
            assert _finite(json.loads(out.getvalue())), command
