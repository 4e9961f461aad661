"""Versioned JSON schemas for states, measurements, reports and reconstructions.

Complex numbers are stored as [re, im] pairs, matrices as row-major nested
lists.  Every document carries ``"schema": "gausstat/v1"``.

Every report and ``--out`` file is 2-space-indented, key-sorted JSON: byte for
byte what ``json.dumps(doc, indent=2, sort_keys=True)`` writes, plus a newline.
``dumps`` builds that text by joining strings, since the stdlib encodes
indented output token by token in pure Python.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .classify import Classification, MeasurementSet
from .errors import ValidationError
from .recon_single import Ambiguity, ReconstructedState
from .states import GaussianParams

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


_PARAMS_FIELDS = (("alpha", lambda v: np.array([_j2c(x) for x in v])),
                  ("squeeze", _j2cmat),
                  ("rotation", _j2cmat),
                  ("thermal", lambda v: np.array(v, dtype=float)))


def params_from_json(doc: dict) -> GaussianParams:
    _check_schema(doc, "gaussian_params")
    values = []
    try:
        for name, read in _PARAMS_FIELDS:
            try:
                values.append(read(doc[name]))
            except OverflowError:  # an integer too large for a float
                raise ValidationError(f"{name} entries must lie within float range") from None
        params = GaussianParams(*values)
    except KeyError as err:
        raise ValidationError(f"gaussian_params document missing field {err}") from err
    except (TypeError, ValueError) as err:
        raise ValidationError(f"malformed gaussian_params document: {err}") from err
    # the optional modes field must agree with the arrays
    modes = doc.get("modes", params.modes)
    if isinstance(modes, bool) or not isinstance(modes, int) or modes != params.modes:
        raise ValidationError(f"modes must equal the length of alpha ({params.modes}), "
                              f"got {modes!r}")
    return params


def measurement_to_json(m: MeasurementSet) -> dict:
    doc = {
        "schema": SCHEMA,
        "type": "measurement_set",
        "modes": m.modes,
        "g3": [{"modes": list(k), "value": v} for k, v in sorted(m.g3.items())],
        "sigma": dict(m.sigma),
    }
    for name in ("nbar", "p0", "g1_abs", "g1_phase", "g2"):
        val = getattr(m, name)  # float arrays, so tolist() gives Python floats
        doc[name] = None if val is None else val.tolist()
    return doc


def measurement_from_json(doc: dict) -> MeasurementSet:
    _check_schema(doc, "measurement_set")
    try:
        entries = doc.get("g3", [])
        # MeasurementSet converts and checks the values and arrays; entries whose
        # keys are equal, such as two [0, 0, 1] or [false, 0, 0] and [0, 0, 0],
        # collapse here, so they are counted
        g3 = {tuple(entry["modes"]): entry["value"] for entry in entries}
        if len(g3) != len(entries):
            raise ValidationError("g3 lists a mode triple more than once")
        arrays = {name: doc.get(name) for name in ("nbar", "p0", "g1_abs", "g1_phase", "g2")}
        return MeasurementSet(doc["modes"], g3=g3, sigma=doc.get("sigma", {}), **arrays)
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"malformed measurement_set document: {err}") from err


def classification_to_json(cls: Classification, meta: dict | None = None) -> dict:
    """A classification report; a residual with no finite value (no witness
    reproduces the data at all) is written as null, so the report stays JSON."""
    doc = {
        "schema": SCHEMA,
        "type": "classification",
        "sector": cls.sector,
        "residuals": [
            {"relation": r.relation,
             "residual": r.residual if np.isfinite(r.residual) else None,
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


def read_text(path, digests: dict | None = None) -> str:
    """The UTF-8 text of a file; a file that cannot be read is a ValidationError.
    With ``digests``, the sha256 prefix of the bytes read is stored under str(path)."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else f"not UTF-8: {err.reason}"
        raise ValidationError(f"{path}: cannot read ({reason})") from err
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()[:16]
    return text


def write_text(path, text: str) -> None:
    """Write a file; a path that cannot be written is a ValidationError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise ValidationError(f"{path}: cannot write ({err.strerror})") from err


_INF = float("inf")


def _float(x) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    """A dict key as the stdlib converts it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _dict(d: dict, nl: str) -> str:
    if not d:
        return "{}"
    inner = nl + "  "
    return ("{" + ",".join([inner + _quote(_key(k)) + ": " + _value(v, inner)
                            for k, v in sorted(d.items())]) + nl + "}")


def _texts(values, nl: str) -> list:
    """The JSON text of each of a non-empty sequence's values, at indent ``nl``.
    All floats or all plain ints go through one map.  The items of non-empty
    lists are encoded as one sequence; records that share one set of str keys
    have their keys sorted and quoted once, and each key's values encoded as
    one sequence."""
    head = values[0]
    try:
        if isinstance(head, float):
            texts = list(map(float.__repr__, values))
            if "n" in "".join(texts):  # a nan or inf repr
                texts = list(map(_float, values))
            return texts
        if type(head) is int and bool not in map(type, values):
            return list(map(int.__repr__, values))
    except TypeError:  # a value of another type: encode one by one
        pass
    if type(head) is list and all(type(v) is list and v for v in values):
        # non-empty lists: their items encoded as one sequence, then regrouped
        inner = nl + "  "
        sep = "," + inner
        flat = iter(_texts([x for v in values for x in v], inner))
        return ["[" + inner + sep.join(islice(flat, len(v))) + nl + "]" for v in values]
    if type(head) is dict and head:
        keys = head.keys()
        if (all(type(k) is str for k in keys)
                and all(type(d) is dict and d.keys() == keys for d in values)):
            inner = nl + "  "
            columns = [map((inner + _quote(k) + ": ").__add__,
                           _texts([d[k] for d in values], inner))
                       for k in sorted(keys)]
            return ["{" + body + nl + "}" for body in map(",".join, zip(*columns))]
    return [_value(v, nl) for v in values]


def _list(items, nl: str) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(_texts(items, inner)) + nl + "]"


def _value(o, nl: str) -> str:
    """``o`` as indented JSON; ``nl`` is the newline and indent of its own line."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        return _list(o, nl)
    if isinstance(o, dict):
        return _dict(o, nl)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, built by joining
    strings: the same tokens for NaN and infinities, ASCII escapes, key
    conversion and TypeError for a value or key of an unsupported type.  With
    several unsupported values the error may name another one, and there is no
    circular-reference check: a report never refers to itself."""
    return _value(doc, "\n")


def dump(doc: dict, path) -> None:
    write_text(path, dumps(doc) + "\n")


_JSON_KINDS = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}


def load(path, digests: dict | None = None) -> dict:
    """A JSON file whose top-level value is an object; anything else, and
    invalid or non-finite JSON, is a ValidationError naming the file."""
    def reject(token):
        raise ValidationError(f"{path}: non-finite JSON number {token}")

    try:
        doc = json.loads(read_text(path, digests), parse_constant=reject)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(doc, dict):
        kind = _JSON_KINDS.get(type(doc), "a number")
        raise ValidationError(f"{path}: expected a JSON object, got {kind}")
    return doc
