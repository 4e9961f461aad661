"""Draw one workload's inputs from a seed and write them with their reference values.

Run as its own process, so the measured process never holds the reference
model or the draws:

    python3 clibench/inputs.py --workload simulate --seed 3 --dir clibench/out/work

It writes the state and measurement files the CLI reads, plus
``manifest.json``: one entry per operation of a round, with the CLI argv,
the item kind and what the checker compares the output against.  Item kinds
and mode counts are fixed per workload; the random draws follow the seed,
except those of the classify items (see FIXED_SEED).
Draws are never filtered on the program's outcome.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from reference import RefState

# Cutoffs the CLI's verify command picks by itself (cli.VERIFY_CUTOFFS); the
# check asserts the output reports them.
VERIFY_CUTOFFS = {1: 50, 2: 20, 3: 8}
# Inputs of the classify items do not follow --seed, so the share of failed
# operations never depends on it.  The multimode ones hit a fault on every
# call (kept, counted in `failed`); the single-mode feasibility search fails
# or misreports its witness on about 1 in 200 random draws (FOUND in
# CHANGES.md), and these fixed draws are not among them.
FIXED_SEED = 20240517


# --- samplers: the distribution of tests/conftest.py::random_params -------

def random_symmetric(rng, m, scale):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    z = z + z.T
    top = np.linalg.svd(z, compute_uv=False).max()
    if top > 0:
        z *= scale / top
    return z


def random_hermitian(rng, m, scale=1.0):
    h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = h + h.conj().T
    return scale * h / max(1.0, np.abs(h).max())


def random_params(rng, modes, alpha_max=0.8, r_max=0.7, n_max=0.5):
    amp = rng.uniform(0.0, alpha_max, modes)
    phase = rng.uniform(-np.pi, np.pi, modes)
    alpha = amp * np.exp(1j * phase)
    z = random_symmetric(rng, modes, rng.uniform(0.0, r_max))
    phi = random_hermitian(rng, modes, rng.uniform(0.0, 1.0))
    occ = rng.uniform(0.0, n_max, modes)
    return alpha, z, phi, occ


# --- sector draws for the analyze workload ---------------------------------
# Two regions of the state space hit program faults on some draws only
# (FOUND in CHANGES.md), which would make the failure share depend on the
# seed.  The draws stay out of them by properties of the state, computed by
# the reference model, never by the program's outcome:
# * barely displaced modes (non-squeezed test): amplitude floor 0.3;
# * phase-system cosines within COSINE_MARGIN of +-1 (the phase solvers'
#   arccos branches collapse there): such a draw is drawn again.
COSINE_MARGIN = 1e-5


def phase_cosines(ref: RefState, kind: str) -> np.ndarray:
    """Off-diagonal cosines of the non-displaced or non-squeezed phase system."""
    m = ref.modes
    fringe = np.angle(ref.g1())
    if kind == "nd":
        theta = np.angle(ref.fluct[:m, :m])
        c = np.cos(fringe - theta + np.diag(theta)[:, None])
    else:
        phase = np.angle(ref.alpha)
        c = np.cos(fringe + phase[:, None] - phase[None, :])
    return c[~np.eye(m, dtype=bool)]


def resolved(draw, kind) -> bool:
    cosines = phase_cosines(RefState(*draw), kind)
    return cosines.size == 0 or 1.0 - np.abs(cosines).max() >= COSINE_MARGIN


def non_displaced(rng, m):
    while True:
        draw = (np.zeros(m), random_symmetric(rng, m, rng.uniform(0.2, 0.7)),
                random_hermitian(rng, m, rng.uniform(0.3, 1.0)), rng.uniform(0.05, 0.5, m))
        if resolved(draw, "nd"):
            return draw


def non_squeezed(rng, m):
    while True:
        alpha = rng.uniform(0.3, 0.8, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        draw = (alpha, np.zeros((m, m)), random_hermitian(rng, m, rng.uniform(0.3, 1.0)),
                rng.uniform(0.05, 0.5, m))
        if resolved(draw, "ns"):
            return draw


def displaced_squeezed_multi(rng, m):
    """The two-port reconstruction tests' draw; its zero-mean port is non-displaced."""
    while True:
        alpha = rng.uniform(0.25, 0.6, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        z, phi = random_symmetric(rng, m, rng.uniform(0.3, 0.45)), random_hermitian(rng, m, 0.7)
        occ = rng.uniform(0.05, 0.35, m) * (1 + np.arange(m))
        if resolved((np.zeros(m), z, phi, occ), "nd"):
            return alpha, z, phi, occ


def displaced_squeezed_single(rng):
    alpha = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    z = rng.uniform(0.2, 0.6) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return np.array([alpha]), np.array([[z]]), np.zeros((1, 1)), np.array([rng.uniform(0.0, 0.5)])


def oracle_state(rng, m):
    """Displacement-dominated draw, as the oracle's bucket tests use.

    random_params shrunk by one factor does not fit the oracle at the CLI's
    cutoffs: at 0.5 the top-level occupancy of some three-mode draws passes
    the 1e-3 gate at cutoff 8; at 0.25 a nearly empty squeezed mode makes g3
    large and its oracle row misses the CLI's budget (FOUND in CHANGES.md).
    """
    alpha = rng.uniform(0.3, 0.6, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
    return (alpha, random_symmetric(rng, m, rng.uniform(0.02, 0.15)),
            random_hermitian(rng, m, rng.uniform(0.0, 1.0)), rng.uniform(0.0, 0.1, m))


# --- gausstat/v1 documents ---------------------------------------------------

def c2j(v):
    v = complex(v)
    return [v.real, v.imag]


def params_doc(alpha, z, phi, occ):
    return {"schema": "gausstat/v1", "type": "gaussian_params", "modes": len(alpha),
            "alpha": [c2j(v) for v in alpha],
            "squeeze": [[c2j(v) for v in row] for row in z],
            "rotation": [[c2j(v) for v in row] for row in phi],
            "thermal": [float(v) for v in occ]}


def observables(ref: RefState) -> dict:
    """Exact observables of a state in the layout of a measurement_set document."""
    g1 = ref.g1()
    phase = np.triu(np.angle(g1), 1)
    return {"modes": ref.modes, "nbar": ref.nbar().tolist(),
            "g1_abs": np.abs(g1).tolist(), "g1_phase": (phase - phase.T).tolist(),
            "g2": ref.g2().tolist(),
            "g3": [{"modes": list(k), "value": v} for k, v in ref.g3().items()],
            "p0": ref.p0().tolist()}


def measurement_doc(ref: RefState) -> dict:
    return {"schema": "gausstat/v1", "type": "measurement_set", "sigma": {},
            **observables(ref)}


class ItemWriter:
    def __init__(self, directory: Path):
        self.dir = directory
        self.items = []
        self.files = 0

    def write(self, doc) -> str:
        path = self.dir / f"in{self.files:03d}.json"
        self.files += 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def state(self, draw):
        return self.write(params_doc(*draw)), RefState(*draw)

    def measurements(self, draw):
        ref = RefState(*draw)
        return self.write(measurement_doc(ref))

    def add(self, kind, argv, check, kept_fault=False):
        self.items.append({"kind": kind, "argv": argv, "check": check,
                           "kept_fault": kept_fault})


def simulate_items(b: ItemWriter, rng):
    """16 small simulate, 4 small bucket; simulate and bucket at M = 12 and 16."""
    small = [(m, random_params(rng, m)) for m in (1, 2, 3, 4) for _ in range(4)]
    large = [(m, random_params(rng, m)) for m in (12, 16)]
    for n, (m, draw) in enumerate(small + large):
        path, ref = b.state(draw)
        size = "small" if m <= 4 else "large"
        b.add(f"simulate.{size}", ["simulate", path],
              {"type": "measurement", **observables(ref)})
        if size == "large" or n % 4 == 0:
            g2b, g3b, total = ref.bucket()
            b.add(f"bucket.{size}", ["bucket", path],
                  {"type": "bucket", "g2_b": g2b, "g3_b": g3b, "total_nbar": total})


def analyze_items(b: ItemWriter, rng):
    for sector, draw in (("nd", non_displaced), ("ns", non_squeezed)):
        for _ in range(10):
            path = b.measurements(draw(rng, 1))
            b.add("reconstruct.single", ["reconstruct", path],
                  {"type": "reconstruct", "sector": sector, "inputs": [path]})
    for sector, draw in (("nd", non_displaced), ("ns", non_squeezed)):
        for m in (3, 4, 5, 6):
            path = b.measurements(draw(rng, m))
            b.add(f"reconstruct.{sector}", ["reconstruct", path],
                  {"type": "reconstruct", "sector": sector, "inputs": [path]})
    for m in (3, 3, 4):
        alpha, z, phi, occ = displaced_squeezed_multi(rng, m)
        minus = b.measurements((np.zeros(m), z, phi, occ))
        orig = b.measurements((alpha, z, phi, occ))
        b.add("reconstruct.dst", ["reconstruct", minus, orig, "--sector", "dst"],
              {"type": "reconstruct", "sector": "dst", "inputs": [minus, orig]})
    fixed = np.random.default_rng(FIXED_SEED)
    for _ in range(2):
        path = b.measurements(displaced_squeezed_single(fixed))
        b.add("classify.single", ["classify", path],
              {"type": "classify_single", "sector": "DisplacedSqueezedConsistent",
               "inputs": [path]})
    for sector, draw, m in (("NonDisplaced", non_displaced, 3),
                            ("NonSqueezed", non_squeezed, 4)):
        path = b.measurements(draw(fixed, m))
        b.add("classify.multi", ["classify", path],
              {"type": "classify_multi", "sector": sector}, kept_fault=True)


def verify_items(b: ItemWriter, rng):
    """12 single-mode states, 2 two-mode, 1 three-mode."""
    for m in [1] * 12 + [2, 2, 3]:
        path, ref = b.state(oracle_state(rng, m))
        rows = {f"nbar_{i}": v for i, v in enumerate(ref.nbar())}
        g2 = ref.g2()
        rows.update({f"g2_{i}{j}": g2[i, j] for i in range(m) for j in range(i, m)})
        rows.update({"g3_%d%d%d" % k: v for k, v in ref.g3().items()})
        if m == 1:
            rows["p0"] = float(ref.p0()[0])
        if m <= 2:
            rows["g2_bucket"], rows["g3_bucket"], _ = ref.bucket()
        b.add(f"verify.m{m}", ["verify", path],
              {"type": "verify", "cutoff": VERIFY_CUTOFFS[m], "rows": rows})


WORKLOADS = {"simulate": simulate_items, "analyze": analyze_items, "verify": verify_items}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    writer = ItemWriter(directory)
    tag = sorted(WORKLOADS).index(args.workload)
    WORKLOADS[args.workload](writer, np.random.default_rng([args.seed, tag]))
    (directory / "manifest.json").write_text(json.dumps(writer.items), encoding="utf-8")


if __name__ == "__main__":
    main()
