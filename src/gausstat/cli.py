"""Command-line front end: simulate, classify, reconstruct, verify, curves, bucket.

Exit codes: 0 success, 2 validation error, 3 infeasible or inconsistent data,
4 numerical failure.  Set GAUSSTAT_LOG=debug for verbose logging.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bucket as bucket_mod
from . import fock, serialize
from .classify import SIGMA_NAMES, classify, synthesize_measurements, _nd_line, _ns_curve, _require
from .errors import (
    GausstatError,
    InfeasibleError,
    NumericalError,
    TruncationError,
    ValidationError,
)
from .recon_multi import (
    measurement_residual,
    recon_displaced_squeezed_multi,
    recon_displaced_thermal_multi,
    recon_squeezed_thermal_multi,
)
from .recon_single import recon_dst_beamsplitter, recon_dst_scan, reconstruct_single_mode
from .states import derive_moments, g2_tensor, g3_tensor, mode_vacuum_probability
from .words import LadderWord, correlation_word

log = logging.getLogger("gausstat")


@dataclass
class RunConfig:
    """Knobs shared by all subcommands."""

    tolerance: float = 1e-8
    fock_cutoff: int | None = None
    seed: int = 0
    noise_sigma: dict = field(default_factory=dict)
    output_path: str | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValidationError("tolerance must be positive")
        if self.fock_cutoff is not None and self.fock_cutoff < 2:
            raise ValidationError("fock cutoff must be at least 2")


def _finite_float(text: str) -> float:
    """A finite float parsed from command-line or CSV text; anything else is a
    ValidationError, which exits 2.  The argparse ``type`` of every float flag."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text!r}")
    return value


def _parse_noise(spec: str | None) -> dict:
    if not spec:
        return {}
    out = {}
    for chunk in spec.split(","):
        if not chunk.strip():
            continue
        try:
            key, value = chunk.split("=")
            key, value = key.strip(), float(value)
        except ValueError as err:
            raise ValidationError(f"bad --noise entry {chunk!r} "
                                  "(expected name=sigma[,name=sigma...])") from err
        if key not in SIGMA_NAMES:
            raise ValidationError(f"unknown --noise name {key!r} "
                                  f"(expected one of {', '.join(SIGMA_NAMES)})")
        if not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(f"--noise sigma for {key} must be finite and "
                                  f"nonnegative, got {value}")
        out[key] = value
    return out


def _config_from_args(args) -> RunConfig:
    return RunConfig(tolerance=args.tol, fock_cutoff=args.cutoff, seed=args.seed,
                     noise_sigma=_parse_noise(getattr(args, "noise", None)),
                     output_path=args.out)


def _file_meta(paths, config: RunConfig) -> dict:
    hashes = {}
    for p in paths:
        digest = hashlib.sha256(Path(p).read_bytes()).hexdigest()[:16]
        hashes[str(p)] = digest
    return {
        "inputs": hashes,
        "config": {
            "tolerance": config.tolerance,
            "fock_cutoff": config.fock_cutoff,
            "seed": config.seed,
            "noise_sigma": config.noise_sigma,
        },
    }


def _emit(doc: dict, out_path: str | None) -> None:
    if out_path:
        serialize.dump(doc, out_path)
        log.info("wrote %s", out_path)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    params = serialize.params_from_json(serialize.load(args.params))
    moments = derive_moments(params)
    rng = np.random.default_rng(config.seed) if config.noise_sigma else None
    mset = synthesize_measurements(moments, include_p0=True,
                                   rng=rng, sigma=config.noise_sigma)
    doc = serialize.measurement_to_json(mset)
    doc["meta"] = _file_meta([args.params], config)
    _emit(doc, config.output_path)
    return 0


def cmd_classify(args) -> int:
    config = _config_from_args(args)
    mset = serialize.measurement_from_json(serialize.load(args.measurements))
    verdict = classify(mset, tol=max(config.tolerance, 1e-9))
    doc = serialize.classification_to_json(verdict,
                                           meta=_file_meta([args.measurements], config))
    _emit(doc, config.output_path)
    return 0


def _read_scan_csv(path):
    rows = []
    sigmas = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"g2", "g3"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValidationError(f"{path}: scan CSV needs header columns g2,g3")
        for row in reader:
            try:
                rows.append([_finite_float(row["g2"]), _finite_float(row["g3"])])
                if row.get("sigma_g3"):
                    sigmas.append(_finite_float(row["sigma_g3"]))
                    if not sigmas[-1] > 0:
                        raise ValidationError(f"sigma_g3 must be positive, got {sigmas[-1]!r}")
            except ValidationError as err:
                raise ValidationError(f"{path}: line {reader.line_num}: {err}") from err
    if sigmas and len(sigmas) != len(rows):
        raise ValidationError(f"{path}: sigma_g3 must be given for every row or none")
    return np.array(rows), (np.array(sigmas) if sigmas else None)


def cmd_reconstruct(args) -> int:
    config = _config_from_args(args)
    inputs = list(args.measurements)
    if not inputs and not args.scan:
        raise ValidationError("reconstruct needs a measurement file or --scan")
    if args.scan:
        pts, sigmas = _read_scan_csv(args.scan)
        if args.nbar is None:
            raise ValidationError("--scan needs --nbar")
        steps = None
        if args.phase_steps:
            steps = [_finite_float(x) for x in args.phase_steps.split(",")]
        result = recon_dst_scan(pts, nbar=args.nbar, sigmas=sigmas, phase_steps=steps,
                                tol=max(config.tolerance, 1e-8))
        doc = {
            "schema": serialize.SCHEMA,
            "type": "scan_reconstruction",
            "alpha_abs": result.alpha_abs,
            "cov_abs": result.cov_abs,
            "r": result.r,
            "thermal": result.occupation,
            "cosines": list(result.cosines),
            "rel_phases": None if result.rel_phases is None else list(result.rel_phases),
            "slope": result.slope,
            "intercept": result.intercept,
            "fit_residual": result.fit_residual,
            "z2_resolved": result.z2_resolved,
            "meta": _file_meta([args.scan], config),
        }
        _emit(doc, config.output_path)
        return 0
    msets = [serialize.measurement_from_json(serialize.load(p)) for p in inputs]
    primary = msets[0]
    sector = args.sector
    if sector == "auto":
        verdict = classify(primary, tol=max(config.tolerance, 1e-9))
        sector = {"NonDisplaced": "nd", "ThermalLike": "nd", "NonSqueezed": "ns",
                  "CoherentLike": "ns"}.get(verdict.sector)
        if sector is None:
            sector = "dst"
        log.info("auto sector: %s -> %s", verdict.sector, sector)
    tol = max(config.tolerance, 1e-9)
    if sector == "dst":
        if len(msets) != 2:
            raise ValidationError("--sector dst needs two measurement files: "
                                  "zero-mean port and reference port")
        m_minus, m_ref = msets
        for port, mset in (("zero-mean port", m_minus), ("reference port", m_ref)):
            _require(mset, f"--sector dst: the {port}", "nbar", "g2")
        if primary.modes == 1:
            g2_orig = float(m_ref.g2[0, 0])
            g3_orig = m_ref.g3.get((0, 0, 0))
            rec = recon_dst_beamsplitter(m_minus, g2_orig, float(m_ref.nbar[0]),
                                         ref_port=args.ref_port, g3_orig=g3_orig,
                                         tol=tol)
        else:
            rec = recon_displaced_squeezed_multi(m_minus, m_ref,
                                                 ref_port=args.ref_port, tol=tol)
    elif primary.modes == 1:
        rec = reconstruct_single_mode(primary, sector, tol=tol)
    elif sector == "nd":
        rec = recon_squeezed_thermal_multi(primary, tol=tol)
    elif sector == "ns":
        rec = recon_displaced_thermal_multi(primary, tol=tol)
    else:
        raise ValidationError(f"unknown sector {sector!r}")
    meta = _file_meta(inputs, config)
    meta["sector"] = sector
    meta["observable_residual"] = float(measurement_residual(rec.params, primary)) \
        if sector != "dst" else rec.residual
    doc = serialize.reconstruction_to_json(rec, meta=meta)
    _emit(doc, config.output_path)
    return 0


# Cutoffs per mode count that verify tries in turn, ending at dimension 1728
# or less; the first is the default and usually settles it.
VERIFY_LADDERS = {1: (50, 64, 80), 2: (20, 24, 28), 3: (8, 10, 12)}
VERIFY_CUTOFFS = {m: ladder[0] for m, ladder in VERIFY_LADDERS.items()}


def _verify_rows(params, rho) -> list[dict]:
    """Closed form against oracle value, one row per observable."""
    moments = derive_moments(params)
    rows = []

    def add(name, closed, direct):
        rows.append({"observable": name, "closed_form": float(np.real(closed)),
                     "oracle": float(np.real(direct)),
                     "abs_error": float(abs(closed - direct))})

    m = params.modes
    for i in range(m):
        add(f"nbar_{i}", moments.nbar[i],
            fock.moment_bruteforce(rho, LadderWord.from_spec(f"{i}+ {i}-")))
    g2 = g2_tensor(moments)
    for i in range(m):
        for j in range(i, m):
            word = LadderWord.from_spec(f"{i}+ {j}+ {i}- {j}-")
            direct = fock.moment_bruteforce(rho, word) / (moments.nbar[i] * moments.nbar[j])
            add(f"g2_{i}{j}", g2[i, j], direct)
    for (i, j, k), val in g3_tensor(moments).items():
        word = correlation_word((i, j, k))
        denom = moments.nbar[i] * moments.nbar[j] * moments.nbar[k]
        add(f"g3_{i}{j}{k}", val, fock.moment_bruteforce(rho, word) / denom)
    if m == 1:
        add("p0", mode_vacuum_probability(moments, 0), fock.vacuum_overlap(rho))
    if m <= 2:
        obs = bucket_mod.bucket_correlations(moments)
        t1 = fock.total_number_factorial_moment(rho, 1)
        add("g2_bucket", obs.g2_b, fock.total_number_factorial_moment(rho, 2) / t1**2)
        add("g3_bucket", obs.g3_b, fock.total_number_factorial_moment(rho, 3) / t1**3)
    return rows


def cmd_verify(args) -> int:
    """Closed forms versus the truncated-Fock oracle, as a residual table.

    Uses deeper cutoffs than the library defaults (sixth-order moments feel
    the Fock boundary strongly) and scales its failure threshold with the
    measured truncation indicators, so an unconverged oracle is reported as
    such instead of masquerading as a closed-form bug.  Without ``--cutoff``
    it walks a short ladder of cutoffs (VERIFY_LADDERS): when the worst error
    misses the budget at one cutoff, or the build there raises
    TruncationError, the oracle is rebuilt at the next, and the output
    reports the cutoff it settled on.  A g3 row divides by
    nbar^3, so a small mean photon number can push a converged-looking
    oracle past the budget at the default cutoff.
    """
    config = _config_from_args(args)
    params = serialize.params_from_json(serialize.load(args.params))
    ladder = ((config.fock_cutoff,) if config.fock_cutoff
              else VERIFY_LADDERS[min(params.modes, 3)])
    for rung, cutoff in enumerate(ladder, 1):
        try:
            rho = fock.build_density(params, cutoff=cutoff)
        except TruncationError:
            if rung == len(ladder):
                raise
            continue
        rows = _verify_rows(params, rho)
        worst = max(row["abs_error"] for row in rows)
        # sixth-order moments amplify boundary occupancy by up to ~3e4
        # (measured, including the 1/nbar^3 normalization of the g3 rows)
        budget = max(1e-6, 3e4 * (rho.deficit + rho.tail_mass))
        if worst <= budget:
            break
    if args.photon_csv:
        lines = ["mode,n,probability"]
        for mode in range(params.modes):
            dist = fock.photon_number_distribution(rho, mode)
            lines += [f"{mode},{n},{p:.12g}" for n, p in enumerate(dist)]
        Path(args.photon_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {
        "schema": serialize.SCHEMA,
        "type": "verification",
        "cutoff": rho.dim,
        "trace_deficit": rho.deficit,
        "thermal_columns": rho.factor.shape[1],
        "dropped_weight": rho.dropped_weight,
        "tail_mass": rho.tail_mass,
        "worst_abs_error": worst,
        "oracle_budget": budget,
        "rows": rows,
        "meta": _file_meta([args.params], config),
    }
    _emit(doc, config.output_path)
    if worst > budget:
        raise NumericalError(f"oracle disagreement {worst:.3e} beyond "
                             f"truncation budget {budget:.3e}")
    return 0


def cmd_curves(args) -> int:
    config = _config_from_args(args)
    lo, hi = args.g2_min, args.g2_max
    if args.num < 1:
        raise ValidationError("--num must be at least 1")
    if args.relation == "eq21" and hi > 2.0:
        raise ValidationError("the non-squeezed relation is defined for g2 <= 2")
    g2s = np.linspace(lo, hi, args.num)
    g3s = _nd_line(g2s) if args.relation == "eq20" else _ns_curve(g2s)
    lines = ["g2,g3"]
    lines += [f"{a:.12g},{b:.12g}" for a, b in zip(g2s, g3s)]
    text = "\n".join(lines) + "\n"
    if config.output_path:
        Path(config.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bucket(args) -> int:
    config = _config_from_args(args)
    if args.params:
        params = serialize.params_from_json(serialize.load(args.params))
        obs = bucket_mod.bucket_correlations(derive_moments(params))
        meta = _file_meta([args.params], config)
    else:
        if args.g2b is None or args.g3b is None:
            raise ValidationError("need a params file or both --g2b and --g3b")
        obs = bucket_mod.BucketObservables(args.g2b, args.g3b, float("nan"))
        meta = _file_meta([], config)
    verdict = bucket_mod.bucket_bounds_check(obs)
    doc = {
        "schema": serialize.SCHEMA,
        "type": "bucket_report",
        "g2_b": obs.g2_b,
        "g3_b": obs.g3_b,
        "total_nbar": obs.total_nbar,
        "verdict": verdict.verdict,
        "caveat": verdict.caveat,
        "meta": meta,
    }
    if args.estimate_modes:
        est = bucket_mod.pure_squeezer_mode_estimate(obs.g2_b, obs.g3_b)
        doc["mode_estimate"] = {
            "mode_count": est.mode_count,
            "sinh2_per_mode": est.sinh2_per_mode,
            "total_nbar": est.total_nbar,
            "residual": est.residual,
            "assumptions": est.assumptions,
        }
    _emit(doc, config.output_path)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="gausstat",
        description="Photon-statistics observables, classification and "
                    "reconstruction of multimode Gaussian states")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_finite_float, default=1e-8, help="numerical tolerance")
        p.add_argument("--cutoff", type=int, default=None, help="Fock cutoff per mode")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("simulate", help="exact or noisy observables of a state")
    p.add_argument("params", help="GaussianParams JSON file")
    p.add_argument("--noise", default=None,
                   help="per-observable sigmas, e.g. g2=1e-3,g3=2e-3")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="sort measured correlations into sectors")
    p.add_argument("measurements", help="MeasurementSet JSON file")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reconstruct", help="recover state parameters")
    p.add_argument("measurements", nargs="*", help="MeasurementSet JSON file(s)")
    p.add_argument("--sector", choices=["auto", "nd", "ns", "dst"], default="auto")
    p.add_argument("--ref-port", choices=["orig", "plus"], default="orig",
                   help="which reference port the second dst file describes")
    p.add_argument("--scan", default=None, help="phase-scan CSV with g2,g3 columns")
    p.add_argument("--nbar", type=_finite_float, default=None, help="mean photon number for --scan")
    p.add_argument("--phase-steps", default=None,
                   help="comma-separated scan phase increments (resolves the Z2 sign)")
    common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="closed forms vs the truncated-Fock oracle")
    p.add_argument("params", help="GaussianParams JSON file")
    p.add_argument("--photon-csv", default=None,
                   help="also dump per-mode photon-number distributions as CSV")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curves", help="reference g2-g3 relation curves as CSV")
    p.add_argument("--relation", choices=["eq20", "eq21"], required=True,
                   help="eq20: non-displaced line; eq21: non-squeezed curve")
    p.add_argument("--g2-min", type=_finite_float, default=1.0)
    p.add_argument("--g2-max", type=_finite_float, default=2.0)
    p.add_argument("--num", type=int, default=51)
    common(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("bucket", help="bucket correlations, bounds, mode estimate")
    p.add_argument("params", nargs="?", default=None, help="GaussianParams JSON file")
    p.add_argument("--g2b", type=_finite_float, default=None)
    p.add_argument("--g3b", type=_finite_float, default=None)
    p.add_argument("--estimate-modes", action="store_true")
    common(p)
    p.set_defaults(func=cmd_bucket)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=getattr(logging, os.environ.get("GAUSSTAT_LOG", "warning").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        # a float flag that is not finite raises ValidationError while parsing
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as err:
        log.error("%s", err)
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except InfeasibleError as err:
        log.error("%s", err)
        print(f"infeasible: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        log.error("%s", err)
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except GausstatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
