"""Command-line front end: simulate, classify, reconstruct, verify, curves, bucket.

Each subcommand declares only the flags it reads, and a report's
``meta.config`` records only those; ``meta.inputs`` holds a sha256 prefix of
the bytes of each input file, taken as it is read.  An unknown flag, a flag
the command would ignore in the mode it runs in, and a file that cannot be
read or written are validation errors.

Exit codes: 0 success, 2 validation error, 3 infeasible or inconsistent data,
4 numerical failure.  Each error prints one line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys

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
    recon_displaced_squeezed_multi,
    recon_displaced_thermal_multi,
    recon_squeezed_thermal_multi,
)
from .recon_single import recon_dst_scan, reconstruct_single_mode
from .states import derive_moments, g2_tensor, g3_tensor, mode_vacuum_probability
from .words import correlation_word


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


def _positive_float(text: str) -> float:
    """A finite positive float, the argparse ``type`` of ``--tol``."""
    value = _finite_float(text)
    if not value > 0:
        raise ValidationError(f"expected a positive number, got {text!r}")
    return value


# the most points ``curves --num`` writes (about 3 MB of CSV); a fixed bound, so
# a larger --num stops as a validation error before numpy allocates anything
MAX_CURVE_POINTS = 100_000


def _int_in(lo: int, hi: int | None = None):
    """The argparse ``type`` of an integer flag that must lie in [lo, hi]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # also a string beyond int()'s digit limit
            raise ValidationError(f"expected an integer, got {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            bound = f"of at least {lo}" if hi is None else f"between {lo} and {hi}"
            raise ValidationError(f"expected an integer {bound}, got {text!r}")
        return value

    return parse


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


def _emit(doc: dict, out_path: str | None) -> None:
    if out_path:
        serialize.dump(doc, out_path)
    else:
        sys.stdout.write(serialize.dumps(doc) + "\n")


def cmd_simulate(args) -> int:
    noise = _parse_noise(args.noise)
    digests = {}
    params = serialize.params_from_json(serialize.load(args.params, digests))
    moments = derive_moments(params)
    rng = np.random.default_rng(args.seed) if noise else None
    mset = synthesize_measurements(moments, include_p0=True, rng=rng, sigma=noise)
    doc = serialize.measurement_to_json(mset)
    doc["meta"] = {"inputs": digests, "config": {"seed": args.seed, "noise_sigma": noise}}
    _emit(doc, args.out)
    return 0


def cmd_classify(args) -> int:
    digests = {}
    mset = serialize.measurement_from_json(serialize.load(args.measurements, digests))
    verdict = classify(mset, tol=max(args.tol, 1e-9))
    doc = serialize.classification_to_json(
        verdict, meta={"inputs": digests, "config": {"tolerance": args.tol}})
    _emit(doc, args.out)
    return 0


def _read_scan_csv(path, digests: dict):
    rows = []
    sigmas = []
    reader = csv.DictReader(io.StringIO(serialize.read_text(path, digests), newline=""))
    if reader.fieldnames is None or not {"g2", "g3"} <= set(reader.fieldnames):
        raise ValidationError(f"{path}: scan CSV needs header columns g2,g3")
    for name in reader.fieldnames:
        if name not in ("g2", "g3", "sigma_g3"):
            raise ValidationError(f"{path}: unknown scan CSV column {name!r} "
                                  "(expected g2, g3 and optionally sigma_g3)")
    for row in reader:
        try:
            if None in row:  # csv.DictReader's key for cells past the header
                raise ValidationError("more cells than header columns")
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
    inputs, digests = list(args.measurements), {}
    if args.scan:
        if inputs or args.sector or args.ref_port:
            raise ValidationError("--scan reads no measurement file, --sector or --ref-port")
        if args.nbar is None:
            raise ValidationError("--scan needs --nbar")
        pts, sigmas = _read_scan_csv(args.scan, digests)
        steps = None
        if args.phase_steps:
            steps = [_finite_float(x) for x in args.phase_steps.split(",")]
        result = recon_dst_scan(pts, nbar=args.nbar, sigmas=sigmas, phase_steps=steps,
                                tol=max(args.tol, 1e-8))
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
            "meta": {"inputs": digests, "config": {"tolerance": args.tol}},
        }
        _emit(doc, args.out)
        return 0
    if args.nbar is not None or args.phase_steps is not None:
        raise ValidationError("--nbar and --phase-steps are read only with --scan")
    if not inputs:
        raise ValidationError("reconstruct needs a measurement file or --scan")
    msets = [serialize.measurement_from_json(serialize.load(p, digests)) for p in inputs]
    primary = msets[0]
    tol = max(args.tol, 1e-9)
    sector = args.sector or "auto"
    reason = "--sector dst"
    verdict = None
    if sector == "auto":
        verdict = classify(primary, tol=tol)
        sector = {"NonDisplaced": "nd", "ThermalLike": "nd", "NonSqueezed": "ns",
                  "CoherentLike": "ns"}.get(verdict.sector)
        if sector is None:
            sector = "dst"
            reason = f"sector auto chose dst from the verdict {verdict.sector}; dst"
    if sector == "dst":
        if len(msets) != 2:
            raise ValidationError(f"{reason} needs two measurement files: "
                                  "zero-mean port and reference port")
        m_minus, m_ref = msets
        for port, mset in (("zero-mean port", m_minus), ("reference port", m_ref)):
            _require(mset, f"--sector dst: the {port}", "nbar", "g2")
        rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port=args.ref_port or "orig",
                                             tol=tol)
    elif len(msets) > 1 or args.ref_port:
        raise ValidationError(f"sector {sector} reads one measurement file and no --ref-port")
    elif primary.modes == 1:
        rec = reconstruct_single_mode(primary, sector, tol=tol)
    else:
        # the reconstruction builds on the phase solutions of the classification
        if verdict is None:
            verdict = classify(primary, tol=tol)
        recon = recon_squeezed_thermal_multi if sector == "nd" else recon_displaced_thermal_multi
        rec = recon(primary, verdict, tol=tol)
    meta = {"inputs": digests, "config": {"tolerance": args.tol}, "sector": sector,
            "observable_residual": rec.residual}
    doc = serialize.reconstruction_to_json(rec, meta=meta)
    _emit(doc, args.out)
    return 0


# Cutoffs per mode count that verify tries in turn, ending at dimension 1728
# or less; the first is the default and usually settles it.
VERIFY_LADDERS = {1: (50, 64, 80), 2: (20, 24, 28), 3: (8, 10, 12)}
VERIFY_CUTOFFS = {m: ladder[0] for m, ladder in VERIFY_LADDERS.items()}


def _closed_forms(moments) -> list[tuple]:
    """(observable, closed form, oracle reading) per row of verify's table;
    the reading maps a truncated density to the oracle's value.  g2_tensor
    raises UndefinedCorrelationError for an empty mode, before any build."""
    m = moments.modes
    nbar = moments.nbar

    def ladder(word, denom=1.0):
        return lambda rho: fock.moment_bruteforce(rho, word) / denom

    def bucket(order):
        return lambda rho: (fock.total_number_factorial_moment(rho, order)
                            / fock.total_number_factorial_moment(rho, 1)**order)

    forms = [(f"nbar_{i}", nbar[i], ladder(correlation_word((i,)))) for i in range(m)]
    g2 = g2_tensor(moments)
    for i in range(m):
        for j in range(i, m):
            forms.append((f"g2_{i}{j}", g2[i, j],
                          ladder(correlation_word((i, j)), nbar[i] * nbar[j])))
    for (i, j, k), val in g3_tensor(moments).items():
        forms.append((f"g3_{i}{j}{k}", val,
                      ladder(correlation_word((i, j, k)), nbar[i] * nbar[j] * nbar[k])))
    if m == 1:
        forms.append(("p0", mode_vacuum_probability(moments, 0), fock.vacuum_overlap))
    if m <= 2:
        obs = bucket_mod.bucket_correlations(moments)
        forms += [("g2_bucket", obs.g2_b, bucket(2)), ("g3_bucket", obs.g3_b, bucket(3))]
    return forms


def _verify_rows(forms, rho) -> list[dict]:
    """Closed form against oracle value, one row per observable."""
    rows = []
    for name, closed, read in forms:
        direct = read(rho)
        rows.append({"observable": name, "closed_form": float(np.real(closed)),
                     "oracle": float(np.real(direct)),
                     "abs_error": float(abs(closed - direct))})
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
    oracle past the budget at the default cutoff.  Every normalized row
    divides by the mean photon numbers, so a state with an empty mode is
    rejected before the first build.
    """
    digests = {}
    params = serialize.params_from_json(serialize.load(args.params, digests))
    forms = _closed_forms(derive_moments(params))
    ladder = ((args.cutoff,) if args.cutoff is not None
              else VERIFY_LADDERS[min(params.modes, 3)])
    for rung, cutoff in enumerate(ladder, 1):
        try:
            rho = fock.build_density(params, cutoff=cutoff)
        except TruncationError:
            if rung == len(ladder):
                raise
            continue
        rows = _verify_rows(forms, rho)
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
        serialize.write_text(args.photon_csv, "\n".join(lines) + "\n")
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
        "meta": {"inputs": digests, "config": {"fock_cutoff": args.cutoff}},
    }
    _emit(doc, args.out)
    if worst > budget:
        raise NumericalError(f"oracle disagreement {worst:.3e} beyond "
                             f"truncation budget {budget:.3e}")
    return 0


def cmd_curves(args) -> int:
    lo, hi = args.g2_min, args.g2_max
    if args.relation == "eq21" and max(lo, hi) > 2.0:
        raise ValidationError("the non-squeezed relation is defined for g2 <= 2")
    g2s = np.linspace(lo, hi, args.num)
    g3s = _nd_line(g2s) if args.relation == "eq20" else _ns_curve(g2s)
    lines = ["g2,g3"]
    lines += [f"{a:.12g},{b:.12g}" for a, b in zip(g2s, g3s)]
    text = "\n".join(lines) + "\n"
    if args.out:
        serialize.write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bucket(args) -> int:
    digests = {}
    if args.params:
        if args.g2b is not None or args.g3b is not None:
            raise ValidationError("a params file and --g2b/--g3b exclude each other")
        params = serialize.params_from_json(serialize.load(args.params, digests))
        obs = bucket_mod.bucket_correlations(derive_moments(params))
    else:
        if args.g2b is None or args.g3b is None:
            raise ValidationError("need a params file or both --g2b and --g3b")
        obs = bucket_mod.BucketObservables(args.g2b, args.g3b, float("nan"))
    verdict = bucket_mod.bucket_bounds_check(obs)
    doc = {
        "schema": serialize.SCHEMA,
        "type": "bucket_report",
        "g2_b": obs.g2_b,
        "g3_b": obs.g3_b,
        "total_nbar": obs.total_nbar,
        "verdict": verdict.verdict,
        "caveat": verdict.caveat,
        "meta": {"inputs": digests, "config": {}},
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
    _emit(doc, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (unknown flag, bad choice, missing
    argument) raise ValidationError, so they exit 2 like any other bad input."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call.
    Each subcommand declares only the flags it reads."""
    parser = _Parser(
        prog="gausstat",
        description="Photon-statistics observables, classification and "
                    "reconstruction of multimode Gaussian states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="exact or noisy observables of a state")
    p.add_argument("params", help="GaussianParams JSON file")
    p.add_argument("--noise", default=None,
                   help="per-observable sigmas, e.g. g2=1e-3,g3=2e-3")
    p.add_argument("--seed", type=_int_in(0), default=0, help="random seed of --noise")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classify", help="sort measured correlations into sectors")
    p.add_argument("measurements", help="MeasurementSet JSON file")
    p.add_argument("--tol", type=_positive_float, default=1e-8, help="numerical tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reconstruct", help="recover state parameters")
    p.add_argument("measurements", nargs="*", help="MeasurementSet JSON file(s)")
    p.add_argument("--sector", choices=["auto", "nd", "ns", "dst"], default=None,
                   help="default: auto")
    p.add_argument("--ref-port", choices=["orig", "plus"], default=None,
                   help="which reference port the second dst file describes (default: orig)")
    p.add_argument("--scan", default=None, help="phase-scan CSV with g2,g3 columns")
    p.add_argument("--nbar", type=_finite_float, default=None, help="mean photon number for --scan")
    p.add_argument("--phase-steps", default=None,
                   help="comma-separated scan phase increments (resolves the Z2 sign)")
    p.add_argument("--tol", type=_positive_float, default=1e-8, help="numerical tolerance")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="closed forms vs the truncated-Fock oracle")
    p.add_argument("params", help="GaussianParams JSON file")
    p.add_argument("--cutoff", type=int, default=None,
                   help="Fock cutoff per mode (default: a short ladder)")
    p.add_argument("--photon-csv", default=None,
                   help="also dump per-mode photon-number distributions as CSV")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curves", help="reference g2-g3 relation curves as CSV")
    p.add_argument("--relation", choices=["eq20", "eq21"], required=True,
                   help="eq20: non-displaced line; eq21: non-squeezed curve")
    p.add_argument("--g2-min", type=_finite_float, default=1.0)
    p.add_argument("--g2-max", type=_finite_float, default=2.0)
    p.add_argument("--num", type=_int_in(1, MAX_CURVE_POINTS), default=51)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("bucket", help="bucket correlations, bounds, mode estimate")
    p.add_argument("params", nargs="?", default=None, help="GaussianParams JSON file")
    p.add_argument("--g2b", type=_finite_float, default=None)
    p.add_argument("--g3b", type=_finite_float, default=None)
    p.add_argument("--estimate-modes", action="store_true")
    p.set_defaults(func=cmd_bucket)
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # a usage error or a float flag that is not finite raises ValidationError
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except GausstatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
