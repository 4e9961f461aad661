"""Single-mode parameter reconstruction from correlations plus one loss-sensitive observable.

Loss-invariant (g2, g3) data fixes ratios only; adding the mean photon number
nbar or the no-click probability p0 pins the parameters down.  Displaced
squeezed states keep a Z2 reflection of the noise ellipse through the
displacement axis (the cosine of the relative phase is observable, its sign
is not) unless a phase scan with known ordering breaks it.  Their two-port
beam-splitter reconstruction is ``recon_multi.recon_displaced_squeezed_multi``,
which serves one mode as it serves several.

Phase bookkeeping: theta is the squeeze phase arg(z), so the annihilation
covariance is cov = -e^{i theta} (2N+1) sinh r cosh r and the relative phase
delta = 2 phi_d - theta enters via Re(alpha^2 cov*) = -|alpha|^2 |cov| cos(delta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import MeasurementSet, _nd_line, _require
from .errors import (
    InconsistentDataError,
    InfeasibleError,
    SectorMismatchError,
    ValidationError,
)
from .states import GaussianParams, derive_moments, g2_tensor, mode_vacuum_probability

_COS_CLAMP = 1e-9


@dataclass(frozen=True)
class Ambiguity:
    """What the data cannot decide: gauge phases, reflections, discrete copies."""

    global_phase: bool = True
    z2_reflection: bool = False
    discrete_solutions: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class ReconstructedState:
    params: GaussianParams
    ambiguity: Ambiguity = field(default_factory=Ambiguity)
    residual: float = 0.0


def _clamp_cosine(value: float, tol: float = _COS_CLAMP) -> float:
    if abs(value) > 1.0 + tol:
        raise InconsistentDataError(f"|cos| = {abs(value):.6g} exceeds 1 beyond tolerance")
    return float(np.clip(value, -1.0, 1.0))


def _squeezed_thermal_inversion(m_c: float, cov2: float) -> tuple[float, float, float]:
    """(disc, sinh^2 r, N), unclamped, of the squeezed thermal mode with centered
    occupation m_c and |cov|^2 = cov2: disc = (2 m_c + 1)^2 - 4 cov2 = (2N + 1)^2
    and sinh^2 r = (2 m_c + 1) / (2 sqrt(disc)) - 1/2.  No physical mode has
    disc < 0; each caller judges the three against its own thresholds."""
    disc = (2 * m_c + 1.0) ** 2 - 4.0 * cov2
    root = np.sqrt(max(disc, 0.0))
    sinh2 = 0.5 * (2 * m_c + 1.0) / root - 0.5 if root > 0 else 0.0
    return disc, sinh2, 0.5 * root - 0.5


def _squeeze_radius(sinh2: float) -> float:
    """r from sinh^2 r, with a slightly negative sinh^2 r read as zero."""
    return float(np.arcsinh(np.sqrt(max(sinh2, 0.0))))


def recon_squeezed_thermal(g2: float, nbar: float, tol: float = 1e-9):
    """(r, N) of a squeezed thermal state from g2 and the mean photon number.

    sinh^2 r = (2 nbar + 1) / (2 sqrt(D)) - 1/2 and N = sqrt(D)/2 - 1/2 with
    D = (2 nbar + 1)^2 - 4 nbar^2 (g2 - 2).
    """
    if not nbar > 0:
        raise ValidationError("nbar must be positive")
    if g2 < 2.0 - 1e-9:
        raise SectorMismatchError(f"g2 = {g2} < 2: not a squeezed thermal state")
    disc, sinh2, occupation = _squeezed_thermal_inversion(nbar, nbar**2 * (g2 - 2.0))
    if disc < 0:
        raise InfeasibleError(f"negative discriminant {disc:.3e}: (g2, nbar) outside the sector")
    if occupation < -tol or sinh2 < -tol:
        raise InfeasibleError("inverted parameters fall below zero")
    return _squeeze_radius(sinh2), float(max(occupation, 0.0))


def recon_squeezed_thermal_click(g2: float, p0: float, tol: float = 1e-8):
    """All (r, N) compatible with g2 and the no-click probability.

    Eliminating cosh^2 r between p0^(-2) = N^2 + (2N+1) cosh^2 r and
    g2 = 2 + |cov|^2/nbar^2 leaves (after removing the spurious (2N+1)^2
    factor) the quartic, with P = 1/p0^2,

        (g2 - 3) N^4 + 2 (g2 - 3) N^3
        + (3 g2 - 2 g2 P + 6 P - 7) N^2 + (2 g2 - 2 g2 P + 6 P - 4) N
        + g2 (P - 1)^2 - 3 P^2 + 5 P - 2 = 0.

    Every admissible root is kept (best agreement first) since the quartic
    can admit several nonnegative solutions.
    """
    if not 0.0 < p0 <= 1.0:
        raise ValidationError("p0 must lie in (0, 1]")
    if g2 < 2.0 - 1e-9:
        raise SectorMismatchError(f"g2 = {g2} < 2: not a squeezed thermal state")
    big_p = 1.0 / p0**2
    coeffs = [g2 - 3.0,
              2.0 * (g2 - 3.0),
              3.0 * g2 - 2.0 * g2 * big_p + 6.0 * big_p - 7.0,
              2.0 * g2 - 2.0 * g2 * big_p + 6.0 * big_p - 4.0,
              g2 * (big_p - 1.0) ** 2 - 3.0 * big_p**2 + 5.0 * big_p - 2.0]
    if abs(coeffs[0]) < 1e-12 * max(abs(c) for c in coeffs):
        coeffs = coeffs[1:]  # the g2 -> 3 limit drops the quartic to a cubic
    roots = np.roots(coeffs)  # companion-matrix eigenvalues
    out = []
    for root in roots:
        if abs(root.imag) > 1e-8:
            continue
        occupation = float(root.real)
        if occupation < -1e-10:
            continue
        occupation = max(occupation, 0.0)
        sinh2 = (1.0 - (occupation + 1.0) ** 2 * p0**2) / ((2 * occupation + 1.0) * p0**2)
        if sinh2 < -1e-10:
            continue
        r = _squeeze_radius(sinh2)
        mom = derive_moments(GaussianParams.single_mode(r=r, occupation=occupation))
        err = abs(mode_vacuum_probability(mom, 0) - p0)
        if mom.nbar[0] > 0:  # vacuum root leaves g2 unconstrained
            err = max(err, abs(g2_tensor(mom)[0, 0] - g2))
        if err <= max(tol, 1e-6 * (1 + abs(g2))):
            out.append((err, r, occupation))
    if not out:
        raise InfeasibleError("no admissible root of the click quartic")
    out.sort()
    return [(r, occ) for _, r, occ in out]


def recon_displaced_thermal(g2: float, nbar: float, tol: float = 1e-9):
    """(|alpha|, N) of a displaced thermal state from g2 and nbar.

    |alpha|^2 = nbar sqrt(2 - g2), N = nbar (1 - sqrt(2 - g2)).
    """
    if not nbar > 0:
        raise ValidationError("nbar must be positive")
    if g2 > 2.0 + tol or g2 < 1.0 - tol:
        raise SectorMismatchError(f"g2 = {g2} outside [1, 2]: not a displaced thermal state")
    root = np.sqrt(np.clip(2.0 - g2, 0.0, 1.0))
    alpha_abs = float(np.sqrt(nbar * root))
    occupation = float(nbar * (1.0 - root))
    return alpha_abs, occupation


def recon_displaced_thermal_click(g2: float, p0: float, tol: float = 1e-10):
    """(|alpha|, N) from g2 and the no-click probability, by bisection in N.

    Combines p0 = e^{-|alpha|^2/(N+1)}/(N+1) with
    sqrt(2 - g2) = |alpha|^2/(|alpha|^2 + N).
    """
    if not 0.0 < p0 <= 1.0:
        raise ValidationError("p0 must lie in (0, 1]")
    if g2 > 2.0 + 1e-9 or g2 < 1.0 - 1e-9:
        raise SectorMismatchError(f"g2 = {g2} outside [1, 2]: not a displaced thermal state")
    q = np.sqrt(np.clip(2.0 - g2, 0.0, 1.0))
    if q >= 1.0 - 1e-12:  # displaced vacuum: N = 0
        return float(np.sqrt(-np.log(p0))), 0.0
    if q <= 1e-12:  # thermal: alpha = 0
        return 0.0, 1.0 / p0 - 1.0

    def model(occupation):
        a2 = q * occupation / (1.0 - q)
        return np.exp(-a2 / (occupation + 1.0)) / (occupation + 1.0)

    lo, hi = 0.0, 10.0 / p0
    if model(hi) > p0:
        raise InfeasibleError("no occupation reproduces the observed p0")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model(mid) > p0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * (1.0 + hi):
            break
    occupation = 0.5 * (lo + hi)
    alpha_abs = float(np.sqrt(q * occupation / (1.0 - q)))
    return alpha_abs, float(occupation)


@dataclass(frozen=True)
class ScanReconstruction:
    """Result of the fixed-magnitude phase-scan inversion."""

    alpha_abs: float
    cov_abs: float
    r: float
    occupation: float
    cosines: tuple
    rel_phases: tuple | None
    slope: float
    intercept: float
    fit_residual: float
    z2_resolved: bool


def _st_params_from_moduli(nbar: float, alpha2: float, cov_abs: float, tol: float = 1e-9):
    """(r, N) from the centered occupation nbar - |alpha|^2 and |cov|."""
    disc, sinh2, occupation = _squeezed_thermal_inversion(nbar - alpha2, cov_abs**2)
    if disc < -1e-9:
        raise InfeasibleError("covariance modulus exceeds the physical bound")
    if occupation < -1e-8 or sinh2 < -1e-8:
        raise InfeasibleError("scan moduli correspond to negative parameters")
    return _squeeze_radius(sinh2), float(max(occupation, 0.0))


def recon_dst_scan(points, nbar: float, sigmas=None, phase_steps=None,
                   tol: float = 1e-6) -> ScanReconstruction:
    """Invert a relative-phase scan of (g2, g3) at fixed |alpha|, |cov|, nbar.

    Varying only the relative phase traces the line g3 = m g2 + c with
    m = 9 - 6 a and c = 12 a - 2 a^3 + 6 a c_r^2 - 12 (a = |alpha|^2/nbar,
    c_r = |cov|/nbar), so a least-squares fit of (m, c) recovers both moduli:

        |alpha|^2 = nbar (9 - m) / 6,
        |cov|^2   = nbar^2 [ (9 - m)^2 / 108 + (c + 12)/(9 - m) - 2 ].

    Per point, cos(2 phi_d - theta) follows from inverting the g2 equation.
    With >= 2 phase settings of known ordering (``phase_steps`` lists the
    applied increments of 2 phi_d - theta between consecutive points) the
    global reflection is broken and signed phases are returned.
    ``sigmas``, one positive finite value per point, weight the fit by
    1/sigma; a nonpositive one is a ValidationError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValidationError("need at least two (g2, g3) points")
    if not nbar > 0:
        raise ValidationError("nbar must be positive")
    g2s, g3s = pts[:, 0], pts[:, 1]
    if sigmas is not None:
        sigmas = np.asarray(sigmas, dtype=float)
        if sigmas.shape != g2s.shape or not np.all(np.isfinite(sigmas) & (sigmas > 0)):
            raise ValidationError("sigmas must be one positive finite value per point")
    spread = g2s.max() - g2s.min()
    if spread < 1e-12:
        if abs(g3s.mean() - _nd_line(g2s.mean())) <= max(tol, 1e-9):
            # no phase dependence at all: zero-displacement limit of the scan
            cov_abs = nbar * np.sqrt(max(g2s.mean() - 2.0, 0.0))
            r, occupation = _st_params_from_moduli(nbar, 0.0, cov_abs)
            return ScanReconstruction(0.0, float(cov_abs), r, occupation,
                                      tuple(0.0 for _ in g2s), None, 9.0, -12.0, 0.0, False)
        raise InconsistentDataError(
            "scan points coincide but violate the zero-displacement line: "
            "degenerate scan cannot be inverted")
    coeffs = np.polyfit(g2s, g3s, 1, w=None if sigmas is None else 1.0 / sigmas)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    fit_res = float(np.abs(np.polyval(coeffs, g2s) - g3s).max())
    if fit_res > max(tol, 100 * _COS_CLAMP):
        raise InconsistentDataError(f"scan not collinear: residual {fit_res:.3e}")
    a = (9.0 - slope) / 6.0
    if a < -1e-9:
        raise SectorMismatchError("fitted slope exceeds 9: negative displacement power")
    if a > 1.0 + 1e-9:
        raise InconsistentDataError("fitted slope implies |alpha|^2 > nbar")
    a = float(np.clip(a, 0.0, 1.0))
    alpha2 = a * nbar
    cov2 = nbar**2 * ((9.0 - slope) ** 2 / 108.0 + (intercept + 12.0) / (9.0 - slope) - 2.0) \
        if slope < 9.0 - 1e-12 else nbar**2 * max(g2s.mean() - 2.0, 0.0)
    if cov2 < -1e-9 * nbar**2:
        raise InconsistentDataError("fitted intercept implies negative |cov|^2")
    cov_abs = float(np.sqrt(max(cov2, 0.0)))
    r, occupation = _st_params_from_moduli(nbar, alpha2, cov_abs)
    cosines = []
    for g2 in g2s:
        if alpha2 < 1e-12 or cov_abs < 1e-12:
            cosines.append(0.0)
            continue
        val = (nbar**2 * (g2 - 2.0) - cov_abs**2 + alpha2**2) / (-2.0 * alpha2 * cov_abs)
        cosines.append(_clamp_cosine(val, max(tol, _COS_CLAMP)))
    rel_phases = None
    z2_resolved = False
    if phase_steps is not None and len(g2s) >= 2:
        steps = np.asarray(phase_steps, dtype=float)
        if steps.shape[0] != len(g2s) - 1:
            raise ValidationError("need one phase step per consecutive point pair")
        rel_phases, z2_resolved = _resolve_scan_phases(np.array(cosines), steps, tol)
    return ScanReconstruction(float(np.sqrt(alpha2)), cov_abs, r, occupation,
                              tuple(cosines), rel_phases, slope, intercept,
                              fit_res, z2_resolved)


def _resolve_scan_phases(cosines, steps, tol):
    """Pick arccos branches consistent with the known phase increments.

    The global sign flip of all phases maps increments to their negatives, so
    knowing the signed increments breaks the reflection unless every step is
    0 mod pi.
    """
    n = len(cosines)
    base = np.arccos(np.clip(cosines, -1, 1))
    best = None
    for sign0 in (1, -1):
        phi0 = sign0 * base[0]
        branch = [phi0]
        ok = True
        worst = 0.0
        for k in range(1, n):
            target = branch[-1] + steps[k - 1]
            res = abs(np.cos(target) - cosines[k])
            worst = max(worst, res)
            if res > max(50 * tol, 1e-6):
                ok = False
                break
            branch.append(target)
        if ok and (best is None or worst < best[0]):
            best = (worst, tuple(float(x) for x in branch), sign0)
    if best is None:
        raise InconsistentDataError("no arccos branch matches the declared phase steps")
    degenerate = all(min(abs(np.sin(s)), 1.0) < 1e-9 for s in steps)
    return best[1], not degenerate


def reconstruct_single_mode(m: MeasurementSet, sector: str, tol: float = 1e-8) -> ReconstructedState:
    """Dispatch reconstruction of single-mode data in a decided sector.

    Uses nbar when present, otherwise the no-click probability.  ``residual``
    is ``recon_multi.measurement_residual``, as for every multimode route.
    """
    if m.modes != 1:
        raise ValidationError("reconstruct_single_mode needs single-mode data")
    _require(m, "single-mode reconstruction", "g2")
    g2 = float(m.g2[0, 0])
    nbar = float(m.nbar[0]) if m.nbar is not None else None
    p0 = float(m.p0[0]) if m.p0 is not None else None
    if sector == "nd":
        if nbar is not None:
            r, occupation = recon_squeezed_thermal(g2, nbar)
            extra = ()
        else:
            if p0 is None:
                raise ValidationError("need nbar or p0 for reconstruction")
            candidates = recon_squeezed_thermal_click(g2, p0)
            (r, occupation), extra = candidates[0], tuple(
                GaussianParams.single_mode(r=rr, occupation=oo)
                for rr, oo in candidates[1:])
        params = GaussianParams.single_mode(r=r, occupation=occupation)
        ambiguity = Ambiguity(discrete_solutions=extra,
                              notes=("squeeze phase theta is gauge",))
    elif sector == "ns":
        if nbar is not None:
            alpha_abs, occupation = recon_displaced_thermal(g2, nbar)
        else:
            if p0 is None:
                raise ValidationError("need nbar or p0 for reconstruction")
            alpha_abs, occupation = recon_displaced_thermal_click(g2, p0)
        params = GaussianParams.single_mode(alpha=alpha_abs, occupation=occupation)
        ambiguity = Ambiguity(notes=("displacement phase is gauge",))
    else:
        raise ValidationError(f"unsupported single-mode sector {sector!r} "
                              "(displaced-squeezed needs scan or beam-splitter data)")
    # imported here: recon_multi imports this module's result types
    from .recon_multi import measurement_residual
    return ReconstructedState(params, ambiguity, residual=measurement_residual(params, m))
