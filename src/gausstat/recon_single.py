"""Single-mode parameter reconstruction from correlations plus one loss-sensitive observable.

Loss-invariant (g2, g3) data fixes ratios only; adding the mean photon number
nbar or the no-click probability p0 pins the parameters down.  p0 enters only
through the nbar of each mode, which ``squeezed_thermal_nbar`` (a quadratic)
and ``displaced_thermal_nbar`` (a bisection) give at every mode count.  The
entries ``recon_multi.recon_squeezed_thermal_multi`` and
``recon_displaced_thermal_multi`` run the closed forms on one mode.  Displaced
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

from .classify import _nd_line
from .errors import (
    InconsistentDataError,
    InfeasibleError,
    SectorMismatchError,
    ValidationError,
)
from .states import GaussianParams

_COS_CLAMP = 1e-9
_NBAR_MAX = 2.0**341  # the largest nbar reconstruction reads: nbar^3 stays a float


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


def _g2_cosine(g2: float, nbar: float, alpha2: float, alpha4: float, cov_abs: float) -> float:
    """cos(2 arg alpha - arg cov) of a mode, unclamped, from its g2 relation

        nbar^2 (g2 - 2) = |cov|^2 - |alpha|^4 + 2 |alpha|^2 |cov| cos(2 arg alpha - arg cov).

    alpha2 = |alpha|^2 and alpha4 = |alpha|^4 come rounded as each caller
    derives them (the scan squares its fitted |alpha|^2, the two-port route
    raises a measured |alpha| to the fourth), so each keeps its results bit
    for bit.  Each caller judges a value beyond [-1, 1] by its own tolerance."""
    return (nbar**2 * (g2 - 2.0) - cov_abs**2 + alpha4) / (2.0 * alpha2 * cov_abs)


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


def recon_squeezed_thermal(g2: float, nbar: float):
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
    if occupation < -1e-9 or sinh2 < -1e-9:
        raise InfeasibleError("inverted parameters fall below zero")
    return _squeeze_radius(sinh2), float(max(occupation, 0.0))


def recon_displaced_thermal(g2: float, nbar: float):
    """(|alpha|, N) of a displaced thermal state from g2 and nbar.

    |alpha|^2 = nbar sqrt(2 - g2), N = nbar (1 - sqrt(2 - g2)).
    """
    if not nbar > 0:
        raise ValidationError("nbar must be positive")
    if g2 > 2.0 + 1e-9 or g2 < 1.0 - 1e-9:
        raise SectorMismatchError(f"g2 = {g2} outside [1, 2]: not a displaced thermal state")
    root = np.sqrt(np.clip(2.0 - g2, 0.0, 1.0))
    alpha_abs = float(np.sqrt(nbar * root))
    occupation = float(nbar * (1.0 - root))
    return alpha_abs, occupation


def _check_p0(p0: float) -> None:
    """0 < p0 <= 1, and p0 >= 1/_NBAR_MAX: 1/p0 - 1 bounds nd's nbar below, ns's above."""
    if not 1.0 / _NBAR_MAX <= p0 <= 1.0:
        raise ValidationError(f"p0 must lie in [2^-341, 1] for nbar to stay in float range, "
                              f"got {p0:.3g}")


def squeezed_thermal_nbar(g2: float, p0: float) -> float:
    """nbar of the squeezed thermal mode with this g2 and no-click probability.

    At alpha = 0, ``mode_vacuum_probability`` gives, with c = 1/p0^2 - 1,

        (3 - g2) nbar^2 + 2 nbar - c = 0,

    whose root nbar = c / (1 + sqrt(1 + (3 - g2) c)) this returns; nbar = 0
    (p0 = 1) is the vacuum.  Any root has thermal occupation
    N = sqrt(4 (c - nbar) + 1)/2 - 1/2.  The other root is negative for
    g2 <= 3; for g2 > 3 it is (1 + sqrt(...)) / (g2 - 3), which exceeds c, so
    its N is negative except where the two roots meet: no second state
    exists.  At g2 >= 2, 1/p0^2 <= (nbar + 1)^2, so nbar >= 1/p0 - 1.
    """
    _check_p0(p0)
    c = 1.0 / p0**2 - 1.0
    return c / (1.0 + np.sqrt(max(1.0 + (3.0 - g2) * c, 0.0)))


def displaced_thermal_nbar(g2: float, p0: float) -> float:
    """nbar of the displaced thermal mode with this g2 and p0, by bisection.

    With s = sqrt(2 - g2), |alpha|^2 = s nbar and N = (1 - s) nbar, so
    p0 = e^{-s nbar / (1 + (1 - s) nbar)} / (1 + (1 - s) nbar) falls from 1 at
    nbar = 0 to at most 1/(1 + nbar), which brackets nbar in [0, 1/p0 - 1].
    nbar = 0 (p0 = 1) is the vacuum.  The bracket halves until its midpoint
    is one of its ends, so nbar is exact to float spacing.
    """
    _check_p0(p0)
    s = np.sqrt(np.clip(2.0 - g2, 0.0, 1.0))
    lo, hi = 0.0, 1.0 / p0 - 1.0
    while lo < (nbar := 0.5 * (lo + hi)) < hi:
        spread = 1.0 + (1.0 - s) * nbar
        if np.exp(-s * nbar / spread) / spread > p0:
            lo = nbar
        else:
            hi = nbar
    return nbar


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


def _st_params_from_moduli(nbar: float, alpha2: float, cov_abs: float):
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
        # arg cov = theta + pi, so cos(2 phi_d - theta) is the negated g2 cosine
        val = -_g2_cosine(g2, nbar, alpha2, alpha2**2, cov_abs)
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
