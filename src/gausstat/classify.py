"""Hypothesis tests sorting correlation data into Gaussian sectors.

Satisfying a relation is evidence, never certification: the Fock mixture
(5/8)|0><0| + (3/8)|2><2| has g2 = 4/3 and g3 = 0 and sits exactly on the
non-displaced line, so every verdict carries an explicit evidence-only caveat.

Residuals are normalized by first-order propagated uncertainties when the
measurement set carries sigmas (acceptance at 3 sigma); exact synthetic data
falls back to a flat tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .phases import (
    COVARIANCE,
    DISPLACEMENT,
    PhaseSystem,
    solve_covariance_phases,
    solve_displacement_phases,
)
from .states import MomentSummary, g2_tensor, g3_tensor, mode_vacuum_probability

NON_DISPLACED = "NonDisplaced"
NON_SQUEEZED = "NonSqueezed"
DISPLACED_SQUEEZED = "DisplacedSqueezedConsistent"
COHERENT_LIKE = "CoherentLike"
THERMAL_LIKE = "ThermalLike"
INCONSISTENT = "Inconsistent"

SIGMA_NAMES = ("nbar", "g1_abs", "g1_phase", "g2", "g3", "p0")

EVIDENCE_CAVEAT = ("relation satisfied - evidence only; correlation data can never "
                   "certify a Gaussian state (non-Gaussian counterexamples exist)")


@dataclass(frozen=True)
class MeasurementSet:
    """Observed correlation data with optional loss-sensitive observables.

    ``g3`` maps sorted mode triples (i, j, k) to values.  ``sigma`` holds
    per-observable standard uncertainties keyed by the names in SIGMA_NAMES.
    """

    modes: int
    nbar: np.ndarray | None = None
    g1_abs: np.ndarray | None = None
    g1_phase: np.ndarray | None = None
    g2: np.ndarray | None = None
    g3: dict = field(default_factory=dict)
    p0: np.ndarray | None = None
    sigma: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.modes
        for name in ("nbar", "p0"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=float).reshape(m))
        for name in ("g1_abs", "g1_phase", "g2"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if v.shape != (m, m):
                    raise ValidationError(f"{name} must be {m}x{m}")
                object.__setattr__(self, name, v)
        # comparisons skip NaN entries without the all-NaN warning of nanmin
        if self.g1_abs is not None:
            if ((self.g1_abs < -1e-12) | (self.g1_abs > 1 + 1e-6)).any():
                raise ValidationError("|g1| entries must lie in [0, 1]")
        if self.g1_phase is not None and np.abs(self.g1_phase + self.g1_phase.T).max() > 1e-8:
            raise ValidationError("g1 phases must be antisymmetric")
        if self.g2 is not None and (self.g2 < 0).any():
            raise ValidationError("g2 entries must be nonnegative")
        cleaned = {}
        for key, val in self.g3.items():
            key, val = tuple(sorted(key)), float(val)
            if len(key) != 3 or key[0] < 0 or key[2] >= m:
                raise ValidationError(f"g3 key {key} must be three mode indices in [0, {m})")
            if not math.isfinite(val):
                raise ValidationError(f"g3 entry {key} must be finite, got {val}")
            if val < 0:
                raise ValidationError("g3 entries must be nonnegative")
            cleaned[key] = val
        object.__setattr__(self, "g3", cleaned)

    def g1_complex(self) -> np.ndarray:
        if self.g1_abs is None:
            raise InsufficientDataError("g1 magnitudes missing")
        phase = self.g1_phase if self.g1_phase is not None else np.zeros_like(self.g1_abs)
        return self.g1_abs * np.exp(1j * phase)

    def sigma_for(self, name: str) -> float:
        return float(self.sigma.get(name, 0.0))


def synthesize_measurements(moments: MomentSummary, include_p0: bool = False,
                            rng=None, sigma: dict | None = None) -> MeasurementSet:
    """Exact observables of a state, optionally perturbed by Gaussian noise."""
    m = moments.modes
    g2 = g2_tensor(moments)
    g3 = g3_tensor(moments)
    g1 = moments.g1.copy()
    nbar = moments.nbar.copy()
    p0 = None
    if include_p0:
        p0 = np.array([mode_vacuum_probability(moments, i) for i in range(m)])
    sigma = dict(sigma or {})
    if rng is not None and sigma:
        def jitter(x, s):
            return x + rng.normal(0.0, s, np.shape(x)) if s > 0 else x

        nbar = jitter(nbar, sigma.get("nbar", 0.0))
        g2 = jitter(g2, sigma.get("g2", 0.0))
        g2 = 0.5 * (g2 + g2.T)
        g3 = {k: float(jitter(v, sigma.get("g3", 0.0))) for k, v in g3.items()}
        mag = np.clip(jitter(np.abs(g1), sigma.get("g1_abs", 0.0)), 0.0, 1.0)
        np.fill_diagonal(mag, 1.0)
        ph = jitter(np.angle(g1), sigma.get("g1_phase", 0.0))
        ph = np.triu(ph, 1) - np.triu(ph, 1).T
        g1 = mag * np.exp(1j * ph)
        if p0 is not None:
            p0 = np.clip(jitter(p0, sigma.get("p0", 0.0)), 1e-12, 1.0)
    phase = np.angle(g1)
    phase = np.triu(phase, 1) - np.triu(phase, 1).T
    return MeasurementSet(m, nbar=nbar, g1_abs=np.abs(g1), g1_phase=phase,
                          g2=np.asarray(g2, dtype=float), g3=g3, p0=p0, sigma=sigma)


@dataclass(frozen=True)
class RelationResidual:
    relation: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


@dataclass(frozen=True)
class Classification:
    sector: str
    residuals: tuple[RelationResidual, ...]
    notes: tuple[str, ...]
    witness: dict | None = None

    def residual(self, relation: str) -> float:
        for r in self.residuals:
            if r.relation == relation:
                return r.residual
        raise KeyError(relation)


def _tolerance(m: MeasurementSet, flat_tol: float, dg2: float = 0.0, dg3: float = 0.0,
               extra: float = 0.0) -> float:
    """3-sigma acceptance from first-order propagation, else the flat tolerance."""
    s2, s3 = m.sigma_for("g2"), m.sigma_for("g3")
    propagated = np.sqrt((dg2 * s2) ** 2 + (dg3 * s3) ** 2 + extra**2)
    return max(flat_tol, 3.0 * propagated)


# Slack at component ends: near s = 0 a rounding error in a root grows by
# about 2a/s in y.
_ROUNDING = 1e-9


def _cut_points(coeffs) -> list:
    """Real parts of a polynomial's roots inside (0, 1).

    A complex pair's real part is kept too: an extra cut point only splits an
    interval, and a near-double root comes out of ``np.roots`` as such a pair.
    """
    return [r for r in np.roots(coeffs).real.tolist() if 0.0 < r < 1.0]


def _feasible_intervals(u: float, v: float, k: float | None) -> list:
    """Maximal a-intervals in (0, 1] where p(a) >= 0 and, with k, q(a) >= 0."""
    polys = [[32.0, 0.0, 144.0 * u, 32.0 * v, 0.0, 0.0, -v * v]]
    if k is not None:
        polys.append([4.0, -(12.0 + 6.0 * k), 6.0 + 6.0 * k - 6.0 * u, -v])
    cuts = np.unique([0.0, 1.0] + [r for c in polys for r in _cut_points(c)])
    keep = np.all([np.polyval(c, 0.5 * (cuts[:-1] + cuts[1:])) >= 0.0 for c in polys], axis=0)
    intervals = []
    for lo, hi in zip(cuts[:-1][keep].tolist(), cuts[1:][keep].tolist()):
        if intervals and intervals[-1][1] == lo:
            intervals[-1][1] = hi
        else:
            intervals.append([lo, hi])
    return intervals


def _nearest_candidate(u: float, v: float, k: float | None):
    """(distance, a, y): the least distance from v to [v_lo(a), v_hi(a)].

    v_lo/hi = 4a^3 + 12a^2 y_lo/hi, with y in [a - s, a + s], s^2 = 2a^2 + u,
    and y capped with k.  Without a feasible interval, v lies on one side of
    every range, so the distance is least where v_lo is least or v_hi is
    greatest.  v_lo falls with a (dv_lo/da = -24a(a - s)^2/s), the uncapped
    v_hi rises, and the capped v_hi is stationary only where q'(a) = 0,
    which lies outside the branches whenever k > 0.  So the candidates are
    a = 1 and, with k, the points where the cap meets a branch.
    """
    cands = [1.0]
    if k is not None:
        # the cap meets a branch where (K - u - 3a^2)^2 = 4a^2 s^2, K = (1-a)(1-a+k)
        lhs = np.array([-2.0, -(2.0 + k), 1.0 + k - u])
        cands += _cut_points(np.polysub(np.polymul(lhs, lhs), [8.0, 0.0, 4.0 * u, 0.0, 0.0]))
    best = (math.inf, None, None)
    for a in cands:
        s2 = 2.0 * a * a + u
        if not 0.0 < a <= 1.0 or s2 < -_ROUNDING:
            continue
        s = math.sqrt(max(s2, 0.0))
        lo, hi = a - s, a + s
        if k is not None:
            hi = min(hi, ((1.0 - a) * (1.0 - a + k) - u - a * a) / (2.0 * a))
        if hi < lo - _ROUNDING:
            continue
        # where the cap meets the lower branch, the cap is kept exact
        y = min(max((v - 4.0 * a**3) / (12.0 * a * a), min(lo, hi)), hi)
        dist = abs(4.0 * a**3 + 12.0 * a * a * y - v)
        if dist < best[0]:
            best = (dist, a, y)
    return best


def displaced_squeezed_feasibility(g2: float, g3: float, tol: float = 1e-6,
                                   nbar: float | None = None):
    """Exact test of the (g2, g3) pair for a physical witness (a, c, x).

    a = |alpha|^2/nbar, c = |cov|/nbar, x = cos(2 phi_d - theta) with theta the
    squeeze phase, so that

        g2 = 2 + c^2 - 2 a c x - a^2,
        g3 = 6 + 9 (c^2 - 2 a c x - a^2) + 4 a^3 + 12 a^2 c x.

    With nbar known the covariance ratio obeys the physicality bound
    c^2 <= (1-a)(1-a+1/nbar), with equality exactly at N = 0.  Without nbar no
    finite bound exists (the nbar -> 0 limit allows any c; every squeezed
    vacuum already has c > 1), so only c >= 0 is enforced.

    With u = g2 - 2, v = g3 - 6 - 9u and y = c x, each a in (0, 1] fixes
    y = (v - 4a^3)/(12a^2) and c^2 = u + a^2 + 2ay.  Then |x| <= 1 is
    p(a) = 32a^6 + 144u a^4 + 32v a^3 - v^2 >= 0, and the cap with k = 1/nbar
    is q(a) = 4a^3 - (12+6k)a^2 + (6+6k-6u)a - v >= 0.  The feasible a-set
    lies between real roots of p and q; it goes into the witness as
    ``a_intervals`` (two equations fix three unknowns), and (a, c, x) is the
    middle of the widest interval.  Without one, the residual is the least
    |g3 - g3(a, c, x)| over witnesses that reproduce g2, from
    ``_nearest_candidate``.  a = 0 is the non-displaced relation, tested
    before this one.  Returns (residual <= tol, witness, residual); the
    witness is None when no a admits a physical c.
    """
    u = g2 - 2.0
    v = g3 - 6.0 - 9.0 * u
    k = None if nbar is None else 1.0 / nbar
    intervals = _feasible_intervals(u, v, k)
    if intervals:
        lo, hi = max(intervals, key=lambda t: t[1] - t[0])
        a = 0.5 * (lo + hi)
        res, y = 0.0, (v - 4.0 * a**3) / (12.0 * a * a)
    else:
        res, a, y = _nearest_candidate(u, v, k)
    if a is None:
        return False, None, math.inf
    c = math.sqrt(max(u + a * a + 2.0 * a * y, 0.0))
    x = min(max(y / c, -1.0), 1.0) if c > 0.0 else 0.0
    return res <= tol, {"a": a, "c": c, "x": x, "a_intervals": intervals}, res


def classify_single_mode(m: MeasurementSet, tol: float = 1e-6) -> Classification:
    """Sort single-mode (g2, g3) data into the Gaussian sectors."""
    if m.modes != 1:
        raise ValidationError("classify_single_mode needs single-mode data")
    if m.g2 is None or (0, 0, 0) not in m.g3:
        raise InsufficientDataError("single-mode classification needs g2 and g3")
    g2 = float(m.g2[0, 0])
    g3 = m.g3[(0, 0, 0)]
    if not math.isfinite(g2):
        raise ValidationError(f"g2 must be finite, got {g2}")
    nbar = float(m.nbar[0]) if m.nbar is not None else None
    if nbar is not None and not (math.isfinite(nbar) and nbar > 0.0):
        raise ValidationError(f"nbar must be finite and positive, got {nbar}")
    notes = [EVIDENCE_CAVEAT]
    residuals = []

    tol_r1 = _tolerance(m, tol, dg2=9.0, dg3=1.0)
    r1 = abs(g3 - (9.0 * g2 - 12.0))
    residuals.append(RelationResidual("non-displaced: g3 = 9 g2 - 12", r1, tol_r1))

    r2 = np.inf
    tol_r2 = tol
    if g2 <= 2.0 + tol:
        slope = 9.0 + 6.0 * np.sqrt(max(2.0 - g2, 0.0))
        tol_r2 = _tolerance(m, tol, dg2=slope, dg3=1.0)
        r2 = abs(g3 - (9.0 * g2 - 12.0 + 4.0 * max(2.0 - g2, 0.0) ** 1.5))
        residuals.append(RelationResidual("non-squeezed: g3 = 9 g2 - 12 + 4 (2 - g2)^(3/2)",
                                          r2, tol_r2))

    tol_pt = _tolerance(m, tol, dg2=1.0, dg3=1.0)
    r_coh = max(abs(g2 - 1.0), abs(g3 - 1.0))
    r_th = max(abs(g2 - 2.0), abs(g3 - 6.0))
    residuals.append(RelationResidual("coherent point g2 = g3 = 1", r_coh, tol_pt))
    residuals.append(RelationResidual("thermal point g2 = 2, g3 = 6", r_th, tol_pt))

    if r_coh <= tol_pt:
        sector = COHERENT_LIKE
        notes.append("coherent point satisfies the non-squeezed relation as well")
        witness = None
    elif r_th <= tol_pt:
        sector = THERMAL_LIKE
        notes.append("thermal point satisfies both sector relations (r = 0 and alpha = 0)")
        witness = None
    elif r1 <= tol_r1 or r2 <= tol_r2:
        if r1 <= tol_r1 and r2 <= tol_r2:
            notes.append("both sector relations pass; reporting the smaller residual")
            sector = NON_DISPLACED if r1 <= r2 else NON_SQUEEZED
        else:
            sector = NON_DISPLACED if r1 <= tol_r1 else NON_SQUEEZED
        witness = None
    else:
        feas_tol = _tolerance(m, max(tol, 1e-6), dg2=9.0, dg3=1.0)
        feasible, witness, res = displaced_squeezed_feasibility(g2, g3, feas_tol, nbar=nbar)
        residuals.append(RelationResidual("displaced-squeezed feasibility witness",
                                          res, feas_tol))
        sector = DISPLACED_SQUEEZED if feasible else INCONSISTENT
        if not feasible:
            notes.append("no physical (a, c, x) witness reproduces (g2, g3)")
    return Classification(sector, tuple(residuals), tuple(notes), witness)


def _sqrt_clip(x):
    return np.sqrt(np.clip(x, 0.0, None))


def _cosine_excess(c: np.ndarray) -> float:
    """How far extracted cosines leave [-1, 1]; > 0 falsifies the hypothesis."""
    finite = c[np.isfinite(c)]
    if finite.size == 0:
        return 0.0
    return float(max(np.abs(finite).max() - 1.0, 0.0))


def _extract_ns_cosines(m: MeasurementSet):
    """cos(Phi_ij + phi_i - phi_j) from g3_iij under the non-squeezed hypothesis.

    Uses g3_iij = 2 + 4|g1_ij|^2 - a_i^2 - 4 a_i a_j + 4 a_i^2 a_j
    - 4|g1_ij| a_i^(3/2) a_j^(1/2) cos(Phi_ij + phi_i - phi_j) with
    a_i = sqrt(2 - g2_ii), obtained by specialising the general
    displaced-thermal g3 to two matching indices.
    """
    mm = m.modes
    g2, g1a = m.g2, m.g1_abs
    a = _sqrt_clip(2.0 - np.diag(g2))
    c = np.full((mm, mm), np.nan)
    missing = []
    for i in range(mm):
        for j in range(mm):
            if i == j:
                continue
            denom = 4.0 * g1a[i, j] * a[i] ** 1.5 * a[j] ** 0.5
            if abs(denom) < 1e-12:
                continue  # no phase information in this entry
            key = tuple(sorted((i, i, j)))
            if key not in m.g3:
                missing.append((i, i, j))
                continue
            base = (2.0 + 4.0 * g1a[i, j] ** 2 - a[i] ** 2 - 4.0 * a[i] * a[j]
                    + 4.0 * a[i] ** 2 * a[j])
            val = (base - m.g3[key]) / denom
            cij = val if np.isnan(c[i, j]) else 0.5 * (c[i, j] + val)
            c[i, j] = c[j, i] = cij
    if missing:
        raise InsufficientDataError(
            "non-squeezed phase extraction needs g3 entries: "
            + ", ".join(map(str, sorted(set(missing)))))
    return c


def _extract_nd_cosines(m: MeasurementSet):
    """cos(Phi_ij - Theta_ij + Theta_ii) from g3_iij under the non-displaced hypothesis."""
    mm = m.modes
    g2, g1a = m.g2, m.g1_abs
    c = np.full((mm, mm), np.nan)
    missing = []
    for i in range(mm):
        for j in range(mm):
            if i == j:
                continue
            q_ij = g2[i, j] - g1a[i, j] ** 2 - 1.0
            q_ii = g2[i, i] - 2.0
            denom = 4.0 * g1a[i, j] * _sqrt_clip(q_ij * q_ii)
            if abs(denom) < 1e-12:
                continue
            key = tuple(sorted((i, i, j)))
            if key not in m.g3:
                missing.append((i, i, j))
                continue
            c[i, j] = (m.g3[key] - g2[i, i] - 4.0 * g2[i, j] + 4.0) / denom
    if missing:
        raise InsufficientDataError(
            "non-displaced phase extraction needs g3 entries: "
            + ", ".join(map(str, sorted(set(missing)))))
    return c


def _ns_predicted_g3(m: MeasurementSet, phases, i, j, k):
    """g3_ijk of a displaced thermal state from g2, g1 and displacement phases."""
    g2, g1a = m.g2, m.g1_abs
    phi = m.g1_phase
    a = {t: _sqrt_clip(2.0 - g2[t, t]) for t in (i, j, k)}
    val = (g2[i, j] + g2[j, k] + g2[i, k] - 2.0
           + 2.0 * g1a[i, j] * g1a[j, k] * g1a[i, k]
           * np.cos(phi[i, j] + phi[j, k] - phi[i, k])
           + 4.0 * a[i] * a[j] * a[k]
           - 2.0 * (g1a[i, j] * np.sqrt(a[i] * a[j]) * a[k]
                    * np.cos(phi[i, j] + phases[i] - phases[j])
                    + g1a[j, k] * np.sqrt(a[j] * a[k]) * a[i]
                    * np.cos(phi[j, k] + phases[j] - phases[k])
                    + g1a[i, k] * np.sqrt(a[i] * a[k]) * a[j]
                    * np.cos(phi[i, k] + phases[i] - phases[k])))
    return val


def _nd_predicted_g3(m: MeasurementSet, theta, i, j, k):
    """g3_ijk of a squeezed thermal state from g2, g1 and covariance phases."""
    g2, g1a = m.g2, m.g1_abs
    phi = m.g1_phase

    def q(x, y):
        return g2[x, y] - g1a[x, y] ** 2 - 1.0

    val = (g2[i, j] + g2[j, k] + g2[i, k] - 2.0
           + 2.0 * g1a[i, j] * g1a[j, k] * g1a[i, k]
           * np.cos(phi[i, j] + phi[j, k] - phi[i, k])
           + 2.0 * g1a[i, j] * _sqrt_clip(q(j, k) * q(i, k))
           * np.cos(phi[i, j] - theta[j, k] + theta[i, k])
           + 2.0 * g1a[j, k] * _sqrt_clip(q(i, k) * q(i, j))
           * np.cos(phi[j, k] - theta[i, k] + theta[i, j])
           + 2.0 * g1a[i, k] * _sqrt_clip(q(i, j) * q(j, k))
           * np.cos(-phi[i, k] - theta[i, j] + theta[j, k]))
    return val


def _marginal_feasibility(m: MeasurementSet, tol: float, notes: list) -> list:
    """The exact single-mode test on each mode's (g2_ii, g3_iii, nbar_i).

    Every single-mode marginal of a Gaussian state is Gaussian, so a mode
    without a witness excludes every Gaussian state.  Modes without g3_iii
    are skipped; an nbar_i that is missing or not positive drops the cap.
    """
    feas_tol = _tolerance(m, max(tol, 1e-6), dg2=9.0, dg3=1.0)
    residuals = []
    for i in range(m.modes):
        if (i, i, i) not in m.g3:
            continue
        nbar = None if m.nbar is None else float(m.nbar[i])
        if nbar is not None and not (math.isfinite(nbar) and nbar > 0.0):
            nbar = None
        feasible, _, res = displaced_squeezed_feasibility(float(m.g2[i, i]), m.g3[(i, i, i)],
                                                          feas_tol, nbar=nbar)
        residuals.append(RelationResidual(f"mode {i} displaced-squeezed feasibility witness",
                                          res, feas_tol))
        if not feasible:
            notes.append(f"mode {i} has no physical (a, c, x) witness for (g2, g3): "
                         "no Gaussian state has this marginal")
    return residuals


def classify_multimode(m: MeasurementSet, tol: float = 1e-6) -> Classification:
    """Test multimode data against the non-squeezed and non-displaced sectors."""
    if m.modes < 2:
        raise ValidationError("classify_multimode needs at least two modes")
    if m.g2 is None or m.g1_abs is None:
        raise InsufficientDataError("multimode classification needs g2 and |g1|")
    mm = m.modes
    g2, g1a = m.g2, m.g1_abs
    # a NaN residual fails every '>' test, so it would pass a hypothesis
    if not (np.isfinite(g2).all() and np.isfinite(g1a).all()):
        raise ValidationError("multimode classification needs finite g2 and |g1| entries")
    residuals = []
    notes = [EVIDENCE_CAVEAT]
    tol_rel = _tolerance(m, tol, dg2=3.0, dg3=1.0)

    # --- non-squeezed hypothesis
    ns_ok = True
    ns_res = 0.0
    if np.nanmax(np.diag(g2)) > 2.0 + tol_rel:
        ns_ok = False
        ns_res = float(np.nanmax(np.diag(g2)) - 2.0)
        notes.append("a diagonal g2 exceeds 2: incompatible with zero squeezing")
    else:
        for i in range(mm):
            for j in range(i + 1, mm):
                pred = 1.0 + g1a[i, j] ** 2 - _sqrt_clip((2 - g2[i, i]) * (2 - g2[j, j]))
                ns_res = max(ns_res, abs(g2[i, j] - pred))
        ns_ok = ns_res <= tol_rel
    residuals.append(RelationResidual("non-squeezed g2/g1 relation (all pairs)",
                                      ns_res, tol_rel))
    ns_solutions = []
    ns_blocked = None
    if ns_ok:
        try:
            c = _extract_ns_cosines(m)
            excess = _cosine_excess(c)
            if excess > tol_rel:
                ns_ok = False
                notes.append(f"extracted displacement cosine exceeds 1 by {excess:.3e}")
                residuals.append(RelationResidual("non-squeezed cosine range",
                                                  excess, tol_rel))
            else:
                system = PhaseSystem(DISPLACEMENT, m.g1_phase, np.clip(c, -1, 1))
                ns_solutions = solve_displacement_phases(system,
                                                         tol=max(10 * tol_rel, 1e-8))
        except InsufficientDataError as err:
            ns_blocked = err
            ns_ok = False
            notes.append(f"non-squeezed test blocked: {err}")
        if ns_ok and not ns_solutions:
            ns_ok = False
            notes.append("displacement-phase system has no solution")
        elif ns_ok:
            def ns_worst(sol):
                worst = 0.0
                for (i, j, k), val in m.g3.items():
                    if i == j == k:
                        d = 2.0 - g2[i, i]
                        pred = 9.0 * g2[i, i] - 12.0 + 4.0 * np.clip(d, 0, None) ** 1.5
                        worst = max(worst, abs(val - pred))
                    elif len({i, j, k}) == 3:
                        worst = max(worst, abs(val - _ns_predicted_g3(m, sol.phases, i, j, k)))
                return worst

            worsts = [ns_worst(s) for s in ns_solutions]
            order = int(np.argmin(worsts))
            ns_solutions = [ns_solutions[order]] + [s for t, s in enumerate(ns_solutions)
                                                    if t != order]
            residuals.append(RelationResidual("non-squeezed g3 consistency",
                                              worsts[order], tol_rel))
            ns_ok = worsts[order] <= tol_rel

    # --- non-displaced hypothesis
    nd_ok = True
    nd_res = 0.0
    qmin = np.inf
    for i in range(mm):
        for j in range(i, mm):
            q = g2[i, j] - (1.0 if i != j else 0.0) * g1a[i, j] ** 2 - (1.0 if i != j else 2.0)
            qmin = min(qmin, q)
    if qmin < -tol_rel:
        nd_ok = False
        nd_res = -qmin
        notes.append("covariance moduli would be imaginary: incompatible with zero displacement")
    residuals.append(RelationResidual("non-displaced modulus positivity", max(nd_res, 0.0),
                                      tol_rel))
    nd_solutions = []
    nd_blocked = None
    if nd_ok:
        try:
            c = _extract_nd_cosines(m)
            excess = _cosine_excess(c)
            if excess > tol_rel:
                nd_ok = False
                notes.append(f"extracted covariance cosine exceeds 1 by {excess:.3e}")
                residuals.append(RelationResidual("non-displaced cosine range",
                                                  excess, tol_rel))
            else:
                system = PhaseSystem(COVARIANCE, m.g1_phase, np.clip(c, -1, 1))
                nd_solutions = solve_covariance_phases(system,
                                                       tol=max(10 * tol_rel, 1e-8))
        except InsufficientDataError as err:
            nd_blocked = err
            nd_ok = False
            notes.append(f"non-displaced test blocked: {err}")
        if nd_ok and not nd_solutions:
            nd_ok = False
            notes.append("covariance-phase system has no solution")
        elif nd_ok:
            def nd_worst(sol):
                worst = 0.0
                for (i, j, k), val in m.g3.items():
                    if i == j == k:
                        worst = max(worst, abs(val - (9.0 * g2[i, i] - 12.0)))
                    elif len({i, j, k}) == 3:
                        worst = max(worst, abs(val - _nd_predicted_g3(m, sol.theta, i, j, k)))
                return worst

            worsts = [nd_worst(s) for s in nd_solutions]
            order = int(np.argmin(worsts))
            nd_solutions = [nd_solutions[order]] + [s for t, s in enumerate(nd_solutions)
                                                    if t != order]
            residuals.append(RelationResidual("non-displaced g3 consistency",
                                              worsts[order], tol_rel))
            nd_ok = worsts[order] <= tol_rel

    if ns_ok and nd_ok:
        notes.append("both sectors consistent (state close to thermal); "
                     "preferring the smaller residual")
        sector = NON_SQUEEZED if ns_res <= nd_res else NON_DISPLACED
    elif ns_ok:
        sector = NON_SQUEEZED
    elif nd_ok:
        sector = NON_DISPLACED
    else:
        # a verdict of inconsistency must rest on data, not on missing entries
        if ns_blocked is not None:
            raise ns_blocked
        if nd_blocked is not None:
            raise nd_blocked
        sector = INCONSISTENT
        notes.append("zero-displacement and zero-squeezing hypotheses both fail; "
                     "a displaced squeezed Gaussian state is not excluded "
                     "(reconstructing that sector needs two-port beam-splitter data)")
        residuals += _marginal_feasibility(m, tol, notes)
    witness = None
    if sector == NON_SQUEEZED and ns_solutions:
        witness = {"displacement_phases": ns_solutions[0].phases.tolist(),
                   "n_phase_solutions": len(ns_solutions)}
    if sector == NON_DISPLACED and nd_solutions:
        witness = {"covariance_phases": nd_solutions[0].theta.tolist(),
                   "n_phase_solutions": len(nd_solutions)}
    return Classification(sector, tuple(residuals), tuple(notes), witness)


def classify(m: MeasurementSet, tol: float = 1e-6) -> Classification:
    return classify_single_mode(m, tol) if m.modes == 1 else classify_multimode(m, tol)
