"""Hypothesis tests sorting correlation data into Gaussian sectors.

Satisfying a relation is evidence, never certification: the Fock mixture
(5/8)|0><0| + (3/8)|2><2| has g2 = 4/3 and g3 = 0 and sits exactly on the
non-displaced line, so every verdict carries an explicit evidence-only caveat.

Residuals are normalized by first-order propagated uncertainties when the
measurement set carries sigmas (acceptance at 3 sigma); exact synthetic data
falls back to a flat tolerance.

The multimode hypotheses (zero squeezing, zero displacement) share one
routine: extract phase cosines from g3_iij, solve the phase system, and score
each solution against g3.  Every g3 entry that carries no cosine data, g3_iii
and the all-distinct g3_ijk, is predicted by the kernel of ``g3_tensor``
(``states._g3_kernel``) in one call over all of a hypothesis's solutions, fed
with the measured g1 and g2 - 1 and the sector's blocks: c = 0 and
b_i = sqrt(a_i) e^{i phi_i}, or b = 0 and c_ij = sqrt(q_ij) e^{i Theta_ij},
diagonal included, with the moduli clipped at q = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .phases import (
    COVARIANCE,
    DISPLACEMENT,
    PhaseSystem,
    SearchStats,
    degeneracy_report,
    solve_covariance_phases,
    solve_displacement_phases,
)
from .states import (
    MomentSummary,
    _g3_kernel,
    g2_tensor,
    g3_tensor,
    mode_vacuum_probability,
)

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
    The arrays are converted to float and checked once, and a number beyond
    float range is a ValidationError naming its field.
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
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValidationError(f"modes must be a positive integer, got {m!r}")
        m = int(m)
        object.__setattr__(self, "modes", m)
        if m == 1:  # one mode's g1 is 1 by definition
            if self.g1_abs is None:
                object.__setattr__(self, "g1_abs", np.ones((1, 1)))
            if self.g1_phase is None:
                object.__setattr__(self, "g1_phase", np.zeros((1, 1)))
        # every shape is checked before any entry's finiteness; the least and
        # largest entry of each array (NaN when one is NaN, and 0 taken as an
        # entry, which no check rejects) serve its finiteness and range checks
        nonfinite, bounds = None, {}
        for name in ("nbar", "p0", "g1_abs", "g1_phase", "g2"):
            v = getattr(self, name)
            if v is None:
                continue
            try:
                v = np.asarray(v, dtype=float)
            except OverflowError:
                raise ValidationError(f"{name} entries must lie within float range") from None
            if name in ("nbar", "p0"):
                v = v.reshape(m)
            elif v.shape != (m, m):
                raise ValidationError(f"{name} must be {m}x{m}")
            lo = np.minimum.reduce(v, axis=None, initial=0.0)
            hi = np.maximum.reduce(v, axis=None, initial=0.0)
            # a JSON null inside an array arrives here as NaN
            if nonfinite is None and not (math.isfinite(lo) and math.isfinite(hi)):
                nonfinite = name
            bounds[name] = lo, hi
            object.__setattr__(self, name, v)
        if nonfinite is not None:
            raise ValidationError(f"{nonfinite} entries must be finite")
        if not isinstance(self.sigma, dict):
            raise ValidationError("sigma must map observable names to numbers")
        sigma = {}
        for key, val in self.sigma.items():
            if key not in SIGMA_NAMES:
                raise ValidationError(f"unknown sigma name {key!r} "
                                      f"(expected one of {', '.join(SIGMA_NAMES)})")
            try:
                sigma[key] = float(val)
            except (TypeError, ValueError):
                raise ValidationError(f"sigma {key} must be a number, got {val!r}") from None
            except OverflowError:
                raise ValidationError(f"sigma {key} must lie within float range") from None
            if not (math.isfinite(sigma[key]) and sigma[key] >= 0.0):
                raise ValidationError(f"sigma {key} must be finite and nonnegative, got {val}")
        object.__setattr__(self, "sigma", sigma)
        if "g1_abs" in bounds:
            lo, hi = bounds["g1_abs"]
            if lo < -1e-12 or hi > 1 + 1e-6:
                raise ValidationError("|g1| entries must lie in [0, 1]")
        if self.g1_phase is not None and np.abs(self.g1_phase + self.g1_phase.T).max() > 1e-8:
            raise ValidationError("g1 phases must be antisymmetric")
        if "g2" in bounds and bounds["g2"][0] < 0:
            raise ValidationError("g2 entries must be nonnegative")
        object.__setattr__(self, "g3", _checked_g3(self.g3, m))

    def g1_complex(self) -> np.ndarray:
        if self.g1_abs is None:
            raise InsufficientDataError("g1 magnitudes missing")
        phase = self.g1_phase if self.g1_phase is not None else np.zeros_like(self.g1_abs)
        return self.g1_abs * np.exp(1j * phase)

    def sigma_for(self, name: str) -> float:
        return float(self.sigma.get(name, 0.0))


def _sorted_g3_key(key, m: int) -> tuple:
    """A g3 key as a sorted tuple: three integer (not bool) mode indices in [0, m)."""
    key = tuple(sorted(key))
    if len(key) != 3 or key[0] < 0 or key[2] >= m:
        raise ValidationError(f"g3 key {key} must be three mode indices in [0, {m})")
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in key):
        raise ValidationError(f"g3 key {key} must hold integer mode indices")
    return key


def _checked_g3(g3: dict, m: int) -> dict:
    """``g3`` keyed by sorted triples, with float values: each key is checked
    by ``_sorted_g3_key``, and each value must be finite and nonnegative, under
    a sorted key no earlier entry has.  The first bad entry raises."""
    cleaned = {}
    for key, val in g3.items():
        # a sorted tuple of three ints in [0, m) is kept as it is
        if type(key) is tuple and len(key) == 3:
            i, j, k = key
            if not (type(i) is type(j) is type(k) is int and 0 <= i <= j <= k < m):
                key = _sorted_g3_key(key, m)
        else:
            key = _sorted_g3_key(key, m)
        try:
            val = float(val)
        except OverflowError:
            raise ValidationError(f"g3 entry {key} must lie within float range") from None
        if not 0.0 <= val < math.inf:
            if not math.isfinite(val):
                raise ValidationError(f"g3 entry {key} must be finite, got {val}")
            raise ValidationError("g3 entries must be nonnegative")
        if key in cleaned:
            raise ValidationError(f"g3 entry {key} is given more than once")
        cleaned[key] = val
    return cleaned


@lru_cache(maxsize=32)
def _above_diagonal(m: int) -> np.ndarray:
    """Read-only mask of the entries above the diagonal of an m x m matrix."""
    mask = np.arange(m)[:, None] < np.arange(m)
    mask.setflags(write=False)
    return mask


def synthesize_measurements(moments: MomentSummary, include_p0: bool = False,
                            rng=None, sigma: dict | None = None) -> MeasurementSet:
    """Exact observables of a state, optionally perturbed by Gaussian noise."""
    m = moments.modes
    upper = _above_diagonal(m)
    g2 = g2_tensor(moments)
    g3 = g3_tensor(moments)
    g1, nbar = moments.g1, moments.nbar  # read-only: nothing below writes to them
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
        mag = np.where(upper, mag, 0.0)
        mag = mag + mag.T
        np.fill_diagonal(mag, 1.0)
        ph = jitter(np.angle(g1), sigma.get("g1_phase", 0.0))
        ph = np.where(upper, ph, 0.0)
        ph = ph - ph.T
        g1 = mag * np.exp(1j * ph)
        if p0 is not None:
            p0 = np.clip(jitter(p0, sigma.get("p0", 0.0)), 1e-12, 1.0)
    phase = np.where(upper, np.angle(g1), 0.0)
    return MeasurementSet(m, nbar=nbar, g1_abs=np.abs(g1), g1_phase=phase - phase.T,
                          g2=g2, g3=g3, p0=p0, sigma=sigma)


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
    # per multimode hypothesis, the solutions its phase solver returned, best g3
    # score first (none when gated out or unsolvable); not in repr, == or JSON
    phase_solutions: dict = field(default_factory=dict, repr=False, compare=False)

    def residual(self, relation: str) -> float:
        for r in self.residuals:
            if r.relation == relation:
                return r.residual
        raise KeyError(relation)


def _tolerance(m: MeasurementSet, flat_tol: float, dg2: float = 0.0, dg3: float = 0.0) -> float:
    """3-sigma acceptance from first-order propagation, else the flat tolerance;
    a 3-sigma tolerance that overflows is a ValidationError naming the larger term's sigma."""
    terms = {"g2": dg2 * m.sigma_for("g2"), "g3": dg3 * m.sigma_for("g3")}
    propagated = 3.0 * math.hypot(*terms.values())
    if not math.isfinite(propagated):
        raise ValidationError(f"sigma {max(terms, key=terms.get)} too large: "
                              "its 3-sigma tolerance overflows a float")
    return max(flat_tol, propagated)


def _nd_line(g2):
    """g3 on the non-displaced line, g3 = 9 g2 - 12."""
    return 9.0 * g2 - 12.0


def _ns_curve(g2):
    """g3 on the non-squeezed curve, g3 = 9 g2 - 12 + 4 (2 - g2)^(3/2), 2 - g2 clipped at 0."""
    return _nd_line(g2) + 4.0 * np.clip(2.0 - g2, 0.0, None) ** 1.5


def _require(m: MeasurementSet, purpose: str, *names: str) -> None:
    """Raise InsufficientDataError naming every listed field that m lacks."""
    missing = [name for name in names if getattr(m, name) is None]
    if missing:
        raise InsufficientDataError(f"{purpose} needs {', '.join(missing)}")


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
    nbar = float(m.nbar[0]) if m.nbar is not None else None
    if nbar is not None and not nbar > 0.0:
        raise ValidationError(f"nbar must be positive, got {nbar}")
    notes = [EVIDENCE_CAVEAT]
    residuals = []

    tol_r1 = _tolerance(m, tol, dg2=9.0, dg3=1.0)
    r1 = float(abs(g3 - _nd_line(g2)))
    residuals.append(RelationResidual("non-displaced: g3 = 9 g2 - 12", r1, tol_r1))

    r2 = np.inf
    tol_r2 = tol
    if g2 <= 2.0 + tol:
        slope = 9.0 + 6.0 * np.sqrt(max(2.0 - g2, 0.0))
        tol_r2 = _tolerance(m, tol, dg2=slope, dg3=1.0)
        r2 = float(abs(g3 - _ns_curve(g2)))
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


def _covariance_q(m: MeasurementSet) -> np.ndarray:
    """|cov_ij|^2 / (nbar_i nbar_j) of a non-displaced state.

    g2_ij - |g1_ij|^2 - 1 off the diagonal and g2_ii - 2 on it.
    """
    q = m.g2 - m.g1_abs**2 - 1.0
    np.fill_diagonal(q, np.diag(m.g2) - 2.0)
    return q


def _cosine_excess(c: np.ndarray) -> float:
    """How far extracted cosines leave [-1, 1]; > 0 falsifies the hypothesis."""
    finite = c[np.isfinite(c)]
    if finite.size == 0:
        return 0.0
    return float(max(np.abs(finite).max() - 1.0, 0.0))


def _phase_cosines(m: MeasurementSet, label: str, numerator, denom: np.ndarray) -> np.ndarray:
    """numerator(g3_iij) / denom at [i, j], NaN where |denom| < 1e-12 or i = j.

    g3_iij is gathered into one matrix; an entry that carries phase
    information but is missing from m.g3 raises InsufficientDataError, which
    names every such entry.
    """
    mm = m.modes
    informative = np.abs(denom) >= 1e-12
    np.fill_diagonal(informative, False)
    g3 = np.array([[m.g3.get(tuple(sorted((i, i, j))), np.nan) for j in range(mm)]
                   for i in range(mm)])
    missing = np.argwhere(informative & np.isnan(g3)).tolist()
    if missing:
        raise InsufficientDataError(f"{label} phase extraction needs g3 entries: "
                                    + ", ".join(str((i, i, j)) for i, j in missing))
    return np.where(informative, numerator(g3) / np.where(informative, denom, 1.0), np.nan)


def _extract_ns_cosines(m: MeasurementSet):
    """cos(Phi_ij + phi_i - phi_j) from g3_iij under the non-squeezed hypothesis.

    Uses g3_iij = 2 + 4|g1_ij|^2 - a_i^2 - 4 a_i a_j + 4 a_i^2 a_j
    - 4|g1_ij| a_i^(3/2) a_j^(1/2) cos(Phi_ij + phi_i - phi_j) with
    a_i = sqrt(2 - g2_ii), obtained by specialising the general
    displaced-thermal g3 to two matching indices.  The (i, j) and (j, i)
    estimates are averaged where both carry phase information.
    """
    g1a = m.g1_abs
    a = _sqrt_clip(2.0 - np.diag(m.g2))
    ai, aj = a[:, None], a[None, :]
    base = 2.0 + 4.0 * g1a**2 - ai**2 - 4.0 * ai * aj + 4.0 * ai**2 * aj
    val = _phase_cosines(m, "non-squeezed", lambda g3: base - g3,
                         4.0 * g1a * ai**1.5 * aj**0.5)
    return np.where(np.isnan(val), val.T, np.where(np.isnan(val.T), val, 0.5 * (val + val.T)))


def _extract_nd_cosines(m: MeasurementSet):
    """cos(Phi_ij - Theta_ij + Theta_ii) from g3_iij under the non-displaced hypothesis."""
    g2 = m.g2
    q = _covariance_q(m)
    return _phase_cosines(m, "non-displaced",
                          lambda g3: g3 - np.diag(g2)[:, None] - 4.0 * g2 + 4.0,
                          4.0 * m.g1_abs * _sqrt_clip(q * np.diag(q)[:, None]))


def _mirrored(x: np.ndarray) -> np.ndarray:
    """x on and above the diagonal, mirrored (conjugated) below it.

    Measured data need not be exactly symmetric, so every pair is read at
    i <= j, where the per-triple formulas read it.
    """
    i = np.arange(x.shape[0])
    return np.where(i[:, None] <= i, x, x.conj().T)


# Scores that agree within this share of the largest g3 value are a tie,
# which the first solution in solver order wins: the g3_iii prediction does
# not depend on the phases, but its rounding does.
_TIE = 1e-12


def _g3_misfits(m: MeasurementSet, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Worst |g3 - prediction| over the entries of m.g3, one per stacked (c, b).

    Every entry is predicted by ``states._g3_kernel``, the kernel of
    ``g3_tensor``, in one call over the stack: on the measured g1 (unit
    diagonal), P = g2 - 1 and the blocks.  Entries with exactly two equal
    indices carry the cosine data and are not scored.
    """
    g = _mirrored(m.g1_complex())
    np.fill_diagonal(g, 1.0)
    scored = [key for key in m.g3 if len(set(key)) != 2]
    index = tuple(np.array(scored, dtype=int).reshape(-1, 3).T)
    values = np.array([m.g3[key] for key in scored])
    predicted = _g3_kernel(g, c, b, _mirrored(m.g2 - 1.0))[(..., *index)]
    return np.abs(values - predicted).max(axis=-1, initial=0.0)


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
        if nbar is not None and not nbar > 0.0:
            nbar = None
        feasible, _, res = displaced_squeezed_feasibility(float(m.g2[i, i]), m.g3[(i, i, i)],
                                                          feas_tol, nbar=nbar)
        residuals.append(RelationResidual(f"mode {i} displaced-squeezed feasibility witness",
                                          res, feas_tol))
        if not feasible:
            notes.append(f"mode {i} has no physical (a, c, x) witness for (g2, g3): "
                         "no Gaussian state has this marginal")
    return residuals


def _sector_hypothesis(m: MeasurementSet, label: str, kind: str, extract, blocks,
                       tol_rel: float, residuals: list, notes: list):
    """The steps both sector hypotheses share, after their pre-gate passed.

    Extracts the cosines (``extract``), checks their range, solves the phase
    system of ``kind`` and scores every solution against g3
    (``_g3_misfits``); ``blocks(phases)`` maps the solutions' stacked phases
    (their theta for the covariance kind) to the blocks (c, b).  Residuals
    and notes are appended in place.  Returns (passed, the
    InsufficientDataError that blocked the test or None, the witness or
    None, the solutions, best-scoring first).
    """
    try:
        c = extract(m)
    except InsufficientDataError as err:
        notes.append(f"{label} test blocked: {err}")
        return False, err, None, []
    excess = _cosine_excess(c)
    if excess > tol_rel:
        notes.append(f"extracted {kind} cosine exceeds 1 by {excess:.3e}")
        residuals.append(RelationResidual(f"{label} cosine range", excess, tol_rel))
        return False, None, None, []
    system, stats = PhaseSystem(kind, m.g1_phase, np.clip(c, -1, 1)), SearchStats()
    # looked up by name at each call, so a tracer that wraps the solvers sees them
    solve = solve_displacement_phases if kind == DISPLACEMENT else solve_covariance_phases
    solutions = solve(system, tol=max(10 * tol_rel, 1e-8), stats=stats)
    if not solutions:
        notes.append(f"{kind}-phase system has no solution")
        return False, None, None, []
    phases = np.array([s.phases if kind == DISPLACEMENT else s.theta for s in solutions])
    worsts = _g3_misfits(m, *blocks(phases))
    slack = _TIE * max(1.0, max(m.g3.values(), default=0.0))
    best = int(np.argmax(worsts <= worsts.min() + slack))  # the first within the slack
    solutions.insert(0, solutions.pop(best))
    worst = float(worsts[best])
    residuals.append(RelationResidual(f"{label} g3 consistency", worst, tol_rel))
    witness = {f"{kind}_phases": phases[best].tolist(),
               "n_phase_solutions": len(solutions),
               "degeneracy_notes": degeneracy_report(system, solutions),
               "phase_search": asdict(stats)}
    return worst <= tol_rel, None, witness, solutions


def classify_multimode(m: MeasurementSet, tol: float = 1e-6) -> Classification:
    """Test multimode data against the non-squeezed and non-displaced sectors."""
    if m.modes < 2:
        raise ValidationError("classify_multimode needs at least two modes")
    _require(m, "multimode classification", "g2", "g1_abs", "g1_phase")
    mm = m.modes
    g2, diag = m.g2, np.diag(m.g2)
    residuals = []
    notes = [EVIDENCE_CAVEAT]
    tol_rel = _tolerance(m, tol, dg2=3.0, dg3=1.0)

    # --- non-squeezed hypothesis: c = 0, b_i = sqrt(a_i) e^{i phi_i}
    if diag.max() > 2.0 + tol_rel:
        ns_res = float(diag.max() - 2.0)
        notes.append("a diagonal g2 exceeds 2: incompatible with zero squeezing")
    else:
        d = 2.0 - diag
        pred = 1.0 + m.g1_abs**2 - _sqrt_clip(np.outer(d, d))
        ns_res = float(np.abs(g2 - pred)[np.triu_indices(mm, 1)].max())
    residuals.append(RelationResidual("non-squeezed g2/g1 relation (all pairs)",
                                      ns_res, tol_rel))
    ns_ok, ns_blocked, ns_witness, ns_solutions = False, None, None, []
    if ns_res <= tol_rel:
        root_a = np.sqrt(_sqrt_clip(2.0 - diag))
        no_cov = np.zeros((mm, mm), dtype=complex)
        ns_ok, ns_blocked, ns_witness, ns_solutions = _sector_hypothesis(
            m, "non-squeezed", DISPLACEMENT, _extract_ns_cosines,
            lambda phases: (no_cov, root_a * np.exp(1j * phases)), tol_rel, residuals, notes)

    # --- non-displaced hypothesis: b = 0, c_ij = sqrt(q_ij) e^{i Theta_ij}
    q = _covariance_q(m)
    qmin = float(q[np.triu_indices(mm)].min())
    nd_gate = qmin >= -tol_rel
    nd_res = 0.0 if nd_gate else -qmin
    if not nd_gate:
        notes.append("covariance moduli would be imaginary: incompatible with zero displacement")
    residuals.append(RelationResidual("non-displaced modulus positivity", nd_res, tol_rel))
    nd_ok, nd_blocked, nd_witness, nd_solutions = False, None, None, []
    if nd_gate:
        moduli, no_disp = _mirrored(_sqrt_clip(q)), np.zeros(mm, dtype=complex)
        nd_ok, nd_blocked, nd_witness, nd_solutions = _sector_hypothesis(
            m, "non-displaced", COVARIANCE, _extract_nd_cosines,
            lambda theta: (moduli * np.exp(1j * theta), no_disp), tol_rel, residuals, notes)

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
    witness = {NON_SQUEEZED: ns_witness, NON_DISPLACED: nd_witness}.get(sector)
    return Classification(sector, tuple(residuals), tuple(notes), witness,
                          {NON_SQUEEZED: ns_solutions, NON_DISPLACED: nd_solutions})


def classify(m: MeasurementSet, tol: float = 1e-6) -> Classification:
    return classify_single_mode(m, tol) if m.modes == 1 else classify_multimode(m, tol)
