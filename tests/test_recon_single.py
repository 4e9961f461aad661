"""Single-mode reconstruction round-trips and error paths."""

import numpy as np
import pytest
from conftest import balanced_beamsplitter_duplicate, single_mode_g2_g3

from gausstat.classify import MeasurementSet, synthesize_measurements
from gausstat.errors import (
    InconsistentDataError,
    InfeasibleError,
    SectorMismatchError,
    ValidationError,
)
from gausstat.recon_multi import (
    recon_displaced_squeezed_multi,
    recon_displaced_thermal_multi,
    recon_squeezed_thermal_multi,
)
from gausstat.recon_single import (
    displaced_thermal_nbar,
    recon_displaced_thermal,
    recon_dst_scan,
    recon_squeezed_thermal,
    squeezed_thermal_nbar,
)
from gausstat.states import (
    GaussianParams,
    derive_moments,
    g2_tensor,
    g3_tensor,
    mode_vacuum_probability,
)


def observables(params):
    mom = derive_moments(params)
    g2 = g2_tensor(mom)[0, 0]
    g3 = g3_tensor(mom)[0, 0, 0]
    return g2, g3, float(mom.nbar[0]), mode_vacuum_probability(mom, 0)


class TestSqueezedThermal:
    def test_pure_limit(self):
        nbar = 0.37
        r, occ = recon_squeezed_thermal(3.0 + 1.0 / nbar, nbar)
        assert occ == pytest.approx(0.0, abs=1e-12)
        assert np.sinh(r) ** 2 == pytest.approx(nbar, rel=1e-12)

    def test_thermal_limit(self):
        r, occ = recon_squeezed_thermal(2.0, 0.9)
        assert r == pytest.approx(0.0, abs=1e-12)
        assert occ == pytest.approx(0.9, rel=1e-12)

    def test_example_inversion(self):
        r, occ = recon_squeezed_thermal(4.0106213337, 0.5801564444)
        assert r == pytest.approx(0.5, abs=1e-8)
        assert occ == pytest.approx(0.2, abs=1e-8)

    def test_round_trip(self, rng):
        for _ in range(25):
            r0 = rng.uniform(0.05, 1.2)
            n0 = rng.uniform(0.0, 1.0)
            g2, _, nbar, _ = observables(GaussianParams.single_mode(r=r0, occupation=n0))
            r, occ = recon_squeezed_thermal(g2, nbar)
            assert r == pytest.approx(r0, abs=1e-8)
            assert occ == pytest.approx(n0, abs=1e-8)

    def test_wrong_sector(self):
        with pytest.raises(SectorMismatchError):
            recon_squeezed_thermal(1.5, 0.5)


def quartic_click_reference(g2, p0, tol=1e-8):
    """Every (r, N) that the former quartic route admitted, best agreement first.

    Eliminating cosh^2 r between p0^(-2) = N^2 + (2N+1) cosh^2 r and
    g2 = 2 + |cov|^2/nbar^2 leaves, with P = 1/p0^2,

        (g2 - 3) N^4 + 2 (g2 - 3) N^3
        + (3 g2 - 2 g2 P + 6 P - 7) N^2 + (2 g2 - 2 g2 P + 6 P - 4) N
        + g2 (P - 1)^2 - 3 P^2 + 5 P - 2 = 0,

    a cubic at g2 = 3.  Each real root N >= 0 with sinh^2 r >= 0 is kept when
    the forward model reproduces p0 and g2.
    """
    big_p = 1.0 / p0**2
    coeffs = [g2 - 3.0,
              2.0 * (g2 - 3.0),
              3.0 * g2 - 2.0 * g2 * big_p + 6.0 * big_p - 7.0,
              2.0 * g2 - 2.0 * g2 * big_p + 6.0 * big_p - 4.0,
              g2 * (big_p - 1.0) ** 2 - 3.0 * big_p**2 + 5.0 * big_p - 2.0]
    if abs(coeffs[0]) < 1e-12 * max(abs(c) for c in coeffs):
        coeffs = coeffs[1:]
    out = []
    for root in np.roots(coeffs):
        if abs(root.imag) > 1e-8:
            continue
        occupation = float(root.real)
        if occupation < -1e-10:
            continue
        occupation = max(occupation, 0.0)
        sinh2 = (1.0 - (occupation + 1.0) ** 2 * p0**2) / ((2 * occupation + 1.0) * p0**2)
        if sinh2 < -1e-10:
            continue
        r = float(np.arcsinh(np.sqrt(max(sinh2, 0.0))))
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


def squeezed_thermal_click(g2, p0):
    """[(r, N)] from g2 and p0, shaped like quartic_click_reference's list for
    comparison with it: the nbar step, then the closed form.  nbar = 0 (p0 = 1)
    is read as the vacuum, as the quartic reads it; the library rejects it."""
    nbar = squeezed_thermal_nbar(g2, p0)
    return [recon_squeezed_thermal(g2, nbar) if nbar > 0 else (0.0, 0.0)]


def _click_roots(solve, g2, p0):
    try:
        return sorted(solve(g2, p0))
    except InfeasibleError:
        return None


class TestSqueezedThermalClick:
    def test_matches_quartic_reference(self):
        """The quadratic in nbar admits what the quartic in N admitted, within
        1e-9: on states with N >= 1e-3, at g2 = 3 exactly (the quartic's cubic
        case), at g2 > 3 (where many (g2, p0) pairs admit no state, and both
        say so) and at the vacuum boundary.  Nearer N = 0 the quartic's double
        root loses digits (1.6e-9 at N ~ 1e-5), then splits: see
        test_near_pure_state."""
        rng = np.random.default_rng(611)
        cases = []
        for _ in range(500):
            g2, _, _, p0 = observables(GaussianParams.single_mode(
                r=rng.uniform(0.0, 1.5), occupation=rng.uniform(1e-3, 1.0)))
            cases.append((g2, p0))
        cases += [(3.0, p0) for p0 in rng.uniform(0.05, 1.0, 50)]
        cases += list(zip(rng.uniform(3.0, 12.0, 100), rng.uniform(0.05, 1.0, 100)))
        cases.append((2.0 + 1e-12, 1.0))
        admitted = 0
        for g2, p0 in cases:
            want = _click_roots(quartic_click_reference, g2, p0)
            got = _click_roots(squeezed_thermal_click, g2, p0)
            assert (want is None) == (got is None), (g2, p0)
            if want is not None:
                admitted += 1
                assert len(got) == len(want) == 1, (g2, p0)
                assert np.abs(np.subtract(got, want)).max() <= 1e-9, (g2, p0)
        assert admitted >= 551  # every state, every g2 = 3 pair, the vacuum

    def test_near_pure_state(self, rng):
        """Near N = 0 the two nbar roots meet, and (g2, p0) fixes the state only
        to about sqrt(eps): one solution within 1e-6, where the quartic
        returned the root twice or lost it."""
        for _ in range(50):
            r0 = rng.uniform(0.05, 1.5)
            n0 = 0.0 if rng.uniform() < 0.2 else 10 ** rng.uniform(-12, -4)
            g2, _, _, p0 = observables(GaussianParams.single_mode(r=r0, occupation=n0))
            r, occ = recon_squeezed_thermal(g2, squeezed_thermal_nbar(g2, p0))
            assert r == pytest.approx(r0, abs=1e-6)
            assert occ == pytest.approx(n0, abs=1e-6)

    def test_round_trip(self, rng):
        for _ in range(20):
            r0 = rng.uniform(0.05, 1.0)
            n0 = rng.uniform(0.0, 0.8)
            g2, _, _, p0 = observables(GaussianParams.single_mode(r=r0, occupation=n0))
            r, occ = recon_squeezed_thermal(g2, squeezed_thermal_nbar(g2, p0))
            assert r == pytest.approx(r0, abs=1e-8)
            assert occ == pytest.approx(n0, abs=1e-8)

    def test_agrees_with_nbar_variant(self, rng):
        params = GaussianParams.single_mode(r=0.6, occupation=0.25)
        g2, _, nbar, p0 = observables(params)
        r_a, n_a = recon_squeezed_thermal(g2, nbar)
        r_b, n_b = recon_squeezed_thermal(g2, squeezed_thermal_nbar(g2, p0))
        assert r_a == pytest.approx(r_b, abs=1e-7)
        assert n_a == pytest.approx(n_b, abs=1e-7)

    def test_vacuum_boundary(self):
        """p0 = 1 gives nbar = 0, an empty mode whose g2 reads nothing: the
        entry rejects it rather than return a state."""
        assert squeezed_thermal_nbar(2.0 + 1e-12, 1.0) == 0.0
        m = MeasurementSet(1, g2=np.array([[2.0 + 1e-12]]), p0=np.array([1.0]))
        with pytest.raises(ValidationError, match="nbar must be positive"):
            recon_squeezed_thermal_multi(m)

    def test_invalid_p0(self):
        with pytest.raises(ValidationError):
            squeezed_thermal_nbar(3.0, 1.2)

    def test_nbar_past_float_range_is_rejected(self):
        """At g2 = 3 the step's nbar is c / 2, past 2^341 for any p0 below
        2^-171; the entry rejects it before nbar^3 overflows."""
        assert squeezed_thermal_nbar(3.0, 2.0**-340) > 2.0**341
        m = MeasurementSet(1, g2=np.array([[3.0]]), p0=np.array([2.0**-340]))
        with pytest.raises(ValidationError, match="float range"):
            recon_squeezed_thermal_multi(m)


class TestDisplacedThermal:
    def test_coherent_limit(self):
        alpha_abs, occ = recon_displaced_thermal(1.0, 0.49)
        assert occ == pytest.approx(0.0, abs=1e-12)
        assert alpha_abs**2 == pytest.approx(0.49, rel=1e-12)

    def test_thermal_limit(self):
        alpha_abs, occ = recon_displaced_thermal(2.0, 0.7)
        assert alpha_abs == pytest.approx(0.0, abs=1e-9)
        assert occ == pytest.approx(0.7)

    def test_round_trip_with_nbar_and_click(self, rng):
        for _ in range(20):
            a0 = rng.uniform(0.1, 1.0)
            n0 = rng.uniform(0.01, 0.8)
            params = GaussianParams.single_mode(alpha=a0, occupation=n0)
            g2, _, nbar, p0 = observables(params)
            alpha_abs, occ = recon_displaced_thermal(g2, nbar)
            assert alpha_abs == pytest.approx(a0, abs=1e-8)
            assert occ == pytest.approx(n0, abs=1e-8)
            alpha_abs, occ = recon_displaced_thermal(g2, displaced_thermal_nbar(g2, p0))
            assert alpha_abs == pytest.approx(a0, abs=1e-7)
            assert occ == pytest.approx(n0, abs=1e-7)

    def test_wrong_sector(self):
        with pytest.raises(SectorMismatchError):
            recon_displaced_thermal(2.5, 0.5)


class TestScan:
    @staticmethod
    def scan_points(alpha_abs, r, occupation, deltas):
        pts = []
        for delta in deltas:
            params = GaussianParams.single_mode(
                alpha=alpha_abs * np.exp(0.5j * delta), r=r, occupation=occupation)
            pts.append(single_mode_g2_g3(params))
        return np.array(pts)

    def test_squeezed_vacuum_degenerate_scan(self):
        g2, g3 = single_mode_g2_g3(GaussianParams.single_mode(r=0.4, occupation=0.1))
        res = recon_dst_scan([[g2, g3], [g2, g3]], nbar=derive_moments(
            GaussianParams.single_mode(r=0.4, occupation=0.1)).nbar[0])
        assert res.slope == 9.0 and res.intercept == -12.0
        assert res.alpha_abs == 0.0
        assert res.r == pytest.approx(0.4, abs=1e-9)
        assert res.occupation == pytest.approx(0.1, abs=1e-9)

    def test_identical_points_off_line_rejected(self):
        with pytest.raises(InconsistentDataError):
            recon_dst_scan([[3.0, 11.0], [3.0, 11.0]], nbar=0.5)

    def test_full_round_trip(self):
        a0, r0, n0 = 0.3, 0.4, 0.1
        deltas = [0.0, np.pi / 3, 2 * np.pi / 3]
        pts = self.scan_points(a0, r0, n0, deltas)
        nbar = derive_moments(GaussianParams.single_mode(alpha=a0, r=r0,
                                                         occupation=n0)).nbar[0]
        res = recon_dst_scan(pts, nbar=nbar, phase_steps=np.diff(deltas))
        assert res.alpha_abs == pytest.approx(a0, abs=1e-6)
        cov_true = (2 * n0 + 1) * np.sinh(r0) * np.cosh(r0)
        assert res.cov_abs == pytest.approx(cov_true, abs=1e-6)
        assert res.r == pytest.approx(r0, abs=1e-6)
        assert res.occupation == pytest.approx(n0, abs=1e-6)
        # delta here is 2 phi_d - theta_z; cos(delta) enters g2 with our sign bookkeeping
        for cos_rec, delta in zip(res.cosines, deltas):
            assert cos_rec == pytest.approx(np.cos(delta), abs=1e-6)
        assert res.z2_resolved
        for rec, delta in zip(res.rel_phases, deltas):
            assert np.cos(rec) == pytest.approx(np.cos(delta), abs=1e-6)
        assert res.rel_phases[1] - res.rel_phases[0] == pytest.approx(np.pi / 3, abs=1e-9)

    def test_z2_unresolved_without_steps(self):
        pts = self.scan_points(0.3, 0.4, 0.1, [0.4, 1.1, 2.0])
        nbar = derive_moments(GaussianParams.single_mode(alpha=0.3, r=0.4,
                                                         occupation=0.1)).nbar[0]
        res = recon_dst_scan(pts, nbar=nbar)
        assert res.rel_phases is None and not res.z2_resolved


class TestBeamSplitter:
    """The single-mode beam-splitter scheme, through the two-port reconstruction."""

    def test_zero_displacement_reduces(self):
        params = GaussianParams.single_mode(r=0.5, occupation=0.2)
        _, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        m_orig = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_squeezed_multi(m_minus, m_orig, ref_port="orig", tol=1e-8)
        assert abs(rec.params.alpha[0]) == 0.0
        assert abs(rec.params.squeeze[0, 0]) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("ref_port", ["orig", "plus"])
    def test_full_round_trip(self, ref_port):
        a0, phi_d, r0, th0, n0 = 0.3, 0.7, 0.4, 0.2, 0.1
        params = GaussianParams.single_mode(alpha=a0 * np.exp(1j * phi_d), r=r0,
                                            theta=th0, occupation=n0)
        plus, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        g2_orig, g3_orig, nbar_orig, _ = observables(params)
        m_ref = synthesize_measurements(derive_moments(params if ref_port == "orig" else plus))
        rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port=ref_port, tol=1e-8)
        assert rec.ambiguity.z2_reflection
        assert abs(rec.params.alpha[0]) == pytest.approx(a0, abs=1e-8)
        assert abs(rec.params.squeeze[0, 0]) == pytest.approx(r0, abs=1e-8)
        assert rec.params.thermal[0] == pytest.approx(n0, abs=1e-8)
        # the relative phase 2 phi_d - theta is recovered up to sign
        delta_true = 2 * phi_d - th0
        delta_rec = 2 * np.angle(rec.params.alpha[0]) - np.angle(rec.params.squeeze[0, 0])
        assert np.cos(delta_rec) == pytest.approx(np.cos(delta_true), abs=1e-8)
        # reconstruction reproduces the original observables
        g2_rec, g3_rec, nbar_rec, _ = observables(rec.params)
        assert g2_rec == pytest.approx(g2_orig, abs=1e-8)
        assert g3_rec == pytest.approx(g3_orig, abs=1e-8)
        assert nbar_rec == pytest.approx(nbar_orig, abs=1e-8)
        for alt in rec.ambiguity.discrete_solutions:
            g2_alt, g3_alt, nbar_alt, _ = observables(alt)
            assert g2_alt == pytest.approx(g2_orig, abs=1e-8)
            assert g3_alt == pytest.approx(g3_orig, abs=1e-8)

    def test_negative_alpha2_rejected(self):
        params = GaussianParams.single_mode(r=0.5, occupation=0.2)
        _, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        m_ref = MeasurementSet(1, nbar=[0.1], g2=[[4.0]])
        with pytest.raises(InconsistentDataError):
            recon_displaced_squeezed_multi(m_minus, m_ref, ref_port="orig", tol=1e-8)

    def test_displaced_port_rejected(self):
        params = GaussianParams.single_mode(alpha=0.5, r=0.3, occupation=0.1)
        m_bad = synthesize_measurements(derive_moments(params))
        m_ref = MeasurementSet(1, nbar=[1.0], g2=[[2.0]])
        with pytest.raises(SectorMismatchError):
            recon_displaced_squeezed_multi(m_bad, m_ref, tol=1e-8)


class TestDispatch:
    def test_nd_with_nbar(self):
        params = GaussianParams.single_mode(r=0.5, occupation=0.2)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_squeezed_thermal_multi(m)
        assert abs(rec.params.squeeze[0, 0]) == pytest.approx(0.5, abs=1e-8)
        assert rec.residual < 1e-9

    def test_ns_with_p0_only(self):
        params = GaussianParams.single_mode(alpha=0.4, occupation=0.3)
        mom = derive_moments(params)
        m = synthesize_measurements(mom, include_p0=True)
        stripped = type(m)(1, nbar=None, g1_abs=m.g1_abs, g1_phase=m.g1_phase,
                           g2=m.g2, g3=m.g3, p0=m.p0)
        rec = recon_displaced_thermal_multi(stripped)
        assert abs(rec.params.alpha[0]) == pytest.approx(0.4, abs=1e-7)
        assert rec.params.thermal[0] == pytest.approx(0.3, abs=1e-7)


@pytest.mark.parametrize("recon,points", [
    (recon_squeezed_thermal, 2.5),
    (recon_displaced_thermal, 1.5),
    (recon_dst_scan, [[2.1, 7.0], [2.3, 8.2]]),
], ids=["squeezed-thermal", "displaced-thermal", "dst-scan"])
def test_nan_nbar_rejected(recon, points):
    """A NaN mean photon number is rejected like a nonpositive one, not
    carried into (0, nan) or (nan, nan)."""
    with pytest.raises(ValidationError, match="nbar must be positive"):
        recon(points, np.nan)


@pytest.mark.parametrize("sigmas", [[-1.0, 1e-3], [0.0, 1e-3], [np.inf, 1e-3], [1e-3]],
                         ids=["negative", "zero", "infinite", "too-few"])
def test_scan_sigmas_must_be_positive(sigmas):
    """A nonpositive sigma is rejected, not clipped into a weight of 1e24."""
    with pytest.raises(ValidationError, match="sigmas must be one positive finite value"):
        recon_dst_scan([[2.1, 7.0], [2.3, 8.2]], nbar=0.5, sigmas=sigmas)
