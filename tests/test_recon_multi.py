"""Multimode reconstruction: covariance conversions, Williamson, sector pipelines."""

from itertools import product

import numpy as np
import pytest
from conftest import (
    assert_no_sign_copies,
    random_hermitian,
    random_params,
    random_symmetric,
)
from scipy.linalg import block_diag, expm, logm, schur, sqrtm

from gausstat import recon_multi
from gausstat.classify import synthesize_measurements
from gausstat.errors import InconsistentDataError, SectorMismatchError, ValidationError
from gausstat.phases import SearchStats
from gausstat.recon_multi import (
    ComplexCovariance,
    complex_to_real_cov,
    measurement_residual,
    params_from_covariance,
    real_to_complex_cov,
    recon_displaced_squeezed_multi,
    recon_displaced_thermal_multi,
    recon_squeezed_thermal_multi,
    rotation_from_unitary,
    squeeze_from_blocks,
    symplectic_form,
    williamson,
)
from gausstat.recon_single import recon_squeezed_thermal
from gausstat.states import (
    GaussianParams,
    balanced_beamsplitter_duplicate,
    bogoliubov_map,
    derive_moments,
)


def random_state_covariance(rng, modes, **caps):
    params = random_params(rng, modes, **caps)
    return ComplexCovariance.from_moments(derive_moments(params)), params


class TestConversions:
    def test_vacuum_maps_to_half_identity(self):
        cov = ComplexCovariance(0.5 * np.eye(2), np.zeros((2, 2)))
        assert np.allclose(complex_to_real_cov(cov), 0.5 * np.eye(4))

    def test_single_mode_squeezed_diagonal(self):
        params = GaussianParams.single_mode(r=0.3)
        cov = ComplexCovariance.from_moments(derive_moments(params))
        v = complex_to_real_cov(cov)
        assert np.allclose(v, np.diag([np.exp(-0.6) / 2, np.exp(0.6) / 2]), atol=1e-12)

    def test_round_trip_identity(self, rng):
        cov, _ = random_state_covariance(rng, 3)
        v = complex_to_real_cov(cov)
        back = real_to_complex_cov(v)
        assert np.allclose(back.A, cov.A, atol=1e-12)
        assert np.allclose(back.B, cov.B, atol=1e-12)

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ValidationError):
            ComplexCovariance(np.array([[0.5, 1.0], [0.0, 0.5]]), np.zeros((2, 2)))


class TestWilliamson:
    def test_vacuum(self):
        res = williamson(0.5 * np.eye(4))
        assert np.allclose(res.D, 0.5)
        assert res.degenerate

    def test_single_mode_squeezed_thermal_eigenvalue(self):
        params = GaussianParams.single_mode(r=0.5, occupation=0.2)
        v = complex_to_real_cov(ComplexCovariance.from_moments(derive_moments(params)))
        res = williamson(v)
        assert res.D[0] == pytest.approx(0.7, abs=1e-10)

    def test_random_reconstruction_residuals(self, rng):
        for modes in (1, 2, 3):
            for _ in range(10):
                _, params = random_state_covariance(rng, modes)
                v = complex_to_real_cov(ComplexCovariance.from_moments(derive_moments(params)))
                res = williamson(v)
                omega = symplectic_form(modes)
                assert np.abs(res.S @ omega @ res.S.T - omega).max() < 1e-9
                dd = np.diag(np.concatenate([res.D, res.D]))
                assert np.abs(res.S @ dd @ res.S.T - v).max() < 1e-8
                assert res.D.min() >= 0.5 - 1e-10

    def test_spectrum_invariant_under_symplectic_conjugation(self, rng):
        _, params = random_state_covariance(rng, 2)
        v = complex_to_real_cov(ComplexCovariance.from_moments(derive_moments(params)))
        other = random_params(rng, 2)
        s_rand = williamson(complex_to_real_cov(
            ComplexCovariance.from_moments(derive_moments(other)))).S
        conjugated = s_rand @ v @ s_rand.T
        assert np.allclose(williamson(conjugated).D, williamson(v).D, atol=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            williamson(np.diag([1.0, -0.1, 1.0, 1.0]))


class TestParamsFromCovariance:
    def test_unphysical_covariance_rejected(self):
        # V = 0.3 I: both symplectic eigenvalues lie below the vacuum limit 1/2
        cov = ComplexCovariance(0.3 * np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="violates the uncertainty bound: "
                                                  "min symplectic eigenvalue 0.300000 < 1/2"):
            params_from_covariance(cov, np.zeros(2))

    def test_round_trip_observables(self, rng):
        for modes in (1, 2, 3):
            _, params = random_state_covariance(rng, modes, alpha_max=0.0)
            mom = derive_moments(params)
            rebuilt = params_from_covariance(ComplexCovariance.from_moments(mom),
                                             np.zeros(modes))
            mom2 = derive_moments(rebuilt)
            assert np.allclose(mom2.nbar, mom.nbar, atol=1e-8)
            assert np.allclose(mom2.cov, mom.cov, atol=1e-8)
            assert np.allclose(mom2.coherence_matrix(), mom.coherence_matrix(), atol=1e-8)
            assert np.allclose(np.sort(rebuilt.thermal), np.sort(params.thermal), atol=1e-8)


class TestDisplacedThermalMulti:
    def make(self, rng, modes):
        amp = rng.uniform(0.25, 0.7, modes)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
        phi = random_hermitian(rng, modes, 0.9)
        occ = rng.uniform(0.1, 0.5, modes) * (1 + np.arange(modes))  # distinct
        return GaussianParams(alpha, np.zeros((modes, modes)), phi, occ)

    def test_three_mode_round_trip(self, rng):
        params = self.make(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_thermal_multi(m)
        assert rec.residual < 1e-7
        assert measurement_residual(rec.params, m) < 1e-7
        assert np.allclose(np.abs(rec.params.alpha), np.abs(params.alpha), atol=1e-7)
        assert np.allclose(np.sort(rec.params.thermal), np.sort(params.thermal), atol=1e-7)

    def test_two_mode_keeps_z2_pair(self, rng):
        params = self.make(rng, 2)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_thermal_multi(m)
        assert len(rec.ambiguity.discrete_solutions) == 1  # two solutions in total
        for alt in rec.ambiguity.discrete_solutions:
            assert measurement_residual(alt, m) < 1e-7

    def test_displaced_vacuum_special_case(self, rng):
        amp = rng.uniform(0.3, 0.7, 3)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        params = GaussianParams(alpha, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3))
        m = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_thermal_multi(m)
        assert measurement_residual(rec.params, m) < 1e-7
        assert rec.params.thermal.max() < 1e-7


class TestSqueezedThermalMulti:
    def make(self, rng, modes):
        z = random_symmetric(rng, modes, rng.uniform(0.3, 0.5))
        phi = random_hermitian(rng, modes, 0.8)
        occ = rng.uniform(0.05, 0.4, modes) * (1 + np.arange(modes))
        return GaussianParams(np.zeros(modes), z, phi, occ)

    def test_single_mode_reduction_matches_closed_form(self, rng):
        params = GaussianParams.single_mode(r=0.5, occupation=0.2)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_squeezed_thermal_multi(m)
        r_cf, occ_cf = recon_squeezed_thermal(float(m.g2[0, 0]), float(m.nbar[0]))
        assert abs(rec.params.squeeze[0, 0]) == pytest.approx(r_cf, abs=1e-8)
        assert rec.params.thermal[0] == pytest.approx(occ_cf, abs=1e-8)

    def test_three_mode_round_trip(self, rng):
        params = self.make(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_squeezed_thermal_multi(m)
        assert rec.residual < 1e-7
        assert measurement_residual(rec.params, m) < 1e-7
        assert np.allclose(np.sort(rec.params.thermal), np.sort(params.thermal), atol=1e-8)

    def test_two_mode_fourfold_ambiguity(self, rng):
        params = self.make(rng, 2)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_squeezed_thermal_multi(m)
        total = 1 + len(rec.ambiguity.discrete_solutions)
        assert total == 4
        for alt in rec.ambiguity.discrete_solutions:
            assert measurement_residual(alt, m) < 1e-6


def exhaustive_assemble_displaced(m_ref, params_cov, alpha_abs, candidates_per_mode, scale,
                                  tol):
    """Reference: score every combination of per-mode phase candidates."""
    expanded = [[0.0] if cands == [None] else cands for cands in candidates_per_mode]
    results = []
    for combo in product(*expanded):
        alpha = alpha_abs * np.exp(1j * np.asarray(combo, dtype=float))
        params = GaussianParams(np.sqrt(scale) * alpha, params_cov.squeeze,
                                params_cov.rotation, params_cov.thermal)
        res = measurement_residual(params, m_ref)
        if res <= max(1000 * tol, 1e-5):
            results.append((res, GaussianParams(alpha, params_cov.squeeze,
                                                params_cov.rotation, params_cov.thermal)))
    return results


@pytest.fixture
def side_by_side(monkeypatch):
    """Run the exhaustive reference beside every _assemble_displaced call.

    Requires the same kept set: equal displacements and residuals to 1e-12,
    compared as sets.  Returns the list of (kept count, search stats) per call.
    """
    calls = []
    pruned = recon_multi._assemble_displaced

    def checked(m_ref, params_cov, mom_cov, alpha_abs, cands, scale, tol, stats=None):
        own = SearchStats()
        got = pruned(m_ref, params_cov, mom_cov, alpha_abs, cands, scale, tol, own)
        want = exhaustive_assemble_displaced(m_ref, params_cov, alpha_abs, cands, scale, tol)
        assert len(got) == len(want)
        unmatched = list(want)
        for res, params in got:
            for ref in unmatched:
                if (abs(res - ref[0]) <= 1e-12
                        and np.abs(params.alpha - ref[1].alpha).max() <= 1e-12):
                    unmatched.remove(ref)
                    break
            else:
                raise AssertionError(f"kept alpha {params.alpha} missing from the reference")
        calls.append((len(got), own))
        if stats is not None:
            stats.explored += own.explored
            stats.pruned += own.pruned
            stats.kept += own.kept
        return got

    monkeypatch.setattr(recon_multi, "_assemble_displaced", checked)
    return calls


@pytest.mark.usefixtures("side_by_side")
class TestDisplacedSqueezedMulti:
    def make(self, rng, modes):
        amp = rng.uniform(0.25, 0.6, modes)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
        z = random_symmetric(rng, modes, rng.uniform(0.3, 0.45))
        phi = random_hermitian(rng, modes, 0.7)
        occ = rng.uniform(0.05, 0.35, modes) * (1 + np.arange(modes))
        return GaussianParams(alpha, z, phi, occ)

    @pytest.mark.parametrize("ref_port", ["orig", "plus"])
    def test_three_mode_round_trip(self, rng, ref_port):
        params = self.make(rng, 3)
        plus, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        ref_state = params if ref_port == "orig" else plus
        m_ref = synthesize_measurements(derive_moments(ref_state))
        rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port=ref_port)
        m_orig = synthesize_measurements(derive_moments(params))
        assert measurement_residual(rec.params, m_orig) < 1e-6
        assert measurement_residual(
            GaussianParams(np.zeros(3), rec.params.squeeze, rec.params.rotation,
                           rec.params.thermal), m_minus) < 1e-6

    def test_alpha_zero_reduces(self, rng):
        base = self.make(rng, 2)
        params = GaussianParams(np.zeros(2), base.squeeze, base.rotation, base.thermal)
        plus, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        m_ref = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port="orig")
        assert np.abs(rec.params.alpha).max() < 1e-7

    def test_two_mode_lists_no_sign_copy(self, rng):
        params = self.make(rng, 2)
        plus, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        m_ref = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port="orig")
        m_orig = synthesize_measurements(derive_moments(params))
        assert_no_sign_copies(rec)
        assert measurement_residual(rec.params, m_orig) < 1e-6

    @pytest.mark.parametrize("ref_port", ["orig", "plus"])
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5])
    def test_seeded_draws_match_exhaustive(self, side_by_side, modes, ref_port):
        for seed in range(2):
            params = self.make(np.random.default_rng(100 * modes + seed), modes)
            plus, minus = balanced_beamsplitter_duplicate(params)
            m_minus = synthesize_measurements(derive_moments(minus))
            ref_state = params if ref_port == "orig" else plus
            m_ref = synthesize_measurements(derive_moments(ref_state))
            rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port=ref_port, tol=1e-8)
            assert measurement_residual(rec.params, synthesize_measurements(
                derive_moments(params))) < 1e-6
            assert any("branches explored" in n for n in rec.ambiguity.notes)
            assert_no_sign_copies(rec)
        assert sum(kept for kept, _ in side_by_side) >= 2

    @pytest.mark.parametrize("ref_port", ["orig", "plus"])
    def test_jittered_reference_port_matches_exhaustive(self, side_by_side, ref_port):
        # jitter of the order of the limit: choices are kept and rejected near it
        kept = []
        for seed in range(6):
            params = self.make(np.random.default_rng(500 + seed), 3)
            plus, minus = balanced_beamsplitter_duplicate(params)
            ref_state = params if ref_port == "orig" else plus
            m_ref = synthesize_measurements(
                derive_moments(ref_state), rng=np.random.default_rng(seed),
                sigma={"g2": 1e-6, "g1_abs": 1e-6, "g1_phase": 1e-6})
            try:
                recon_displaced_squeezed_multi(
                    synthesize_measurements(derive_moments(minus)), m_ref,
                    ref_port=ref_port, tol=1e-8)
            except InconsistentDataError:
                pass
            kept.append(sum(k for k, _ in side_by_side))
            side_by_side.clear()
        assert 0 in kept and max(kept) > 0

    def test_generic_search_is_polynomial(self, side_by_side):
        params = self.make(np.random.default_rng(5), 5)
        plus, minus = balanced_beamsplitter_duplicate(params)
        recon_displaced_squeezed_multi(synthesize_measurements(derive_moments(minus)),
                                       synthesize_measurements(derive_moments(params)),
                                       tol=1e-8)
        # every combination would be 4^5 = 1024 forward models per covariance solution
        assert side_by_side
        for kept, stats in side_by_side:
            assert stats.kept == kept <= 4
            assert stats.explored <= 4 * 5 * 5


def test_williamson_degenerate_occupations(rng):
    # equal thermal occupations leave a free rotation; invariants still hold
    z = random_symmetric(rng, 2, 0.4)
    params = GaussianParams(np.zeros(2), z, random_hermitian(rng, 2, 0.6),
                            np.array([0.3, 0.3]))
    v = complex_to_real_cov(ComplexCovariance.from_moments(derive_moments(params)))
    res = williamson(v)
    omega = symplectic_form(2)
    assert np.abs(res.S @ omega @ res.S.T - omega).max() < 1e-9
    dd = np.diag(np.concatenate([res.D, res.D]))
    assert np.abs(res.S @ dd @ res.S.T - v).max() < 1e-8
    assert res.degenerate


@pytest.mark.xfail(raises=SectorMismatchError, strict=True,
                   reason="a covariance-phase cosine within about 1e-6 of +-1 loses the "
                          "solution at an absolute tolerance")
def test_near_unit_cosine_squeezed_thermal_reconstructs():
    z = np.array([[0.3, 0.1, 0.05], [0.1, 0.25, 0.08], [0.05, 0.08, 0.2]], dtype=complex)
    phi = np.zeros((3, 3))
    phi[0, 2] = phi[2, 0] = 3e-4
    params = GaussianParams(np.zeros(3), z, phi, np.array([0.1, 0.2, 0.3]))
    m = synthesize_measurements(derive_moments(params))
    rec = recon_squeezed_thermal_multi(m, tol=1e-8)
    assert measurement_residual(rec.params, m) < 1e-6


# --- the former scipy matrix functions, as references -----------------------

def williamson_reference(v, tol=1e-8):
    """The former ``williamson``: real Schur form of V^(-1/2) Omega V^(-1/2)."""
    v = 0.5 * (v + v.T)
    m = v.shape[0] // 2
    omega = symplectic_form(m)
    v_mhalf = np.real(sqrtm(np.linalg.inv(v)))
    kernel = v_mhalf @ omega @ v_mhalf
    kernel = 0.5 * (kernel - kernel.T)
    t, q = schur(kernel, output="real")
    flip = []
    mu = []
    for k in range(m):
        val = t[2 * k, 2 * k + 1]
        flip.append(np.array([[0.0, 1.0], [1.0, 0.0]]) if val < 0 else np.eye(2))
        mu.append(abs(val))
    q = q @ block_diag(*flip)
    d = 1.0 / np.array(mu)
    perm = np.zeros((2 * m, 2 * m))
    for k in range(m):
        perm[k, 2 * k] = 1.0
        perm[m + k, 2 * k + 1] = 1.0
    dhalf = block_diag(*[np.eye(2) * np.sqrt(dk) for dk in d])
    s = np.linalg.inv(perm @ dhalf @ q.T @ v_mhalf)
    order = np.argsort(d)[::-1]
    reorder = np.zeros((2 * m, 2 * m))
    for new, old in enumerate(order):
        reorder[old, new] = 1.0
        reorder[m + old, m + new] = 1.0
    return recon_multi.WilliamsonResult(d[order], s @ reorder,
                                        bool(np.any(np.abs(np.diff(d[order])) < 1e-7)))


def takagi_reference(sym, tol=1e-12):
    """The former ``takagi``: per-group phases from scipy's sqrtm."""
    sym = np.asarray(sym, dtype=complex)
    n = sym.shape[0]
    if np.abs(sym).max() < tol:
        return np.zeros(n), np.eye(n, dtype=complex)
    u, s, vh = np.linalg.svd(sym)
    w = vh.conj().T
    groups = []
    start = 0
    for k in range(1, n + 1):
        if k == n or abs(s[k] - s[start]) > 1e-8 * (1 + s[0]):
            groups.append(list(range(start, k)))
            start = k
    blocks = [sqrtm((u[:, grp].T @ w[:, grp]).astype(complex)) for grp in groups]
    return s.copy(), u @ block_diag(*blocks).conj()


def squeeze_from_blocks_reference(e_block, f_block):
    """The former ``squeeze_from_blocks``: e^{i phi} = (E E^H)^(-1/2) E by
    ``eigh``, then z = U arcsinh(s) U^T from a Takagi factorization
    y = U diag(s) U^T of y = -F (e^{i phi})^T."""
    p2 = e_block @ e_block.conj().T
    vals, vecs = np.linalg.eigh(0.5 * (p2 + p2.conj().T))
    vals = np.clip(vals, 1.0, None)
    expiphi = ((vecs / np.sqrt(vals)) @ vecs.conj().T) @ e_block
    y = -f_block @ expiphi.T
    sv, uu = takagi_reference(0.5 * (y + y.T))
    z = (uu * np.arcsinh(sv)) @ uu.T
    return z, recon_multi.rotation_from_unitary(expiphi)


def rotation_reference(u):
    """The former ``rotation_from_unitary``: -i logm(u), made hermitian."""
    h = -1j * logm(np.asarray(u, dtype=complex))
    return 0.5 * (h + h.conj().T)


@pytest.fixture
def reference_path(monkeypatch):
    """Switch recon_multi to the scipy references for the duration of a call."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(recon_multi, "williamson", williamson_reference)
            patch.setattr(recon_multi, "squeeze_from_blocks", squeeze_from_blocks_reference)
            patch.setattr(recon_multi, "rotation_from_unitary", rotation_reference)
            return fn(*args, **kwargs)
    return run


def _unitary(rng, angles):
    n = len(angles)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


def _observables(params):
    mom = derive_moments(params)
    return mom.nbar, mom.cov, mom.coherence_matrix()


def _same_observables(a, b, atol=1e-10):
    return all(np.abs(x - y).max() <= atol for x, y in zip(_observables(a), _observables(b)))


def assert_same_observables(a, b, atol=1e-10):
    assert _same_observables(a, b, atol)


def assert_same_solution_sets(new, ref):
    """The kept solutions, primary and listed, pair off by their observables,
    and the primary residuals agree; near-ties may order the set differently."""
    assert new.residual == pytest.approx(ref.residual, abs=1e-10)
    unmatched = [ref.params, *ref.ambiguity.discrete_solutions]
    for params in (new.params, *new.ambiguity.discrete_solutions):
        match = next((k for k, r in enumerate(unmatched) if _same_observables(params, r)), None)
        assert match is not None, "a kept solution is missing from the reference"
        unmatched.pop(match)
    assert not unmatched


class TestRotationFromUnitaryVsLogm:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_random_unitaries(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            u = _unitary(rng, rng.uniform(-np.pi, np.pi, n))
            assert np.abs(rotation_from_unitary(u) - rotation_reference(u)).max() <= 1e-10

    @pytest.mark.parametrize("angle", [np.pi - 1e-6, np.pi - 1e-9, -np.pi + 1e-9,
                                       -np.pi + 1e-6])
    def test_eigenvalue_near_minus_one(self, angle):
        u = _unitary(np.random.default_rng(7), [angle, 0.5, -1.0])
        phi = rotation_from_unitary(u)
        assert np.abs(phi - rotation_reference(u)).max() <= 1e-10
        assert np.linalg.eigvalsh(phi) == pytest.approx(sorted([angle, 0.5, -1.0]), abs=1e-10)

    @pytest.mark.parametrize("u", [
        np.diag(np.exp(1j * np.array([np.pi, 0.3, -2.0]))),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex),
    ], ids=["diagonal", "swap", "rotation-reflection"])
    def test_eigenvalue_at_minus_one(self, u):
        phi = rotation_from_unitary(u)
        assert np.abs(phi - rotation_reference(u)).max() <= 1e-10
        assert np.linalg.eigvalsh(phi).max() == pytest.approx(np.pi, abs=1e-12)

    def test_minus_identity_takes_principal_branch(self):
        # the principal branch gives +pi; scipy's logm of a complex -I returns -i pi I
        phi = rotation_from_unitary(-np.eye(3, dtype=complex))
        assert np.abs(phi - np.pi * np.eye(3)).max() <= 1e-12
        assert np.abs(rotation_reference(-np.eye(3, dtype=complex)) + np.pi * np.eye(3)).max() \
            <= 1e-12

    @pytest.mark.parametrize("angles", [[1.0, 1.0, 1.0, -0.5], [1.0, 1.0 + 1e-9, -2.0],
                                        [np.pi, np.pi - 1e-9, 0.0], [0.2] * 4])
    def test_degenerate_clusters(self, angles):
        u = _unitary(np.random.default_rng(len(angles)), angles)
        phi = rotation_from_unitary(u)
        assert np.abs(phi - rotation_reference(u)).max() <= 1e-10
        assert np.abs(expm(1j * phi) - u).max() <= 1e-12

    def test_near_unitary_expiphi(self, monkeypatch):
        # the e^{i phi} that params_from_covariance builds, unitary only to rounding
        seen = []
        monkeypatch.setattr(recon_multi, "rotation_from_unitary",
                            lambda u: seen.append(u) or rotation_from_unitary(u))
        rng = np.random.default_rng(11)
        for modes in (1, 2, 3, 4):
            for _ in range(5):
                params = random_params(rng, modes, alpha_max=0.0)
                params_from_covariance(ComplexCovariance.from_moments(derive_moments(params)),
                                       np.zeros(modes))
        assert len(seen) == 20
        for u in seen:
            assert np.abs(rotation_from_unitary(u) - rotation_reference(u)).max() <= 1e-10


def _bogoliubov_blocks(z, phi):
    bog = bogoliubov_map(GaussianParams(np.zeros(z.shape[0]), z, phi, np.zeros(z.shape[0])))
    return bog.E, bog.F


def _williamson_blocks(params):
    """(E, F) of the symplectic matrix that Williamson's form finds for the state."""
    modes = params.modes
    res = williamson(complex_to_real_cov(ComplexCovariance.from_moments(derive_moments(params))))
    lam = recon_multi._ladder_to_quadrature(modes)
    blocks = lam.conj().T @ res.S @ lam
    return blocks[:modes, :modes], blocks[:modes, modes:]


def _edge_blocks():
    """(E, F) of zero, rank-deficient, degenerate and strong (r = 3) squeezing."""
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    phi = random_hermitian(rng, 3, 0.8)
    squeezes = {
        "zero": np.zeros((3, 3), dtype=complex),
        "rank-one": 0.6 * np.outer(q[:, 0], q[:, 0]),
        "rank-two": q[:, :2] @ np.diag([0.7, 0.2]) @ q[:, :2].T,
        "degenerate": q @ np.diag([0.5, 0.5, 0.2]) @ q.T,
        "scaled-identity": 0.4j * np.eye(3),
        "r=3": q @ np.diag([3.0, 1.0, 0.1]) @ q.T,
    }
    return {name: (z, _bogoliubov_blocks(z, phi)) for name, z in squeezes.items()}


class TestSqueezeFromBlocksVsTakagi:
    """One SVD each for e^{i phi} and z against the former eigh and Takagi route."""

    def test_random(self):
        rng = np.random.default_rng(18)
        for modes in (1, 2, 3, 4, 5):
            for _ in range(10):
                params = random_params(rng, modes, alpha_max=0.0, r_max=1.5)
                for e_block, f_block in (_bogoliubov_blocks(params.squeeze, params.rotation),
                                         _williamson_blocks(params)):
                    z, phi = squeeze_from_blocks(e_block, f_block)
                    z_ref, phi_ref = squeeze_from_blocks_reference(e_block, f_block)
                    assert np.abs(z - z_ref).max() <= 1e-12
                    assert np.abs(phi - phi_ref).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(_edge_blocks()))
    def test_edge_cases(self, name):
        z_true, (e_block, f_block) = _edge_blocks()[name]
        z, phi = squeeze_from_blocks(e_block, f_block)
        z_ref, phi_ref = squeeze_from_blocks_reference(e_block, f_block)
        assert np.abs(z - z_ref).max() <= 1e-12
        assert np.abs(phi - phi_ref).max() <= 1e-12
        assert np.abs(z - z_true).max() <= 1e-12


class TestNumpyPathVsScipyReference:
    def test_williamson_spectrum_and_symplectic(self):
        rng = np.random.default_rng(12)
        for modes in (1, 2, 3, 4):
            for _ in range(10):
                v = complex_to_real_cov(ComplexCovariance.from_moments(
                    derive_moments(random_params(rng, modes))))
                res, ref = williamson(v), williamson_reference(v)
                assert np.abs(res.D - ref.D).max() <= 1e-10
                omega = symplectic_form(modes)
                assert np.abs(res.S @ omega @ res.S.T - omega).max() <= 1e-10
                dd = np.diag(np.concatenate([res.D, res.D]))
                assert np.abs(res.S @ dd @ res.S.T - v).max() <= 1e-10

    def test_squeeze_from_blocks(self, reference_path):
        rng = np.random.default_rng(14)
        for modes in (1, 2, 3):
            e_block, f_block = _williamson_blocks(random_params(rng, modes, alpha_max=0.0))
            z, phi = squeeze_from_blocks(e_block, f_block)
            z_ref, phi_ref = reference_path(squeeze_from_blocks_reference, e_block, f_block)
            assert np.abs(z - z_ref).max() <= 1e-10
            assert np.abs(phi - phi_ref).max() <= 1e-10

    def test_params_from_covariance(self, reference_path):
        rng = np.random.default_rng(15)
        for modes in (1, 2, 3, 4):
            for _ in range(5):
                params = random_params(rng, modes, alpha_max=0.0)
                cov = ComplexCovariance.from_moments(derive_moments(params))
                alpha = np.zeros(modes)
                new = params_from_covariance(cov, alpha)
                ref = reference_path(params_from_covariance, cov, alpha)
                assert_same_observables(new, ref)
                assert_same_observables(new, params)

    @pytest.mark.parametrize("modes", [2, 3, 4])
    def test_squeezed_thermal_reconstruction(self, reference_path, modes):
        params = TestSqueezedThermalMulti().make(np.random.default_rng(16 + modes), modes)
        m = synthesize_measurements(derive_moments(params))
        assert_same_solution_sets(recon_squeezed_thermal_multi(m),
                                  reference_path(recon_squeezed_thermal_multi, m))

    @pytest.mark.parametrize("modes", [2, 3, 4])
    def test_displaced_thermal_reconstruction(self, reference_path, modes):
        params = TestDisplacedThermalMulti().make(np.random.default_rng(20 + modes), modes)
        m = synthesize_measurements(derive_moments(params))
        assert_same_solution_sets(recon_displaced_thermal_multi(m),
                                  reference_path(recon_displaced_thermal_multi, m))

    @pytest.mark.parametrize("ref_port", ["orig", "plus"])
    @pytest.mark.parametrize("modes", [2, 3])
    def test_displaced_squeezed_reconstruction(self, reference_path, modes, ref_port):
        params = TestDisplacedSqueezedMulti().make(np.random.default_rng(30 + modes), modes)
        plus, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        m_ref = synthesize_measurements(derive_moments(params if ref_port == "orig" else plus))
        assert_same_solution_sets(
            recon_displaced_squeezed_multi(m_minus, m_ref, ref_port=ref_port),
            reference_path(recon_displaced_squeezed_multi, m_minus, m_ref, ref_port=ref_port))
