"""State engine: Bogoliubov data, derived moments, correlation tensors."""

import itertools

import numpy as np
import pytest
from conftest import (
    balanced_beamsplitter_duplicate,
    random_hermitian,
    random_params,
    random_symmetric,
)

from gausstat.bucket import bucket_correlations
from gausstat.classify import synthesize_measurements
from gausstat.errors import NumericalError, UndefinedCorrelationError, ValidationError
from gausstat.fock import build_density, moment_bruteforce, vacuum_overlap
from gausstat.recon_multi import measurement_residual
from gausstat.states import (
    BogoliubovMap,
    GaussianParams,
    MomentSummary,
    apply_uniform_loss,
    bogoliubov_map,
    derive_moments,
    g2_tensor,
    g3_tensor,
    g3_value,
    mode_vacuum_probability,
    single_mode_g2_g3,
    _g3_array,
    _g3_kernel,
    _pair_blocks,
    _squeeze_blocks,
    _unitary_from_hermitian,
)
from gausstat.words import LadderWord, gaussian_moment


def big_l(bog: BogoliubovMap) -> np.ndarray:
    """The 2M x 2M linear part L = [[E, F], [F*, E*]] of a Bogoliubov map."""
    return np.block([[bog.E, bog.F], [bog.F.conj(), bog.E.conj()]])


def oracle_moments(rho):
    """(alpha, <a_i a_j>, <a_i† a_j>) measured directly from a truncated density."""
    m = rho.modes

    def moment(spec):
        return moment_bruteforce(rho, LadderWord.from_spec(spec))

    alpha = np.array([moment(f"{i}-") for i in range(m)])
    aa = np.array([[moment(f"{i}- {j}-") for j in range(m)] for i in range(m)])
    adag_a = np.array([[moment(f"{i}+ {j}-") for j in range(m)] for i in range(m)])
    return alpha, aa, adag_a


class TestBogoliubov:
    def test_identity_params(self):
        bog = bogoliubov_map(GaussianParams.vacuum(2))
        assert np.allclose(bog.E, np.eye(2))
        assert np.allclose(bog.F, 0)
        assert np.allclose(bog.disp, 0)

    def test_single_mode_hyperbolics(self):
        bog = bogoliubov_map(GaussianParams.single_mode(r=0.5))
        assert bog.E[0, 0] == pytest.approx(np.cosh(0.5))
        assert bog.F[0, 0] == pytest.approx(-np.sinh(0.5))

    def test_symplectic_condition_random(self, rng):
        # L Sigma L^H = Sigma with Sigma = diag(1, -1): E E^H - F F^H = 1 and
        # E F^T - F E^T = 0
        for modes in (1, 2, 3):
            sigma = np.diag(np.r_[np.ones(modes), -np.ones(modes)])
            for _ in range(5):
                lin = big_l(bogoliubov_map(random_params(rng, modes)))
                assert np.abs(lin @ sigma @ lin.conj().T - sigma).max() < 1e-10

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            GaussianParams(np.zeros(2), np.array([[0, 1], [0, 0]]), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValidationError):
            GaussianParams(np.zeros(2), np.zeros((2, 2)), np.array([[0, 1j], [1j, 0]]), np.zeros(2))
        with pytest.raises(ValidationError):
            GaussianParams(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)), np.array([-0.5]))

    @pytest.mark.parametrize("field", ["alpha", "squeeze", "rotation", "thermal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        parts = {"alpha": np.zeros(1), "squeeze": np.zeros((1, 1)),
                 "rotation": np.zeros((1, 1)), "thermal": np.zeros(1)}
        parts[field] = np.full_like(parts[field], bad)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            GaussianParams(**parts)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [200.0, 400.0, 800.0])
    def test_overflowing_squeeze_raises(self, r):
        with pytest.raises(NumericalError):
            derive_moments(GaussianParams.single_mode(r=r))


class TestDeriveMoments:
    def test_thermal_only(self):
        occ = np.array([0.4, 1.1])
        params = GaussianParams(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), occ)
        mom = derive_moments(params)
        assert np.allclose(mom.nbar, occ)
        assert np.allclose(mom.cov, 0)
        assert np.allclose(mom.g1, np.eye(2))

    def test_single_mode_squeezed_thermal_closed_form(self):
        mom = derive_moments(GaussianParams.single_mode(r=0.5, occupation=0.2))
        assert mom.cov[0, 0].real == pytest.approx(-1.4 * np.sinh(0.5) * np.cosh(0.5))
        assert abs(mom.cov[0, 0]) == pytest.approx(0.8226408356, abs=1e-9)
        assert mom.nbar[0] == pytest.approx(0.5801564444, abs=1e-9)

    def test_against_oracle_two_modes(self, rng):
        params = random_params(rng, 2, alpha_max=0.5, r_max=0.25, n_max=0.15)
        rho = build_density(params, cutoff=14)
        alpha_o, aa_o, adag_o = oracle_moments(rho)
        mom = derive_moments(params)
        assert np.allclose(mom.alpha, alpha_o, atol=1e-6)
        assert np.allclose(mom.cov + np.outer(mom.alpha, mom.alpha), aa_o, atol=1e-6)
        assert np.allclose(mom.coherence_matrix(), adag_o, atol=1e-6)

    def test_matches_moment_kernel_on_low_words(self, rng):
        params = random_params(rng, 3)
        mom = derive_moments(params)
        table = mom.to_moment_table()
        for spec in ("0-", "2+", "0+ 1-", "1- 2-", "0- 0+", "0+ 2+"):
            word = LadderWord.from_spec(spec)
            direct = gaussian_moment(word, table)
            assert direct == pytest.approx(table.second(*word.ops) if len(word) == 2
                                           else table.first(word.ops[0]), abs=1e-10)


class TestCorrelationTensors:
    def test_coherent_all_unity(self):
        params = GaussianParams(np.array([0.3 + 0.1j, -0.2j]), np.zeros((2, 2)),
                                np.zeros((2, 2)), np.zeros(2))
        mom = derive_moments(params)
        assert np.allclose(g2_tensor(mom), 1.0, atol=1e-12)
        for val in g3_tensor(mom).values():
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_single_mode_thermal(self):
        mom = derive_moments(GaussianParams.single_mode(occupation=0.8))
        assert g2_tensor(mom)[0, 0] == pytest.approx(2.0)
        assert g3_value(mom, 0, 0, 0) == pytest.approx(6.0)

    def test_squeezed_thermal_example(self):
        g2, g3 = single_mode_g2_g3(GaussianParams.single_mode(r=0.5, occupation=0.2))
        assert g2 == pytest.approx(4.0106213337, abs=1e-9)
        assert g3 == pytest.approx(9 * g2 - 12, abs=1e-10)
        assert g3 == pytest.approx(24.0955920032, abs=1e-9)

    def test_g3_matches_oracle_three_modes(self, rng):
        params = random_params(rng, 3, alpha_max=0.35, r_max=0.12, n_max=0.06)
        rho = build_density(params, cutoff=9)
        mom = derive_moments(params)
        word = LadderWord.from_spec("0+ 1+ 2+ 0- 1- 2-")
        from gausstat.fock import moment_bruteforce

        direct = moment_bruteforce(rho, word).real
        closed = g3_value(mom, 0, 1, 2) * np.prod(mom.nbar)
        assert closed == pytest.approx(direct, abs=2e-6)

    def test_g3_symmetry(self, rng):
        params = random_params(rng, 3)
        mom = derive_moments(params)
        vals = {p: g3_value(mom, *p) for p in [(0, 1, 2), (2, 1, 0), (1, 2, 0)]}
        assert len(set(round(v, 12) for v in vals.values())) == 1

    def test_zero_mean_mode_raises(self):
        mom = derive_moments(GaussianParams.vacuum(1))
        with pytest.raises(UndefinedCorrelationError):
            g2_tensor(mom)

    def test_g2_g3_invariant_under_loss_and_rotation(self, rng):
        params = random_params(rng, 2)
        mom = derive_moments(params)
        g2 = g2_tensor(mom)
        g3 = g3_tensor(mom)
        for eta in (0.5, 0.1):
            lossy = apply_uniform_loss(mom, eta)
            assert np.allclose(g2_tensor(lossy), g2, atol=1e-9)
            for key, val in g3_tensor(lossy).items():
                assert val == pytest.approx(g3[key], abs=1e-9)
        shifted = GaussianParams(params.alpha, params.squeeze,
                                 params.rotation + 0.37 * np.eye(2), params.thermal)
        mom_s = derive_moments(shifted)
        assert np.allclose(g2_tensor(mom_s), g2, atol=1e-9)
        for key, val in g3_tensor(mom_s).items():
            assert val == pytest.approx(g3[key], abs=1e-9)

    def test_single_mode_physicality_bound(self, rng):
        for _ in range(200):
            params = random_params(rng, 1, alpha_max=1.2, r_max=1.0, n_max=1.0)
            mom = derive_moments(params)
            m_c = mom.nbar[0] - abs(mom.alpha[0]) ** 2
            assert abs(mom.cov[0, 0]) ** 2 <= m_c * (m_c + 1) + 1e-9
        pure = derive_moments(GaussianParams.single_mode(r=0.4))
        m_c = pure.nbar[0]
        assert abs(pure.cov[0, 0]) ** 2 == pytest.approx(m_c * (m_c + 1), rel=1e-10)


def single_mode_p0(params):
    return mode_vacuum_probability(derive_moments(params), 0)


class TestNoClick:
    def test_vacuum(self):
        assert single_mode_p0(GaussianParams.vacuum(1)) == pytest.approx(1.0)

    def test_thermal(self):
        p = single_mode_p0(GaussianParams.single_mode(occupation=1.0))
        assert p == pytest.approx(0.5)

    def test_displaced_squeezed_thermal_vs_oracle(self):
        params = GaussianParams.single_mode(alpha=0.3, r=0.5, theta=0.0, occupation=0.2)
        rho = build_density(params, cutoff=40)
        assert single_mode_p0(params) == pytest.approx(vacuum_overlap(rho), abs=1e-6)

    def test_phase_dependence_vs_oracle(self):
        params = GaussianParams.single_mode(alpha=0.4 * np.exp(1.1j), r=0.45,
                                            theta=0.7, occupation=0.15)
        rho = build_density(params, cutoff=40)
        assert single_mode_p0(params) == pytest.approx(vacuum_overlap(rho), abs=1e-6)

    def test_mode_vacuum_probability_matches_oracle(self, rng):
        params = random_params(rng, 2, alpha_max=0.4, r_max=0.25, n_max=0.15)
        rho = build_density(params, cutoff=14)
        mom = derive_moments(params)
        from gausstat.fock import photon_number_distribution

        for mode in range(2):
            marginal0 = photon_number_distribution(rho, mode)[0]
            assert mode_vacuum_probability(mom, mode) == pytest.approx(marginal0, abs=1e-6)


class TestBeamSplitter:
    def test_coherent_input(self):
        params = GaussianParams.single_mode(alpha=0.5 + 0.2j)
        plus, minus = balanced_beamsplitter_duplicate(params)
        assert plus.alpha[0] == pytest.approx(np.sqrt(2) * (0.5 + 0.2j))
        assert minus.alpha[0] == 0
        assert np.allclose(minus.squeeze, 0)

    def test_minus_port_satisfies_nondisplaced_relation(self):
        params = GaussianParams.single_mode(alpha=0.4 * np.exp(0.9j), r=0.3,
                                            theta=0.5, occupation=0.1)
        _, minus = balanced_beamsplitter_duplicate(params)
        g2, g3 = single_mode_g2_g3(minus)
        assert g3 == pytest.approx(9 * g2 - 12, abs=1e-10)

    def test_plus_port_gains_displacement_energy(self):
        params = GaussianParams.single_mode(alpha=0.4, r=0.3, occupation=0.1)
        mom0 = derive_moments(params)
        plus, minus = balanced_beamsplitter_duplicate(params)
        momp = derive_moments(plus)
        momm = derive_moments(minus)
        assert momp.nbar[0] == pytest.approx(mom0.nbar[0] + abs(params.alpha[0]) ** 2)
        assert momp.cov[0, 0] == pytest.approx(mom0.cov[0, 0])
        assert momm.nbar[0] == pytest.approx(mom0.nbar[0] - abs(params.alpha[0]) ** 2)


# Reordering identities for the fundamental unitaries.  No library path uses
# them; they check that the canonical D S R order loses no generality.

def rotate_displacement(phi: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """R†(phi) D(alpha) R(phi) = D(e^{-i phi} alpha)."""
    u = _unitary_from_hermitian(np.asarray(phi, dtype=complex))
    return u.conj().T @ np.asarray(alpha, dtype=complex)


def squeeze_displacement(z: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """S†(z) D(alpha) S(z) = D(cosh(r) alpha + sinh(r) e^{i theta} alpha*)."""
    cosh_r, sinh_r_expith = _squeeze_blocks(z)
    alpha = np.asarray(alpha, dtype=complex)
    return cosh_r @ alpha + sinh_r_expith @ alpha.conj()


def _elementary_bogoliubov(kind: str, value, modes: int) -> BogoliubovMap:
    eye = np.eye(modes, dtype=complex)
    zero = np.zeros((modes, modes), dtype=complex)
    if kind == "D":
        alpha = np.atleast_1d(np.asarray(value, dtype=complex))
        return BogoliubovMap(eye, zero, np.concatenate([alpha, alpha.conj()]))
    if kind == "R":
        u = _unitary_from_hermitian(np.asarray(value, dtype=complex))
        return BogoliubovMap(u, zero, np.zeros(2 * modes, dtype=complex))
    if kind == "S":
        cosh_r, sinh_r_expith = _squeeze_blocks(value)
        return BogoliubovMap(cosh_r, -sinh_r_expith, np.zeros(2 * modes, dtype=complex))
    raise ValidationError(f"unknown unitary kind {kind!r}")


def compose_bogoliubov(maps) -> BogoliubovMap:
    """Bogoliubov data of a product U_1 U_2 ... (applied right to left to states)."""
    maps = list(maps)
    m = maps[0].modes
    L = np.eye(2 * m, dtype=complex)
    A = np.zeros(2 * m, dtype=complex)
    for bm in maps:
        A = L @ bm.disp + A
        L = L @ big_l(bm)
    return BogoliubovMap(L[:m, :m], L[:m, m:], A)


def canonical_order(ops: list[tuple[str, np.ndarray]], modes: int,
                    thermal=None) -> GaussianParams:
    """Rewrite a product of D/S/R factors (each at most once) in canonical D·S·R order.

    ``ops`` lists (kind, value) pairs left to right as the operators multiply.
    Uses the three commutation identities: rotations pass through displacements
    and squeezings by phase conjugation, and squeezings map displacements to
    cosh(r) alpha - sinh(r) e^{i theta} alpha* when moved to the right.
    """
    kinds = [k for k, _ in ops]
    if len(set(kinds)) != len(kinds):
        raise ValidationError("canonical_order expects each of D, S, R at most once")
    alpha = np.zeros(modes, dtype=complex)
    z = np.zeros((modes, modes), dtype=complex)
    phi = np.zeros((modes, modes), dtype=complex)
    seen: list[tuple[str, np.ndarray]] = []
    for kind, value in ops:
        value = np.asarray(value, dtype=complex)
        if kind == "D":
            beta = np.atleast_1d(value)
            # push the new displacement left through what has been placed
            for prev_kind, prev_val in reversed(seen):
                if prev_kind == "R":
                    u = _unitary_from_hermitian(prev_val)
                    beta = u @ beta
                elif prev_kind == "S":
                    cosh_r, sinh_r_expith = _squeeze_blocks(prev_val)
                    beta = cosh_r @ beta - sinh_r_expith @ beta.conj()
            alpha = alpha + beta
        elif kind == "S":
            znew = value
            for prev_kind, prev_val in reversed(seen):
                if prev_kind == "R":
                    u = _unitary_from_hermitian(prev_val)
                    znew = u @ znew @ u.T
            z = znew
        elif kind == "R":
            phi = value
        else:
            raise ValidationError(f"unknown unitary kind {kind!r}")
        seen.append((kind, value))
    if thermal is None:
        thermal = np.zeros(modes)
    return GaussianParams(alpha, z, phi, thermal)


class TestReorderIdentities:
    def test_zero_rotation_is_identity(self, rng):
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.allclose(rotate_displacement(np.zeros((2, 2)), alpha), alpha)

    def test_rotation_through_displacement(self, rng):
        phi = random_hermitian(rng, 2)
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vals, vecs = np.linalg.eigh(phi)
        expected = (vecs * np.exp(-1j * vals)) @ vecs.conj().T @ alpha
        assert np.allclose(rotate_displacement(phi, alpha), expected)

    def test_squeeze_through_displacement_scalar(self):
        z = np.array([[0.6 * np.exp(0.8j)]])
        alpha = np.array([0.3 - 0.4j])
        out = squeeze_displacement(z, alpha)
        expected = np.cosh(0.6) * alpha + np.sinh(0.6) * np.exp(0.8j) * alpha.conj()
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("order", [("D", "S", "R"), ("R", "S", "D"), ("S", "D", "R"),
                                       ("R", "D", "S"), ("D", "R", "S"), ("S", "R", "D")])
    def test_canonical_order_reproduces_bogoliubov(self, rng, order):
        m = 2
        values = {
            "D": rng.standard_normal(m) + 1j * rng.standard_normal(m),
            "S": random_symmetric(rng, m, 0.5),
            "R": random_hermitian(rng, m),
        }
        ops = [(k, values[k]) for k in order]
        composed = compose_bogoliubov([_elementary_bogoliubov(k, v, m) for k, v in ops])
        params = canonical_order(ops, m)
        canon = bogoliubov_map(params)
        assert np.allclose(big_l(canon), big_l(composed), atol=1e-10)
        assert np.allclose(canon.disp, composed.disp, atol=1e-10)


class TestClosedFormsVsKernel:
    """The g2/g3 closed forms must agree with the partition kernel at any
    parameter strength (no Fock truncation involved)."""

    def test_g2_matches_kernel_strong_parameters(self, rng):
        params = random_params(rng, 3, alpha_max=1.6, r_max=1.2, n_max=2.0)
        mom = derive_moments(params)
        table = mom.to_moment_table()
        g2 = g2_tensor(mom)
        for i in range(3):
            for j in range(3):
                word = LadderWord.from_spec(f"{i}+ {j}+ {i}- {j}-")
                direct = gaussian_moment(word, table).real / (mom.nbar[i] * mom.nbar[j])
                assert g2[i, j] == pytest.approx(direct, rel=1e-11)

    def test_g3_matches_kernel_strong_parameters(self, rng):
        params = random_params(rng, 3, alpha_max=1.6, r_max=1.2, n_max=2.0)
        mom = derive_moments(params)
        table = mom.to_moment_table()
        from gausstat.words import correlation_word

        for triple in [(0, 0, 0), (0, 0, 1), (0, 1, 2), (1, 2, 2), (2, 2, 2)]:
            word = correlation_word(triple)
            denom = np.prod([mom.nbar[t] for t in triple])
            direct = gaussian_moment(word, table).real / denom
            assert g3_value(mom, *triple) == pytest.approx(direct, rel=1e-11)


def _g2_reference(moments):
    """The former closed-form g2 matrix, kept as a reference for the kernel."""
    al = moments.alpha
    denom = np.outer(moments.nbar, moments.nbar)
    mixed = np.abs(moments.cov + np.outer(al, al)) ** 2
    disp = 2.0 * np.outer(np.abs(al) ** 2, np.abs(al) ** 2)
    g2 = 1.0 + np.abs(moments.g1) ** 2 + (mixed - disp) / denom
    return 0.5 * (g2 + g2.T).real


def _g3_reference(moments, i, j, k):
    """The former per-triple expansion of g3_ijk, kept as a reference for the kernel."""
    i, j, k = sorted((i, j, k))
    n = moments.nbar
    g1 = moments.g1
    cov = moments.cov
    al = moments.alpha

    def re(x):
        return float(np.real(x))

    aa = np.abs(al) ** 2
    val = (
        1.0
        + abs(g1[i, j]) ** 2 + abs(g1[j, k]) ** 2 + abs(g1[i, k]) ** 2
        + 2.0 * re(g1[i, j] * g1[j, k] * g1[k, i])
        + (abs(cov[i, j]) ** 2 - aa[i] * aa[j]) / (n[i] * n[j])
        + (abs(cov[j, k]) ** 2 - aa[j] * aa[k]) / (n[j] * n[k])
        + (abs(cov[i, k]) ** 2 - aa[i] * aa[k]) / (n[i] * n[k])
        + (2.0 - 4.0 * aa[k] / n[k]) * re(cov[i, j] * np.conj(al[i] * al[j])) / (n[i] * n[j])
        + (2.0 - 4.0 * aa[j] / n[j]) * re(cov[i, k] * np.conj(al[i] * al[k])) / (n[i] * n[k])
        + (2.0 - 4.0 * aa[i] / n[i]) * re(cov[j, k] * np.conj(al[j] * al[k])) / (n[j] * n[k])
        + 4.0 * aa[i] * aa[j] * aa[k] / (n[i] * n[j] * n[k])
        + 2.0 * re(g1[i, j] * np.conj(cov[j, k]) * cov[i, k]) / (n[k] * np.sqrt(n[i] * n[j]))
        + 2.0 * re(g1[j, k] * np.conj(cov[i, k]) * cov[i, j]) / (n[i] * np.sqrt(n[j] * n[k]))
        + 2.0 * re(g1[k, i] * np.conj(cov[i, j]) * cov[j, k]) / (n[j] * np.sqrt(n[i] * n[k]))
        - 2.0 * aa[k] / n[k] * re(g1[i, j] * al[i] * np.conj(al[j])) / np.sqrt(n[i] * n[j])
        - 2.0 * aa[i] / n[i] * re(g1[j, k] * al[j] * np.conj(al[k])) / np.sqrt(n[j] * n[k])
        - 2.0 * aa[j] / n[j] * re(g1[k, i] * al[k] * np.conj(al[i])) / np.sqrt(n[i] * n[k])
        + 2.0 * (re(g1[i, j] * al[i] * al[k] * np.conj(cov[j, k]))
                 + re(g1[i, j] * np.conj(al[j] * al[k]) * cov[i, k])) / (n[k] * np.sqrt(n[i] * n[j]))
        + 2.0 * (re(g1[j, k] * al[i] * al[j] * np.conj(cov[i, k]))
                 + re(g1[j, k] * np.conj(al[i] * al[k]) * cov[i, j])) / (n[i] * np.sqrt(n[j] * n[k]))
        + 2.0 * (re(g1[k, i] * al[j] * al[k] * np.conj(cov[i, j]))
                 + re(g1[k, i] * np.conj(al[i] * al[j]) * cov[j, k])) / (n[j] * np.sqrt(n[i] * n[k]))
    )
    return float(val)


def _assert_matches_reference(mom, triples=None):
    g3 = g3_tensor(mom, triples)
    if triples is None:
        m = mom.modes
        assert list(g3) == [(i, j, k) for i in range(m) for j in range(i, m)
                            for k in range(j, m)]
    else:
        assert list(g3) == list(dict.fromkeys(tuple(t) for t in triples))
    for key, val in g3.items():
        ref = _g3_reference(mom, *key)
        assert abs(val - ref) <= 1e-12 * abs(ref), key


class TestG3KernelVsExpansion:
    """The broadcast kernel against the former per-triple expansion."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_random_states_every_mode_count(self, rng):
        for m in range(1, 17):
            draws = [random_params(rng, m), random_params(rng, m, alpha_max=0.0),
                     random_params(rng, m, r_max=0.0),
                     random_params(rng, m, alpha_max=0.0, r_max=0.0)]
            for params in draws:
                mom = derive_moments(params)
                _assert_matches_reference(mom)
                ref = _g2_reference(mom)
                assert np.abs(g2_tensor(mom) - ref).max() <= 1e-12 * np.abs(ref).max()
            triples = [tuple(rng.integers(0, m, 3)) for _ in range(5)]
            _assert_matches_reference(mom, triples)
            for t in triples:
                assert g3_value(mom, *t) == g3_tensor(mom, [t])[t]

    def test_stacked_block_sets_equal_per_slice_calls(self, rng):
        # one call over a stack of block sets gives, to the bit, each set's own tensor:
        # every input stacked, or g and P shared as classify passes them
        for m in range(1, 7):
            for size in range(1, 6):
                moms = [derive_moments(random_params(rng, m)) for _ in range(size)]
                g = np.array([mom.g1 for mom in moms])
                c, b, pair = (np.array(x) for x in zip(*map(_pair_blocks, moms)))
                stacked = _g3_kernel(g, c, b, pair)
                shared = _g3_kernel(g[0], c, b, pair[0])
                assert stacked.shape == shared.shape == (size, m, m, m)
                for s in range(size):
                    assert np.array_equal(stacked[s], _g3_kernel(g[s], c[s], b[s], pair[s]))
                    assert np.array_equal(shared[s], _g3_kernel(g[0], c[s], b[s], pair[0]))
                two_axes = _g3_kernel(g[None], c.reshape(size, 1, m, m), b[:, None], pair)
                assert two_axes.shape == (size, size, m, m, m)
                for s in range(size):
                    for t in range(size):
                        assert np.array_equal(two_axes[s, t],
                                              _g3_kernel(g[t], c[s], b[s], pair[t]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vacuum_mode_outside_and_inside_the_triples(self, rng):
        # mode 1 is an uncoupled vacuum: nbar_1 = 0, so g1, g2 and g3 touching it
        # are undefined while every other entry stays computable
        full = derive_moments(random_params(rng, 3))
        keep = np.array([1.0, 0.0, 1.0])
        mom = MomentSummary.from_unnormalized(full.coherence_matrix() * np.outer(keep, keep),
                                              full.cov * np.outer(keep, keep),
                                              full.alpha * keep)
        assert mom.nbar[1] == 0 and np.isnan(mom.g1[0, 1])
        _assert_matches_reference(mom, [(0, 0, 0), (2, 0, 2), (0, 2, 2), (2, 2, 2)])
        for triple in [(0, 1, 2), (1, 1, 1), (2, 2, 1)]:
            with pytest.raises(UndefinedCorrelationError,
                               match="normalized correlations undefined: mode 1 has nbar = 0"):
                g3_tensor(mom, [(0, 0, 0), triple])
            with pytest.raises(UndefinedCorrelationError, match="mode 1 has nbar = 0"):
                g3_value(mom, *triple)
        with pytest.raises(UndefinedCorrelationError, match="mode 1 has nbar = 0"):
            g3_tensor(mom)
        with pytest.raises(UndefinedCorrelationError, match="mode 1 has nbar = 0"):
            g2_tensor(mom)


# The former squeeze and vacuum-overlap routes, kept as references for the
# one-SVD squeeze blocks and the moments formula of p0 that replaced them.

def squeeze_blocks_reference(z):
    """The former ``_squeeze_blocks``: left polar form z = r e^{i theta} by
    SVD, then cosh and sinh of r through ``eigh``."""
    w, sv, vh = np.linalg.svd(np.asarray(z, dtype=complex))
    r = (w * sv) @ w.conj().T
    vals, vecs = np.linalg.eigh(0.5 * (r + r.conj().T))
    vals = np.clip(vals, 0.0, None)
    cosh_r = (vecs * np.cosh(vals)) @ vecs.conj().T
    sinh_r = (vecs * np.sinh(vals)) @ vecs.conj().T
    return cosh_r, sinh_r @ (w @ vh)


def no_click_cosh_reference(params):
    """The former single-mode closed form

    p0 = exp(-[1 + (2N+1)cosh 2r + (2N+1)sinh 2r cos(2 phi_d - theta)] |alpha|^2
         / [2N^2 + 2(2N+1)cosh^2 r]) / sqrt(N^2 + (2N+1)cosh^2 r).
    """
    z = complex(params.squeeze[0, 0])
    r, theta = abs(z), float(np.angle(z))
    occ = float(params.thermal[0])
    alpha = complex(params.alpha[0])
    phi_d = float(np.angle(alpha)) if alpha != 0 else 0.0
    tp1 = 2.0 * occ + 1.0
    denom = np.sqrt(occ**2 + tp1 * np.cosh(r) ** 2)
    expo = (1.0 + tp1 * np.cosh(2 * r) + tp1 * np.sinh(2 * r) * np.cos(2 * phi_d - theta))
    expo *= abs(alpha) ** 2 / (2.0 * occ**2 + 2.0 * tp1 * np.cosh(r) ** 2)
    return float(np.exp(-expo) / denom)


def mode_vacuum_round_trip_reference(moments, mode):
    """The former ``mode_vacuum_probability``: the reduced moments give an
    effective squeezed thermal (r, N), whose cosh form is then evaluated."""
    alpha = complex(moments.alpha[mode])
    cov = complex(moments.cov[mode, mode])
    m_c = float(moments.nbar[mode] - abs(alpha) ** 2)
    disc = (2 * m_c + 1.0) ** 2 - 4.0 * abs(cov) ** 2
    root = np.sqrt(max(disc, 0.0))
    sinh2 = 0.5 * (2 * m_c + 1.0) / root - 0.5 if root > 0 else 0.0
    r = float(np.arcsinh(np.sqrt(max(sinh2, 0.0))))
    theta = float(np.angle(-cov)) if abs(cov) > 0 else 0.0
    phi_rel = float(np.angle(alpha)) - 0.5 * theta if alpha != 0 else 0.0
    eff = GaussianParams.single_mode(abs(alpha) * np.exp(1j * phi_rel), r, 0.0,
                                     max(0.5 * root - 0.5, 0.0))
    return no_click_cosh_reference(eff)


def vacuum_overlap_reference(params):
    """p0 of every mode as 2 pi times the overlap of the mode's reduced Wigner
    function with the vacuum one, exp(-d^T (V + I/2)^-1 d / 2) / sqrt(det(V + I/2)),
    with the Bogoliubov matrix built by scipy's expm from the generators of
    S(z) and R(phi) instead of by ``bogoliubov_map``."""
    from scipy.linalg import expm

    m = params.modes
    z, phi = params.squeeze, params.rotation
    zero = np.zeros((m, m), dtype=complex)
    bog = expm(np.block([[zero, -z], [-z.conj(), zero]])) \
        @ expm(np.block([[1j * phi, zero], [zero, -1j * phi.conj()]]))
    seed = np.zeros((2 * m, 2 * m), dtype=complex)
    seed[:m, m:] = np.diag(params.thermal + 1.0)
    seed[m:, :m] = np.diag(params.thermal)
    fluct = bog @ seed @ bog.T
    to_quad = np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0)
    out = []
    for i in range(m):
        block = fluct[np.ix_([i, m + i], [i, m + i])]
        total = (to_quad @ (0.5 * (block + block.T)) @ to_quad.T).real + 0.5 * np.eye(2)
        d = np.sqrt(2.0) * np.array([params.alpha[i].real, params.alpha[i].imag])
        out.append(np.exp(-0.5 * d @ np.linalg.solve(total, d)) / np.sqrt(np.linalg.det(total)))
    return np.array(out)


def _edge_squeezes():
    rng = np.random.default_rng(31)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    return {
        "zero": np.zeros((3, 3), dtype=complex),
        "rank-one": 0.6 * np.outer(q[:, 0], q[:, 0]),
        "rank-two": q[:, :2] @ np.diag([0.7, 0.2]) @ q[:, :2].T,
        "degenerate": q @ np.diag([0.5, 0.5, 0.2, 0.2]) @ q.T,
        "scaled-identity": 0.4j * np.eye(3),
        "large": random_symmetric(rng, 3, 3.0),
    }


class TestSqueezeBlocksVsPolarEigh:
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    def test_random(self, modes):
        rng = np.random.default_rng(40 + modes)
        for _ in range(20):
            z = random_symmetric(rng, modes, rng.uniform(0.0, 1.5))
            for new, ref in zip(_squeeze_blocks(z), squeeze_blocks_reference(z)):
                assert np.abs(new - ref).max() <= 1e-13

    @pytest.mark.parametrize("name", sorted(_edge_squeezes()))
    def test_edge_cases(self, name):
        z = _edge_squeezes()[name]
        for new, ref in zip(_squeeze_blocks(z), squeeze_blocks_reference(z)):
            assert np.abs(new - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


class TestVacuumProbabilityVsFormerRoutes:
    def test_mode_vacuum_probability_matches_round_trip(self):
        rng = np.random.default_rng(50)
        for modes in range(1, 9):
            for _ in range(25):
                mom = derive_moments(random_params(rng, modes, alpha_max=1.5, r_max=1.2,
                                                   n_max=1.0))
                for i in range(modes):
                    ref = mode_vacuum_round_trip_reference(mom, i)
                    assert mode_vacuum_probability(mom, i) == pytest.approx(ref, rel=1e-11)

    def test_single_mode_matches_cosh_form(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            params = random_params(rng, 1, alpha_max=1.5, r_max=1.2, n_max=1.0)
            assert single_mode_p0(params) == pytest.approx(
                no_click_cosh_reference(params), rel=1e-14)

    def test_matches_wigner_overlap_reference(self):
        # squeezing drawn down to 1e-4: there the former route's sinh^2 r, a
        # difference of nearly equal numbers, lost up to 1e-11 relative in p0
        rng = np.random.default_rng(52)
        for modes in (1, 2, 3, 4):
            for _ in range(25):
                params = random_params(rng, modes, alpha_max=1.5,
                                       r_max=10 ** rng.uniform(-4.0, 0.0))
                mom = derive_moments(params)
                new = np.array([mode_vacuum_probability(mom, i) for i in range(modes)])
                ref = vacuum_overlap_reference(params)
                assert np.abs(new / ref - 1.0).max() <= 1e-13

    def test_unphysical_reduced_moments_rejected(self):
        mom = MomentSummary(np.array([0.1]), np.ones((1, 1)), np.array([[0.7]]),
                            np.zeros(1))
        with pytest.raises(ValidationError, match="single-mode physicality"):
            mode_vacuum_probability(mom, 0)


# The former moments route, kept as a reference for the M x M block formulas
# that replaced it.

def derive_moments_via_L(params):
    """The former ``derive_moments``: the former Bogoliubov blocks, cosh(r) =
    W cosh(S) W^H and e^{i phi} = V e^{iw} V^H, stacked into the 2M x 2M
    matrix L, which acts on the thermal second moments of the stacked
    (a, a†) basis as L T L^T."""
    m = params.modes
    w, sv, vh = np.linalg.svd(params.squeeze)
    vals, vecs = np.linalg.eigh(params.rotation)
    expiphi = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    e = ((w * np.cosh(sv)) @ w.conj().T) @ expiphi
    f = -((w * np.sinh(sv)) @ vh) @ expiphi.conj()
    thermal = np.zeros((2 * m, 2 * m), dtype=complex)
    thermal[:m, m:] = np.diag(params.thermal + 1.0)
    thermal[m:, :m] = np.diag(params.thermal)
    lin = big_l(BogoliubovMap(e, f, np.concatenate([params.alpha, params.alpha.conj()])))
    second = lin @ thermal @ lin.T
    cov = second[:m, :m]
    coherence = second[m:, :m] + np.outer(params.alpha.conj(), params.alpha)
    return MomentSummary.from_unnormalized(coherence, 0.5 * (cov + cov.T), params.alpha)


def _moment_arrays(mom):
    return {"nbar": mom.nbar, "g1": mom.g1, "cov": mom.cov, "g2": g2_tensor(mom),
            "g3": _g3_array(mom)}


class TestMomentsVsFormerRoute:
    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 6, 8, 16])
    def test_seeded_draws(self, modes):
        # every entry within 1e-14 of max(1, |x|), but a cov entry within 1e-14
        # of its state's largest |cov|: it sums terms of about that size, so
        # where they cancel both routes round it far beyond its own size (each
        # missed a 40-digit reference by up to 3.3e-14 of max(1, |x|))
        rng = np.random.default_rng(60 + modes)
        for _ in range(50):
            params = random_params(rng, modes, alpha_max=1.5, r_max=3.0, n_max=1.5)
            ref = _moment_arrays(derive_moments_via_L(params))
            for name, new in _moment_arrays(derive_moments(params)).items():
                size = np.abs(ref[name])
                scale = np.maximum(1.0, size.max() if name == "cov" else size)
                assert (np.abs(new - ref[name]) / scale).max() <= 1e-14, name


def embed_vacuum(params: GaussianParams, pos: int) -> GaussianParams:
    """``params`` on every mode but ``pos``, which is a vacuum coupled to nothing."""
    m = params.modes + 1
    rest = [i for i in range(m) if i != pos]
    sub = np.ix_(rest, rest)
    alpha = np.zeros(m, dtype=complex)
    z, phi = np.zeros((m, m), dtype=complex), np.zeros((m, m), dtype=complex)
    thermal = np.zeros(m)
    alpha[rest], z[sub], phi[sub], thermal[rest] = (params.alpha, params.squeeze,
                                                    params.rotation, params.thermal)
    return GaussianParams(alpha, z, phi, thermal)


class TestUncoupledVacuumMode:
    """A vacuum mode that no squeeze or rotation entry touches has nbar = 0
    exactly, so its normalized correlations are undefined, as for a vacuum
    state built at the moment level."""

    def _assert_empty(self, mom, pos):
        assert mom.nbar[pos] == 0.0
        assert not mom.cov[pos].any() and not mom.cov[:, pos].any() and mom.alpha[pos] == 0
        assert np.isnan(mom.g1[pos]).all() and np.isnan(mom.g1[:, pos]).all()
        with pytest.raises(UndefinedCorrelationError, match=f"mode {pos} has nbar = 0"):
            g2_tensor(mom)
        with pytest.raises(UndefinedCorrelationError, match=f"mode {pos} has nbar = 0"):
            g3_tensor(mom)

    def test_reproducer(self):
        params = random_params(np.random.default_rng(0), 2, alpha_max=1.4, r_max=1.1,
                               n_max=1.5)
        self._assert_empty(derive_moments(embed_vacuum(params, 1)), 1)

    @pytest.mark.parametrize("modes", [2, 3, 4, 5, 6])
    def test_seeded_sweep_every_position(self, modes):
        rng = np.random.default_rng(70 + modes)
        for pos in range(modes):
            for caps in ((0.8, 0.7, 0.5), (1.4, 1.1, 1.5), (2.0, 3.0, 1.5)):
                for _ in range(4):
                    params = random_params(rng, modes - 1, *caps)
                    mom = derive_moments(embed_vacuum(params, pos))
                    self._assert_empty(mom, pos)
                    alone = bucket_correlations(derive_moments(params))
                    with_vacuum = bucket_correlations(mom)
                    assert with_vacuum.g2_b == pytest.approx(alone.g2_b, rel=1e-13)
                    assert with_vacuum.g3_b == pytest.approx(alone.g3_b, rel=1e-13)


class TestMomentMemo:
    """The blocks and the g3 tensor a MomentSummary memoizes cannot go stale,
    and every reader gets the same bits whichever computes them first."""

    def test_arrays_are_read_only(self, rng):
        mom = derive_moments(random_params(rng, 3))
        for name in ("nbar", "g1", "cov", "alpha"):
            arr = getattr(mom, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.0
        for arr in (*_pair_blocks(mom), _g3_array(mom)):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0.0

    def test_writeable_input_is_copied(self, rng):
        full = derive_moments(random_params(rng, 2))
        parts = [np.array(x) for x in (full.nbar, full.g1, full.cov, full.alpha)]
        mom = MomentSummary(*parts)
        g2 = g2_tensor(mom)
        for arr in parts:
            assert arr.flags.writeable
            arr[...] = 0.0
        assert mom.nbar.min() > 0 and np.array_equal(g2_tensor(mom), g2)
        # a read-only input is held as it is
        again = MomentSummary(mom.nbar, mom.g1, mom.cov, mom.alpha)
        assert again.g1 is mom.g1 and again.nbar is mom.nbar

    def test_readers_agree_whichever_runs_first(self, rng):
        for modes in (1, 2, 3, 5):
            params = random_params(rng, modes)
            data = synthesize_measurements(derive_moments(params))
            readers = [g2_tensor, g3_tensor, bucket_correlations,
                       lambda mom: measurement_residual(params, data)]
            first = None
            for order in itertools.permutations(range(len(readers))):
                mom = derive_moments(params)
                out = [None] * len(readers)
                for k in order:
                    out[k] = readers[k](mom)
                assert np.array_equal(_g3_array(mom), _g3_kernel(mom.g1, *_pair_blocks(mom)))
                if first is None:
                    first = out
                    continue
                assert np.array_equal(out[0], first[0])
                assert out[1:] == first[1:]

    def test_default_triples_equal_every_triple(self, rng):
        for modes in range(1, 17):
            params = random_params(rng, modes)
            mom = derive_moments(params)
            every = list(itertools.combinations_with_replacement(range(modes), 3))
            default = g3_tensor(mom)
            assert list(default) == every
            assert default == g3_tensor(mom, every)
            # the explicit list read first, on a state with nothing memoized yet
            fresh = derive_moments(params)
            assert g3_tensor(fresh, every) == g3_tensor(fresh) == default
