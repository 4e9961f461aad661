"""State engine: Bogoliubov data, derived moments, correlation tensors."""

import numpy as np
import pytest
from conftest import random_hermitian, random_params, random_symmetric

from gausstat.errors import NumericalError, UndefinedCorrelationError, ValidationError
from gausstat.fock import _sparse_annihilators, build_density, vacuum_overlap
from gausstat.states import (
    BogoliubovMap,
    GaussianParams,
    MomentSummary,
    apply_uniform_loss,
    balanced_beamsplitter_duplicate,
    bogoliubov_map,
    derive_moments,
    g2_tensor,
    g3_tensor,
    g3_value,
    mode_vacuum_probability,
    no_click_probability_single,
    single_mode_g2_g3,
    _squeeze_blocks,
    _unitary_from_hermitian,
)
from gausstat.words import LadderWord, gaussian_moment


def oracle_moments(rho):
    """(alpha, <a_i a_j>, <a_i† a_j>) measured directly from a truncated density."""
    m, d = rho.modes, rho.dim
    ladders = [op.toarray() for op in _sparse_annihilators(m, d)]
    alpha = np.array([complex((rho.matrix * ladders[i].T).sum()) for i in range(m)])
    aa = np.zeros((m, m), dtype=complex)
    adag_a = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            aa[i, j] = (rho.matrix * (ladders[i] @ ladders[j]).T).sum()
            adag_a[i, j] = (rho.matrix * (ladders[i].conj().T @ ladders[j]).T).sum()
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
        for modes in (1, 2, 3):
            for _ in range(5):
                params = random_params(rng, modes)
                assert bogoliubov_map(params).symplectic_defect() < 1e-10

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


class TestNoClick:
    def test_vacuum(self):
        assert no_click_probability_single(GaussianParams.vacuum(1)) == pytest.approx(1.0)

    def test_thermal(self):
        p = no_click_probability_single(GaussianParams.single_mode(occupation=1.0))
        assert p == pytest.approx(0.5)

    def test_displaced_squeezed_thermal_vs_oracle(self):
        params = GaussianParams.single_mode(alpha=0.3, r=0.5, theta=0.0, occupation=0.2)
        rho = build_density(params, cutoff=40)
        assert no_click_probability_single(params) == pytest.approx(vacuum_overlap(rho), abs=1e-6)

    def test_phase_dependence_vs_oracle(self):
        params = GaussianParams.single_mode(alpha=0.4 * np.exp(1.1j), r=0.45,
                                            theta=0.7, occupation=0.15)
        rho = build_density(params, cutoff=40)
        assert no_click_probability_single(params) == pytest.approx(vacuum_overlap(rho), abs=1e-6)

    def test_multimode_rejected(self):
        with pytest.raises(ValidationError):
            no_click_probability_single(GaussianParams.vacuum(2))

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
        L = L @ bm.L
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
        assert np.allclose(canon.L, composed.L, atol=1e-10)
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
