"""Truncated Fock-space oracle."""

import numpy as np
import pytest
from conftest import random_params
from scipy import sparse
from scipy.linalg import expm

from gausstat.cli import VERIFY_CUTOFFS
from gausstat.errors import TruncationError, ValidationError
from gausstat.fock import (
    _TAIL_LEVELS,
    DEFAULT_CUTOFFS,
    TruncatedDensity,
    _sparse_annihilators,
    build_density,
    mode_number_distribution_matrix,
    moment_bruteforce,
    photon_number_distribution,
    total_number_factorial_moment,
    vacuum_overlap,
)
from gausstat.states import GaussianParams, derive_moments
from gausstat.words import LadderWord, correlation_word, gaussian_moment


def test_vacuum_is_projector():
    rho = build_density(GaussianParams.vacuum(1), cutoff=10)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected)


def test_thermal_geometric_diagonal():
    occ = 0.5
    rho = build_density(GaussianParams.single_mode(occupation=occ), cutoff=40)
    n = np.arange(40)
    expected = (occ / (occ + 1)) ** n / (occ + 1)
    assert np.allclose(np.diag(rho.matrix).real, expected)
    assert rho.deficit < 1e-12


def test_squeezed_vacuum_mean_photon():
    rho = build_density(GaussianParams.single_mode(r=0.5), cutoff=40)
    word = LadderWord.from_spec("0+ 0-")
    assert moment_bruteforce(rho, word).real == pytest.approx(np.sinh(0.5) ** 2, abs=1e-10)


def test_vacuum_moments_vanish():
    rho = build_density(GaussianParams.vacuum(2), cutoff=6)
    for spec in ("0-", "0+ 1-", "0+ 1+ 0- 1-"):
        assert moment_bruteforce(rho, LadderWord.from_spec(spec)) == pytest.approx(0)


def test_coherent_eigenvalue_property():
    rho = build_density(GaussianParams.single_mode(alpha=0.3), cutoff=30)
    assert moment_bruteforce(rho, LadderWord.from_spec("0-")) == pytest.approx(0.3, abs=1e-10)


def test_vacuum_overlap_examples():
    assert vacuum_overlap(build_density(GaussianParams.vacuum(1), cutoff=8)) == pytest.approx(1.0)
    rho = build_density(GaussianParams.single_mode(occupation=1.0), cutoff=60)
    assert vacuum_overlap(rho) == pytest.approx(0.5, abs=1e-9)


def test_photon_number_distribution_marginal():
    params = GaussianParams(
        np.array([0.4, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)), np.array([0.0, 0.3])
    )
    rho = build_density(params, cutoff=12)
    p0 = photon_number_distribution(rho, 0)
    mu = 0.16
    assert p0[1] == pytest.approx(np.exp(-mu) * mu, abs=1e-8)
    p1 = photon_number_distribution(rho, 1)
    assert p1[0] == pytest.approx(1 / 1.3, abs=1e-8)


def test_total_number_factorial_moment_single_mode_thermal():
    rho = build_density(GaussianParams.single_mode(occupation=0.4), cutoff=40)
    assert total_number_factorial_moment(rho, 2) == pytest.approx(2 * 0.4**2, abs=1e-9)
    assert total_number_factorial_moment(rho, 3) == pytest.approx(6 * 0.4**3, abs=1e-9)


def test_trace_deficit_decreases_with_cutoff():
    params = GaussianParams.single_mode(occupation=0.8)
    deficits = [build_density(params, cutoff=d, tail_tol=1.0).deficit for d in (8, 12, 16, 20)]
    assert all(a > b for a, b in zip(deficits, deficits[1:]))


def test_truncation_error_carries_measurements():
    params = GaussianParams.single_mode(r=1.2)
    with pytest.raises(TruncationError) as exc:
        build_density(params, cutoff=8, tail_tol=1e-8)
    assert exc.value.tail_mass > 0


def test_mode_limit():
    with pytest.raises(ValidationError):
        build_density(GaussianParams.vacuum(4))


def test_oracle_contract_random_state(rng):
    params = random_params(rng, 2, alpha_max=0.4, r_max=0.2, n_max=0.1)
    rho = build_density(params, cutoff=14)
    table = derive_moments(params).to_moment_table()
    for spec in ("0+ 0-", "0+ 1+ 0- 1-", "0- 1- 0+ 1+", "0+ 1+ 1+ 0- 1- 1-"):
        word = LadderWord.from_spec(spec)
        direct = moment_bruteforce(rho, word)
        closed = gaussian_moment(word, table)
        assert abs(direct - closed) / (1 + abs(direct)) < 1e-6


def test_no_click_cross_check():
    params = GaussianParams.single_mode(alpha=0.3, r=0.5, occupation=0.2)
    rho = build_density(params, cutoff=40)
    from gausstat.states import no_click_probability_single

    assert vacuum_overlap(rho) == pytest.approx(no_click_probability_single(params), abs=1e-6)


def test_g3_word_matches_kernel(rng):
    params = random_params(rng, 2, alpha_max=0.35, r_max=0.2, n_max=0.1)
    rho = build_density(params, cutoff=14)
    table = derive_moments(params).to_moment_table()
    word = correlation_word((0, 0, 1))
    assert abs(moment_bruteforce(rho, word) - gaussian_moment(word, table)) < 2e-6


def expm_reference_build(params, cutoff, tail_tol=1e-3):
    """The former oracle build: rho = D S R rho_th R† S† D† with each unitary
    from a dense expm of its truncated generator on the full Fock space."""
    m, d = params.modes, cutoff
    ladders = _sparse_annihilators(m, d)
    dim = d**m
    gen_d = sparse.csr_matrix((dim, dim), dtype=complex)
    gen_s = sparse.csr_matrix((dim, dim), dtype=complex)
    gen_r = sparse.csr_matrix((dim, dim), dtype=complex)
    for i in range(m):
        ai = ladders[i]
        gen_d = gen_d + params.alpha[i] * ai.conj().T - np.conj(params.alpha[i]) * ai
        for j in range(m):
            aj = ladders[j]
            zij = params.squeeze[i, j]
            if zij != 0:
                gen_s = gen_s + 0.5 * np.conj(zij) * (ai @ aj) \
                    - 0.5 * zij * (ai.conj().T @ aj.conj().T)
            pij = params.rotation[i, j]
            if pij != 0:
                gen_r = gen_r + 1j * pij * (ai.conj().T @ aj)

    n = np.arange(d)
    rho = None
    for occ in params.thermal:
        if occ > 0:
            p = (occ / (occ + 1.0)) ** n / (occ + 1.0)
        else:
            p = np.zeros(d)
            p[0] = 1.0
        block = np.diag(p.astype(complex))
        rho = block if rho is None else np.kron(rho, block)
    for gen in (gen_r, gen_s, gen_d):
        if gen.count_nonzero() == 0:
            continue
        u = expm(gen.toarray())
        rho = u @ rho @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)

    deficit = float(abs(1.0 - np.trace(rho).real))
    tail = 0.0
    for i in range(m):
        marg = mode_number_distribution_matrix(rho, i, m, d)
        tail = max(tail, float(marg[-_TAIL_LEVELS:].sum()))
    if deficit > tail_tol or tail > tail_tol:
        raise TruncationError(
            f"cutoff {d} too small: trace deficit {deficit:.3e}, "
            f"top-level occupancy {tail:.3e}",
            deficit=deficit, tail_mass=tail,
        )
    return TruncatedDensity(rho, d, m, deficit, tail)


def _outcome(build, params, cutoff, tail_tol):
    try:
        return build(params, cutoff=cutoff, tail_tol=tail_tol)
    except TruncationError as err:
        return err


def assert_matches_reference(params, cutoff, tail_tol=1.0):
    """The factorized build equals the expm build: the same matrix, deficit
    and tail to 1e-12, or the same TruncationError."""
    new = _outcome(build_density, params, cutoff, tail_tol)
    old = _outcome(expm_reference_build, params, cutoff, tail_tol)
    assert type(new) is type(old)
    assert new.deficit == pytest.approx(old.deficit, abs=1e-12)
    assert new.tail_mass == pytest.approx(old.tail_mass, abs=1e-12)
    if isinstance(old, TruncatedDensity):
        assert (new.dim, new.modes) == (old.dim, old.modes)
        assert np.abs(new.matrix - old.matrix).max() <= 1e-12
    return new


def _params(alpha, z, phi, occ):
    m = len(alpha)
    return GaussianParams(np.asarray(alpha, dtype=complex),
                          np.asarray(z, dtype=complex).reshape(m, m),
                          np.asarray(phi, dtype=complex).reshape(m, m), occ)


_SIDE_BY_SIDE_CUTOFFS = sorted(set(DEFAULT_CUTOFFS.items()) | set(VERIFY_CUTOFFS.items()))
_EDGE_CASES = ["vacuum", "z = 0", "phi = 0", "diagonal z", "diagonal phi",
               "displacement only", "thermal only"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFactorizedBuildVsExpm:
    @pytest.mark.parametrize("modes,cutoff", _SIDE_BY_SIDE_CUTOFFS)
    def test_seeded_states(self, modes, cutoff):
        rng = np.random.default_rng(1000 * modes + cutoff)
        for _ in range(3):
            assert_matches_reference(random_params(rng, modes), cutoff)
        # pure states: one thermal column
        params = random_params(rng, modes)
        pure = GaussianParams(params.alpha, params.squeeze, params.rotation, np.zeros(modes))
        assert_matches_reference(pure, cutoff)

    @pytest.mark.parametrize("case", _EDGE_CASES)
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_edge_cases(self, modes, case):
        p = random_params(np.random.default_rng(modes), modes,
                          alpha_max=0.5, r_max=0.3, n_max=0.3)
        zero, occ = np.zeros((modes, modes)), p.thermal
        params = {
            "vacuum": GaussianParams.vacuum(modes),
            "z = 0": _params(p.alpha, zero, p.rotation, occ),
            "phi = 0": _params(p.alpha, p.squeeze, zero, occ),
            "diagonal z": _params(p.alpha, np.diag(np.diag(p.squeeze)), p.rotation, occ),
            "diagonal phi": _params(p.alpha, p.squeeze, np.diag(np.diag(p.rotation)), occ),
            "displacement only": _params(p.alpha, zero, zero, np.zeros(modes)),
            "thermal only": _params(np.zeros(modes), zero, zero, occ),
        }[case]
        assert_matches_reference(params, DEFAULT_CUTOFFS[modes])

    @pytest.mark.parametrize("params,cutoff", [
        (GaussianParams.single_mode(r=1.2), 8),
        (GaussianParams.single_mode(alpha=2.0, occupation=0.5), 10),
        (_params([1.5, 0.3], [[0.4, 0.2], [0.2, 0.1]], [[0, 0.5], [0.5, 0]], [0.3, 0.1]), 6),
        (_params([0.8, 0.5, 0.9], np.full((3, 3), 0.2), np.eye(3), [0.2, 0.1, 0.4]), 5),
    ])
    def test_same_truncation_error(self, params, cutoff):
        with pytest.raises(TruncationError):
            build_density(params, cutoff=cutoff)
        assert isinstance(assert_matches_reference(params, cutoff, tail_tol=1e-3),
                          TruncationError)
