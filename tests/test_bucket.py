"""Bucket-detector correlations, bounds, and mode-count estimation."""

import numpy as np
import pytest
from conftest import random_hermitian, random_params, random_symmetric

from gausstat.bucket import (
    CERTIFIES_SQUEEZING,
    CONSISTENT_NONSQUEEZED,
    GAUSSIAN_CAVEAT,
    REQUIRES_DISPLACEMENT_AND_SQUEEZING,
    BucketObservables,
    bucket_bounds_check,
    bucket_correlations,
    equal_squeezer_bucket,
    pure_squeezer_mode_estimate,
)
from gausstat.errors import InfeasibleError
from gausstat.fock import build_density, total_number_factorial_moment
from gausstat.states import GaussianParams, derive_moments, g2_tensor, g3_value


class TestBucketCorrelations:
    def test_single_mode_reduction(self, rng):
        params = random_params(rng, 1, alpha_max=0.6, r_max=0.5, n_max=0.4)
        mom = derive_moments(params)
        obs = bucket_correlations(mom)
        assert obs.g2_b == pytest.approx(g2_tensor(mom)[0, 0], rel=1e-12)
        assert obs.g3_b == pytest.approx(g3_value(mom, 0, 0, 0), rel=1e-12)

    def test_two_mode_coherent(self):
        params = GaussianParams(np.array([0.4, 0.3j]), np.zeros((2, 2)),
                                np.zeros((2, 2)), np.zeros(2))
        obs = bucket_correlations(derive_moments(params))
        assert obs.g2_b == pytest.approx(1.0, abs=1e-12)
        assert obs.g3_b == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_squeezed_vacua_vs_oracle(self):
        z = np.diag([0.4, 0.4]).astype(complex)
        params = GaussianParams(np.zeros(2), z, np.zeros((2, 2)), np.zeros(2))
        obs = bucket_correlations(derive_moments(params))
        rho = build_density(params, cutoff=30)
        t1 = total_number_factorial_moment(rho, 1)
        assert obs.g2_b == pytest.approx(total_number_factorial_moment(rho, 2) / t1**2,
                                         abs=1e-6)
        assert obs.g3_b == pytest.approx(total_number_factorial_moment(rho, 3) / t1**3,
                                         abs=1e-6)

    def test_general_two_mode_vs_oracle(self, rng):
        params = random_params(rng, 2, alpha_max=0.3, r_max=0.12, n_max=0.08)
        obs = bucket_correlations(derive_moments(params))
        rho = build_density(params, cutoff=16)
        t1 = total_number_factorial_moment(rho, 1)
        assert obs.g2_b == pytest.approx(total_number_factorial_moment(rho, 2) / t1**2,
                                         abs=1e-6)
        assert obs.g3_b == pytest.approx(total_number_factorial_moment(rho, 3) / t1**3,
                                         abs=1e-6)


class TestBounds:
    def test_nonsqueezed_states_stay_in_window(self, rng):
        for _ in range(300):
            modes = int(rng.integers(1, 4))
            amp = rng.uniform(0, 1.0, modes)
            alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
            phi = random_hermitian(rng, modes, rng.uniform(0, 1.5))
            occ = rng.uniform(0, 1.2, modes)
            if occ.sum() + amp.sum() < 1e-3:
                continue
            obs = bucket_correlations(derive_moments(
                GaussianParams(alpha, np.zeros((modes, modes)), phi, occ)))
            assert 1.0 - 1e-9 <= obs.g2_b <= 2.0 + 1e-9

    def test_zero_displacement_states_above_one(self, rng):
        for _ in range(300):
            modes = int(rng.integers(1, 4))
            z = random_symmetric(rng, modes, rng.uniform(0.05, 0.8))
            phi = random_hermitian(rng, modes, rng.uniform(0, 1.5))
            occ = rng.uniform(0, 1.0, modes)
            obs = bucket_correlations(derive_moments(
                GaussianParams(np.zeros(modes), z, phi, occ)))
            assert obs.g2_b >= 1.0 - 1e-9

    def test_verdicts(self):
        assert bucket_bounds_check(BucketObservables(1.5, 0, 1)).verdict \
            == CONSISTENT_NONSQUEEZED
        assert bucket_bounds_check(BucketObservables(2.7, 0, 1)).verdict \
            == CERTIFIES_SQUEEZING
        assert bucket_bounds_check(BucketObservables(0.8, 0, 1)).verdict \
            == REQUIRES_DISPLACEMENT_AND_SQUEEZING
        assert bucket_bounds_check(BucketObservables(1.5, 0, 1)).caveat == GAUSSIAN_CAVEAT

    def test_boundary_inconclusive(self):
        assert bucket_bounds_check(BucketObservables(2.0, 0, 1)).verdict == "inconclusive"


class TestModeEstimate:
    def test_single_squeezer_exact(self):
        g2_b, g3_b = equal_squeezer_bucket(1, np.sinh(0.5) ** 2)
        est = pure_squeezer_mode_estimate(g2_b, g3_b)
        assert est.mode_count == pytest.approx(1.0, abs=1e-9)
        assert est.sinh2_per_mode == pytest.approx(np.sinh(0.5) ** 2, abs=1e-9)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_k_recovery(self, k):
        g2_b, g3_b = equal_squeezer_bucket(k, np.sinh(0.3) ** 2)
        est = pure_squeezer_mode_estimate(g2_b, g3_b)
        assert est.mode_count == pytest.approx(k, abs=1e-6)

    def test_formula_matches_state_engine(self):
        k, r = 3, 0.3
        z = r * np.eye(k, dtype=complex)
        params = GaussianParams(np.zeros(k), z, np.zeros((k, k)), np.zeros(k))
        obs = bucket_correlations(derive_moments(params))
        g2_b, g3_b = equal_squeezer_bucket(k, np.sinh(r) ** 2)
        assert obs.g2_b == pytest.approx(g2_b, rel=1e-12)
        assert obs.g3_b == pytest.approx(g3_b, rel=1e-12)

    def test_thermal_data_mismatch(self):
        with pytest.raises(InfeasibleError):
            pure_squeezer_mode_estimate(2.0, 6.0)

    def test_assumptions_stated(self):
        g2_b, g3_b = equal_squeezer_bucket(2, 0.1)
        est = pure_squeezer_mode_estimate(g2_b, g3_b)
        assert "equal" in est.assumptions


def test_trace_formulas_match_kernel_sum_strong_parameters(rng):
    # exact identity at any parameter strength: the trace formulas are the
    # mode-summed fourth/sixth-order decompositions
    from itertools import product

    from gausstat.words import correlation_word, gaussian_moment

    params = random_params(rng, 3, alpha_max=1.4, r_max=1.1, n_max=1.5)
    mom = derive_moments(params)
    table = mom.to_moment_table()
    obs = bucket_correlations(mom)
    t1 = mom.nbar.sum()
    s4 = sum(gaussian_moment(correlation_word((i, j)), table).real
             for i, j in product(range(3), repeat=2))
    s6 = sum(gaussian_moment(correlation_word((i, j, k)), table).real
             for i, j, k in product(range(3), repeat=3))
    assert obs.g2_b == pytest.approx(s4 / t1**2, rel=1e-11)
    assert obs.g3_b == pytest.approx(s6 / t1**3, rel=1e-11)


@pytest.mark.parametrize("modes", [1, 2, 3, 5, 8])
def test_trace_formulas_match_summed_tensors(rng, modes):
    # sum_ij g2_ij n_i n_j = g2_B T^2 and sum_ijk g3_ijk n_i n_j n_k = g3_B T^3
    from itertools import product

    from gausstat.states import g3_tensor

    params = random_params(rng, modes, alpha_max=1.4, r_max=1.1, n_max=1.5)
    mom = derive_moments(params)
    obs = bucket_correlations(mom)
    n = mom.nbar
    t1 = n.sum()
    s4 = n @ g2_tensor(mom) @ n
    g3 = g3_tensor(mom, product(range(modes), repeat=3))
    s6 = sum(val * n[i] * n[j] * n[k] for (i, j, k), val in g3.items())
    assert len(g3) == modes**3
    assert s4 == pytest.approx(obs.g2_b * t1**2, rel=1e-10)
    assert s6 == pytest.approx(obs.g3_b * t1**3, rel=1e-10)
