"""Partition combinatorics and moment decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstat.errors import UnsupportedOrderError, ValidationError
from gausstat.states import GaussianParams, derive_moments
from gausstat.words import (
    LadderOp,
    LadderWord,
    correlation_word,
    enumerate_bipartitions_4_2,
    enumerate_pair_partitions,
    gaussian_moment,
)

W4 = LadderWord.from_spec("0+ 1+ 0- 1-")
W6 = LadderWord.from_spec("0+ 1+ 2+ 0- 1- 2-")


class TestPartitions:
    @pytest.mark.parametrize("spec,count", [("0+ 0-", 1), ("0+ 1+ 0- 1-", 3),
                                            ("0+ 1+ 2+ 0- 1- 2-", 15)])
    def test_pair_partition_counts(self, spec, count):
        assert len(enumerate_pair_partitions(LadderWord.from_spec(spec))) == count

    def test_four_word_partition_listing(self):
        parts = [p.pairs for p in enumerate_pair_partitions(W4)]
        assert parts == [(((0, 1)), ((2, 3))), (((0, 2)), ((1, 3))), (((0, 3)), ((1, 2)))]

    def test_odd_word_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            enumerate_pair_partitions(LadderWord.from_spec("0+ 0- 0-"))

    def test_order_eight_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            enumerate_pair_partitions(LadderWord.from_spec("0+ 0+ 0+ 0+ 0- 0- 0- 0-"))

    def test_bipartition_count_and_uniqueness(self):
        bps = enumerate_bipartitions_4_2(W6)
        assert len(bps) == 15
        assert len({bp.chi for bp in bps}) == 15
        assert sum(bp.chi == (4, 5) for bp in bps) == 1

    def test_every_position_in_chi_five_times(self):
        bps = enumerate_bipartitions_4_2(W6)
        for pos in range(6):
            assert sum(pos in bp.chi for bp in bps) == 5

    def test_bipartition_subsets_ordered_and_disjoint(self):
        for bp in enumerate_bipartitions_4_2(W6):
            assert list(bp.psi) == sorted(bp.psi)
            assert list(bp.chi) == sorted(bp.chi)
            assert set(bp.psi) | set(bp.chi) == set(range(6))

    def test_bipartition_needs_six_word(self):
        with pytest.raises(UnsupportedOrderError):
            enumerate_bipartitions_4_2(W4)

    def test_enumeration_is_deterministic(self):
        a = [p.pairs for p in enumerate_pair_partitions(W6)]
        b = [p.pairs for p in enumerate_pair_partitions(W6)]
        assert a == b


def thermal_second_moment(op1: LadderOp, op2: LadderOp, occupations: np.ndarray) -> complex:
    """Second moment <op1 op2> of an uncorrelated thermal state.

    <a_i† a_j> = δ_ij N_i, <a_i a_j†> = δ_ij (N_i + 1), <aa> = <a†a†> = 0.
    """
    if op1.mode != op2.mode or op1.creation == op2.creation:
        return 0.0 + 0.0j
    n = float(occupations[op1.mode])
    if n < 0:
        raise ValidationError("thermal occupation must be nonnegative")
    return complex(n) if op1.creation else complex(n + 1.0)


def thermal_moment(word: LadderWord, occupations: np.ndarray) -> complex:
    """Moment of an arbitrary ladder word in an uncorrelated thermal state, the
    reference for ``gaussian_moment`` at thermal parameters.

    Odd words vanish; even words are the sum over all pair partitions of
    products of thermal second moments.
    """
    occupations = np.asarray(occupations, dtype=float)
    if len(word) % 2 == 1:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for part in enumerate_pair_partitions(word):
        term = 1.0 + 0.0j
        for a, b in part.pairs:
            term *= thermal_second_moment(word.ops[a], word.ops[b], occupations)
            if term == 0:
                break
        total += term
    return total


class TestThermalMoments:
    def test_matched_pair(self):
        occ = np.array([0.7])
        assert thermal_second_moment(LadderOp(0, True), LadderOp(0, False), occ) == 0.7

    def test_antinormal_pair_picks_up_commutator(self):
        occ = np.array([0.7])
        assert thermal_second_moment(LadderOp(0, False), LadderOp(0, True), occ) == pytest.approx(1.7)

    def test_unmatched_modes_vanish(self):
        occ = np.array([0.7, 0.3])
        assert thermal_second_moment(LadderOp(0, False), LadderOp(1, False), occ) == 0

    def test_odd_word_vanishes(self):
        occ = np.array([0.9])
        assert thermal_moment(LadderWord.from_spec("0+ 0- 0-"), occ) == 0

    def test_distinct_triple(self):
        occ = np.array([0.2, 0.5, 0.9])
        val = thermal_moment(correlation_word((0, 1, 2)), occ)
        assert val == pytest.approx(0.2 * 0.5 * 0.9)

    def test_same_mode_factorial_moment(self):
        occ = np.array([0.31])
        val = thermal_moment(correlation_word((0, 0, 0)), occ)
        assert val == pytest.approx(6 * 0.31**3)
        val4 = thermal_moment(correlation_word((0, 0)), occ)
        assert val4 == pytest.approx(2 * 0.31**2)


def moments_table(params):
    return derive_moments(params).to_moment_table()


class TestGaussianMoments:
    def test_vacuum_vanishes(self):
        table = moments_table(GaussianParams.vacuum(2))
        for spec in ("0-", "0+ 1-", "0+ 1+ 0- 1-", "0+ 1+ 1+ 0- 1- 1-"):
            assert gaussian_moment(LadderWord.from_spec(spec), table) == pytest.approx(0)

    def test_coherent_fourth_moment(self):
        alpha = 0.4 * np.exp(0.3j)
        table = moments_table(GaussianParams.single_mode(alpha=alpha))
        val = gaussian_moment(correlation_word((0, 0)), table)
        assert val == pytest.approx(abs(alpha) ** 4)

    def test_squeezed_thermal_sixth_moment_matches_closed_form(self):
        # independent oracle: g3 = 9 g2 - 12 with g2 = 2 + |cov|^2 / nbar^2
        r, occ = 0.5, 0.2
        nbar = np.sinh(r) ** 2 + occ * np.cosh(2 * r)
        cov = (2 * occ + 1) * np.sinh(r) * np.cosh(r)
        g2 = 2 + cov**2 / nbar**2
        expected = (9 * g2 - 12) * nbar**3
        table = moments_table(GaussianParams.single_mode(r=r, occupation=occ))
        val = gaussian_moment(correlation_word((0, 0, 0)), table)
        assert val.real == pytest.approx(expected, rel=1e-12)
        assert (9 * g2 - 12) == pytest.approx(24.0955920032, abs=1e-9)

    def test_order_five_rejected(self):
        table = moments_table(GaussianParams.vacuum(1))
        with pytest.raises(UnsupportedOrderError):
            gaussian_moment(LadderWord.from_spec("0+ 0+ 0- 0- 0-"), table)

    def test_all_thermal_params_reduce_to_thermal_moment(self, rng):
        occ = rng.uniform(0.0, 1.0, 3)
        params = GaussianParams(np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3)), occ)
        table = moments_table(params)
        for spec in ("0+ 1+ 0- 1-", "0+ 0+ 0- 0-", "0+ 1+ 2+ 0- 1- 2-",
                     "0- 0+ 1+ 1- 2+ 2-"):
            word = LadderWord.from_spec(spec)
            assert gaussian_moment(word, table) == pytest.approx(thermal_moment(word, occ))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4, 6]))
    def test_hermiticity(self, seed, order):
        from conftest import random_params

        rng = np.random.default_rng(seed)
        params = random_params(rng, 2, alpha_max=0.6, r_max=0.5, n_max=0.4)
        table = moments_table(params)
        ops = tuple(LadderOp(int(rng.integers(0, 2)), bool(rng.integers(0, 2)))
                    for _ in range(order))
        word = LadderWord(ops)
        left = gaussian_moment(word.dagger(), table)
        right = np.conj(gaussian_moment(word, table))
        assert left == pytest.approx(right, abs=1e-10)

    def test_zero_displacement_reduces_to_pair_sum(self, rng):
        from conftest import random_params

        params = random_params(rng, 2, alpha_max=0.0)
        table = moments_table(params)
        word = LadderWord.from_spec("0+ 1+ 0- 1- 0+ 0-")
        total = 0.0 + 0.0j
        for part in enumerate_pair_partitions(word):
            term = 1.0 + 0.0j
            for a, b in part.pairs:
                term *= table.second(word.ops[a], word.ops[b])
            total += term
        assert gaussian_moment(word, table) == pytest.approx(total)
