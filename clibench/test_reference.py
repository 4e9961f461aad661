"""Tests of the benchmark's reference model.

    python3 -m pytest clibench/test_reference.py -q

Analytic g2, g3 and p0 of coherent, thermal and squeezed-vacuum states, and
the truncated-Fock oracle at small cutoffs on random states.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from inputs import random_params  # noqa: E402
from reference import RefState, multiplicity, sorted_triples  # noqa: E402


def single(alpha=0.0, r=0.0, theta=0.0, occ=0.0):
    return RefState([alpha], [[r * np.exp(1j * theta)]], [[0.0]], [occ])


@pytest.mark.parametrize("alpha", [0.3, 1.1 * np.exp(0.7j), -2.0j])
def test_coherent(alpha):
    ref = single(alpha=alpha)
    assert ref.nbar()[0] == pytest.approx(abs(alpha) ** 2)
    assert ref.g2()[0, 0] == pytest.approx(1.0)
    assert ref.g3()[(0, 0, 0)] == pytest.approx(1.0)
    assert ref.p0()[0] == pytest.approx(np.exp(-abs(alpha) ** 2))


@pytest.mark.parametrize("occ", [0.05, 0.4, 2.5])
def test_thermal(occ):
    ref = single(occ=occ)
    assert ref.nbar()[0] == pytest.approx(occ)
    assert ref.g2()[0, 0] == pytest.approx(2.0)
    assert ref.g3()[(0, 0, 0)] == pytest.approx(6.0)
    assert ref.p0()[0] == pytest.approx(1.0 / (1.0 + occ))


@pytest.mark.parametrize("r,theta", [(0.2, 0.0), (0.6, 1.3), (1.1, -2.0)])
def test_squeezed_vacuum(r, theta):
    ref = single(r=r, theta=theta)
    s2 = np.sinh(r) ** 2
    assert ref.nbar()[0] == pytest.approx(s2)
    assert ref.g2()[0, 0] == pytest.approx(3.0 + 1.0 / s2)
    assert ref.g3()[(0, 0, 0)] == pytest.approx(15.0 + 9.0 / s2)
    assert ref.p0()[0] == pytest.approx(1.0 / np.cosh(r))


def test_independent_thermal_modes():
    ref = RefState(np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3)), [0.2, 0.5, 1.0])
    g2 = ref.g2()
    assert np.allclose(g2, np.where(np.eye(3, dtype=bool), 2.0, 1.0))
    assert ref.g3()[(0, 1, 2)] == pytest.approx(1.0)
    assert ref.g3()[(0, 0, 1)] == pytest.approx(2.0)


def test_bucket_sums_multiplicities():
    assert sum(multiplicity(t) for t in sorted_triples(4)) == 4**3
    ref = RefState(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), [0.3, 0.3])
    g2b, g3b, total = ref.bucket()
    # two equal thermal modes: total count is negative binomial with 2 modes
    assert total == pytest.approx(0.6)
    assert g2b == pytest.approx(1.5)
    assert g3b == pytest.approx(3.0)


@pytest.mark.parametrize("modes,cutoff,seed", [(1, 40, 1), (1, 40, 2), (2, 16, 3), (2, 16, 4)])
def test_against_fock_oracle(modes, cutoff, seed):
    from gausstat import fock
    from gausstat.states import GaussianParams
    from gausstat.words import LadderWord

    rng = np.random.default_rng(seed)
    alpha, z, phi, occ = random_params(rng, modes, alpha_max=0.4, r_max=0.3, n_max=0.2)
    ref = RefState(alpha, z, phi, occ)
    rho = fock.build_density(GaussianParams(alpha, z, phi, occ), cutoff=cutoff)
    nbar = ref.nbar()
    for i in range(modes):
        direct = fock.moment_bruteforce(rho, LadderWord.from_spec(f"{i}+ {i}-")).real
        assert nbar[i] == pytest.approx(direct, abs=1e-8)
        dist = fock.photon_number_distribution(rho, i)
        assert ref.p0()[i] == pytest.approx(dist[0], abs=1e-8)
    g2 = ref.g2()
    for i in range(modes):
        for j in range(i, modes):
            word = LadderWord.from_spec(f"{i}+ {j}+ {i}- {j}-")
            direct = fock.moment_bruteforce(rho, word).real / (nbar[i] * nbar[j])
            assert g2[i, j] == pytest.approx(direct, rel=1e-6)
    for (i, j, k), value in ref.g3().items():
        word = LadderWord.from_spec(f"{i}+ {j}+ {k}+ {i}- {j}- {k}-")
        direct = fock.moment_bruteforce(rho, word).real / (nbar[i] * nbar[j] * nbar[k])
        assert value == pytest.approx(direct, rel=1e-5)
