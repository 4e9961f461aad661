"""Spanning-tree phase reconstruction from cosine constraint systems.

The exhaustive solvers below enumerate every sign signature, as the library
did before its depth-first search; every solver call in this module runs both
and requires the same solution set.  The references drop duplicates with the
pairwise loop that ``phases._dedupe`` replaced, and require the broadcast
version to keep the same solutions in the same order.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausstat import phases
from gausstat.errors import ValidationError
from gausstat.phases import (
    COVARIANCE,
    DISPLACEMENT,
    PhaseSolution,
    PhaseSystem,
    SearchStats,
    _clamped,
    degeneracy_report,
    wrap_angle,
)


def solution_residual(system: PhaseSystem, solution: PhaseSolution) -> float:
    """Largest |c_ij - cos(...)| over all constrained ordered pairs."""
    m = system.modes
    c, phi = system.c, system.big_phi
    worst = 0.0
    for i in range(m):
        for j in range(m):
            if i == j or not np.isfinite(c[i, j]):
                continue
            if system.kind == DISPLACEMENT:
                model = np.cos(phi[i, j] + solution.phases[i] - solution.phases[j])
            else:
                theta = solution.theta
                model = np.cos(phi[i, j] + theta[i, i] - theta[i, j])
            worst = max(worst, abs(model - c[i, j]))
    return worst


def reference_dedupe(solutions, tol):
    """The former ``phases._dedupe``: one ``wrap_angle`` call per pair of solutions."""
    kept = []
    for sol in solutions:
        duplicate = False
        for other in kept:
            diff = np.abs(wrap_angle(sol.phases - other.phases)).max()
            if sol.theta is not None and other.theta is not None:
                diff = max(diff, np.abs(wrap_angle(sol.theta - other.theta)).max())
            if diff <= tol:
                duplicate = True
                break
        if not duplicate:
            kept.append(sol)
    return kept


def checked_dedupe(solutions, tol):
    """The reference's kept list, after requiring the library's to be the same."""
    kept = reference_dedupe(solutions, tol)
    assert [id(s) for s in phases._dedupe(solutions, tol)] == [id(s) for s in kept]
    return kept


def _signature_choices(ctilde, tol):
    choices = []
    for ct in ctilde:
        if not np.isfinite(ct) or min(abs(ct), abs(np.pi - ct)) <= tol:
            choices.append((1,))
        else:
            choices.append((1, -1))
    return choices


def exhaustive_displacement_phases(system, tol=1e-8):
    """Reference: try all 2^(M-1) tree-edge signatures."""
    m = system.modes
    if m == 1:
        return [PhaseSolution(np.zeros(1), ())]
    c = _clamped(system.c, tol)
    phi = system.big_phi
    ctilde = np.array([np.arccos(c[0, i]) if np.isfinite(c[0, i]) else np.nan
                       for i in range(1, m)])
    solutions = []
    for sig in product(*_signature_choices(ctilde, tol)):
        ph = np.zeros(m)
        for idx, i in enumerate(range(1, m)):
            ph[i] = phi[0, i] + sig[idx] * ctilde[idx] if np.isfinite(ctilde[idx]) else 0.0
        worst, ok = 0.0, True
        for i in range(1, m):
            for j in range(i + 1, m):
                if not np.isfinite(c[i, j]):
                    continue
                res = abs(np.cos(phi[i, j] + ph[i] - ph[j]) - c[i, j])
                worst = max(worst, res)
                ok = ok and res <= tol
        if ok:
            solutions.append(PhaseSolution(wrap_angle(ph), tuple(sig), residual=worst))
    return checked_dedupe(solutions, 10 * tol)


def _angles_close(a, b, tol):
    return abs(wrap_angle(a - b)) <= tol


def _exhaustive_offdiag(c, phi, diag, tol):
    m = diag.shape[0]
    per_pair = []
    for i in range(m):
        for j in range(i + 1, m):
            cij, cji = c[i, j], c[j, i]
            if not (np.isfinite(cij) and np.isfinite(cji)):
                per_pair.append([(i, j, 0.0, 0.0)])
                continue
            candidates = []
            tilde = np.arccos(cij)
            for s in (1, -1):
                theta_ij = phi[i, j] + diag[i] - s * tilde
                res = abs(np.cos(-phi[i, j] + diag[j] - theta_ij) - cji)
                if res <= tol:
                    candidates.append((i, j, theta_ij, res))
            if not candidates:
                return None
            if len(candidates) == 2 and _angles_close(candidates[0][2], candidates[1][2], 10 * tol):
                candidates = candidates[:1]
            per_pair.append(candidates)
    results = []
    for combo in product(*per_pair):
        theta = np.diag(diag).astype(float).copy()
        worst = 0.0
        for i, j, val, res in combo:
            theta[i, j] = theta[j, i] = val
            worst = max(worst, res)
        results.append((theta, worst))
    return results


def exhaustive_covariance_phases(system, tol=1e-8):
    """Reference: try all (eps, sigma) combinations, each with an O(M^2) pair pass."""
    m = system.modes
    if m == 1:
        return [PhaseSolution(np.zeros(1), (), epsilon=(), theta=np.zeros((1, 1)))]
    c = _clamped(system.c, tol)
    phi = system.big_phi

    def comb(i, j, eps):
        if not (np.isfinite(c[i, j]) and np.isfinite(c[j, i])):
            return np.nan
        s = (1.0 - c[i, j] ** 2) * (1.0 - c[j, i] ** 2)
        return c[i, j] * c[j, i] + eps * np.sqrt(max(s, 0.0))

    eps_choices = []
    for i in range(1, m):
        if not (np.isfinite(c[0, i]) and np.isfinite(c[i, 0])):
            eps_choices.append((1,))
        elif min(1.0 - abs(c[0, i]), 1.0 - abs(c[i, 0])) <= tol:
            eps_choices.append((1,))
        else:
            eps_choices.append((1, -1))
    solutions = []
    for eps in product(*eps_choices):
        cvals = np.array([comb(0, i, eps[i - 1]) for i in range(1, m)])
        cvals = np.where(np.isfinite(cvals), np.clip(cvals, -1.0, 1.0), np.nan)
        ctilde = np.arccos(cvals)
        for sig in product(*_signature_choices(ctilde, tol)):
            diag = np.zeros(m)
            for idx, i in enumerate(range(1, m)):
                diag[i] = (2 * phi[0, i] + sig[idx] * ctilde[idx]) if np.isfinite(ctilde[idx]) else 0.0
            for theta, worst in _exhaustive_offdiag(c, phi, diag, tol) or []:
                solutions.append(PhaseSolution(
                    wrap_angle(diag.copy()), tuple(sig), epsilon=tuple(eps),
                    theta=wrap_angle(theta), residual=worst))
    return checked_dedupe(solutions, 10 * tol)


def assert_same_solutions(got, want):
    """Equal solution sets: each solution matches one reference solution."""
    assert len(got) == len(want)
    unmatched = list(want)
    for sol in got:
        for ref in unmatched:
            if (sol.signature == ref.signature and sol.epsilon == ref.epsilon
                    and np.abs(wrap_angle(sol.phases - ref.phases)).max() <= 1e-12
                    and (sol.theta is None) == (ref.theta is None)
                    and (sol.theta is None
                         or np.abs(wrap_angle(sol.theta - ref.theta)).max() <= 1e-12)
                    and abs(sol.residual - ref.residual) <= 1e-12):
                unmatched.remove(ref)
                break
        else:
            raise AssertionError(f"solution {sol} has no match in the exhaustive set")


def _side_by_side(solve, reference):
    def checked(system, tol=1e-8, stats=None):
        got = solve(system, tol=tol, stats=stats)
        assert_same_solutions(got, reference(system, tol=tol))
        return got

    return checked


solve_displacement_phases = _side_by_side(phases.solve_displacement_phases,
                                          exhaustive_displacement_phases)
solve_covariance_phases = _side_by_side(phases.solve_covariance_phases,
                                        exhaustive_covariance_phases)


def displacement_system(phases, big_phi):
    m = len(phases)
    c = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(m):
            if i != j:
                c[i, j] = np.cos(big_phi[i, j] + phases[i] - phases[j])
    return PhaseSystem(DISPLACEMENT, big_phi, c)


def covariance_system(theta, big_phi):
    m = theta.shape[0]
    c = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(m):
            if i != j:
                c[i, j] = np.cos(big_phi[i, j] + theta[i, i] - theta[i, j])
    return PhaseSystem(COVARIANCE, big_phi, c)


def random_antisym(rng, m):
    p = rng.uniform(-np.pi, np.pi, (m, m))
    return np.triu(p, 1) - np.triu(p, 1).T


def match_mod_gauge(solution, truth, tol=1e-8):
    return np.abs(wrap_angle((solution - solution[0]) - (truth - truth[0]))).max() < tol


class TestDisplacement:
    def test_two_modes_give_two_solutions(self, rng):
        big_phi = random_antisym(rng, 2)
        truth = np.array([0.0, 1.1])
        sols = solve_displacement_phases(displacement_system(truth, big_phi))
        assert len(sols) == 2
        assert any(match_mod_gauge(s.phases, truth) for s in sols)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_generic_three_modes_unique(self, seed):
        rng = np.random.default_rng(seed)
        truth = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, 2)])
        big_phi = random_antisym(rng, 3)
        sols = solve_displacement_phases(displacement_system(truth, big_phi))
        if len(sols) != 1:  # measure-zero coincidences may legitimately double
            assert len(sols) >= 1
        assert any(match_mod_gauge(s.phases, truth) for s in sols)

    def test_gauge_shift_changes_nothing(self, rng):
        big_phi = random_antisym(rng, 4)
        truth = rng.uniform(-np.pi, np.pi, 4)
        sols_a = solve_displacement_phases(displacement_system(truth, big_phi))
        sols_b = solve_displacement_phases(displacement_system(truth + 0.77, big_phi))
        assert len(sols_a) == len(sols_b)
        for sa, sb in zip(sols_a, sols_b):
            assert np.allclose(wrap_angle(sa.phases - sb.phases), 0, atol=1e-8)

    def test_maximal_degeneracy_count(self):
        for m in (3, 4, 5, 10):
            big_phi = np.triu(np.full((m, m), np.pi / 2), 1)
            big_phi = big_phi - big_phi.T
            c = np.zeros((m, m))
            np.fill_diagonal(c, np.nan)
            sols = solve_displacement_phases(PhaseSystem(DISPLACEMENT, big_phi, c))
            assert len(sols) == 2 ** (m - 1)

    def test_engineered_pm_sigma_pair(self):
        # Phi = 0 everywhere makes the sign flip of all phases a symmetry
        truth = np.array([0.0, 0.7, -0.7])
        big_phi = np.zeros((3, 3))
        system = displacement_system(truth, big_phi)
        sols = solve_displacement_phases(system)
        assert len(sols) == 2
        notes = degeneracy_report(system, sols)
        assert any("sigma" in n for n in notes)

    def test_perturbation_lifts_degeneracy(self, rng):
        truth = np.array([0.0, 0.7, -0.7])
        big_phi = np.zeros((3, 3))
        c = displacement_system(truth, big_phi).c
        noise = rng.normal(0.0, 1e-3, c.shape)
        noise = 0.5 * (noise + noise.T)
        np.fill_diagonal(noise, 0.0)
        noisy = PhaseSystem(DISPLACEMENT, big_phi, np.clip(c + noise, -1, 1))
        sols = solve_displacement_phases(noisy, tol=1e-2)
        assert len(sols) <= 2  # strict degeneracy broken, near-duplicates merge
        sols_tight = solve_displacement_phases(noisy, tol=1e-5)
        assert len(sols_tight) <= 1

    def test_unit_cosine_collapses_branch(self):
        truth = np.array([0.0, 0.4, 1.3])
        big_phi = random_antisym(np.random.default_rng(7), 3)
        big_phi[0, 1] = -truth[1]  # makes c_12 = cos(Phi_12 - phi_2) = 1
        big_phi[1, 0] = truth[1]
        sols = solve_displacement_phases(displacement_system(truth, big_phi))
        assert any(match_mod_gauge(s.phases, truth) for s in sols)
        assert all(len(s.signature) == 2 for s in sols)

    def test_invalid_cosine_rejected(self):
        c = np.array([[np.nan, 1.5], [1.5, np.nan]])
        with pytest.raises(ValidationError):
            solve_displacement_phases(PhaseSystem(DISPLACEMENT, np.zeros((2, 2)), c))

    def test_clamp_within_tolerance(self):
        c = np.array([[np.nan, 1.0 + 1e-9], [1.0 + 1e-9, np.nan]])
        sols = solve_displacement_phases(PhaseSystem(DISPLACEMENT, np.zeros((2, 2)), c), tol=1e-8)
        assert len(sols) == 1

    def test_near_unit_cosine_signs_merge(self):
        # both signs survive the search, 6e-3 apart, within 10 tol of each other
        c = np.full((2, 2), np.cos(3e-3))
        np.fill_diagonal(c, np.nan)
        sols = solve_displacement_phases(PhaseSystem(DISPLACEMENT, np.zeros((2, 2)), c), tol=1e-3)
        assert [s.signature for s in sols] == [(1,)]

    def test_trivial_single_mode(self):
        system = PhaseSystem(DISPLACEMENT, np.zeros((1, 1)), np.full((1, 1), np.nan))
        sols = solve_displacement_phases(system)
        assert len(sols) == 1 and sols[0].phases.shape == (1,)

    def test_inconsistent_data_yields_empty(self, rng):
        big_phi = random_antisym(rng, 3)
        truth = np.array([0.0, 0.9, -1.2])
        system = displacement_system(truth, big_phi)
        c = system.c.copy()
        c[1, 2] = c[2, 1] = np.clip(c[1, 2] + 0.4, -1, 1)
        sols = solve_displacement_phases(PhaseSystem(DISPLACEMENT, big_phi, c))
        assert sols == []


class TestCovariance:
    def test_generic_three_modes_round_trip(self, rng):
        theta = rng.uniform(-np.pi, np.pi, (3, 3))
        theta = 0.5 * (theta + theta.T)
        theta -= theta[0, 0]
        big_phi = random_antisym(rng, 3)
        sols = solve_covariance_phases(covariance_system(theta, big_phi))
        assert len(sols) >= 1
        matches = [s for s in sols
                   if np.abs(wrap_angle((s.theta - s.theta[0, 0]) - theta)).max() < 1e-7]
        assert matches

    def test_two_modes_fourfold(self, rng):
        theta = rng.uniform(-np.pi, np.pi, (2, 2))
        theta = 0.5 * (theta + theta.T)
        theta -= theta[0, 0]
        big_phi = random_antisym(rng, 2)
        sols = solve_covariance_phases(covariance_system(theta, big_phi))
        assert len(sols) == 4
        for s in sols:
            system = covariance_system(theta, big_phi)
            assert solution_residual(system, s) < 1e-8

    def test_unit_modulus_collapses_epsilon(self, rng):
        theta = np.zeros((2, 2))
        theta[0, 1] = theta[1, 0] = 0.3
        theta[1, 1] = 0.8
        big_phi = np.zeros((2, 2))
        big_phi[0, 1] = -theta[0, 0] + theta[0, 1]  # c_12 = cos(0) = 1
        big_phi[1, 0] = -big_phi[0, 1]
        sols = solve_covariance_phases(covariance_system(theta, big_phi))
        assert 1 <= len(sols) < 4

    def test_every_solution_satisfies_system(self, rng):
        theta = rng.uniform(-np.pi, np.pi, (3, 3))
        theta = 0.5 * (theta + theta.T)
        big_phi = random_antisym(rng, 3)
        system = covariance_system(theta, big_phi)
        for sol in solve_covariance_phases(system):
            assert solution_residual(system, sol) < 1e-8


def test_solution_residual_reported(rng):
    big_phi = random_antisym(rng, 3)
    truth = np.array([0.0, 0.9, -1.2])
    system = displacement_system(truth, big_phi)
    for sol in solve_displacement_phases(system):
        assert solution_residual(system, sol) < 1e-10


def test_degeneracy_report_empty_for_unique(rng):
    big_phi = random_antisym(rng, 3)
    truth = np.array([0.0, 0.9, -1.2])
    system = displacement_system(truth, big_phi)
    sols = solve_displacement_phases(system)
    if len(sols) == 1:
        assert degeneracy_report(system, sols) == []


def test_degeneracy_report_tags_unit_cosine():
    # c_12 = 1 exactly: flipping sigma_2 is free in the G-condition sense
    m = 3
    big_phi = np.zeros((m, m))
    truth = np.array([0.0, 0.0, 0.6])
    system = displacement_system(truth, big_phi)
    sols = solve_displacement_phases(system)
    if len(sols) > 1:
        notes = degeneracy_report(system, sols)
        assert notes


# --- depth-first search against the exhaustive reference ----------------------

KINDS = ["generic", "unit_cosine", "nan_edges", "pm_sigma", "perturbed"]


def engineered_system(kind, m, shape, seed):
    """A displacement or covariance system of one of the KINDS, from a seed."""
    rng = np.random.default_rng(seed)
    big_phi = np.zeros((m, m)) if shape == "pm_sigma" else random_antisym(rng, m)
    if kind == DISPLACEMENT:
        truth = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, m - 1)])
        if shape == "unit_cosine":
            # c_1i = +-1 on some tree edges, c_ij = +-1 on one off-tree edge
            for i in range(1, m):
                if rng.random() < 0.5:
                    big_phi[0, i] = truth[i] + (np.pi if rng.random() < 0.5 else 0.0)
                    big_phi[i, 0] = -big_phi[0, i]
            if m > 2:
                big_phi[1, 2] = truth[2] - truth[1]
                big_phi[2, 1] = -big_phi[1, 2]
        system = displacement_system(truth, big_phi)
    else:
        theta = rng.uniform(-np.pi, np.pi, (m, m))
        theta = 0.5 * (theta + theta.T)
        theta -= theta[0, 0]
        if shape == "unit_cosine":
            for i in range(1, m):
                if rng.random() < 0.5:
                    big_phi[0, i] = theta[0, i] - theta[0, 0]  # c_1i = 1
                    big_phi[i, 0] = -big_phi[0, i]
        system = covariance_system(theta, big_phi)
    c = system.c.copy()
    if shape == "nan_edges":
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.3:
                    c[i, j] = np.nan
                    if kind == DISPLACEMENT or rng.random() < 0.5:
                        c[j, i] = np.nan
    if shape == "perturbed":
        noise = rng.normal(0.0, 1e-4, c.shape)
        c = np.clip(c + (0.5 * (noise + noise.T) if kind == DISPLACEMENT else noise), -1, 1)
    return PhaseSystem(kind, big_phi, c)


class TestDepthFirstVsExhaustive:
    """Equal solution sets on engineered systems; the module's wrappers compare."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([DISPLACEMENT, COVARIANCE]), st.integers(1, 6),
           st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-8, 1e-6, 1e-3]))
    def test_engineered_systems(self, kind, m, shape, seed, tol):
        system = engineered_system(kind, m, shape, seed)
        solve = solve_displacement_phases if kind == DISPLACEMENT else solve_covariance_phases
        solve(system, tol=tol)

    @pytest.mark.parametrize("kind", [DISPLACEMENT, COVARIANCE])
    @pytest.mark.parametrize("shape", KINDS)
    def test_every_shape_at_six_modes(self, kind, shape):
        for seed in range(3):
            system = engineered_system(kind, 6, shape, seed)
            solve = solve_displacement_phases if kind == DISPLACEMENT else solve_covariance_phases
            solve(system, tol=1e-6)

    def test_enumeration_order_kept(self):
        # _dedupe keeps the first of near-equal solutions, so the order picks the copy
        for kind, solve, reference in (
                (DISPLACEMENT, phases.solve_displacement_phases, exhaustive_displacement_phases),
                (COVARIANCE, phases.solve_covariance_phases, exhaustive_covariance_phases)):
            for shape in ("pm_sigma", "nan_edges"):
                for seed in range(20):
                    system = engineered_system(kind, 3, shape, seed)
                    assert ([(s.epsilon, s.signature) for s in solve(system)]
                            == [(s.epsilon, s.signature) for s in reference(system)])

    def test_both_branches_of_an_off_tree_pair_stand(self):
        # Theta_jj - Theta_ii - 2 Phi_ij = 0 mod pi lets both arccos branches of
        # pair (i, j) stand; each is a solution with the same (eps, sigma)
        sols = solve_covariance_phases(engineered_system(COVARIANCE, 6, "pm_sigma", 0), tol=1e-3)
        assert len(sols) == 4
        keys = [(s.epsilon, s.signature) for s in sols]
        assert len(set(keys)) < len(keys)

    def test_pm_sigma_pairs_survive(self):
        for kind, solve in ((DISPLACEMENT, solve_displacement_phases),
                            (COVARIANCE, solve_covariance_phases)):
            sols = solve(engineered_system(kind, 5, "pm_sigma", 3))
            assert len(sols) >= 2


@pytest.mark.parametrize("with_theta", [False, True])
def test_dedupe_matches_pairwise_reference_on_clusters(with_theta):
    """Clusters of near-equal solutions, some straddling +-pi, so that many are dropped."""
    rng = np.random.default_rng(41 + with_theta)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        centers = rng.uniform(-np.pi, np.pi, (int(rng.integers(1, 6)), m + m * m * with_theta))
        centers[0, 0] = np.pi - 5e-4
        jitter = rng.uniform(-1, 1, (40, centers.shape[1])) * rng.choice([3e-4, 1e-3], (40, 1))
        rows = centers[rng.integers(0, len(centers), 40)] + jitter
        solutions = [PhaseSolution(wrap_angle(r[:m]), (),
                                   theta=wrap_angle(r[m:].reshape(m, m)) if with_theta else None)
                     for r in rows]
        assert len(checked_dedupe(solutions, 1e-3)) < len(solutions)


class TestBranchCounts:
    """Generic data costs a polynomial number of branches, counted, not timed."""

    @pytest.mark.parametrize("seed", range(5))
    def test_ten_modes_generic(self, seed):
        m = 10
        for kind, solve in ((DISPLACEMENT, phases.solve_displacement_phases),
                            (COVARIANCE, phases.solve_covariance_phases)):
            stats = SearchStats()
            sols = solve(engineered_system(kind, m, "generic", seed), stats=stats)
            assert len(sols) == stats.kept == 1
            # exhaustive enumeration explores 4^9 = 262144 covariance branches
            assert stats.explored <= 4 * m * m
            assert stats.explored - stats.pruned >= m

    def test_counts_accumulate_and_add_up(self):
        stats = SearchStats()
        system = engineered_system(COVARIANCE, 4, "generic", 1)
        solve_covariance_phases(system, stats=stats)
        once = SearchStats(**vars(stats))
        solve_covariance_phases(system, stats=stats)
        assert stats == SearchStats(2 * once.explored, 2 * once.pruned, 2 * once.kept)
        assert once.pruned < once.explored

    def test_maximal_degeneracy_keeps_every_branch(self):
        m = 5
        big_phi = np.triu(np.full((m, m), np.pi / 2), 1)
        big_phi = big_phi - big_phi.T
        c = np.zeros((m, m))
        np.fill_diagonal(c, np.nan)
        stats = SearchStats()
        solve_displacement_phases(PhaseSystem(DISPLACEMENT, big_phi, c), stats=stats)
        assert stats.kept == 2 ** (m - 1)
        assert stats.pruned == 0
