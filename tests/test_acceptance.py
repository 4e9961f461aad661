"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Oracle-backed criteria sample random states inside the stated parameter caps
and additionally gate each state on the oracle's own validity: truncated
squeeze/displacement unitaries stay exactly unitary, so convergence is judged
by the measured top-level Fock occupancy (per cutoff, calibrated so that the
induced truncation error sits an order of magnitude below the 1e-6 budget).
States outside the validity envelope are rescaled, never asserted against an
unconverged oracle.
"""

import time

import numpy as np
from conftest import (
    assert_no_sign_copies,
    random_hermitian,
    random_params,
    random_symmetric,
    scale_params,
)

from gausstat.bucket import bucket_correlations, equal_squeezer_bucket, \
    pure_squeezer_mode_estimate
from gausstat.classify import (
    MeasurementSet,
    classify,
    classify_single_mode,
    synthesize_measurements,
)
from gausstat.errors import TruncationError
from gausstat.fock import DEFAULT_CUTOFFS, build_density, moment_bruteforce, \
    total_number_factorial_moment
from gausstat.phases import (
    DISPLACEMENT,
    PhaseSystem,
    solve_displacement_phases,
    wrap_angle,
)
from gausstat.recon_multi import (
    ComplexCovariance,
    complex_to_real_cov,
    measurement_residual,
    recon_displaced_squeezed_multi,
    recon_displaced_thermal_multi,
    recon_squeezed_thermal_multi,
    symplectic_form,
    williamson,
)
from gausstat.recon_single import (
    recon_displaced_thermal,
    recon_displaced_thermal_click,
    recon_dst_scan,
    recon_squeezed_thermal,
    recon_squeezed_thermal_click,
)
from gausstat.states import (
    GaussianParams,
    apply_uniform_loss,
    balanced_beamsplitter_duplicate,
    derive_moments,
    g2_tensor,
    g3_tensor,
    g3_value,
    no_click_probability_single,
    single_mode_g2_g3,
)
from gausstat.words import (
    LadderOp,
    LadderWord,
    correlation_word,
    enumerate_bipartitions_4_2,
    enumerate_pair_partitions,
    gaussian_moment,
)

# measured per cutoff over g3 and random-kind 6-words: sixth-moment truncation
# error stays below ~4000x (d=25), ~3000x (d=12), ~25x (d=8) the top-level
# occupancy; these gates keep it an order of magnitude under the 1e-6 budget
TAIL_GATE = {25: 1e-11, 12: 3e-11, 8: 1e-9}
PRESCALE = {1: 0.7, 2: 0.3, 3: 0.12}


def report(criterion: str, passed: bool = True):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


def valid_oracle_state(rng, modes, cutoff):
    """Random state within the caps, rescaled into the oracle validity envelope."""
    params = scale_params(random_params(rng, modes, alpha_max=0.8, r_max=0.7,
                                        n_max=0.5), PRESCALE[modes])
    for _ in range(16):
        try:
            rho = build_density(params, cutoff=cutoff, tail_tol=1.0)
        except TruncationError:
            params = scale_params(params, 0.5)
            continue
        if rho.tail_mass <= TAIL_GATE[cutoff] and rho.deficit <= TAIL_GATE[cutoff]:
            return params, rho
        params = scale_params(params, 0.55)
    raise RuntimeError("could not reach the oracle validity envelope")


def bucket_oracle_state(rng, modes, cutoff):
    """Displacement-dominated state: converged oracle at order-one total nbar."""
    while True:
        amp = rng.uniform(0.4, 0.7, modes)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
        z = random_symmetric(rng, modes, rng.uniform(0.02, 0.09))
        phi = random_hermitian(rng, modes, 0.5)
        occ = rng.uniform(0.0, 0.08, modes)
        params = GaussianParams(alpha, z, phi, occ)
        rho = build_density(params, cutoff=cutoff, tail_tol=1.0)
        if rho.tail_mass <= TAIL_GATE[cutoff] and rho.deficit <= TAIL_GATE[cutoff]:
            return params, rho


def random_word(rng, modes, length=6):
    ops = tuple(LadderOp(int(rng.integers(0, modes)), bool(rng.integers(0, 2)))
                for _ in range(length))
    return LadderWord(ops)


def test_criterion_1_sixth_order_decomposition():
    """Every checked 6-word moment matches the Fock oracle to relative 1e-6."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    counts = {1: 100, 2: 60, 3: 40}
    total_states = 0
    worst = 0.0
    for modes, n_states in counts.items():
        cutoff = DEFAULT_CUTOFFS[modes]
        for _ in range(n_states):
            params, rho = valid_oracle_state(rng, modes, cutoff)
            table = derive_moments(params).to_moment_table()
            words = [correlation_word((i, j, k))
                     for i in range(modes) for j in range(i, modes)
                     for k in range(j, modes)]
            words += [random_word(rng, modes) for _ in range(3)]
            for word in words:
                direct = moment_bruteforce(rho, word)
                closed = gaussian_moment(word, table)
                rel = abs(direct - closed) / (1.0 + abs(direct))
                worst = max(worst, rel)
                assert rel < 1e-6, f"{word}: rel err {rel:.2e} on {modes}-mode state"
            total_states += 1
    elapsed = time.time() - t0
    assert total_states >= 200
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s"
    report(f"1 sixth-order decomposition ({total_states} states, "
           f"worst rel err {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_2_partition_counts():
    """Exactly 1/3/15 pair partitions for orders 2/4/6 and 15 bipartitions."""
    assert len(enumerate_pair_partitions(LadderWord.from_spec("0+ 0-"))) == 1
    assert len(enumerate_pair_partitions(LadderWord.from_spec("0+ 1+ 0- 1-"))) == 3
    six = LadderWord.from_spec("0+ 1+ 2+ 0- 1- 2-")
    assert len(enumerate_pair_partitions(six)) == 15
    assert len(enumerate_bipartitions_4_2(six)) == 15
    report("2 partition counts (1/3/15 and 15)")


def test_criterion_3_single_mode_relations():
    """Sector relations hold to 1e-10 on parameter grids."""
    worst_nd = 0.0
    for r in np.linspace(0.05, 1.5, 8):
        for occ in np.linspace(0.0, 1.0, 5):
            for theta in np.linspace(0.0, 2 * np.pi, 6, endpoint=False):
                g2, g3 = single_mode_g2_g3(
                    GaussianParams.single_mode(r=r, theta=theta, occupation=occ))
                worst_nd = max(worst_nd, abs(g3 - (9 * g2 - 12)))
    assert worst_nd < 1e-10
    worst_ns = 0.0
    for amp in np.linspace(0.05, 2.0, 8):
        for occ in np.linspace(0.0, 1.0, 5):
            g2, g3 = single_mode_g2_g3(
                GaussianParams.single_mode(alpha=amp, occupation=occ))
            worst_ns = max(worst_ns, abs(g3 - (9 * g2 - 12 + 4 * (2 - g2) ** 1.5)))
    assert worst_ns < 1e-10
    assert 9 * 3.0 - 12 == 15.0  # spot value on the non-displaced line
    report(f"3 single-mode relations (residuals {worst_nd:.1e}, {worst_ns:.1e})")


def _single_mode_observables(params):
    mom = derive_moments(params)
    return (float(g2_tensor(mom)[0, 0]), g3_value(mom, 0, 0, 0),
            float(mom.nbar[0]), no_click_probability_single(params))


def test_criterion_4_reconstruction_round_trips():
    """All reconstruction routines recover parameters and observables."""
    rng = np.random.default_rng(404)
    t0 = time.time()

    # single-mode squeezed thermal, nbar and click variants
    for _ in range(10):
        r0, n0 = rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.8)
        g2, g3, nbar, p0 = _single_mode_observables(
            GaussianParams.single_mode(r=r0, occupation=n0))
        r, occ = recon_squeezed_thermal(g2, nbar)
        assert abs(r - r0) < 1e-7 and abs(occ - n0) < 1e-7
        r, occ = recon_squeezed_thermal_click(g2, p0)[0]
        assert abs(r - r0) < 1e-7 and abs(occ - n0) < 1e-7
        back = GaussianParams.single_mode(r=r, occupation=occ)
        g2b, g3b, nbarb, p0b = _single_mode_observables(back)
        assert max(abs(g2b - g2), abs(g3b - g3), abs(nbarb - nbar), abs(p0b - p0)) < 1e-8

    # single-mode displaced thermal, nbar and click variants
    for _ in range(10):
        a0, n0 = rng.uniform(0.1, 1.0), rng.uniform(0.01, 0.8)
        g2, g3, nbar, p0 = _single_mode_observables(
            GaussianParams.single_mode(alpha=a0, occupation=n0))
        aa, occ = recon_displaced_thermal(g2, nbar)
        assert abs(aa - a0) < 1e-7 and abs(occ - n0) < 1e-7
        aa, occ = recon_displaced_thermal_click(g2, p0)
        assert abs(aa - a0) < 1e-7 and abs(occ - n0) < 1e-7
        back = GaussianParams.single_mode(alpha=aa, occupation=occ)
        g2b, g3b, nbarb, _ = _single_mode_observables(back)
        assert max(abs(g2b - g2), abs(g3b - g3), abs(nbarb - nbar)) < 1e-8

    # single-mode displaced squeezed: phase scan
    a0, r0, n0 = 0.3, 0.4, 0.1
    deltas = [0.2, 0.2 + np.pi / 3, 0.2 + 2 * np.pi / 3]
    pts = []
    for delta in deltas:
        pts.append(single_mode_g2_g3(GaussianParams.single_mode(
            alpha=a0 * np.exp(0.5j * delta), r=r0, occupation=n0)))
    nbar0 = derive_moments(GaussianParams.single_mode(alpha=a0, r=r0,
                                                      occupation=n0)).nbar[0]
    scan = recon_dst_scan(np.array(pts), nbar=nbar0, phase_steps=np.diff(deltas))
    assert abs(scan.alpha_abs - a0) < 1e-7
    assert abs(scan.r - r0) < 1e-7 and abs(scan.occupation - n0) < 1e-7
    assert scan.z2_resolved

    # single-mode displaced squeezed: beam-splitter scheme with Z2 flag
    params = GaussianParams.single_mode(alpha=0.3 * np.exp(0.7j), r=0.4,
                                        theta=0.2, occupation=0.1)
    plus, minus = balanced_beamsplitter_duplicate(params)
    m_minus = synthesize_measurements(derive_moments(minus))
    g2o, g3o, nbo, _ = _single_mode_observables(params)
    for ref_port, ref_state in (("orig", params), ("plus", plus)):
        m_ref = synthesize_measurements(derive_moments(ref_state))
        rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port=ref_port, tol=1e-8)
        assert rec.ambiguity.z2_reflection
        assert_no_sign_copies(rec)
        assert abs(abs(rec.params.alpha[0]) - 0.3) < 1e-7
        g2r, g3r, nbr, _ = _single_mode_observables(rec.params)
        assert max(abs(g2r - g2o), abs(g3r - g3o), abs(nbr - nbo)) < 1e-8

    # multimode displaced thermal (3-mode unique, 2-mode Z2 pair)
    def dt_params(modes):
        amp = rng.uniform(0.25, 0.7, modes)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
        return GaussianParams(alpha, np.zeros((modes, modes)),
                              random_hermitian(rng, modes, 0.8),
                              rng.uniform(0.1, 0.5, modes) * (1 + np.arange(modes)))

    for _ in range(3):
        params = dt_params(3)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_thermal_multi(m)
        assert measurement_residual(rec.params, m) < 1e-8
        assert np.abs(np.abs(rec.params.alpha) - np.abs(params.alpha)).max() < 1e-7
        assert np.abs(np.sort(rec.params.thermal) - np.sort(params.thermal)).max() < 1e-7
    m2 = synthesize_measurements(derive_moments(dt_params(2)))
    rec2 = recon_displaced_thermal_multi(m2)
    assert 1 + len(rec2.ambiguity.discrete_solutions) == 2
    for alt in rec2.ambiguity.discrete_solutions:
        assert measurement_residual(alt, m2) < 1e-8

    # multimode squeezed thermal (3-mode unique, 2-mode four-fold)
    def st_params(modes):
        return GaussianParams(np.zeros(modes),
                              random_symmetric(rng, modes, rng.uniform(0.3, 0.5)),
                              random_hermitian(rng, modes, 0.8),
                              rng.uniform(0.05, 0.4, modes) * (1 + np.arange(modes)))

    for _ in range(3):
        params = st_params(3)
        m = synthesize_measurements(derive_moments(params))
        rec = recon_squeezed_thermal_multi(m)
        assert measurement_residual(rec.params, m) < 1e-8
        assert np.abs(np.sort(rec.params.thermal) - np.sort(params.thermal)).max() < 1e-7
        mom_t, mom_r = derive_moments(params), derive_moments(rec.params)
        assert np.abs(np.abs(mom_r.cov) - np.abs(mom_t.cov)).max() < 1e-7
    m2 = synthesize_measurements(derive_moments(st_params(2)))
    rec2 = recon_squeezed_thermal_multi(m2)
    assert 1 + len(rec2.ambiguity.discrete_solutions) == 4
    for alt in rec2.ambiguity.discrete_solutions:
        assert measurement_residual(alt, m2) < 1e-7

    # multimode displaced squeezed via beam splitter
    def dst_params(modes):
        amp = rng.uniform(0.25, 0.6, modes)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
        return GaussianParams(alpha, random_symmetric(rng, modes, rng.uniform(0.3, 0.45)),
                              random_hermitian(rng, modes, 0.7),
                              rng.uniform(0.05, 0.35, modes) * (1 + np.arange(modes)))

    for modes in (2, 3):
        params = dst_params(modes)
        plus, minus = balanced_beamsplitter_duplicate(params)
        m_minus = synthesize_measurements(derive_moments(minus))
        m_ref = synthesize_measurements(derive_moments(params))
        rec = recon_displaced_squeezed_multi(m_minus, m_ref, ref_port="orig")
        assert measurement_residual(rec.params, m_ref) < 1e-8
        zero = GaussianParams(np.zeros(modes), rec.params.squeeze,
                              rec.params.rotation, rec.params.thermal)
        assert measurement_residual(zero, m_minus) < 1e-8
        assert_no_sign_copies(rec)
    elapsed = time.time() - t0
    assert elapsed < 600
    report(f"4 reconstruction round-trips ({elapsed:.0f}s)")


def test_criterion_5_williamson_invariants():
    """500 random physical covariance matrices decompose to stated tolerances."""
    rng = np.random.default_rng(505)
    count = 0
    for _ in range(500):
        modes = int(rng.integers(1, 4))
        params = random_params(rng, modes, alpha_max=0.0, r_max=0.9, n_max=1.0)
        v = complex_to_real_cov(ComplexCovariance.from_moments(derive_moments(params)))
        res = williamson(v)
        omega = symplectic_form(modes)
        assert np.abs(res.S @ omega @ res.S.T - omega).max() < 1e-9
        dd = np.diag(np.concatenate([res.D, res.D]))
        assert np.abs(res.S @ dd @ res.S.T - v).max() < 1e-8
        assert res.D.min() >= 0.5 - 1e-10
        count += 1
    assert count == 500
    report("5 williamson invariants (500 states)")


def test_criterion_6_phase_graph():
    """Generic uniqueness, engineered multiplicities, perturbation collapse."""
    rng = np.random.default_rng(606)
    for modes in (3, 4, 5):
        for _ in range(100):
            truth = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, modes - 1)])
            big_phi = rng.uniform(-np.pi, np.pi, (modes, modes))
            big_phi = np.triu(big_phi, 1) - np.triu(big_phi, 1).T
            c = np.full((modes, modes), np.nan)
            for i in range(modes):
                for j in range(modes):
                    if i != j:
                        c[i, j] = np.cos(big_phi[i, j] + truth[i] - truth[j])
            sols = solve_displacement_phases(
                PhaseSystem(DISPLACEMENT, big_phi, c), tol=1e-8)
            assert len(sols) == 1
            diff = wrap_angle(sols[0].phases - truth)
            assert np.abs(diff - diff[0]).max() < 1e-8

    # engineered +-sigma pair: Phi = 0 with mirrored truth phases
    truth = np.array([0.0, 0.7, -0.7])
    big_phi = np.zeros((3, 3))
    c = np.cos(truth[None, :] - truth[:, None])  # cos(phi_i - phi_j), Phi = 0
    np.fill_diagonal(c, np.nan)
    pair_system = PhaseSystem(DISPLACEMENT, big_phi, c)
    assert len(solve_displacement_phases(pair_system)) == 2

    # maximal degeneracy: c = 0 with Gamma = pi/2 on every edge
    for modes in (3, 4, 5):
        big_phi = np.triu(np.full((modes, modes), np.pi / 2), 1)
        big_phi = big_phi - big_phi.T
        c = np.zeros((modes, modes))
        np.fill_diagonal(c, np.nan)
        sols = solve_displacement_phases(PhaseSystem(DISPLACEMENT, big_phi, c))
        assert len(sols) == 2 ** (modes - 1)

    # perturbation lifts the engineered degeneracy
    noise = np.random.default_rng(7).normal(0.0, 1e-3, (3, 3))
    noise = 0.5 * (noise + noise.T)
    np.fill_diagonal(noise, 0.0)
    noisy_c = np.clip(pair_system.c + noise, -1, 1)
    zero_phi = np.zeros((3, 3))
    sols = solve_displacement_phases(PhaseSystem(DISPLACEMENT, zero_phi, noisy_c),
                                     tol=1e-2)
    distinct = {tuple(np.round(s.phases, 4)) for s in sols}
    assert len(distinct) <= 2  # the two branches persist only as near-duplicates
    sols_tight = solve_displacement_phases(
        PhaseSystem(DISPLACEMENT, zero_phi, noisy_c), tol=1e-5)
    assert len(sols_tight) <= 1
    report("6 phase-graph solver (300 generic systems, degeneracies, perturbation)")


def test_criterion_7_loss_invariance():
    """g2/g3 and sector survive loss; loss-sensitive reconstructions track it."""
    rng = np.random.default_rng(707)
    makers = [
        lambda m: GaussianParams(
            rng.uniform(0.2, 0.6, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m)),
            np.zeros((m, m)), random_hermitian(rng, m, 0.8), rng.uniform(0.1, 0.5, m)),
        lambda m: GaussianParams(
            np.zeros(m), random_symmetric(rng, m, rng.uniform(0.25, 0.5)),
            random_hermitian(rng, m, 0.8), rng.uniform(0.05, 0.4, m)),
        lambda m: GaussianParams(
            rng.uniform(0.2, 0.5, m) * np.exp(1j * rng.uniform(-np.pi, np.pi, m)),
            random_symmetric(rng, m, rng.uniform(0.2, 0.4)),
            random_hermitian(rng, m, 0.6), rng.uniform(0.05, 0.3, m)),
    ]
    checked = 0
    for k in range(50):
        modes = int(rng.integers(1, 4))
        params = makers[k % 3](modes)
        mom = derive_moments(params)
        g2 = g2_tensor(mom)
        g3 = g3_tensor(mom)
        base_sector = classify(synthesize_measurements(mom)).sector
        for eta in (0.5, 0.1):
            lossy = apply_uniform_loss(mom, eta)
            assert np.abs(g2_tensor(lossy) - g2).max() < 1e-9
            lossy_g3 = g3_tensor(lossy)
            assert max(abs(lossy_g3[key] - val) for key, val in g3.items()) < 1e-9
            assert classify(synthesize_measurements(lossy)).sector == base_sector
        checked += 1
    assert checked == 50

    # loss-sensitive side: reconstruction tracks the lossy state, not the source
    params = GaussianParams.single_mode(r=0.5, occupation=0.2)
    mom = derive_moments(params)
    g2 = float(g2_tensor(mom)[0, 0])
    for eta in (0.5, 0.1):
        lossy = apply_uniform_loss(mom, eta)
        r_eta, occ_eta = recon_squeezed_thermal(g2, float(lossy.nbar[0]))
        assert abs(r_eta - 0.5) > 1e-3 and abs(occ_eta - 0.2) > 1e-3
        back = derive_moments(GaussianParams.single_mode(r=r_eta, occupation=occ_eta))
        assert abs(back.nbar[0] - lossy.nbar[0]) < 1e-9
        assert abs(float(g2_tensor(back)[0, 0]) - g2) < 1e-9
    report("7 loss invariance (50 states, eta in {0.5, 0.1})")


def test_criterion_8_bucket():
    """Bucket bounds, oracle agreement, and equal-squeezer mode counting."""
    rng = np.random.default_rng(808)
    for _ in range(1000):
        modes = int(rng.integers(1, 4))
        amp = rng.uniform(0.0, 1.0, modes)
        alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
        occ = rng.uniform(0.0, 1.2, modes)
        if occ.sum() + (amp**2).sum() < 1e-6:
            continue
        params = GaussianParams(alpha, np.zeros((modes, modes)),
                                random_hermitian(rng, modes, rng.uniform(0, 1.5)), occ)
        obs = bucket_correlations(derive_moments(params))
        assert 1.0 - 1e-9 <= obs.g2_b <= 2.0 + 1e-9
    for _ in range(1000):
        modes = int(rng.integers(1, 4))
        params = GaussianParams(np.zeros(modes),
                                random_symmetric(rng, modes, rng.uniform(0.05, 0.8)),
                                random_hermitian(rng, modes, rng.uniform(0, 1.5)),
                                rng.uniform(0.0, 1.0, modes))
        obs = bucket_correlations(derive_moments(params))
        assert obs.g2_b >= 1.0 - 1e-9

    for modes in (1, 2):
        for _ in range(3):
            params, rho = bucket_oracle_state(rng, modes, DEFAULT_CUTOFFS[modes])
            obs = bucket_correlations(derive_moments(params))
            t1 = total_number_factorial_moment(rho, 1)
            assert abs(obs.g2_b - total_number_factorial_moment(rho, 2) / t1**2) < 1e-6
            assert abs(obs.g3_b - total_number_factorial_moment(rho, 3) / t1**3) < 1e-6

    for k in range(1, 9):
        g2_b, g3_b = equal_squeezer_bucket(k, np.sinh(0.3) ** 2)
        est = pure_squeezer_mode_estimate(g2_b, g3_b)
        assert abs(est.mode_count - k) < 1e-6
    report("8 bucket bounds, oracle agreement, mode counting")


def test_criterion_9_non_gaussian_counterexample():
    """The Fock mixture (g2, g3) = (4/3, 0) satisfies the relation, evidence only."""
    m = MeasurementSet(1, g2=np.array([[4.0 / 3.0]]), g3={(0, 0, 0): 0.0})
    verdict = classify_single_mode(m)
    assert verdict.sector == "NonDisplaced"
    assert verdict.residual("non-displaced: g3 = 9 g2 - 12") < 1e-12
    assert any("evidence only" in note for note in verdict.notes)
    report("9 non-Gaussian counterexample flagged evidence-only")
