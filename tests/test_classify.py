"""Sector classification from correlation data."""

import dataclasses
import json

import numpy as np
import pytest
from conftest import random_hermitian, random_symmetric
from scipy.optimize import minimize

from gausstat import classify as classify_module
from gausstat.classify import (
    COHERENT_LIKE,
    DISPLACED_SQUEEZED,
    EVIDENCE_CAVEAT,
    INCONSISTENT,
    NON_DISPLACED,
    NON_SQUEEZED,
    THERMAL_LIKE,
    MeasurementSet,
    classify,
    classify_multimode,
    classify_single_mode,
    displaced_squeezed_feasibility,
    synthesize_measurements,
    _covariance_q,
    _extract_nd_cosines,
    _extract_ns_cosines,
    _g3_misfits,
    _mirrored,
    _tolerance,
)
from gausstat.errors import InsufficientDataError, ValidationError
from gausstat.serialize import classification_to_json
from gausstat.states import (
    GaussianParams,
    apply_uniform_loss,
    derive_moments,
    single_mode_g2_g3,
)


def single_mode_set(g2, g3, nbar=None, sigma=None):
    return MeasurementSet(1, nbar=None if nbar is None else [nbar],
                          g2=np.array([[g2]]), g3={(0, 0, 0): g3}, sigma=sigma or {})


def displaced_thermal_params(rng, modes):
    amp = rng.uniform(0.2, 0.6, modes)
    alpha = amp * np.exp(1j * rng.uniform(-np.pi, np.pi, modes))
    phi = random_hermitian(rng, modes, 0.8)
    occ = rng.uniform(0.1, 0.5, modes)
    return GaussianParams(alpha, np.zeros((modes, modes)), phi, occ)


def squeezed_thermal_params(rng, modes):
    z = random_symmetric(rng, modes, rng.uniform(0.25, 0.5))
    phi = random_hermitian(rng, modes, 0.8)
    occ = rng.uniform(0.05, 0.4, modes)
    return GaussianParams(np.zeros(modes), z, phi, occ)


def g2_g3_nbar(params):
    g2, g3 = single_mode_g2_g3(params)
    return g2, g3, float(derive_moments(params).nbar[0])


def random_displaced_squeezed(rng):
    """(g2, g3, nbar) of a random single-mode displaced squeezed thermal state."""
    alpha = rng.uniform(0.05, 2.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return g2_g3_nbar(GaussianParams.single_mode(alpha, rng.uniform(0.05, 1.2),
                                                 rng.uniform(-np.pi, np.pi),
                                                 rng.uniform(0.0, 1.0)))


# a Gaussian state whose feasibility search stops in a local minimum
LOCAL_MINIMUM_STATE = g2_g3_nbar(GaussianParams.single_mode(1.76 * np.exp(-1.77j),
                                                            1.14, 3.12, 0.05))


class TestMeasurementSetRejectsBadData:
    """Non-finite entries and unknown sigma names stop at construction."""

    @staticmethod
    def fields(rng):
        m = synthesize_measurements(derive_moments(displaced_thermal_params(rng, 2)),
                                    include_p0=True)
        return {"nbar": m.nbar.copy(), "p0": m.p0.copy(), "g2": m.g2.copy(),
                "g1_abs": m.g1_abs.copy(), "g1_phase": m.g1_phase.copy(), "g3": m.g3}

    def test_clean_data_accepted(self, rng):
        MeasurementSet(2, sigma={"g2": 1e-3, "p0": 0.0}, **self.fields(rng))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name,index", [("nbar", 1), ("p0", 1), ("g2", (0, 1)),
                                            ("g1_abs", (1, 0)), ("g1_phase", (0, 1))])
    def test_non_finite_entry(self, rng, name, index, bad):
        fields = self.fields(rng)
        fields[name][index] = bad
        with pytest.raises(ValidationError, match=f"{name} entries must be finite"):
            MeasurementSet(2, **fields)

    @pytest.mark.parametrize("key", ["g4", "sigma_g2", "G2"])
    def test_unknown_sigma_name(self, rng, key):
        with pytest.raises(ValidationError, match="unknown sigma name"):
            MeasurementSet(2, sigma={key: 1e-3}, **self.fields(rng))

    @pytest.mark.parametrize("value", [-1e-3, np.nan, np.inf, "abc", None,
                                       pytest.param(10 ** 400, id="beyond-float")])
    def test_bad_sigma_value(self, rng, value):
        with pytest.raises(ValidationError, match="sigma g2"):
            MeasurementSet(2, sigma={"g2": value}, **self.fields(rng))

    @pytest.mark.parametrize("name", ["nbar", "p0", "g2", "g1_abs"])
    def test_entry_beyond_float_range(self, rng, name):
        fields = self.fields(rng)
        fields[name] = fields[name].tolist()
        row = fields[name] if name in ("nbar", "p0") else fields[name][1]
        row[0] = 10 ** 400
        with pytest.raises(ValidationError, match=f"{name} entries must lie within float range"):
            MeasurementSet(2, **fields)

    @pytest.mark.parametrize("g3,message", [
        ({(0, 0, 0.5): 1.0}, r"g3 key \(0, 0, 0.5\) must hold integer mode indices"),
        ({(0, 0, 1.0): 1.0}, r"g3 key \(0, 0, 1.0\) must hold integer mode indices"),
        ({(False, 0, 1): 1.0}, r"g3 key \(False, 0, 1\) must hold integer mode indices"),
        ({(0, 0, 1): 1.0, (1, 0, 0): 2.0}, r"g3 entry \(0, 0, 1\) is given more than once"),
        ({(0, 0, 2): 1.0}, r"g3 key \(0, 0, 2\) must be three mode indices in \[0, 2\)"),
        ({(0, 1): 1.0}, r"g3 key \(0, 1\) must be three mode indices"),
        ({(0, 0, 1): 10 ** 400}, r"g3 entry \(0, 0, 1\) must lie within float range"),
        ({(0, 0, 1): -1.0}, "g3 entries must be nonnegative"),
        ({(0, 0, 1): np.inf}, r"g3 entry \(0, 0, 1\) must be finite, got inf"),
    ], ids=["fractional", "integral-float", "bool", "permuted-duplicate", "out-of-range",
            "pair", "beyond-float", "negative", "inf"])
    def test_bad_g3_entry(self, rng, g3, message):
        with pytest.raises(ValidationError, match=message):
            MeasurementSet(2, **{**self.fields(rng), "g3": g3})

    def test_g3_keys_sorted_and_numpy_integers_accepted(self):
        g3 = {(1, np.int64(0), 0): 2, (1, 1, 0): 3.5}
        assert MeasurementSet(2, g3=g3).g3 == {(0, 0, 1): 2.0, (0, 1, 1): 3.5}


class TestSingleMode:
    def test_squeezed_thermal_example(self):
        cls = classify_single_mode(single_mode_set(4.0106213337, 24.0955920032), tol=1e-6)
        assert cls.sector == NON_DISPLACED
        assert EVIDENCE_CAVEAT in cls.notes

    def test_coherent_and_thermal_points(self):
        assert classify_single_mode(single_mode_set(1.0, 1.0)).sector == COHERENT_LIKE
        assert classify_single_mode(single_mode_set(2.0, 6.0)).sector == THERMAL_LIKE

    def test_fock_mixture_counterexample_flagged_evidence_only(self):
        cls = classify_single_mode(single_mode_set(4.0 / 3.0, 0.0))
        assert cls.sector == NON_DISPLACED
        assert cls.residual("non-displaced: g3 = 9 g2 - 12") < 1e-12
        assert any("evidence only" in note for note in cls.notes)

    def test_displaced_thermal_relation(self):
        g2, g3 = single_mode_g2_g3(GaussianParams.single_mode(alpha=0.5, occupation=0.3))
        cls = classify_single_mode(single_mode_set(g2, g3))
        assert cls.sector == NON_SQUEEZED

    def test_displaced_squeezed_sector(self):
        params = GaussianParams.single_mode(alpha=0.5 * np.exp(0.4j), r=0.45,
                                            theta=0.3, occupation=0.1)
        g2, g3 = single_mode_g2_g3(params)
        mom = derive_moments(params)
        cls = classify_single_mode(single_mode_set(g2, g3, nbar=mom.nbar[0]), tol=1e-6)
        assert cls.sector == DISPLACED_SQUEEZED
        # the witness need not coincide with the generating parameters (two
        # equations, three unknowns) but must itself reproduce both values
        a, c, x = cls.witness["a"], cls.witness["c"], cls.witness["x"]
        assert 2 + c**2 - 2 * a * c * x - a**2 == pytest.approx(g2, abs=1e-6)
        g3_w = 6 + 9 * (c**2 - 2 * a * c * x - a**2) + 4 * a**3 + 12 * a**2 * c * x
        assert g3_w == pytest.approx(g3, abs=1e-5)

    def test_infeasible_pair(self):
        cls = classify_single_mode(single_mode_set(1.0, 50.0))
        assert cls.sector == INCONSISTENT

    def test_missing_g3_raises(self):
        with pytest.raises(InsufficientDataError):
            classify_single_mode(MeasurementSet(1, g2=np.array([[2.0]])))

    # the CLI stops such files at the JSON parser, so the library checks
    # are tested here
    @pytest.mark.parametrize("g2, g3, nbar", [(np.nan, 5.0, None), (2.5, np.nan, None),
                                              (2.5, np.inf, None), (2.5, 5.0, np.nan),
                                              (2.5, 5.0, np.inf), (2.5, 5.0, 0.0)])
    def test_non_finite_data_rejected(self, g2, g3, nbar):
        with pytest.raises(ValidationError):
            classify_single_mode(single_mode_set(g2, g3, nbar=nbar))

    def test_noise_scaled_tolerances(self, rng):
        params = GaussianParams.single_mode(r=0.4, occupation=0.2)
        mom = derive_moments(params)
        m = synthesize_measurements(mom, rng=rng, sigma={"g2": 1e-4, "g3": 1e-4})
        cls = classify(m)
        assert cls.sector == NON_DISPLACED  # 3-sigma band absorbs the jitter


class TestFeasibilitySearch:
    def test_squeezed_vacuum_pair_feasible_alpha_zero(self):
        g2, g3 = single_mode_g2_g3(GaussianParams.single_mode(r=0.4))
        ok, witness, res = displaced_squeezed_feasibility(g2, g3, tol=1e-6)
        assert ok and witness["a_intervals"][0][0] <= 1e-3

    def test_coherent_pair_feasible(self):
        ok, witness, _ = displaced_squeezed_feasibility(1.0, 1.0, tol=1e-6)
        assert ok
        assert witness["a"] == pytest.approx(1.0, abs=1e-3)
        assert abs(witness["c"]) < 1e-3

    def test_far_point_infeasible(self):
        ok, _, res = displaced_squeezed_feasibility(1.0, 50.0, tol=1e-6)
        assert not ok and res > 1.0

    def test_witness_reproduces_data_whenever_feasible(self):
        # fixed-seed sweep of displaced squeezed thermal states; at draw 36 the
        # two roots for c give different g3, and only one matches
        rng = np.random.default_rng(0)
        for _ in range(40):
            g2, g3, nbar = random_displaced_squeezed(rng)
            ok, w, _ = displaced_squeezed_feasibility(g2, g3, tol=1e-6, nbar=nbar)
            if ok:
                a, c, x = w["a"], w["c"], w["x"]
                assert 2.0 + c**2 - 2 * a * c * x - a**2 == pytest.approx(g2, abs=1e-6)
                assert (6.0 + 9.0 * (c**2 - 2 * a * c * x - a**2) + 4 * a**3
                        + 12 * a**2 * c * x) == pytest.approx(g3, abs=1e-6)

    def test_returns_plain_python_types(self):
        for g2, g3 in ((1.0, 1.0), (1.0, 50.0)):
            result = displaced_squeezed_feasibility(g2, g3, tol=1e-6)
            ok, _, res = result
            assert type(ok) is bool and type(res) is float
            json.dumps(result)

    def test_local_minimum_reproducer_is_feasible(self):
        # a Gaussian state, so a witness exists: true (a, c, x) = (0.58, 0.50, 0.93)
        g2, g3, nbar = LOCAL_MINIMUM_STATE
        ok, w, _ = displaced_squeezed_feasibility(g2, g3, tol=1e-6, nbar=nbar)
        assert ok
        true_a = 1.76**2 / nbar
        assert any(lo <= true_a <= hi for lo, hi in w["a_intervals"])


def _reference_feasibility(g2, g3, tol=1e-6, nbar=None, grid=201):
    """The grid and L-BFGS-B search that the exact root-interval test replaced.

    Evaluates the coarse (a, x) grid point by point, then refines its five
    best points; the refinement can stop in a local minimum.
    """
    u = g2 - 2.0

    def c_max(a):
        if nbar is None:
            return np.inf
        return np.sqrt(np.clip((1.0 - a) * (1.0 - a + 1.0 / nbar), 0.0, None))

    def candidates(a, x):
        disc = (a * x) ** 2 + a**2 + u
        if disc < 0:
            return ()
        root = np.sqrt(disc)
        return tuple(c for c in (a * x + root, a * x - root) if 0.0 <= c <= c_max(a) + 1e-12)

    def best_root(a, x):
        best = (1e6, None)
        for c in candidates(a, x):
            val = 6.0 + 9.0 * (c**2 - 2 * a * c * x - a**2) + 4 * a**3 + 12 * a**2 * c * x
            if abs(val - g3) < best[0]:
                best = (abs(val - g3), c)
        return best

    avals = np.linspace(0.0, 1.0, grid)
    xvals = np.linspace(-1.0, 1.0, grid)
    coarse = sorted(((best_root(a, x)[0], a, x) for a in avals for x in xvals),
                    key=lambda t: t[0])
    best = (np.inf, None)
    for res0, a0, x0 in coarse[:5]:
        if res0 >= 1e6:
            continue
        opt = minimize(lambda v: best_root(v[0], v[1])[0], x0=[a0, x0],
                       bounds=[(0.0, 1.0), (-1.0, 1.0)], method="L-BFGS-B")
        if opt.fun < best[0]:
            cbest = best_root(*opt.x)[1]
            best = (opt.fun, {"a": float(opt.x[0]), "c": float(cbest) if cbest is not None else None,
                              "x": float(opt.x[1])})
    return best[0] <= tol, best[1], float(best[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExactFeasibilityVsSearch:
    """The exact root-interval test against the grid and L-BFGS-B search."""

    @staticmethod
    def assert_no_worse(g2, g3, nbar, grid):
        ref_ok, _, ref_res = _reference_feasibility(g2, g3, 1e-6, nbar=nbar, grid=grid)
        ok, w, res = displaced_squeezed_feasibility(g2, g3, 1e-6, nbar=nbar)
        assert ok or not ref_ok
        assert res <= ref_res + 1e-12
        if w is None:
            return
        a, c, x = w["a"], w["c"], w["x"]
        assert 0.0 <= a <= 1.0 and c >= 0.0 and -1.0 <= x <= 1.0
        if nbar is not None:
            assert c**2 <= (1.0 - a) * (1.0 - a + 1.0 / nbar) + 1e-12
        base = c**2 - 2 * a * c * x - a**2
        assert abs(2.0 + base - g2) <= 1e-10
        # with no interval the witness misses g3 by exactly the residual
        g3_w = 6.0 + 9.0 * base + 4 * a**3 + 12 * a**2 * c * x
        assert abs(abs(g3_w - g3) - res) <= 1e-10
        assert (res == 0.0) == bool(w["a_intervals"])
        ends = [t for pair in w["a_intervals"] for t in pair]
        assert ends == sorted(ends) and all(0.0 <= t <= 1.0 for t in ends)

    def test_seeded_states(self):
        # 150 draws, each with nbar known and unknown; the reference costs too
        # much at its production grid for a sweep of this size
        rng = np.random.default_rng(2024)
        for _ in range(150):
            g2, g3, nbar = random_displaced_squeezed(rng)
            for known in (nbar, None):
                self.assert_no_worse(g2, g3, known, grid=51)

    def test_off_boundary_points(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g2, g3, nbar = rng.uniform(0.3, 5.0), rng.uniform(0.0, 60.0), rng.uniform(0.05, 3.0)
            for known in (nbar, None):
                self.assert_no_worse(g2, g3, known, grid=51)

    @pytest.mark.parametrize("sigma", [1e-4, 1e-3, 1e-2])
    def test_jittered_states(self, sigma):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g2, g3, nbar = random_displaced_squeezed(rng)
            g2, g3 = g2 + rng.normal(0.0, sigma), g3 + rng.normal(0.0, sigma)
            for known in (nbar, None):
                self.assert_no_worse(g2, g3, known, grid=51)

    @pytest.mark.parametrize("point", [
        (1.0, 1.0, None),  # coherent point
        g2_g3_nbar(GaussianParams.single_mode(r=0.4))[:2] + (None,),  # squeezed vacuum
        (1.0, 50.0, None),  # infeasible
        LOCAL_MINIMUM_STATE,
        LOCAL_MINIMUM_STATE[:2] + (None,),
    ])
    def test_named_points(self, point):
        self.assert_no_worse(*point, grid=201)

    def test_every_interval_holds_witnesses(self):
        # the midpoint of each reported interval is a physical witness too
        rng = np.random.default_rng(5)
        for _ in range(40):
            g2, g3, nbar = random_displaced_squeezed(rng)
            for known in (nbar, None):
                _, w, _ = displaced_squeezed_feasibility(g2, g3, 1e-6, nbar=known)
                for lo, hi in w["a_intervals"]:
                    a = 0.5 * (lo + hi)
                    u = g2 - 2.0
                    y = (g3 - 6.0 - 9.0 * u - 4.0 * a**3) / (12.0 * a**2)
                    c2 = u + a**2 + 2.0 * a * y
                    assert y**2 <= c2 * (1 + 1e-12) + 1e-15
                    if known is not None:
                        assert c2 <= (1.0 - a) * (1.0 - a + 1.0 / known) + 1e-12


class TestMultimode:
    def test_displaced_thermal_classifies_nonsqueezed(self, rng):
        params = displaced_thermal_params(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        cls = classify_multimode(m, tol=1e-6)
        assert cls.sector == NON_SQUEEZED

    def test_squeezed_thermal_classifies_nondisplaced(self, rng):
        params = squeezed_thermal_params(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        cls = classify_multimode(m, tol=1e-6)
        assert cls.sector == NON_DISPLACED

    def test_perturbed_cross_entry_inconsistent(self, rng):
        params = squeezed_thermal_params(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        g3 = dict(m.g3)
        g3[(0, 1, 2)] += 0.5
        bumped = MeasurementSet(3, nbar=m.nbar, g1_abs=m.g1_abs, g1_phase=m.g1_phase,
                                g2=m.g2, g3=g3)
        assert classify_multimode(bumped, tol=1e-6).sector == INCONSISTENT

    def test_inconsistent_verdict_tests_each_marginal(self, rng):
        params = squeezed_thermal_params(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        for bump, failing in ((0.0, set()), (50.0, {0})):
            g3 = dict(m.g3)
            g3[(0, 1, 2)] += 0.5
            g3[(0, 0, 0)] += bump
            bumped = MeasurementSet(3, nbar=m.nbar, g1_abs=m.g1_abs, g1_phase=m.g1_phase,
                                    g2=m.g2, g3=g3)
            cls = classify_multimode(bumped, tol=1e-6)
            assert cls.sector == INCONSISTENT
            marginal = {i: r for i in range(3) for r in cls.residuals
                        if r.relation == f"mode {i} displaced-squeezed feasibility witness"}
            assert sorted(marginal) == [0, 1, 2]
            assert {i for i, r in marginal.items() if not r.passed} == failing
            named = {i for i in range(3) for note in cls.notes
                     if note.startswith(f"mode {i} has no physical")}
            assert named == failing

    def test_sector_invariant_under_loss(self, rng):
        for maker, sector in ((displaced_thermal_params, NON_SQUEEZED),
                              (squeezed_thermal_params, NON_DISPLACED)):
            params = maker(rng, 3)
            mom = derive_moments(params)
            for eta in (1.0, 0.5, 0.1):
                m = synthesize_measurements(apply_uniform_loss(mom, eta))
                assert classify_multimode(m, tol=1e-6).sector == sector

    def test_exact_data_zero_residual(self, rng):
        params = squeezed_thermal_params(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        cls = classify_multimode(m, tol=1e-6)
        assert all(r.residual < 1e-9 for r in cls.residuals if r.passed)

    def test_residuals_scale_linearly_with_noise(self, rng):
        params = squeezed_thermal_params(rng, 3)
        mom = derive_moments(params)
        worst = {}
        for s in (1e-4, 1e-3):
            vals = []
            for k in range(40):
                noisy = synthesize_measurements(
                    mom, rng=np.random.default_rng(1000 + k), sigma={"g3": s})
                cls = classify_multimode(noisy, tol=1e-2)
                vals.append(cls.residual("non-displaced g3 consistency"))
            worst[s] = np.median(vals)
        ratio = worst[1e-3] / worst[1e-4]
        assert 3.0 < ratio < 30.0

    def test_missing_phase_entries_named(self, rng):
        params = squeezed_thermal_params(rng, 3)
        m = synthesize_measurements(derive_moments(params))
        g3 = {k: v for k, v in m.g3.items() if len(set(k)) != 2}
        stripped = MeasurementSet(3, nbar=m.nbar, g1_abs=m.g1_abs, g1_phase=m.g1_phase,
                                  g2=m.g2, g3=g3)
        with pytest.raises(InsufficientDataError):
            classify_multimode(stripped, tol=1e-6)

    @pytest.mark.parametrize("entry", [("g2", (0, 1)), ("g2", (1, 1)), ("g1_abs", (0, 1))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, rng, entry, bad):
        m = synthesize_measurements(derive_moments(squeezed_thermal_params(rng, 2)))
        name, (i, j) = entry
        values = {"g2": m.g2.copy(), "g1_abs": m.g1_abs.copy()}
        values[name][i, j] = values[name][j, i] = bad
        with pytest.raises(ValidationError):
            classify_multimode(MeasurementSet(2, nbar=m.nbar, g1_phase=m.g1_phase, g3=m.g3,
                                              **values))

    def test_needs_two_modes(self):
        with pytest.raises(ValidationError):
            classify_multimode(MeasurementSet(1, g2=np.array([[2.0]])))

    def test_witness_reports_phase_search(self, rng):
        for maker, key in ((displaced_thermal_params, "displacement_phases"),
                           (squeezed_thermal_params, "covariance_phases")):
            witness = classify_multimode(
                synthesize_measurements(derive_moments(maker(rng, 3))), tol=1e-6).witness
            assert key in witness
            search = witness["phase_search"]
            assert search["explored"] > search["pruned"] >= 0
            assert search["kept"] >= witness["n_phase_solutions"] >= 1
            assert witness["degeneracy_notes"] == []
            json.dumps(witness)

    def test_witness_explains_two_mode_degeneracy(self, rng):
        witness = classify_multimode(
            synthesize_measurements(derive_moments(squeezed_thermal_params(rng, 2))),
            tol=1e-6).witness
        assert witness["n_phase_solutions"] == 4
        assert witness["degeneracy_notes"]

    def test_ten_modes_explore_few_branches(self):
        params = squeezed_thermal_params(np.random.default_rng(3), 10)
        cls = classify_multimode(synthesize_measurements(derive_moments(params)), tol=1e-9)
        assert cls.sector == NON_DISPLACED
        # exhaustive enumeration explores 4^9 = 262144 branches here
        assert cls.witness["phase_search"]["explored"] <= 4 * 10 * 10


def test_phase_solutions_ride_along_outside_repr_equality_and_json():
    """The verdict carries each multimode hypothesis's phase solutions, best g3
    score first, for reconstruction to build on; repr, equality and the JSON
    report leave them out."""
    params = squeezed_thermal_params(np.random.default_rng(5), 3)
    verdict = classify(synthesize_measurements(derive_moments(params)), tol=1e-8)
    assert verdict.sector == NON_DISPLACED
    assert verdict.phase_solutions[NON_SQUEEZED] == []  # gated out: a diagonal g2 exceeds 2
    solutions = verdict.phase_solutions[NON_DISPLACED]
    assert len(solutions) == verdict.witness["n_phase_solutions"]
    assert solutions[0].theta.tolist() == verdict.witness["covariance_phases"]
    assert "phase_solutions=" not in repr(verdict)
    assert dataclasses.replace(verdict, phase_solutions={}) == verdict
    assert '"phase_solutions"' not in json.dumps(classification_to_json(verdict))


def test_noisy_thermal_state_keeps_a_sector():
    """Noisy data of a three-mode thermal state put every g2_ii just above 2, so
    the non-squeezed blocks clip a_i = sqrt(2 - g2_ii) to 0.  Every g3 entry is
    predicted from those same blocks, g3_iii = 3 g2_ii included, and the
    hypothesis passes.  The single-mode relation 9 g2_ii - 12 would miss
    g3_iii by 6 (g2_ii - 2), here beyond the tolerance."""
    phi = np.array([[0.14, -0.581 + 0.017j, -0.08 - 0.144j],
                    [-0.581 - 0.017j, 0.095, -0.15 - 0.563j],
                    [-0.08 + 0.144j, -0.15 + 0.563j, -0.155]])
    params = GaussianParams(np.zeros(3), np.zeros((3, 3)), phi, np.array([0.208, 0.296, 0.403]))
    m = synthesize_measurements(derive_moments(params), rng=np.random.default_rng(2),
                                sigma={"g2": 1e-6, "g3": 1e-6})
    assert np.diag(m.g2).min() > 2.0
    cls = classify(m, tol=1e-8)
    assert cls.sector == NON_SQUEEZED
    consistency = [r for r in cls.residuals if r.relation == "non-squeezed g3 consistency"]
    assert len(consistency) == 1 and consistency[0].passed


@pytest.mark.parametrize("maker, sector, solver", [
    (displaced_thermal_params, NON_SQUEEZED, "solve_displacement_phases"),
    (squeezed_thermal_params, NON_DISPLACED, "solve_covariance_phases")])
def test_tied_solutions_keep_solver_order(monkeypatch, maker, sector, solver):
    """Two modes have no all-distinct triple, so each solution is scored on
    g3_iii alone, whose prediction does not depend on the phases: the scores
    tie within rounding and the solver's first solution heads the witness."""
    returned = []
    solve = getattr(classify_module, solver)

    def recording(*args, **kwargs):
        solutions = solve(*args, **kwargs)
        returned.append(list(solutions))  # classify reorders the list it gets
        return solutions

    monkeypatch.setattr(classify_module, solver, recording)
    rng = np.random.default_rng(7)
    for _ in range(40):
        returned.clear()
        cls = classify_multimode(synthesize_measurements(derive_moments(maker(rng, 2))),
                                 tol=1e-6)
        solutions = cls.phase_solutions[sector]
        assert cls.sector == sector and len(solutions) > 1
        assert solutions[0] is returned[-1][0]


@pytest.mark.xfail(strict=True, reason="a barely displaced mode (a_i = sqrt(2 - g2_ii) near 0) "
                                       "leaves the displacement-phase system without a solution")
def test_barely_displaced_mode_classifies_nonsqueezed():
    alpha = np.array([0.01 * np.exp(0.3j), 0.7 * np.exp(-1.0j), 0.5 * np.exp(2.0j)])
    phi = np.array([[0.0, 0.4, 0.2], [0.4, 0.0, 0.3], [0.2, 0.3, 0.0]])
    params = GaussianParams(alpha, np.zeros((3, 3)), phi, np.array([0.3, 0.2, 0.1]))
    # at the CLI's default tolerance; 1e-6 and 1e-7 pass
    cls = classify(synthesize_measurements(derive_moments(params)), tol=1e-8)
    assert cls.sector == NON_SQUEEZED


def _sqrt_clip(x):
    return np.sqrt(np.clip(x, 0.0, None))


def reference_ns_cosines(m):
    """The per-entry loop that the array extraction of the non-squeezed cosines replaced."""
    mm = m.modes
    g2, g1a = m.g2, m.g1_abs
    a = _sqrt_clip(2.0 - np.diag(g2))
    c = np.full((mm, mm), np.nan)
    missing = []
    for i in range(mm):
        for j in range(mm):
            if i == j:
                continue
            denom = 4.0 * g1a[i, j] * a[i] ** 1.5 * a[j] ** 0.5
            if abs(denom) < 1e-12:
                continue  # no phase information in this entry
            key = tuple(sorted((i, i, j)))
            if key not in m.g3:
                missing.append((i, i, j))
                continue
            base = (2.0 + 4.0 * g1a[i, j] ** 2 - a[i] ** 2 - 4.0 * a[i] * a[j]
                    + 4.0 * a[i] ** 2 * a[j])
            val = (base - m.g3[key]) / denom
            cij = val if np.isnan(c[i, j]) else 0.5 * (c[i, j] + val)
            c[i, j] = c[j, i] = cij
    if missing:
        raise InsufficientDataError(
            "non-squeezed phase extraction needs g3 entries: "
            + ", ".join(map(str, sorted(set(missing)))))
    return c


def reference_nd_cosines(m):
    """The per-entry loop that the array extraction of the non-displaced cosines replaced."""
    mm = m.modes
    g2, g1a = m.g2, m.g1_abs
    c = np.full((mm, mm), np.nan)
    missing = []
    for i in range(mm):
        for j in range(mm):
            if i == j:
                continue
            q_ij = g2[i, j] - g1a[i, j] ** 2 - 1.0
            q_ii = g2[i, i] - 2.0
            denom = 4.0 * g1a[i, j] * _sqrt_clip(q_ij * q_ii)
            if abs(denom) < 1e-12:
                continue
            key = tuple(sorted((i, i, j)))
            if key not in m.g3:
                missing.append((i, i, j))
                continue
            c[i, j] = (m.g3[key] - g2[i, i] - 4.0 * g2[i, j] + 4.0) / denom
    if missing:
        raise InsufficientDataError(
            "non-displaced phase extraction needs g3 entries: "
            + ", ".join(map(str, sorted(set(missing)))))
    return c


def reference_ns_predicted_g3(m, phases, i, j, k):
    """g3_ijk of a displaced thermal state from g2, g1 and displacement phases."""
    g2, g1a = m.g2, m.g1_abs
    phi = m.g1_phase
    a = {t: _sqrt_clip(2.0 - g2[t, t]) for t in (i, j, k)}
    val = (g2[i, j] + g2[j, k] + g2[i, k] - 2.0
           + 2.0 * g1a[i, j] * g1a[j, k] * g1a[i, k]
           * np.cos(phi[i, j] + phi[j, k] - phi[i, k])
           + 4.0 * a[i] * a[j] * a[k]
           - 2.0 * (g1a[i, j] * np.sqrt(a[i] * a[j]) * a[k]
                    * np.cos(phi[i, j] + phases[i] - phases[j])
                    + g1a[j, k] * np.sqrt(a[j] * a[k]) * a[i]
                    * np.cos(phi[j, k] + phases[j] - phases[k])
                    + g1a[i, k] * np.sqrt(a[i] * a[k]) * a[j]
                    * np.cos(phi[i, k] + phases[i] - phases[k])))
    return val


def reference_nd_predicted_g3(m, theta, i, j, k):
    """g3_ijk of a squeezed thermal state from g2, g1 and covariance phases."""
    g2, g1a = m.g2, m.g1_abs
    phi = m.g1_phase

    def q(x, y):
        return g2[x, y] - g1a[x, y] ** 2 - 1.0

    val = (g2[i, j] + g2[j, k] + g2[i, k] - 2.0
           + 2.0 * g1a[i, j] * g1a[j, k] * g1a[i, k]
           * np.cos(phi[i, j] + phi[j, k] - phi[i, k])
           + 2.0 * g1a[i, j] * _sqrt_clip(q(j, k) * q(i, k))
           * np.cos(phi[i, j] - theta[j, k] + theta[i, k])
           + 2.0 * g1a[j, k] * _sqrt_clip(q(i, k) * q(i, j))
           * np.cos(phi[j, k] - theta[i, k] + theta[i, j])
           + 2.0 * g1a[i, k] * _sqrt_clip(q(i, j) * q(j, k))
           * np.cos(-phi[i, k] - theta[i, j] + theta[j, k]))
    return val


def reference_ns_worst(m, phases):
    """The per-triple g3 score of a displacement-phase solution."""
    worst = 0.0
    for (i, j, k), val in m.g3.items():
        if i == j == k:
            d = 2.0 - m.g2[i, i]
            pred = 9.0 * m.g2[i, i] - 12.0 + 4.0 * np.clip(d, 0, None) ** 1.5
            worst = max(worst, abs(val - pred))
        elif len({i, j, k}) == 3:
            worst = max(worst, abs(val - reference_ns_predicted_g3(m, phases, i, j, k)))
    return worst


def reference_nd_worst(m, theta):
    """The per-triple g3 score of a covariance-phase solution."""
    worst = 0.0
    for (i, j, k), val in m.g3.items():
        if i == j == k:
            worst = max(worst, abs(val - (9.0 * m.g2[i, i] - 12.0)))
        elif len({i, j, k}) == 3:
            worst = max(worst, abs(val - reference_nd_predicted_g3(m, theta, i, j, k)))
    return worst


def ns_score(m, phases):
    """The kernel score with the non-squeezed blocks c = 0, b_i = sqrt(a_i) e^{i phi_i}."""
    mm = m.modes
    b = np.sqrt(_sqrt_clip(2.0 - np.diag(m.g2))) * np.exp(1j * phases)
    return float(_g3_misfits(m, np.zeros((mm, mm), complex), b))


def nd_score(m, theta):
    """The kernel score with the non-displaced blocks b = 0, c_ij = sqrt(q_ij) e^{i Theta_ij},
    diagonal included."""
    c = _mirrored(_sqrt_clip(_covariance_q(m))) * np.exp(1j * theta)
    return float(_g3_misfits(m, c, np.zeros(m.modes, complex)))


def assert_same_cosines(new, ref):
    # the loop's scalar x ** 2 and x ** 1.5 round through the C library's
    # pow, the array form through numpy's vectorized power; they part in the
    # last bit, so equality is up to a few units of rounding
    assert np.array_equal(np.isnan(new), np.isnan(ref))
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-13)


class TestKernelScoringVsPerTripleFormulas:
    """The array extractions and the kernel scoring against the per-entry code they replaced.

    Seeded draws of each sector at M = 2-6, exact and jittered, with random
    phases in place of solved ones.
    """

    SIGMAS = (0.0, 1e-4, 1e-3, 1e-2)

    @staticmethod
    def draws(sector, sigma):
        rng = np.random.default_rng([int(sigma * 1e6), sector == "nd"])
        maker = squeezed_thermal_params if sector == "nd" else displaced_thermal_params
        for modes in range(2, 7):
            for _ in range(8):
                mom = derive_moments(maker(rng, modes))
                noise = {"g2": sigma, "g3": sigma, "g1_abs": sigma, "g1_phase": sigma}
                yield rng, (synthesize_measurements(mom, rng=rng, sigma=noise) if sigma
                            else synthesize_measurements(mom))

    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("sector", ["ns", "nd"])
    def test_cosines(self, sector, sigma):
        new_fn, ref_fn = {"ns": (_extract_ns_cosines, reference_ns_cosines),
                          "nd": (_extract_nd_cosines, reference_nd_cosines)}[sector]
        for rng, m in self.draws(sector, sigma):
            assert_same_cosines(new_fn(m), ref_fn(m))
            # drop a random share of the two-equal-index entries
            g3 = {k: v for k, v in m.g3.items()
                  if len(set(k)) != 2 or rng.uniform() < 0.7}
            stripped = MeasurementSet(m.modes, nbar=m.nbar, g1_abs=m.g1_abs,
                                      g1_phase=m.g1_phase, g2=m.g2, g3=g3, sigma=m.sigma)
            try:
                ref = ref_fn(stripped)
            except InsufficientDataError as err:
                with pytest.raises(InsufficientDataError) as caught:
                    new_fn(stripped)
                assert str(caught.value) == str(err)
            else:
                assert_same_cosines(new_fn(stripped), ref)

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_non_squeezed_scores(self, sigma):
        clipped = 0
        for rng, m in self.draws("ns", sigma):
            phases = rng.uniform(-np.pi, np.pi, m.modes)
            diff = abs(ns_score(m, phases) - reference_ns_worst(m, phases))
            excess = np.diag(m.g2) - 2.0
            if excess.max() <= 0.0:
                assert diff <= 1e-12
            else:
                # a_i = sqrt(max(2 - g2_ii, 0)) = 0: the kernel's g3_iii is 3 g2_ii, the
                # relation's 9 g2_ii - 12, 6 |2 - g2_ii| apart
                clipped += 1
                assert diff <= 6.0 * excess.max() + 1e-12
        if sigma == 0.0:
            assert clipped == 0

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_non_displaced_scores(self, sigma):
        clipped = 0
        for rng, m in self.draws("nd", sigma):
            theta = rng.uniform(-np.pi, np.pi, (m.modes, m.modes))
            theta = np.triu(theta) + np.triu(theta, 1).T
            q = _covariance_q(m)
            tol_rel = _tolerance(m, 1e-6, dg2=3.0, dg3=1.0)
            if q.min() < -tol_rel:
                continue  # the modulus-positivity gate stops these before scoring
            diff = abs(nd_score(m, theta) - reference_nd_worst(m, theta))
            if q.min() >= 0.0:
                assert diff <= 1e-12
            else:
                clipped += 1
                # off the diagonal, sqrt(max(q_jk, 0)) sqrt(max(q_ik, 0)) in place of
                # sqrt(max(q_jk q_ik, 0)): three terms, each off by at most 2 |g1| tol_rel
                off = 6.00001 * tol_rel if q[~np.eye(m.modes, dtype=bool)].min() < 0.0 else 0.0
                # on it, |c_ii| = 0: the kernel's g3_iii is 3 g2_ii, the relation's
                # 9 g2_ii - 12, 6 |q_ii| apart
                on = 6.0 * max(-np.diag(q).min(), 0.0)
                assert diff <= max(off, on) + 1e-12
        if sigma == 0.0:
            assert clipped == 0

    @pytest.mark.parametrize("modes", range(2, 7))
    def test_reported_residual_is_the_witness_score(self, rng, modes):
        for maker, key, label, worst in (
                (displaced_thermal_params, "displacement", "non-squeezed", reference_ns_worst),
                (squeezed_thermal_params, "covariance", "non-displaced", reference_nd_worst)):
            m = synthesize_measurements(derive_moments(maker(rng, modes)))
            cls = classify_multimode(m, tol=1e-6)
            phases = np.array(cls.witness[f"{key}_phases"])
            assert abs(cls.residual(f"{label} g3 consistency") - worst(m, phases)) <= 1e-12
