"""Multimode reconstruction: spectral route for displaced thermal states,
Williamson route for squeezed thermal states, beam-splitter reduction for the
general displaced squeezed case (at every mode count, one mode included).
The first two take ``classify``'s verdict and build their candidates from the
phase solutions it found; they solve no phase system of their own.

Quadrature convention: x = (a + a†)/sqrt(2), p = (a - a†)/(i sqrt(2)),
ordering (x_1..x_M, p_1..p_M), vacuum variance 1/2, symplectic form
Omega = [[0, I], [-I, 0]].  Symplectic eigenvalues are D_i = N_i + 1/2.

Reconstructed parameters are meaningful up to gauge: a global phase, local
phases inside degenerate thermal eigenspaces (Q rotations), and discrete
leftovers in two-mode systems.  The universal acceptance check is therefore
to push reconstructed parameters through the forward model and compare
observables, not raw parameters.

Every matrix function is built from numpy's hermitian eigensolver and SVD:
V^(-1/2) and the real Schur basis of Williamson's kernel from ``eigh``, the
log of a unitary from ``eigh`` of its Cayley transform (``_unitary_eig``),
and the squeeze matrix and rotation behind the Bogoliubov blocks from one SVD
each (``squeeze_from_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import (EVIDENCE_CAVEAT, NON_DISPLACED, NON_SQUEEZED, THERMAL_LIKE,
                       Classification, MeasurementSet, classify, _covariance_q, _require)
from .errors import (
    InconsistentDataError,
    NumericalError,
    SectorMismatchError,
    ValidationError,
)
from .phases import SearchStats, _depth_first, _padded, wrap_angle
from .recon_single import Ambiguity, ReconstructedState
from .states import (
    GaussianParams,
    MomentSummary,
    derive_moments,
    g2_tensor,
    g3_tensor,
)


def symplectic_form(m: int) -> np.ndarray:
    """Omega in (x.., p..) ordering."""
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    return omega


@dataclass(frozen=True)
class ComplexCovariance:
    """Blocks of the ladder-operator covariance matrix [[A, B], [B*, A*]]."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        B = np.asarray(self.B, dtype=complex)
        if np.abs(A - A.conj().T).max() > 1e-8 * (1 + np.abs(A).max()):
            raise ValidationError("A block must be hermitian")
        if np.abs(B - B.T).max() > 1e-8 * (1 + np.abs(B).max()):
            raise ValidationError("B block must be symmetric")
        object.__setattr__(self, "A", 0.5 * (A + A.conj().T))
        object.__setattr__(self, "B", 0.5 * (B + B.T))

    @property
    def modes(self) -> int:
        return self.A.shape[0]

    @classmethod
    def from_moments(cls, moments: MomentSummary) -> "ComplexCovariance":
        g_c = moments.centered_coherence()
        a_block = g_c.conj() + 0.5 * np.eye(moments.modes)
        return cls(a_block, moments.cov)


def _ladder_to_quadrature(m: int) -> np.ndarray:
    """Unitary Lambda with (x, p) = Lambda (a, a†)."""
    eye = np.eye(m)
    return np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2.0)


def complex_to_real_cov(cov: ComplexCovariance) -> np.ndarray:
    """Real quadrature covariance matrix V of the same state."""
    m = cov.modes
    vc = np.block([[cov.A, cov.B], [cov.B.conj(), cov.A.conj()]])
    lam = _ladder_to_quadrature(m)
    vr = lam @ vc @ lam.conj().T
    if np.abs(vr.imag).max() > 1e-8 * (1 + np.abs(vr.real).max()):
        raise ValidationError("complex covariance blocks are inconsistent")
    return 0.5 * (vr.real + vr.real.T)


@dataclass(frozen=True)
class WilliamsonResult:
    """V = S diag(D, D) S^T with S symplectic and D_i = N_i + 1/2."""

    D: np.ndarray
    S: np.ndarray
    degenerate: bool


def williamson(v: np.ndarray, tol: float = 1e-8) -> WilliamsonResult:
    """Williamson normal form of a positive-definite real symmetric matrix.

    The kernel K = V^(-1/2) Omega V^(-1/2) is real antisymmetric, so 1j*K is
    hermitian with eigenvalues +-mu_i, mu_i = 1/D_i.  An eigenvector w of +mu
    gives the orthonormal column pair (sqrt2 Im w, sqrt2 Re w), on which K acts
    as [[0, mu], [-mu, 0]]; these columns, scaled by 1/sqrt(D), assemble
    S = V^(1/2) Q diag(D, D)^(-1/2), symplectic up to rounding, which is verified.
    """
    v = np.asarray(v, dtype=float)
    v = 0.5 * (v + v.T)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
        raise ValidationError("V must be square with even dimension")
    m = v.shape[0] // 2
    evals, evecs = np.linalg.eigh(v)
    if evals.min() <= 0:
        raise ValidationError(f"V not positive definite: min eigenvalue {evals.min():.3e}")
    omega = symplectic_form(m)
    v_mhalf = (evecs / np.sqrt(evals)) @ evecs.T
    kernel = v_mhalf @ omega @ v_mhalf
    mu, w = np.linalg.eigh(0.5j * (kernel - kernel.T))
    # the m positive eigenvalues, ascending in mu and so descending in D
    mu, w = mu[m:], w[:, m:]
    d = 1.0 / mu
    q = np.sqrt(2.0) * np.concatenate([w.imag, w.real], axis=1)
    s = ((evecs * np.sqrt(evals)) @ evecs.T @ q) / np.sqrt(np.concatenate([d, d]))
    resid_sym = np.abs(s @ omega @ s.T - omega).max()
    resid_rec = np.abs(s @ np.diag(np.concatenate([d, d])) @ s.T - v).max()
    if resid_sym > tol or resid_rec > max(tol, 1e-8 * np.abs(v).max()):
        raise NumericalError(
            f"williamson failed: symplectic residual {resid_sym:.2e}, "
            f"reconstruction residual {resid_rec:.2e}")
    degenerate = bool(np.any(np.abs(np.diff(d)) < 1e-7 * (1 + d.max())))
    return WilliamsonResult(d, s, degenerate)


def _unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal angles theta in (-pi, pi] and orthonormal eigenvectors V of a
    (near-)unitary u = V diag(e^{i theta}) V^H.

    u is turned by e^{-i beta}, beta = pi past the midpoint of the widest gap
    between the angles of its eigenvalues, so -1 lies outside the turned
    spectrum; the hermitian Cayley transform i (1 + u')^-1 (1 - u') then has
    eigenvalues tan(theta'/2), and eigh gives an orthonormal V even where
    eigenvalues cluster.
    """
    u = np.asarray(u, dtype=complex)
    eye = np.eye(u.shape[0])
    angles = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    widest = np.argmax(gaps)
    beta = angles[widest] + 0.5 * gaps[widest] + np.pi
    turned = np.exp(-1j * beta) * u
    cayley = 1j * np.linalg.solve(eye + turned, eye - turned)
    t, vecs = np.linalg.eigh(0.5 * (cayley + cayley.conj().T))
    return wrap_angle(2.0 * np.arctan(t) + beta), vecs


def rotation_from_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian phi with e^{i phi} = u (principal branch)."""
    theta, vecs = _unitary_eig(u)
    return (vecs * theta) @ vecs.conj().T


def squeeze_from_blocks(e_block: np.ndarray, f_block: np.ndarray):
    """(z, phi) with E = cosh(r) e^{i phi}, F = -sinh(r) e^{i theta} e^{-i phi^T}.

    e^{i phi} = U V^H is the unitary polar factor of E = U S V^H, and with
    y = -F (e^{i phi})^T = sinh(r) e^{i theta} = W' S' V'^H the squeeze
    matrix is z = W' arcsinh(S') V'^H.
    """
    u, _, vh = np.linalg.svd(e_block)
    expiphi = u @ vh
    y = -f_block @ expiphi.T
    w, sv, vh = np.linalg.svd(0.5 * (y + y.T))
    z = (w * np.arcsinh(sv)) @ vh
    return z, rotation_from_unitary(expiphi)


def params_from_covariance(cov: ComplexCovariance, alpha: np.ndarray,
                           tol: float = 1e-8) -> GaussianParams:
    """Gaussian parameters (up to gauge) reproducing a physical covariance.

    Raises ValidationError when a symplectic eigenvalue of the covariance lies
    below the vacuum limit 1/2.
    """
    v = complex_to_real_cov(cov)
    res = williamson(v, tol=max(tol, 1e-8))
    dmin = float(res.D.min())
    if dmin < 0.5 - 1e-9:
        raise ValidationError(
            f"covariance violates the uncertainty bound: min symplectic "
            f"eigenvalue {dmin:.6f} < 1/2")
    m = cov.modes
    occupations = np.clip(res.D - 0.5, 0.0, None)
    lam = _ladder_to_quadrature(m)
    l_complex = lam.conj().T @ res.S @ lam
    e_block = l_complex[:m, :m]
    f_block = l_complex[:m, m:]
    z, phi = squeeze_from_blocks(e_block, f_block)
    return GaussianParams(np.asarray(alpha, dtype=complex), z, phi, occupations)


def measurement_residual(params: GaussianParams, m: MeasurementSet) -> float:
    """Worst absolute disagreement of a parameter set with measured observables."""
    mom = derive_moments(params)
    worst = 0.0
    if m.nbar is not None:
        worst = max(worst, float(np.abs(mom.nbar - m.nbar).max()))
    if m.g2 is not None:
        worst = max(worst, float(np.abs(g2_tensor(mom) - m.g2).max()))
    if m.g1_abs is not None:
        worst = max(worst, float(np.abs(np.abs(mom.g1) - m.g1_abs).max()))
    if m.g1_phase is not None:
        dphi = wrap_angle(np.angle(mom.g1) - m.g1_phase)
        mask = m.g1_abs > 1e-9 if m.g1_abs is not None else np.ones_like(dphi, bool)
        np.fill_diagonal(mask, False)
        if mask.any():
            worst = max(worst, float(np.abs(dphi[mask]).max()))
    if m.g3:
        g3 = g3_tensor(mom, list(m.g3.keys()))
        worst = max(worst, max(abs(g3[k] - v) for k, v in m.g3.items()))
    return worst


def _ranked(candidates: list, tol: float, notes: list, kind: str | None = None):
    """The best of the (residual, params) candidates, with every candidate within
    max(100 tol, 10 x best) kept as a discrete alternative.

    With ``kind``, a note names the number of kept solutions when several are.
    """
    candidates.sort(key=lambda t: t[0])
    keep = [c for c in candidates if c[0] <= max(100 * tol, 10 * candidates[0][0])]
    if kind is not None and len(keep) > 1:
        notes.append(f"{len(keep)} discrete {kind} solutions reproduce the data")
    ambiguity = Ambiguity(z2_reflection=len(keep) > 1,
                          discrete_solutions=tuple(p for _, p in keep[1:]),
                          notes=tuple(notes))
    return ReconstructedState(keep[0][1], ambiguity, residual=float(keep[0][0]))


def _classified_phases(verdict: Classification, sector: str, label: str, kind: str) -> list:
    """The phase solutions ``classify`` found for a sector; none is a
    SectorMismatchError citing the sector's failing residuals and the notes."""
    if verdict.phase_solutions.get(sector):
        return verdict.phase_solutions[sector]
    why = [f"{r.relation} {r.residual:.3e} > {r.tolerance:.3e}" for r in verdict.residuals
           if r.relation.startswith(label) and not r.passed]
    why += [note for note in verdict.notes if note != EVIDENCE_CAVEAT]
    raise SectorMismatchError(f"data incompatible with a {label} state: classify found no "
                              f"{kind}-phase solution ({'; '.join([verdict.sector] + why)})")


def recon_displaced_thermal_multi(m: MeasurementSet, verdict: Classification,
                                  tol: float = 1e-7) -> ReconstructedState:
    """Displacements, thermal occupations and mode rotation of a non-squeezed state.

    ``verdict`` is ``classify(m, ...)``.  Moduli come from the diagonal g2 and
    phases from the displacement-phase solutions of its non-squeezed
    hypothesis; then the hermitian matrix sqrt(nbar_i nbar_j) g1_ij -
    alpha_i* alpha_j is diagonalized: eigenvalues are the occupations,
    eigenvectors the rotation.
    """
    _require(m, "multimode reconstruction", "nbar", "g2", "g1_abs", "g1_phase")
    mm = m.modes
    alpha_abs = np.sqrt(m.nbar) * np.clip(2.0 - np.diag(m.g2), 0.0, None) ** 0.25
    if np.abs(np.diag(m.g2) - 1.0).max() <= max(10 * tol, 1e-8):
        # displaced vacuum: the cosine system is degenerate (c = 1 identically)
        # but g1 carries the phases directly, g1_ij = e^{i(phi_j - phi_i)}
        phases = m.g1_phase[0, :].copy()
        alpha = alpha_abs * np.exp(1j * phases)
        params = GaussianParams(alpha, np.zeros((mm, mm)), np.zeros((mm, mm)),
                                np.zeros(mm))
        ambiguity = Ambiguity(notes=("displaced vacuum: phases read off g1, "
                                     "global displacement phase fixed by phi_1 = 0",))
        return ReconstructedState(params, ambiguity,
                                  residual=float(measurement_residual(params, m)))
    phase_sets = [np.zeros(1)] if mm == 1 else [s.phases for s in _classified_phases(
        verdict, NON_SQUEEZED, "non-squeezed", "displacement")]
    candidates = []
    g1 = m.g1_complex()
    root = np.sqrt(np.outer(m.nbar, m.nbar))
    for phases in phase_sets:
        alpha = alpha_abs * np.exp(1j * phases)
        h = (root * g1 - np.outer(alpha.conj(), alpha)).T  # K_ji = G_ij - conj(a_i) a_j
        h = 0.5 * (h + h.conj().T)
        occupations, vecs = np.linalg.eigh(h)
        if occupations.min() < -100 * tol:
            continue
        occupations = np.clip(occupations, 0.0, None)
        phi = rotation_from_unitary(vecs)
        params = GaussianParams(alpha, np.zeros((mm, mm)), phi, occupations)
        candidates.append((measurement_residual(params, m), params))
    if not candidates:
        raise InconsistentDataError(
            "thermal matrix not positive semidefinite for any phase solution")
    notes = ["global displacement phase fixed by gauge phi_1 = 0",
             "local phases of the rotation in degenerate thermal eigenspaces are free"]
    return _ranked(candidates, tol, notes, kind="phase")


def recon_squeezed_thermal_multi(m: MeasurementSet, verdict: Classification,
                                 tol: float = 1e-7) -> ReconstructedState:
    """Squeeze matrix, rotation and occupations of a non-displaced state.

    ``verdict`` is ``classify(m, ...)``.  Covariance moduli come from g2/g1,
    clipped at 0 as classify clips them, and phases from the covariance-phase
    solutions of its non-displaced hypothesis; then Williamson runs on the
    assembled covariance matrix.
    """
    _require(m, "multimode reconstruction", "nbar", "g2", "g1_abs")
    mm = m.modes
    root = np.sqrt(np.outer(m.nbar, m.nbar))
    q = _covariance_q(m)
    if mm == 1:  # no phase system, and classify_single_mode has no modulus gate
        if q.min() < -100 * tol:
            raise InconsistentDataError(
                f"g2_ij - |g1_ij|^2 - 1 = {q.min():.3e} < 0: covariance moduli undefined")
        thetas = [np.full((1, 1), np.pi)]
    else:
        thetas = [s.theta for s in _classified_phases(verdict, NON_DISPLACED,
                                                      "non-displaced", "covariance")]
    cov_abs = root * np.sqrt(np.clip(q, 0.0, None))
    g1 = m.g1_complex()
    candidates = []
    for theta in thetas:
        cov = cov_abs * np.exp(1j * theta)
        coherence = root * g1
        a_block = coherence.conj() + 0.5 * np.eye(mm)
        try:
            params = params_from_covariance(ComplexCovariance(a_block, cov),
                                            np.zeros(mm, dtype=complex))
        except (ValidationError, NumericalError):
            continue
        candidates.append((measurement_residual(params, m), params))
    if not candidates:
        raise InconsistentDataError("no covariance-phase solution yields a physical state")
    notes = ["global squeeze phase fixed by gauge Theta_11 = 0",
             "degenerate-occupation rotations are free"]
    return _ranked(candidates, tol, notes, kind="covariance-phase")


def recon_displaced_squeezed_multi(m_minus: MeasurementSet, m_ref: MeasurementSet,
                                   ref_port: str = "orig",
                                   tol: float = 1e-7) -> ReconstructedState:
    """Reconstruct a displaced squeezed thermal state of any mode count from
    two-port beam-splitter data.

    ``m_minus`` is the zero-mean output, which must classify NonDisplaced or
    ThermalLike; ``m_ref`` is the original state (``ref_port="orig"``) or the
    bright port (``ref_port="plus"``, displacement sqrt(2) alpha).  The
    covariance comes from the zero-mean port, the displacement moduli from
    the nbar differences, and each mode's phase from the diagonal g2 of the
    reference port up to the cosine ambiguity, which pairs of modes prune
    through the off-diagonal g2 and g1 entries.

    The first displaced mode keeps only the phases (Theta_ii +- w)/2 without
    their +pi copies: alpha -> -alpha on every mode is the global phase pi,
    so no listed solution is a global-sign copy of another.  One mode leaves
    the pair {(Theta - w)/2, (Theta + w)/2}, the Z2 reflection of the noise
    ellipse through the displacement axis.  ``residual`` is the
    ``measurement_residual`` of the primary solution against the reference
    port.
    """
    if ref_port not in ("orig", "plus"):
        raise ValidationError("ref_port must be 'orig' or 'plus'")
    verdict = classify(m_minus, tol=max(tol, 1e-7))
    if verdict.sector not in (NON_DISPLACED, THERMAL_LIKE):
        raise SectorMismatchError(
            f"zero-mean port classifies as {verdict.sector}, not NonDisplaced")
    base = recon_squeezed_thermal_multi(m_minus, verdict, tol=tol)
    cov_solutions = (base.params,) + base.ambiguity.discrete_solutions
    if m_ref.nbar is None or m_ref.g2 is None:
        raise ValidationError("reference port needs nbar and g2")
    scale = 1.0 if ref_port == "orig" else 2.0
    alpha2 = (m_ref.nbar - m_minus.nbar) / scale
    if alpha2.min() < -100 * tol:
        raise InconsistentDataError("negative inferred |alpha_i|^2 from nbar difference")
    alpha2 = np.clip(alpha2, 0.0, None)
    alpha_abs = np.sqrt(alpha2)
    mm = m_minus.modes
    results = []
    stats = SearchStats()
    for params_cov in cov_solutions:
        mom_cov = derive_moments(params_cov)
        candidates_per_mode = []
        pinned = False  # has a displaced mode fixed the global sign yet?
        for i in range(mm):
            cov_ii = mom_cov.cov[i, i]
            ai_ref = alpha_abs[i] * np.sqrt(scale)
            if alpha2[i] < 1e-12:
                candidates_per_mode.append([0.0])
                continue
            if abs(cov_ii) < 1e-12:
                # diagonal g2 carries no phase information for this mode
                candidates_per_mode.append([None])
                pinned = True
                continue
            nbar_ref_i = m_ref.nbar[i]
            val = (nbar_ref_i**2 * (m_ref.g2[i, i] - 2.0) - abs(cov_ii) ** 2
                   + ai_ref**4) / (2.0 * ai_ref**2 * abs(cov_ii))
            if abs(val) > 1.0 + max(100 * tol, 1e-9):
                continue
            w = np.arccos(np.clip(val, -1.0, 1.0))
            theta_ii = np.angle(cov_ii)
            shifts = (0.0, np.pi) if pinned else (0.0,)
            pinned = True
            cands = [wrap_angle(0.5 * (theta_ii + sign * w) + shift)
                     for sign in (-1.0, 1.0) for shift in shifts]
            candidates_per_mode.append(sorted(set(np.round(cands, 12))))
        if len(candidates_per_mode) != mm:
            continue
        results.extend(_assemble_displaced(m_ref, params_cov, mom_cov, alpha_abs,
                                           candidates_per_mode, scale, tol, stats))
    if not results:
        raise InconsistentDataError("no displacement-phase assignment reproduces both ports")
    notes = ["global displacement sign fixed by gauge: the first displaced mode "
             "takes phases (Theta_ii +- w)/2",
             "displacement phases carry residual cosine ambiguities where "
             "off-diagonal data cannot prune them",
             f"displacement-phase search: {stats.explored} branches explored, "
             f"{stats.pruned} pruned, {stats.kept} kept"]
    return _ranked(results, tol, notes)


def _reference_pair_table(m_ref: MeasurementSet, mom_cov: MomentSummary,
                          amp: np.ndarray, limit: float) -> np.ndarray:
    """compatible[k, a, i, b]: can alpha_k = amp[k, a] and alpha_i = amp[i, b] stand together?

    With the covariance fixed, the reference port's g2_ki, |g1_ki| and g1
    phase depend only on alpha_k and alpha_i.  A pair fails when one of these
    entries misses the data by more than the limit plus a rounding margin, so
    only choices that the full residual rejects are cut.  A mode with nbar = 0
    makes the full residual raise, so it prunes nothing.
    """
    mm, k = amp.shape
    compatible = np.ones((mm, k, mm, k), dtype=bool)
    coherence = mom_cov.coherence_matrix()  # centered: params_cov has alpha = 0
    nbar = coherence.diagonal().real + np.abs(amp[:, 0]) ** 2
    if not nbar.min() > 0:
        return compatible
    root = np.sqrt(np.outer(nbar, nbar))[:, None, :, None]
    ak, ai = amp[:, :, None, None], amp[None, None, :, :]
    g1 = (coherence[:, None, :, None] + ak.conj() * ai) / root
    g2 = (1.0 + np.abs(g1) ** 2 + np.abs((mom_cov.cov[:, None, :, None] + ak * ai) / root) ** 2
          - 2.0 * (np.abs(ak) * np.abs(ai) / root) ** 2)
    bound = limit * (1.0 + 1e-6) + 1e-9
    # (model of entry (k, i), model of entry (i, k), data, entries checked)
    blocks = []
    if m_ref.g2 is not None:
        blocks.append((g2, g2, m_ref.g2, None))
    if m_ref.g1_abs is not None:
        blocks.append((np.abs(g1), np.abs(g1), m_ref.g1_abs, None))
    if m_ref.g1_phase is not None:
        mask = m_ref.g1_abs > 1e-9 if m_ref.g1_abs is not None else np.ones((mm, mm), bool)
        np.fill_diagonal(mask, False)
        blocks.append((np.angle(g1), -np.angle(g1), m_ref.g1_phase, mask))
    for model_ki, model_ik, data, mask in blocks:
        checked = np.ones((mm, mm), bool) if mask is None else mask
        for model, target, where in ((model_ki, data, checked), (model_ik, data.T, checked.T)):
            diff = model - target[:, None, :, None]
            if mask is not None:
                diff = wrap_angle(diff)
            compatible &= ~((np.abs(diff) > bound) & where[:, None, :, None])
    return compatible


def _assemble_displaced(m_ref, params_cov, mom_cov, alpha_abs, candidates_per_mode, scale,
                        tol, stats: SearchStats | None = None):
    """Displacement-phase choices that reproduce the reference-port data.

    Mode i's options are its phase candidates; a candidate of None (no phase
    information in g2_ii) stands for phase 0.  The search places the modes
    depth first and cuts a branch as soon as a pair of modes misses the
    reference port's g2, |g1| or g1 phase (``_reference_pair_table``, built
    once from the alpha-independent moments ``mom_cov``).  Each complete
    choice that survives is scored with ``measurement_residual`` and kept
    below max(1000 tol, 1e-5); that limit caps every entry of the residual,
    so the kept set is the one that trying every combination would keep, in
    the same order.
    """
    limit = max(1000 * tol, 1e-5)
    phases = [[0.0] if cands == [None] else cands for cands in candidates_per_mode]
    padded = _padded(phases)
    amp = np.sqrt(scale) * alpha_abs[:, None] * np.exp(1j * padded)
    compatible = _reference_pair_table(m_ref, mom_cov, amp, limit)
    results = []
    for choice in _depth_first([len(p) for p in phases], compatible, stats):
        alpha = alpha_abs * np.exp(1j * padded[np.arange(len(choice)), list(choice)])
        params = GaussianParams(np.sqrt(scale) * alpha, params_cov.squeeze,
                                params_cov.rotation, params_cov.thermal)
        res = measurement_residual(params, m_ref)
        if res <= limit:
            stored = GaussianParams(alpha, params_cov.squeeze, params_cov.rotation,
                                    params_cov.thermal)
            results.append((res, stored))
    return results
