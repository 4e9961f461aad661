"""Gaussian state parameters, Bogoliubov data, derived moments and correlation tensors.

A state is parametrized as displacement, squeezing, rotation applied to an
uncorrelated thermal state: D(alpha) S(z) R(phi) rho_th R† S† D†, with z a
complex symmetric matrix (left polar z = r e^{i theta}), phi hermitian and
per-mode thermal occupations N_k >= 0.  The induced map on the stacked ladder
vector b = (a, a†) is affine, b -> L b + A, with

    E = cosh(r) e^{i phi},   F = -sinh(r) e^{i theta} e^{-i phi^T},
    L = [[E, F], [F*, E*]],  A = (alpha, alpha*).

All second moments follow from L acting on the thermal second moments, which
is how ``derive_moments`` populates mean photon numbers, first-order
coherences g1, and the annihilation covariances cov_ij.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import NumericalError, UndefinedCorrelationError, ValidationError
from .words import MomentTable

_HERM_TOL = 1e-10


def _as_complex_matrix(x, m: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=complex)
    if arr.shape != (m, m):
        raise ValidationError(f"{name} must be {m}x{m}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class GaussianParams:
    """Full parameter set (alpha, z, phi, N) of a multimode Gaussian state.

    Degree-of-freedom count is 2M^2 + 3M: M thermal occupations, 2M real
    displacement parameters, M^2 + M from the symmetric squeeze matrix and
    M^2 - M physically relevant rotation parameters (the diagonal of phi is a
    global phase on each mode of the thermal seed and drops out).
    """

    alpha: np.ndarray
    squeeze: np.ndarray
    rotation: np.ndarray
    thermal: np.ndarray

    def __post_init__(self):
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=complex))
        m = alpha.shape[0]
        if m < 1:
            raise ValidationError("need at least one mode")
        squeeze = _as_complex_matrix(self.squeeze, m, "squeeze")
        rotation = _as_complex_matrix(self.rotation, m, "rotation")
        thermal = np.atleast_1d(np.asarray(self.thermal, dtype=float))
        if thermal.shape != (m,):
            raise ValidationError(f"thermal must have length {m}")
        for name, value in (("alpha", alpha), ("squeeze", squeeze), ("rotation", rotation),
                            ("thermal", thermal)):
            if not np.isfinite(value).all():
                raise ValidationError(f"{name} must be finite")
        scale = 1.0 + np.abs(squeeze).max()
        if np.abs(squeeze - squeeze.T).max() > _HERM_TOL * scale:
            raise ValidationError("squeeze matrix z must be symmetric")
        scale = 1.0 + np.abs(rotation).max()
        if np.abs(rotation - rotation.conj().T).max() > _HERM_TOL * scale:
            raise ValidationError("rotation matrix phi must be hermitian")
        if thermal.min() < -1e-12:
            raise ValidationError("thermal occupations must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "squeeze", 0.5 * (squeeze + squeeze.T))
        object.__setattr__(self, "rotation", 0.5 * (rotation + rotation.conj().T))
        object.__setattr__(self, "thermal", np.clip(thermal, 0.0, None))

    @property
    def modes(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def vacuum(cls, modes: int) -> "GaussianParams":
        z = np.zeros((modes, modes), dtype=complex)
        return cls(np.zeros(modes, dtype=complex), z, z.copy(), np.zeros(modes))

    @classmethod
    def single_mode(cls, alpha=0.0, r=0.0, theta=0.0, occupation=0.0) -> "GaussianParams":
        z = np.array([[r * np.exp(1j * theta)]], dtype=complex)
        return cls(
            np.array([alpha], dtype=complex),
            z,
            np.zeros((1, 1), dtype=complex),
            np.array([occupation], dtype=float),
        )


def _squeeze_blocks(z: np.ndarray):
    """cosh(r) and sinh(r) e^{i theta} of the left polar form z = r e^{i theta}.

    One SVD z = W S V^H gives both: r = W S W^H and e^{i theta} = W V^H, so
    cosh(r) = W cosh(S) W^H and sinh(r) e^{i theta} = W sinh(S) V^H.
    """
    w, sv, vh = np.linalg.svd(np.asarray(z, dtype=complex))
    return (w * np.cosh(sv)) @ w.conj().T, (w * np.sinh(sv)) @ vh


def _unitary_from_hermitian(phi: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (phi + phi.conj().T))
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


@dataclass(frozen=True)
class BogoliubovMap:
    """Blocks E, F of the linear part and the stacked displacement (alpha, alpha*)."""

    E: np.ndarray
    F: np.ndarray
    disp: np.ndarray

    @property
    def modes(self) -> int:
        return self.E.shape[0]

    @property
    def L(self) -> np.ndarray:
        return np.block([[self.E, self.F], [self.F.conj(), self.E.conj()]])


def bogoliubov_map(params: GaussianParams) -> BogoliubovMap:
    """Bogoliubov blocks of the unitary D(alpha) S(z) R(phi).

    Raises NumericalError when cosh(r) overflows (r beyond about 710).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cosh_r, sinh_r_expith = _squeeze_blocks(params.squeeze)
    if not (np.isfinite(cosh_r).all() and np.isfinite(sinh_r_expith).all()):
        raise NumericalError("squeezing too large: cosh(r) overflows a float")
    expiphi = _unitary_from_hermitian(params.rotation)
    E = cosh_r @ expiphi
    F = -sinh_r_expith @ expiphi.conj()  # e^{-i phi^T} = conj(e^{i phi})
    disp = np.concatenate([params.alpha, params.alpha.conj()])
    return BogoliubovMap(E, F, disp)


@dataclass(frozen=True)
class MomentSummary:
    """Derived first/second moments: mean photon numbers, g1, cov, displacements.

    ``g1`` is hermitian with unit diagonal where defined; entries touching a
    mode with nbar = 0 are NaN (undefined, never infinite).  ``cov`` is the
    symmetric matrix of centered <a_i a_j> covariances.
    """

    nbar: np.ndarray
    g1: np.ndarray
    cov: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nbar", np.atleast_1d(np.asarray(self.nbar, dtype=float)))
        object.__setattr__(self, "g1", np.asarray(self.g1, dtype=complex))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=complex))
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=complex)))

    @property
    def modes(self) -> int:
        return self.nbar.shape[0]

    def coherence_matrix(self) -> np.ndarray:
        """Unnormalized hermitian G with G_ij = <a_i† a_j> and G_ii = nbar_i."""
        root = np.sqrt(np.outer(self.nbar, self.nbar))
        g = self.g1 * root
        return np.where(np.isfinite(g), g, 0.0)

    def centered_coherence(self) -> np.ndarray:
        """<a_i† a_j> - alpha_i* alpha_j."""
        return self.coherence_matrix() - np.outer(self.alpha.conj(), self.alpha)

    def to_moment_table(self) -> MomentTable:
        """Uncentered first/second moments for the moment kernel."""
        aa = self.cov + np.outer(self.alpha, self.alpha)
        return MomentTable(self.alpha, aa, self.coherence_matrix())

    @classmethod
    def from_unnormalized(cls, coherence: np.ndarray, cov: np.ndarray,
                          alpha: np.ndarray) -> "MomentSummary":
        coherence = np.asarray(coherence, dtype=complex)
        nbar = np.diag(coherence).real.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            g1 = coherence / np.sqrt(np.outer(nbar, nbar))
        g1[~np.isfinite(g1)] = np.nan
        return cls(nbar, g1, np.asarray(cov, dtype=complex), np.asarray(alpha, dtype=complex))


def _thermal_second_moments(occupations: np.ndarray) -> np.ndarray:
    """<b_mu b_nu> of the thermal seed in the stacked (a, a†) basis."""
    m = occupations.shape[0]
    t = np.zeros((2 * m, 2 * m), dtype=complex)
    t[:m, m:] = np.diag(occupations + 1.0)
    t[m:, :m] = np.diag(occupations)
    return t


def derive_moments(params: GaussianParams) -> MomentSummary:
    """Mean photon numbers, g1, covariances and displacements of the state."""
    m = params.modes
    big_l = bogoliubov_map(params).L
    with np.errstate(over="ignore", invalid="ignore"):
        second = big_l @ _thermal_second_moments(params.thermal) @ big_l.T
        cov = second[:m, :m]
        centered_g = second[m:, :m]  # <δa_i† δa_j> at row i, column j
        coherence = centered_g + np.outer(params.alpha.conj(), params.alpha)
        # g1 is normalized by nbar_i nbar_j, which must not overflow either
        finite = np.isfinite(np.abs(np.diag(coherence)).max() ** 2)
    if not finite:
        raise NumericalError("mean photon numbers too large: nbar^2 overflows a float")
    return MomentSummary.from_unnormalized(coherence, 0.5 * (cov + cov.T), params.alpha)


def _require_occupied(moments: MomentSummary, modes) -> None:
    for i in modes:
        if not (moments.nbar[i] > 0):
            raise UndefinedCorrelationError(
                f"normalized correlations undefined: mode {i} has nbar = 0"
            )


def _pair_blocks(moments: MomentSummary):
    """Normalized moment blocks shared by the g2 and g3 kernels.

    With g = g1, returns c_ij = cov_ij / sqrt(n_i n_j), b_i = alpha_i / sqrt(n_i)
    and the pair matrix (h = c + b b^T, a = |b|^2)

        P_ij = |g_ij|^2 + |c_ij|^2 - a_i a_j + 2 Re(c_ij conj(b_i b_j))
             = |g_ij|^2 + |h_ij|^2 - 2 a_i a_j = g2_ij - 1.

    Entries touching a mode with nbar = 0 are NaN, and no warning is raised.
    """
    inv_root = 1.0 / np.sqrt(np.where(moments.nbar > 0, moments.nbar, np.nan))
    b = moments.alpha * inv_root
    c = moments.cov * np.outer(inv_root, inv_root)
    h = c + np.outer(b, b)
    a = np.abs(b) ** 2
    pair = np.abs(moments.g1) ** 2 + np.abs(h) ** 2 - 2.0 * np.outer(a, a)
    return c, b, pair


def _g3_kernel(g: np.ndarray, c: np.ndarray, b: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """All g3[i, j, k] at once from the sixth-order decomposition of the g3 word.

    Takes the blocks of ``_pair_blocks`` (g, c, b and P) and, with
    h = c + b b^T and a = |b|^2, returns

        g3_ijk = 1 + 4 a_i a_j a_k + 2 Re(g_ij g_jk g_ki) + K_ijk + K_jki + K_kij,
        K_ijk = P_ij - w_ij a_k
                + 2 Re(g_ij [conj(c_jk) h_ik + conj(b_j b_k) c_ik]),
        w_ij = 4 Re(c_ij conj(b_i b_j)) + 2 Re(g_ij b_i conj(b_j)).

    Setting c = 0 or b = 0 gives the non-squeezed or the non-displaced sector.
    The mode axes come last: g, c and P are (..., M, M) and b is (..., M),
    their leading axes broadcast against each other, and the result is
    (..., M, M, M), one tensor per block set.  Each entry is computed as it is
    for one block set alone, to the bit.
    """
    bi, bj = b[..., :, None], b[..., None, :]
    bb = bi * bj
    bbc = bb.conj()
    h = c + bb
    a = np.abs(b) ** 2
    w = 4.0 * (c * bbc).real + 2.0 * (g * (bi * bj.conj())).real
    gij = g[..., :, :, None]
    k = (pair[..., :, :, None] - w[..., :, :, None] * a[..., None, None, :]
         + 2.0 * (gij * (c.conj()[..., None, :, :] * h[..., :, None, :]
                         + bbc[..., None, :, :] * c[..., :, None, :])).real)
    lead = tuple(range(k.ndim - 3))
    i = len(lead)  # K_jki and K_kij are K_ijk with its mode axes rotated
    aa = a[..., :, None] * a[..., None, :]
    return (1.0 + 4.0 * a[..., :, None, None] * aa[..., None, :, :]
            + 2.0 * (gij * g[..., None, :, :] * g.swapaxes(-1, -2)[..., :, None, :]).real
            + k + k.transpose(lead + (i + 2, i, i + 1)) + k.transpose(lead + (i + 1, i + 2, i)))


def _g3_array(moments: MomentSummary) -> np.ndarray:
    """All g3[i, j, k] of a state: ``_g3_kernel`` on its ``_pair_blocks``."""
    return _g3_kernel(moments.g1, *_pair_blocks(moments))


def g2_tensor(moments: MomentSummary) -> np.ndarray:
    """Second-order correlation matrix.

    g2_ij = 1 + |g1_ij|^2 + (|cov_ij + alpha_i alpha_j|^2
            - 2 |alpha_i|^2 |alpha_j|^2) / (nbar_i nbar_j).
    """
    _require_occupied(moments, range(moments.modes))
    g2 = 1.0 + _pair_blocks(moments)[-1]
    return 0.5 * (g2 + g2.T)


def g3_value(moments: MomentSummary, i: int, j: int, k: int) -> float:
    """Third-order correlation g3_ijk, read at the sorted triple of the full tensor."""
    i, j, k = sorted((i, j, k))
    _require_occupied(moments, (i, j, k))
    return float(_g3_array(moments)[i, j, k])


def g3_tensor(moments: MomentSummary, triples=None) -> dict[tuple[int, int, int], float]:
    """g3 for the requested triples (default: all i <= j <= k).

    Each value is read at the sorted triple, so permutation symmetry is exact.
    """
    if triples is None:
        triples = combinations_with_replacement(range(moments.modes), 3)
    triples = [tuple(t) for t in triples]
    index = np.sort(np.array(triples, dtype=int).reshape(-1, 3), axis=1)
    if not moments.nbar.min() > 0:
        for t in triples:
            _require_occupied(moments, sorted(t))
    values = _g3_array(moments)[index[:, 0], index[:, 1], index[:, 2]]
    return dict(zip(triples, values.tolist()))


def single_mode_g2_g3(params: GaussianParams) -> tuple[float, float]:
    """Convenience: (g2, g3) of a single-mode state."""
    if params.modes != 1:
        raise ValidationError("single_mode_g2_g3 needs a single-mode state")
    mom = derive_moments(params)
    return float(g2_tensor(mom)[0, 0]), g3_value(mom, 0, 0, 0)


def mode_vacuum_probability(moments: MomentSummary, mode: int) -> float:
    """Vacuum probability of one mode of a multimode state from its reduced moments.

    The single-mode marginal of a Gaussian state is Gaussian.  With its
    displacement alpha, covariance cov = <a a> - alpha^2 and centered
    occupation m_c = nbar - |alpha|^2,

        p0 = exp(-[(m_c + 1) |alpha|^2 - Re(conj(cov) alpha^2)] / Delta) / sqrt(Delta),
        Delta = (m_c + 1)^2 - |cov|^2.

    Raises ValidationError when (2 m_c + 1)^2 - 4 |cov|^2 < -1e-12, which no
    physical mode reaches.
    """
    alpha = complex(moments.alpha[mode])
    cov = complex(moments.cov[mode, mode])
    m_c = float(moments.nbar[mode]) - abs(alpha) ** 2
    if (2 * m_c + 1.0) ** 2 - 4.0 * abs(cov) ** 2 < -1e-12:
        raise ValidationError("reduced mode violates single-mode physicality")
    delta = (m_c + 1.0) ** 2 - abs(cov) ** 2
    expo = ((m_c + 1.0) * abs(alpha) ** 2 - (cov.conjugate() * alpha**2).real) / delta
    return math.exp(-expo) / math.sqrt(delta)


def apply_uniform_loss(moments: MomentSummary, eta: float) -> MomentSummary:
    """Uniform linear loss at the moment level: alpha -> sqrt(eta) alpha, cov -> eta cov.

    Invented plumbing for invariance tests; normalized g(n) are untouched by
    construction while every loss-sensitive observable scales.
    """
    if not 0.0 < eta <= 1.0:
        raise ValidationError("loss transmission eta must lie in (0, 1]")
    return MomentSummary(eta * moments.nbar, moments.g1, eta * moments.cov,
                         np.sqrt(eta) * moments.alpha)
