"""Gaussian state parameters, Bogoliubov data, derived moments and correlation tensors.

A state is parametrized as displacement, squeezing, rotation applied to an
uncorrelated thermal state: D(alpha) S(z) R(phi) rho_th R† S† D†, with z a
complex symmetric matrix (left polar z = r e^{i theta}), phi hermitian and
per-mode thermal occupations N_k >= 0.  The induced map on the stacked ladder
vector b = (a, a†) is affine, b -> L b + A, with

    E = cosh(r) e^{i phi},   F = -sinh(r) e^{i theta} e^{-i phi^T},
    L = [[E, F], [F*, E*]],  A = (alpha, alpha*).

All second moments follow from the M x M blocks acting on the thermal seed;
with ``X N`` scaling the columns of X by the occupations N,

    cov      = <δa δa^T>  = (F N) E^T + (E (N + 1)) F^T,
    <δa† δa> = (E* N) E^T + (F* (N + 1)) F^T,

which is how ``derive_moments`` populates mean photon numbers, first-order
coherences g1, and the annihilation covariances cov_ij.  One routine,
``_bogoliubov_blocks``, builds E and F, and ``derive_moments`` reads them
directly.  ``MomentSummary.from_unnormalized`` is the one constructor
from <a_i† a_j>, cov and alpha: it normalizes g1 and rejects an nbar whose
square overflows.  A ``MomentSummary`` holds its arrays read-only (arrays a
caller still owns are copied first) and computes its normalized blocks
(c, b, P) and its full g3 tensor once, on first use, so every g2, g3 and
bucket reading of one state shares one kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import NumericalError, UndefinedCorrelationError, ValidationError
from .words import MomentTable

_HERM_TOL = 1e-10


def _as_vector(x, dtype) -> np.ndarray:
    """``np.atleast_1d(np.asarray(x, dtype=dtype))`` without its Python wrapper."""
    arr = np.asarray(x, dtype=dtype)
    return arr.reshape(1) if arr.ndim == 0 else arr


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite (one ufunc and one reduction)."""
    return bool(np.logical_and.reduce(np.isfinite(x), axis=None))


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
        alpha = _as_vector(self.alpha, complex)
        m = alpha.shape[0]
        if m < 1:
            raise ValidationError("need at least one mode")
        squeeze = _as_complex_matrix(self.squeeze, m, "squeeze")
        rotation = _as_complex_matrix(self.rotation, m, "rotation")
        thermal = _as_vector(self.thermal, float)
        if thermal.shape != (m,):
            raise ValidationError(f"thermal must have length {m}")
        if not _all_finite(alpha):
            raise ValidationError("alpha must be finite")
        # a finite largest |entry| means finite entries; it also scales the
        # symmetry tolerance
        z_top, phi_top = np.abs(squeeze).max(), np.abs(rotation).max()
        if not (math.isfinite(z_top) or _all_finite(squeeze)):
            raise ValidationError("squeeze must be finite")
        if not (math.isfinite(phi_top) or _all_finite(rotation)):
            raise ValidationError("rotation must be finite")
        low, high = (np.minimum.reduce(thermal, initial=0.0),
                     np.maximum.reduce(thermal, initial=0.0))
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValidationError("thermal must be finite")
        squeeze_t, rotation_h = squeeze.T, rotation.conj().T
        if np.abs(squeeze - squeeze_t).max() > _HERM_TOL * (1.0 + z_top):
            raise ValidationError("squeeze matrix z must be symmetric")
        if np.abs(rotation - rotation_h).max() > _HERM_TOL * (1.0 + phi_top):
            raise ValidationError("rotation matrix phi must be hermitian")
        if low < -1e-12:
            raise ValidationError("thermal occupations must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "squeeze", 0.5 * (squeeze + squeeze_t))
        object.__setattr__(self, "rotation", 0.5 * (rotation + rotation_h))
        object.__setattr__(self, "thermal", np.maximum(thermal, 0.0))

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


def _idle_modes_kept(x: np.ndarray, blocks, idle):
    """``blocks(x)`` with the modes whose row of x is all zero taken out first.

    The SVD or eigh of a matrix with a zero row leaves rounding in that row's
    vectors, so a mode the matrix leaves alone would pick up a mean photon
    number of about 1e-32.  Such a mode gets, exactly, the identity in each
    output of ``blocks`` flagged True in ``idle`` and zero in the others, and
    ``blocks`` acts on the other modes.
    """
    # a matrix with no zero entry, the common case, has no zero row
    if np.count_nonzero(x) == x.size or (live := x.any(axis=1)).all():
        return blocks(x)
    out = tuple(np.eye(len(x), dtype=complex) if one else np.zeros_like(x) for one in idle)
    if live.any():
        sub = np.ix_(live, live)
        for arr, block in zip(out, blocks(x[sub])):
            arr[sub] = block
    return out


def _squeeze_blocks(z: np.ndarray):
    """cosh(r) and sinh(r) e^{i theta} of the left polar form z = r e^{i theta}.

    One SVD z = W S V^H gives both: r = W S W^H and e^{i theta} = W V^H, so
    cosh(r) = I + W (2 sinh^2(S/2)) W^H and sinh(r) e^{i theta} = W sinh(S) V^H.
    A mode z leaves alone keeps an exact unit row of cosh(r) and a zero row
    of sinh(r) e^{i theta}.
    """
    def blocks(z):
        w, sv, vh = np.linalg.svd(z)
        return (np.eye(len(z)) + (w * (2.0 * np.sinh(0.5 * sv) ** 2)) @ w.conj().T,
                (w * np.sinh(sv)) @ vh)

    return _idle_modes_kept(np.asarray(z, dtype=complex), blocks, (True, False))


def _unitary_from_hermitian(phi: np.ndarray) -> np.ndarray:
    """e^{i phi} as I + V (e^{iw} - 1) V^H from a hermitian complex phi = V w V^H
    (``GaussianParams`` stores its rotation exactly hermitian); a mode phi
    leaves alone keeps an exact unit row."""
    def blocks(phi):
        vals, vecs = np.linalg.eigh(phi)
        return (np.eye(len(phi)) + (vecs * np.expm1(1j * vals)) @ vecs.conj().T,)

    return _idle_modes_kept(phi, blocks, (True,))[0]


def _bogoliubov_blocks(params: GaussianParams) -> tuple[np.ndarray, np.ndarray]:
    """E and F of the unitary D(alpha) S(z) R(phi).  Callers run it under
    ``np.errstate(over="ignore", invalid="ignore")``: cosh(r) and sinh(r) of a
    huge r overflow before they are checked.

    Raises NumericalError when cosh(r) overflows (r beyond about 710).
    """
    cosh_r, sinh_r_expith = _squeeze_blocks(params.squeeze)
    if not (_all_finite(cosh_r) and _all_finite(sinh_r_expith)):
        raise NumericalError("squeezing too large: cosh(r) overflows a float")
    expiphi = _unitary_from_hermitian(params.rotation)
    # e^{-i phi^T} = conj(e^{i phi})
    return cosh_r @ expiphi, -sinh_r_expith @ expiphi.conj()


@dataclass(frozen=True)
class MomentSummary:
    """Derived first/second moments: mean photon numbers, g1, cov, displacements.

    ``g1`` is hermitian with unit diagonal where defined; entries touching a
    mode with nbar = 0 are NaN (undefined, never infinite).  ``cov`` is the
    symmetric matrix of centered <a_i a_j> covariances.  The arrays are
    read-only, so the blocks and the g3 tensor memoized from them on first use
    cannot go stale.
    """

    nbar: np.ndarray
    g1: np.ndarray
    cov: np.ndarray
    alpha: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, arr in (("nbar", _as_vector(self.nbar, float)),
                          ("g1", np.asarray(self.g1, dtype=complex)),
                          ("cov", np.asarray(self.cov, dtype=complex)),
                          ("alpha", _as_vector(self.alpha, complex))):
            # made read-only; a writeable array the caller passed, or a view
            # of some array, is copied first
            if arr.flags.writeable:
                if arr is getattr(self, name) or arr.base is not None:
                    arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def modes(self) -> int:
        return self.nbar.shape[0]

    def coherence_matrix(self) -> np.ndarray:
        """Unnormalized hermitian G with G_ij = <a_i† a_j> and G_ii = nbar_i."""
        root = np.sqrt(self.nbar[:, None] * self.nbar)
        g = self.g1 * root
        return np.where(np.isfinite(g), g, 0.0)

    def to_moment_table(self) -> MomentTable:
        """Uncentered first/second moments for the moment kernel."""
        aa = self.cov + self.alpha[:, None] * self.alpha
        return MomentTable(self.alpha, aa, self.coherence_matrix())

    @classmethod
    def from_unnormalized(cls, coherence: np.ndarray, cov: np.ndarray,
                          alpha: np.ndarray) -> "MomentSummary":
        """The summary of <a_i† a_j> (``coherence``), the centered <a_i a_j>
        (``cov``) and the displacements; ``cov`` and ``alpha`` are copied unless
        they are read-only.

        Raises NumericalError when nbar_i nbar_j, g1's normalization,
        overflows a float.
        """
        coherence = np.asarray(coherence, dtype=complex)
        nbar = coherence.diagonal().real.copy()
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if not np.isfinite(np.abs(nbar).max() ** 2):
                raise NumericalError("mean photon numbers too large: nbar^2 overflows a float")
            g1 = coherence / np.sqrt(nbar[:, None] * nbar)
        g1[~np.isfinite(g1)] = np.nan
        nbar.setflags(write=False)
        g1.setflags(write=False)
        return cls(nbar, g1, cov, alpha)


def derive_moments(params: GaussianParams) -> MomentSummary:
    """Mean photon numbers, g1, covariances and displacements of the state."""
    alpha, n = params.alpha, params.thermal
    n1 = n + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        e, f = _bogoliubov_blocks(params)
        cov = (f * n) @ e.T + (e * n1) @ f.T
        centered_g = (e.conj() * n) @ e.T + (f.conj() * n1) @ f.T  # <δa_i† δa_j>
        coherence = centered_g + alpha.conj()[:, None] * alpha
        cov = 0.5 * (cov + cov.T)
    cov.setflags(write=False)
    return MomentSummary.from_unnormalized(coherence, cov, alpha)


def _require_occupied(moments: MomentSummary, modes) -> None:
    """UndefinedCorrelationError naming the first of ``modes`` with nbar = 0."""
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
    Computed once per state and returned read-only.
    """
    blocks = moments._memo.get("pair_blocks")
    if blocks is None:
        inv_root = 1.0 / np.sqrt(np.where(moments.nbar > 0, moments.nbar, np.nan))
        b = moments.alpha * inv_root
        c = moments.cov * (inv_root[:, None] * inv_root)
        h = c + b[:, None] * b
        a = np.abs(b) ** 2
        pair = np.abs(moments.g1) ** 2 + np.abs(h) ** 2 - 2.0 * (a[:, None] * a)
        for arr in (c, b, pair):
            arr.setflags(write=False)
        blocks = moments._memo["pair_blocks"] = (c, b, pair)
    return blocks


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
    """All g3[i, j, k] of a state: ``_g3_kernel`` on its ``_pair_blocks``,
    computed once per state and returned read-only."""
    g3 = moments._memo.get("g3")
    if g3 is None:
        g3 = _g3_kernel(moments.g1, *_pair_blocks(moments))
        g3.setflags(write=False)
        moments._memo["g3"] = g3
    return g3


def g2_tensor(moments: MomentSummary) -> np.ndarray:
    """Second-order correlation matrix.

    g2_ij = 1 + |g1_ij|^2 + (|cov_ij + alpha_i alpha_j|^2
            - 2 |alpha_i|^2 |alpha_j|^2) / (nbar_i nbar_j).
    """
    if not moments.nbar.min() > 0:
        _require_occupied(moments, range(moments.modes))
    g2 = 1.0 + _pair_blocks(moments)[-1]
    return 0.5 * (g2 + g2.T)


@lru_cache(maxsize=32)
def _all_triples(modes: int) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """Every triple i <= j <= k of ``modes`` modes, and its read-only index arrays."""
    triples = tuple(combinations_with_replacement(range(modes), 3))
    index = np.array(triples, dtype=int).T.copy()
    index.setflags(write=False)
    return triples, tuple(index)


def g3_tensor(moments: MomentSummary, triples=None) -> dict[tuple[int, int, int], float]:
    """g3 for the requested triples (default: all i <= j <= k).

    Each value is read at the sorted triple, so permutation symmetry is exact.
    """
    if triples is None:
        triples, index = _all_triples(moments.modes)
    else:
        triples = [tuple(t) for t in triples]
        index = tuple(np.sort(np.array(triples, dtype=int).reshape(-1, 3), axis=1).T)
    if not moments.nbar.min() > 0:
        for t in triples:
            _require_occupied(moments, sorted(t))
    return dict(zip(triples, _g3_array(moments)[index].tolist()))


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
