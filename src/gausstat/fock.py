"""Brute-force verification backend on a truncated Fock space.

The density operator is D S R rho_th R† S† D†, each unitary the exponential
of a truncated ladder-operator generator.  It is built from a square root,
rho = W W^H with W = D S R W_th: the columns of W_th are sqrt(p_n) |n> for
the thermal weights p_n that are not zero, so a pure state has one column.
No unitary is formed on the full space:

- R: the truncated a_i† a_j keeps the total photon number, so the rotation
  generator is block diagonal over it and each block is exponentiated alone.
  A diagonal phi (always, for one mode) is skipped: it multiplies each
  thermal column by a phase, and W W^H cancels it.
- S: a_i a_j and a_i† a_j† change the total number by two, so the squeeze
  generator keeps its parity and splits into two blocks.
- D: the displacement terms act on one mode each and commute, so D is the
  Kronecker product of d x d factors, each applied along its mode's axis.

Every block G is anti-hermitian, so 1j*G is hermitian and eigh gives
1j*G = V diag(w) V^H with real w and unitary V.  Then exp(G) =
V diag(e^{-iw}) V^H, unitary to rounding, whatever the norm of G.
Truncated generators of D and S are still anti-hermitian, so those factors
remain exactly unitary and the trace deficit alone cannot detect their
truncation error; the builder therefore also records the occupancy of the top
Fock levels of every mode, which is what actually controls convergence.

Dense matrices only; this is an oracle, not a production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import TruncationError, ValidationError
from .states import GaussianParams
from .words import LadderWord

DEFAULT_CUTOFFS = {1: 25, 2: 12, 3: 8}
MAX_MODES = 3
MAX_DIMENSION = 16384
_TAIL_LEVELS = 2


@lru_cache(maxsize=8)
def _sparse_annihilators(modes: int, cutoff: int):
    a = sparse.diags(np.sqrt(np.arange(1, cutoff)), 1, dtype=complex, format="csr")
    eye = sparse.identity(cutoff, dtype=complex, format="csr")
    out = []
    for k in range(modes):
        op = None
        for m in range(modes):
            factor = a if m == k else eye
            op = factor if op is None else sparse.kron(op, factor, format="csr")
        out.append(op.tocsr())
    return tuple(out)


@dataclass(frozen=True)
class TruncatedDensity:
    """Dense truncated density matrix with its measured truncation indicators."""

    matrix: np.ndarray
    dim: int
    modes: int
    deficit: float
    tail_mass: float

    def validate(self, tol: float = 1e-10) -> None:
        h = np.abs(self.matrix - self.matrix.conj().T).max()
        if h > tol:
            raise ValidationError(f"density not hermitian: asymmetry {h:.2e}")
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -1e-10:
            raise ValidationError(f"density not positive semidefinite: min eig {evals.min():.2e}")


@lru_cache(maxsize=8)
def _number_blocks(modes: int, cutoff: int):
    """Fock-basis indices grouped by total photon number, and by its parity."""
    total = np.indices((cutoff,) * modes).reshape(modes, -1).sum(axis=0)
    by_number = tuple(np.flatnonzero(total == n) for n in range(total.max() + 1))
    by_parity = tuple(np.flatnonzero(total % 2 == p) for p in (0, 1))
    return by_number, by_parity


def _thermal_columns(occupations: np.ndarray, cutoff: int) -> np.ndarray:
    """Columns sqrt(p_n) |n> of the thermal seed, zero weights dropped (dim x k)."""
    n = np.arange(cutoff)
    p = np.ones(1)
    for occ in occupations:
        p = np.kron(p, (occ / (occ + 1.0)) ** n / (occ + 1.0) if occ > 0 else n == 0)
    cols = np.flatnonzero(p)
    w = np.zeros((p.size, cols.size), dtype=complex)
    w[cols, np.arange(cols.size)] = np.sqrt(p[cols])
    return w


def _exp_anti_hermitian(gen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, phases) with exp(gen) = V diag(phases) V^H, from eigh of the hermitian 1j*gen."""
    evals, vecs = np.linalg.eigh(1j * gen)
    return vecs, np.exp(-1j * evals)


def _apply_blocked(w: np.ndarray, gen, blocks) -> None:
    """w <- exp(gen) w in place, for a sparse anti-hermitian ``gen`` that maps
    the span of each index block to itself."""
    gen = gen.toarray()
    for idx in blocks:
        rows = w[idx]
        if not rows.any():
            continue
        vecs, phases = _exp_anti_hermitian(gen[np.ix_(idx, idx)])
        w[idx] = vecs @ (phases[:, None] * (vecs.conj().T @ rows))


def _displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(alpha a^+ - alpha* a) of one truncated mode (cutoff x cutoff)."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    vecs, phases = _exp_anti_hermitian(alpha * a.T - np.conj(alpha) * a)
    return (vecs * phases) @ vecs.conj().T


def build_density(params: GaussianParams, cutoff: int | None = None,
                  tail_tol: float = 1e-3, check: bool = True) -> TruncatedDensity:
    """Construct the truncated density operator of a Gaussian state.

    Args:
        params: state parameters; at most three modes.
        cutoff: Fock levels per mode (defaults per mode count: 25/12/8).
        tail_tol: raise TruncationError when deficit or top-level occupancy
            exceeds this; pass a larger value to inspect marginal states.
        check: validate hermiticity/positivity of the result.
    """
    m = params.modes
    if m > MAX_MODES:
        raise ValidationError(f"oracle supports at most {MAX_MODES} modes, got {m}")
    d = DEFAULT_CUTOFFS[m] if cutoff is None else int(cutoff)
    if d < 2:
        raise ValidationError("cutoff must be at least 2")
    if d**m > MAX_DIMENSION:
        raise ValidationError(f"requested dimension {d**m} exceeds limit {MAX_DIMENSION}")

    ladders = _sparse_annihilators(m, d)
    by_number, by_parity = _number_blocks(m, d)
    dim = d**m
    w = _thermal_columns(params.thermal, d)
    phi, z = params.rotation, params.squeeze
    # a diagonal rotation generator (always, for one mode) only multiplies
    # each thermal column |n> by a phase, which W W^H cancels
    if np.any(phi - np.diag(np.diag(phi))):
        gen_r = sum(1j * phi[i, j] * (ladders[i].conj().T @ ladders[j])
                    for i in range(m) for j in range(m) if phi[i, j] != 0)
        _apply_blocked(w, gen_r, by_number)
    if np.any(z):
        gen_s = sum(0.5 * np.conj(z[i, j]) * (ladders[i] @ ladders[j])
                    - 0.5 * z[i, j] * (ladders[i].conj().T @ ladders[j].conj().T)
                    for i in range(m) for j in range(m) if z[i, j] != 0)
        _apply_blocked(w, gen_s, by_parity)
    t = w.reshape((d,) * m + (-1,))
    for i, alpha in enumerate(params.alpha):
        if alpha != 0:
            t = np.moveaxis(np.tensordot(_displacement(alpha, d), t, axes=(1, i)), 0, i)
    w = t.reshape(dim, -1)
    rho = w @ w.conj().T
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
    density = TruncatedDensity(rho, d, m, deficit, tail)
    if check:
        density.validate()
    return density


def moment_bruteforce(rho: TruncatedDensity, word: LadderWord) -> complex:
    """Tr[rho · (operator product)] with truncated matrix ladder operators."""
    if word.max_mode() >= rho.modes:
        raise ValidationError("word references a mode outside the density")
    ladders = _sparse_annihilators(rho.modes, rho.dim)
    op = None
    for lop in word.ops:
        mat = ladders[lop.mode]
        mat = mat.conj().T.tocsr() if lop.creation else mat
        op = mat if op is None else op @ mat
    if op is None:
        return complex(np.trace(rho.matrix))
    return complex(op.multiply(rho.matrix.T).sum())


def vacuum_overlap(rho: TruncatedDensity) -> float:
    """<0..0| rho |0..0>."""
    return float(rho.matrix[0, 0].real)


def mode_number_distribution_matrix(matrix: np.ndarray, mode: int, modes: int,
                                    cutoff: int) -> np.ndarray:
    """Marginal photon-number distribution of one mode from a raw matrix."""
    shaped = matrix.reshape((cutoff,) * modes * 2)
    out = shaped
    # trace out every other mode, highest axis first to keep indices stable
    for ax in reversed(range(modes)):
        if ax == mode:
            continue
        out = np.trace(out, axis1=ax, axis2=out.ndim // 2 + ax)
    return np.diag(out).real.copy()


def photon_number_distribution(rho: TruncatedDensity, mode: int) -> np.ndarray:
    """Marginal photon-number distribution of ``mode``."""
    if not 0 <= mode < rho.modes:
        raise ValidationError(f"mode {mode} out of range")
    return mode_number_distribution_matrix(rho.matrix, mode, rho.modes, rho.dim)


def total_number_factorial_moment(rho: TruncatedDensity, order: int) -> float:
    """<n_tot (n_tot - 1) ... (n_tot - order + 1)> for the summed number operator.

    Equals the fully mode-summed normally ordered moment entering bucket
    correlations; cheap because n_tot is diagonal in the Fock basis.
    """
    d, m = rho.dim, rho.modes
    digits = np.indices((d,) * m).reshape(m, -1).sum(axis=0).astype(float)
    weight = np.ones_like(digits)
    for k in range(order):
        weight *= digits - k
    return float((np.diag(rho.matrix).real * weight).sum())

