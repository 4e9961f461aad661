"""Brute-force verification backend on a truncated Fock space.

The density operator is D S R rho_th R† S† D†, each unitary the exponential
of a truncated ladder-operator generator.  It is built from a square root,
rho = W W^H with W = D S R W_th: the columns of W_th are sqrt(p_n) |n> for
the thermal weights p_n that the build keeps, so a pure state has one column.
No unitary is formed on the full space:

- W_th: zero weights go, and so do the lightest columns while their total
  weight delta keeps delta (M (d - 1))^3 <= 1e-16.  (M (d - 1))^3 bounds the
  norm of every ladder word of order <= 6 on the truncated space, and of the
  total-number factorial moments of order <= 3, so no raw ladder moment or
  factorial moment moves by more than 1e-16.  Ratios of them (g2, g3) move
  by that over their normalisation, up to 1/nbar^3 for a nearly empty
  mode.  delta is recorded as ``dropped_weight``, and it is part of the
  trace deficit.
- R: the truncated a_i† a_j keeps the total photon number, so the rotation
  generator is block diagonal over it and each block is exponentiated alone.
  A diagonal phi (always, for one mode) is skipped: it multiplies each
  thermal column by a phase, and W W^H cancels it.
- S: a_i a_j and a_i† a_j† change the total number by two, so the squeeze
  generator keeps its parity and splits into two blocks.
- D: the displacement terms act on one mode each and commute, so D is the
  Kronecker product of d x d factors, each applied along its mode's axis.

A thermal column |n> stays in its total-number block through R and in its
parity block through S.  So W's columns are kept in block order, each
block's exponential acts on the columns held in that block only, and a
block that holds none is skipped before its generator is built.

Every block G is anti-hermitian, so 1j*G is hermitian and eigh gives
1j*G = V diag(w) V^H with real w and unitary V.  Then exp(G) =
V diag(e^{-iw}) V^H, unitary to rounding, whatever the norm of G.
Truncated generators of D and S are still anti-hermitian, so those factors
remain exactly unitary and the trace deficit alone cannot detect their
truncation error; the builder therefore also records the occupancy of the top
Fock levels of every mode, which is what actually controls convergence.

Ladder operators are never formed as matrices.  A word of them acts by
index arithmetic on the Fock digits of the basis states (``_word_action``):
it maps each basis state it does not annihilate to one other, with a weight.
Each generator is scattered from these maps straight into the blocks it
keeps, at block-local places cached per (modes, cutoff)
(``_number_blocks``); no generator exists on the full space.

rho itself is never formed.  The build keeps W and its row populations
sum_c |W[s, c]|^2, the diagonal of rho, and reads from them everything the
oracle reports: the trace deficit, each mode's photon-number marginal (a
``bincount`` of its Fock digits weighted by the populations), the vacuum
overlap and the total-number factorial moments.  A ladder word shifts every
basis index by the same amount, so its moment is a weighted sum over one
diagonal band of W W^H; the shift-0 band is the populations.

Dense matrices only; this is an oracle, not a production path.  With
U = 16 dim^2 bytes, one dense complex matrix, a build holds W (dim x k with
k <= dim, up to U) and, at any time, the temporaries of one block's
exponential or one displacement step.  The largest block is a parity block
of dim/2 states, U/4 per matrix of its size.  Inside eigh it holds five:
the generator, eigh's copy of it, the eigenvectors and eigh's complex and
real workspace; after it, the eigenvectors and up to three products of the
block's rows of W.  A displacement step writes one new W.  So a build peaks
between 2 U and 3 U (a fully mixed state at (M, cutoff) = (3, 12):
tracemalloc peak 2.04 U, max RSS growth 2.8 U): 0.8 GB at
MAX_DIMENSION = 4096, and 3.2 GB at 8192, which stays refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationError, ValidationError
from .states import GaussianParams
from .words import LadderOp, LadderWord

DEFAULT_CUTOFFS = {1: 25, 2: 12, 3: 8}
MAX_MODES = 3
MAX_DIMENSION = 4096
_TAIL_LEVELS = 2
# the lightest thermal columns go while their weight times (M (d - 1))^3 stays below this
_DROP_TOL = 1e-16


@dataclass(frozen=True)
class TruncatedDensity:
    """Truncated density operator rho = W W^H, held as its factor W, with its
    populations (the diagonal of rho), measured truncation indicators and
    the total weight of the thermal columns the build left out."""

    factor: np.ndarray
    populations: np.ndarray
    dim: int
    modes: int
    deficit: float
    tail_mass: float
    dropped_weight: float


@lru_cache(maxsize=8)
def _fock_digits(modes: int, cutoff: int) -> np.ndarray:
    """digits[k, s]: photons in mode k of basis state s (mode 0 most significant)."""
    digits = np.indices((cutoff,) * modes).reshape(modes, -1)
    digits.flags.writeable = False
    return digits


@lru_cache(maxsize=8)
def _number_blocks(modes: int, cutoff: int):
    """The Fock basis grouped into blocks by total photon number, and by its
    parity.  Each grouping is (blocks, label, local): the basis indices of
    each block, ascending, and for every basis state s its block label[s] and
    its place local[s] in that block.  Number blocks come even numbers first,
    so a state's number label and parity label grow together."""
    total = _fock_digits(modes, cutoff).sum(axis=0)

    def grouping(label):
        label.flags.writeable = False
        blocks = tuple(np.flatnonzero(label == b) for b in range(label.max() + 1))
        local = np.empty_like(label)
        for idx in blocks:
            local[idx] = np.arange(idx.size)
        local.flags.writeable = False
        return blocks, label, local

    evens = total.max() // 2 + 1
    return grouping(total % 2 * evens + total // 2), grouping(total % 2)


@lru_cache(maxsize=8)
def _ladder_steps(modes: int, cutoff: int):
    """steps[k][creation] = (next, factor): a (or a†) on mode k maps basis state
    s to factor[s] |next[s]>.  Index dim is a sink, with factor 0, for the
    states the truncated operator annihilates (a† on the top level among them)."""
    dim = cutoff**modes
    index = np.arange(dim)

    def step(moves, shift, factor):
        return (np.append(np.where(moves, index + shift, dim), dim),
                np.append(np.where(moves, factor, 0.0), 0.0))

    steps = []
    for k, n in enumerate(_fock_digits(modes, cutoff)):
        stride = cutoff ** (modes - 1 - k)
        steps.append((step(n > 0, -stride, np.sqrt(n)),
                      step(n < cutoff - 1, stride, np.sqrt(n + 1.0))))
    return tuple(steps)


def _word_action(ops, modes: int, cutoff: int):
    """(src, dst, weight) with O|src> = weight |dst> for the truncated product
    O of the ladder operators ``ops`` (leftmost first); basis states that O
    annihilates are left out.  Each operator, rightmost first, moves one Fock
    digit by one and multiplies by sqrt(n) (a) or sqrt(n + 1) (a†)."""
    steps = _ladder_steps(modes, cutoff)
    dim = cutoff**modes
    dst = np.arange(dim)
    weight = np.ones(dim)
    for op in reversed(ops):
        nxt, factor = steps[op.mode][op.creation]
        weight = weight * factor[dst]
        dst = nxt[dst]
    src = np.flatnonzero(dst < dim)
    return src, dst[src], weight[src]


def _thermal_columns(occupations: np.ndarray, cutoff: int, label: np.ndarray):
    """The columns sqrt(p_n) |n> of the thermal seed that the build keeps, as
    (states, weights, dropped): the basis states n, in block order (by their
    ``label``, ascending within a block), their weights p_n, and the total
    weight of the columns left out.

    The lightest columns are left out while their total weight delta keeps
    delta (M (d - 1))^3 <= 1e-16.  (M (d - 1))^3 bounds the norm of every
    ladder word of order <= 6 on the truncated space, and of the
    total-number factorial moments of order <= 3, so no raw ladder moment or
    factorial moment moves by more than 1e-16.  Zero weights always go: a
    pure state has one column."""
    n = np.arange(cutoff)
    p = np.ones(1)
    for occ in occupations:
        p = np.kron(p, (occ / (occ + 1.0)) ** n / (occ + 1.0) if occ > 0 else n == 0)
    lightest = np.argsort(p, kind="stable")
    dropped = np.cumsum(p[lightest])
    cut = int(np.searchsorted(dropped, _DROP_TOL / (len(occupations) * (cutoff - 1)) ** 3,
                              side="right"))
    kept = lightest[cut:]
    states = kept[np.lexsort((kept, label[kept]))]
    return states, p[states], float(dropped[cut - 1]) if cut else 0.0


def _apply_blocked(w: np.ndarray, terms, grouping, seeds: np.ndarray,
                   modes: int, cutoff: int) -> None:
    """w <- exp(G) w in place, for the anti-hermitian G = sum of coef * (ladder
    word) over ``terms`` of (coef, ops), which maps each block of
    ``grouping`` (see ``_number_blocks``) to itself.

    Column c of w is zero outside the block of its seed state ``seeds[c]``,
    and the columns come in block order.  So each block's exponential acts
    on its own columns only, and a block that holds none is skipped before
    its generator is built.  Each word's entries are scattered straight into
    the block they lie in, at their block-local places, and
    exp(G) = V diag(e^{-iw}) V^H from eigh of the hermitian 1j*G."""
    blocks, label, local = grouping
    actions = [(coef, _word_action(ops, modes, cutoff)) for coef, ops in terms]
    src = np.concatenate([src for _, (src, _, _) in actions])
    dst = np.concatenate([dst for _, (_, dst, _) in actions])
    val = np.concatenate([coef * weight for coef, (_, _, weight) in actions])
    src_block = label[src]
    by_block = np.argsort(src_block, kind="stable")
    bounds = np.arange(len(blocks) + 1)
    entries = np.searchsorted(src_block[by_block], bounds)
    columns = np.searchsorted(label[seeds], bounds)
    for b, idx in enumerate(blocks):
        c0, c1 = columns[b], columns[b + 1]
        if c0 == c1:
            continue
        e = by_block[entries[b]:entries[b + 1]]
        gen = np.zeros((idx.size, idx.size), dtype=complex)
        np.add.at(gen, (local[dst[e]], local[src[e]]), val[e])
        # 1j times the sum, not a sum of 1j-scaled terms: the signs of its
        # zero entries steer eigh's basis in degenerate eigenspaces
        gen *= 1j
        evals, vecs = np.linalg.eigh(gen)
        del gen
        # V^H x as conj(V^T conj(x)), which copies no block-sized matrix
        coeffs = (vecs.T @ w[idx, c0:c1].conj()).conj()
        coeffs *= np.exp(-1j * evals)[:, None]
        w[idx, c0:c1] = vecs @ coeffs


def _displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(alpha a^+ - alpha* a) of one truncated mode (cutoff x cutoff)."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    evals, vecs = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def build_density(params: GaussianParams, cutoff: int | None = None,
                  tail_tol: float = 1e-3) -> TruncatedDensity:
    """Construct the truncated density operator of a Gaussian state.

    Args:
        params: state parameters; at most three modes.
        cutoff: Fock levels per mode (defaults per mode count: 25/12/8).
        tail_tol: raise TruncationError when deficit or top-level occupancy
            exceeds this; pass a larger value to inspect marginal states.
    """
    m = params.modes
    if m > MAX_MODES:
        raise ValidationError(f"oracle supports at most {MAX_MODES} modes, got {m}")
    d = DEFAULT_CUTOFFS[m] if cutoff is None else int(cutoff)
    if d < 2:
        raise ValidationError("cutoff must be at least 2")
    if d**m > MAX_DIMENSION:
        raise ValidationError(f"requested dimension {d**m} exceeds limit {MAX_DIMENSION}")

    number, parity = _number_blocks(m, d)
    dim = d**m
    # columns in number-block order, which is parity-block order too
    states, weights, dropped = _thermal_columns(params.thermal, d, number[1])
    w = np.zeros((dim, states.size), dtype=complex)
    w[states, np.arange(states.size)] = np.sqrt(weights)
    phi, z = params.rotation, params.squeeze
    pairs = [(i, j) for i in range(m) for j in range(m)]
    # a diagonal rotation generator (always, for one mode) only multiplies
    # each thermal column |n> by a phase, which W W^H cancels
    if np.any(phi - np.diag(np.diag(phi))):
        terms = [(1j * phi[i, j], (LadderOp(i, True), LadderOp(j, False)))
                 for i, j in pairs if phi[i, j] != 0]
        _apply_blocked(w, terms, number, states, m, d)
    if np.any(z):
        terms = [term for i, j in pairs if z[i, j] != 0
                 for term in ((0.5 * np.conj(z[i, j]), (LadderOp(i, False), LadderOp(j, False))),
                              (-0.5 * z[i, j], (LadderOp(i, True), LadderOp(j, True))))]
        _apply_blocked(w, terms, parity, states, m, d)
    for i, alpha in enumerate(params.alpha):
        if alpha != 0:
            # mode i's digit is the middle axis of (d^i, d, rest)
            w = np.matmul(_displacement(alpha, d), w.reshape(d**i, d, -1)).reshape(dim, -1)
    populations = (w.real**2 + w.imag**2).sum(axis=1)

    deficit = float(abs(1.0 - populations.sum()))
    tail = max(float(_marginal(populations, i, m, d)[-_TAIL_LEVELS:].sum()) for i in range(m))
    if deficit > tail_tol or tail > tail_tol:
        raise TruncationError(
            f"cutoff {d} too small: trace deficit {deficit:.3e}, "
            f"top-level occupancy {tail:.3e}",
            deficit=deficit, tail_mass=tail,
        )
    return TruncatedDensity(w, populations, d, m, deficit, tail, dropped)


def _marginal(populations: np.ndarray, mode: int, modes: int, cutoff: int) -> np.ndarray:
    """Photon-number distribution of ``mode``: the populations summed by its Fock digit."""
    return np.bincount(_fock_digits(modes, cutoff)[mode], weights=populations, minlength=cutoff)


def moment_bruteforce(rho: TruncatedDensity, word: LadderWord) -> complex:
    """Tr[rho · (operator product)] with truncated ladder operators.

    The word maps basis state src to dst = src + shift, one shift for all, so
    the moment is sum weight * rho[src, dst] over one band of rho = W W^H.
    A word that keeps every mode's photon number reads the populations."""
    if word.max_mode() >= rho.modes:
        raise ValidationError("word references a mode outside the density")
    src, dst, weight = _word_action(word.ops, rho.modes, rho.dim)
    if np.array_equal(src, dst):
        return complex(weight @ rho.populations[src])
    w = rho.factor
    return complex(np.vdot(w[dst], weight[:, None] * w[src]))


def vacuum_overlap(rho: TruncatedDensity) -> float:
    """<0..0| rho |0..0>."""
    return float(rho.populations[0])


def photon_number_distribution(rho: TruncatedDensity, mode: int) -> np.ndarray:
    """Marginal photon-number distribution of ``mode``."""
    if not 0 <= mode < rho.modes:
        raise ValidationError(f"mode {mode} out of range")
    return _marginal(rho.populations, mode, rho.modes, rho.dim)


def total_number_factorial_moment(rho: TruncatedDensity, order: int) -> float:
    """<n_tot (n_tot - 1) ... (n_tot - order + 1)> for the summed number operator.

    Equals the fully mode-summed normally ordered moment entering bucket
    correlations; cheap because n_tot is diagonal in the Fock basis.
    """
    digits = _fock_digits(rho.modes, rho.dim).sum(axis=0).astype(float)
    weight = np.ones_like(digits)
    for k in range(order):
        weight *= digits - k
    return float((rho.populations * weight).sum())
