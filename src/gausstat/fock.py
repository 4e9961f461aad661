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
- S: a_i a_j and a_i† a_j† change the total number N by two, so the
  squeeze generator keeps N's parity and splits into two blocks.  It has no
  diagonal: each parity block is bipartite, between N = p and N = p + 2
  (mod 4).
- D: the displacement terms act on one mode each and commute, so D is the
  Kronecker product of d x d factors, each applied along its mode's axis.
  Each factor's generator is bipartite too, between even and odd n.

A thermal column |n> stays in its total-number block through R and in its
parity block through S.  So W's columns are kept in block order, each
block's exponential acts on the columns held in that block only, and a
block that holds none is skipped before its generator is built.

Every block G is anti-hermitian, so 1j*G is hermitian.  For R, eigh gives
1j*G = V diag(w) V^H with real w and unitary V, and exp(G) =
V diag(e^{-iw}) V^H.  For S and D, 1j*G = [[0, B], [B^H, 0]] on the two
sides, and one thin SVD B = U diag(s) V^H of the half gives exp(G) in
closed form (``_expm_bipartite``): cos s on each side and -1j sin s
across.  Both are unitary to rounding, whatever the norm of G.
Truncated generators of D and S are still anti-hermitian, so those factors
remain exactly unitary and the trace deficit alone cannot detect their
truncation error; the builder therefore also records the occupancy of the top
Fock levels of every mode, which is what actually controls convergence.

Ladder operators are never formed as matrices.  A word of them acts by
index arithmetic on the Fock digits of the basis states (``_word_action``):
it maps each basis state it does not annihilate to one other, with a weight.
Each generator is scattered from these maps straight into the blocks it
keeps, at block-local places cached per (modes, cutoff)
(``_number_blocks``); of the squeeze, only the A <- B quarter of each
parity block.  No generator exists on the full space.

rho itself is never formed.  The build keeps W and its row populations
sum_c |W[s, c]|^2, the diagonal of rho, and reads from them everything the
oracle reports: the trace deficit, each mode's photon-number marginal (a
``bincount`` of its Fock digits weighted by the populations), the vacuum
overlap and the total-number factorial moments.  A ladder word shifts every
basis index by the same amount, so its moment is a weighted sum over one
diagonal band of W W^H; the shift-0 band is the populations, and each other
band is computed once per density and shift (``TruncatedDensity.band``).

Dense matrices only; this is an oracle, not a production path.  With
U = 16 dim^2 bytes, one dense complex matrix, a build holds W (dim x k with
k <= dim, up to U) and, at any time, the temporaries of one block's
exponential or one displacement step.  The largest eigenproblem is the SVD
of a squeeze half, about dim/4 x dim/4 (432 x 432 at (M, cutoff) =
(3, 12)), U/16 per matrix of its size: the half, the SVD's copy of it, U,
V^H and the SVD's workspace.  A rotation number block is smaller still (108
states at (3, 12)).  The products with a parity block's columns hold up to
six matrices of one side by those columns, U/8 each for a fully mixed
state.  A displacement step writes one new W, so it sets the peak at about
2 U: a fully mixed state at (3, 12) peaks at 2.01 U under tracemalloc, and
its max RSS grows by 2.0 U.  That is 0.5 GB at MAX_DIMENSION = 4096, and
2.1 GB at 8192, which stays refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    the total weight of the thermal columns the build left out.  The bands
    rho[s, s + t] that moments read are kept per shift t once computed."""

    factor: np.ndarray
    populations: np.ndarray
    dim: int
    modes: int
    deficit: float
    tail_mass: float
    dropped_weight: float
    _bands: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def band(self, shift: int) -> np.ndarray:
        """rho[s, s + shift] for s = 0 .. D - 1 - shift, D = cutoff^M, and
        shift > 0; computed once per shift, in O(D k) for W of k columns."""
        band = self._bands.get(shift)
        if band is None:
            w = self.factor
            band = np.einsum("ij,ij->i", w[:w.shape[0] - shift], w[shift:].conj())
            self._bands[shift] = band
        return band


@lru_cache(maxsize=8)
def _fock_digits(modes: int, cutoff: int) -> np.ndarray:
    """digits[k, s]: photons in mode k of basis state s (mode 0 most significant)."""
    digits = np.indices((cutoff,) * modes).reshape(modes, -1)
    digits.flags.writeable = False
    return digits


@lru_cache(maxsize=8)
def _number_blocks(modes: int, cutoff: int):
    """The Fock basis grouped by its total photon number N, as (number,
    sides).  Each grouping is (blocks, label, local): the basis indices of
    each block, ascending, and for every basis state s its block label[s]
    and its place local[s] in that block.

    Number blocks come even N first.  ``sides`` splits each parity block in
    two: parity p is side 2p (N = p mod 4, side A) and side 2p + 1
    (N = p + 2 mod 4, side B), so both labels order the parity blocks alike.
    A term that moves N by two maps each side of its parity block to the
    other."""
    total = _fock_digits(modes, cutoff).sum(axis=0)

    def grouping(label, count):
        label.flags.writeable = False
        blocks = tuple(np.flatnonzero(label == b) for b in range(count))
        local = np.empty_like(label)
        for idx in blocks:
            local[idx] = np.arange(idx.size)
        local.flags.writeable = False
        return blocks, label, local

    evens = total.max() // 2 + 1
    return (grouping(total % 2 * evens + total // 2, total.max() + 1),
            grouping(total % 2 * 2 + total // 2 % 2, 4))


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


def _generator_entries(terms, modes: int, cutoff: int):
    """(src, dst, val): G|src> holds val at dst, for G = sum of coef * (ladder
    word) over ``terms`` of (coef, ops); entries at one place add up."""
    actions = [(coef, _word_action(ops, modes, cutoff)) for coef, ops in terms]
    src = np.concatenate([src for _, (src, _, _) in actions])
    dst = np.concatenate([dst for _, (_, dst, _) in actions])
    val = np.concatenate([coef * weight for coef, (_, _, weight) in actions])
    return src, dst, val


def _rotate(w: np.ndarray, phi: np.ndarray, seeds: np.ndarray, modes: int, cutoff: int) -> None:
    """w <- exp(G) w in place for the rotation generator
    G = sum_ij 1j phi_ij a_i† a_j, which keeps the total photon number.

    Column c of w is zero outside the number block of its seed state
    ``seeds[c]``, and the columns come in block order.  So each block's
    exponential acts on its own columns only, and a block that holds none
    is skipped before its generator is built.  Each word's entries are
    scattered straight into the block they lie in, at their block-local
    places, and exp(G) = V diag(e^{-iw}) V^H from eigh of the hermitian
    1j*G.  A diagonal phi is skipped: it multiplies each thermal column |n>
    by a phase, which W W^H cancels."""
    if not np.any(phi - np.diag(np.diag(phi))):
        return
    terms = [(1j * phi[i, j], (LadderOp(i, True), LadderOp(j, False)))
             for i in range(modes) for j in range(modes) if phi[i, j] != 0]
    blocks, label, local = _number_blocks(modes, cutoff)[0]
    src, dst, val = _generator_entries(terms, modes, cutoff)
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


def _expm_bipartite(half: np.ndarray, xa: np.ndarray, xb: np.ndarray):
    """(ya, yb) = exp(G) x on sides A and B, for x given by its rows xa on
    side A and xb on side B, and the anti-hermitian G with
    1j*G = [[0, half], [half^H, 0]].

    With the thin SVD half = U S V^H,

        ya = xa + U [(cos S - 1) U^H xa - 1j sin S V^H xb],
        yb = xb + V [(cos S - 1) V^H xb - 1j sin S U^H xa],

    and cos S - 1 is taken as -2 sin^2(S/2).  On the complement of U's (or
    V's) columns 1j*G acts as 0, so a rectangular ``half`` needs no special
    case."""
    u, s, vh = np.linalg.svd(half, full_matrices=False)
    cos1 = (-2.0 * np.sin(0.5 * s) ** 2)[:, None]
    isin = 1j * np.sin(s)[:, None]
    ua = u.conj().T @ xa
    vb = vh @ xb
    da = cos1 * ua - isin * vb
    # side B's update in place: two fewer temporaries the size of the
    # block's columns, which would lift a mixed state's peak above 2 U
    ua *= isin
    vb *= cos1
    vb -= ua
    del ua
    return xa + u @ da, xb + vh.conj().T @ vb


def _squeeze(w: np.ndarray, z: np.ndarray, seeds: np.ndarray, modes: int, cutoff: int) -> None:
    """w <- exp(G) w in place for the squeeze generator
    G = sum_ij (z_ij* a_i a_j - z_ij a_i† a_j†) / 2.

    G moves the total photon number by two, so it keeps its parity and has
    no diagonal: 1j*G maps each side of a parity block (``_number_blocks``)
    to the other, and one SVD of its A <- B quarter gives the block's
    exponential (``_expm_bipartite``).  Only that quarter is scattered.
    Column c of w is zero outside the parity block of its seed state
    ``seeds[c]``, and the columns come in block order, so each block acts on
    its own columns only.  A block that holds no column, or has an empty
    side, is left as it is."""
    if not np.any(z):
        return
    terms = [term for i in range(modes) for j in range(modes) if z[i, j] != 0
             for term in ((0.5 * np.conj(z[i, j]), (LadderOp(i, False), LadderOp(j, False))),
                          (-0.5 * z[i, j], (LadderOp(i, True), LadderOp(j, True))))]
    blocks, label, local = _number_blocks(modes, cutoff)[1]
    src, dst, val = _generator_entries(terms, modes, cutoff)
    columns = np.searchsorted(label[seeds] // 2, np.arange(3))
    for p in (0, 1):
        c0, c1 = columns[p], columns[p + 1]
        a, b = blocks[2 * p], blocks[2 * p + 1]
        if c0 == c1 or not a.size or not b.size:
            continue
        e = label[src] == 2 * p + 1
        half = np.zeros((a.size, b.size), dtype=complex)
        np.add.at(half, (local[dst[e]], local[src[e]]), 1j * val[e])
        w[a, c0:c1], w[b, c0:c1] = _expm_bipartite(half, w[a, c0:c1], w[b, c0:c1])


def _displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(alpha a^+ - alpha* a) of one truncated mode (cutoff x cutoff).  The
    generator moves n by one, so it maps even n (side A) to odd n (side B)
    and back."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    half = 1j * (alpha * a.T - np.conj(alpha) * a)[0::2, 1::2]
    eye = np.eye(cutoff, dtype=complex)
    out = np.empty((cutoff, cutoff), dtype=complex)
    out[0::2], out[1::2] = _expm_bipartite(half, eye[0::2], eye[1::2])
    return out


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

    dim = d**m
    # columns in number-block order, which is parity-block order too
    states, weights, dropped = _thermal_columns(params.thermal, d, _number_blocks(m, d)[0][1])
    w = np.zeros((dim, states.size), dtype=complex)
    w[states, np.arange(states.size)] = np.sqrt(weights)
    _rotate(w, params.rotation, states, m, d)
    _squeeze(w, params.squeeze, states, m, d)
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
    the moment is sum weight * rho[src, dst] over one band of rho = W W^H,
    read at min(src, dst) from the band of shift |shift| (conjugated for a
    negative shift).  A word that keeps every mode's photon number reads the
    populations; one that annihilates every state gives 0."""
    if word.max_mode() >= rho.modes:
        raise ValidationError("word references a mode outside the density")
    src, dst, weight = _word_action(word.ops, rho.modes, rho.dim)
    if not src.size:
        return 0j
    shift = int(dst[0] - src[0])
    if shift == 0:
        return complex(weight @ rho.populations[src])
    if shift > 0:
        return complex(weight @ rho.band(shift)[src])
    return complex(np.conj(weight @ rho.band(-shift)[dst]))


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
