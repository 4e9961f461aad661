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

A thermal column |n> stays in its total-number block through R, and that
block lies on one side of its parity block.  Number blocks are ordered by
side (N = 0, 2, 1, 3 mod 4), then by ascending N, and W's columns follow
them.  So each block's exponential acts on the columns held in that block
only, a block that holds none is skipped before its generator is built, and
each parity block's columns are two contiguous ranges, one per side.

Every block G is anti-hermitian, so 1j*G is hermitian.  For R, eigh gives
1j*G = V diag(w) V^H with real w and unitary V, and exp(G) =
V diag(e^{-iw}) V^H; R's input is the thermal seed, so V^H of a column is a
scaled row of V.  For S and D, 1j*G = [[0, B], [B^H, 0]] on the two sides,
and one eigh of the Gram matrix of the half's smaller side,
B B^H = U diag(lam) U^H with C = B^H U on the other side, gives exp(G)
through the entire functions cos sqrt(lam), sinc sqrt(lam) and
(cos sqrt(lam) - 1) / lam = -sinc^2(sqrt(lam) / 2) / 2
(``_expm_bipartite``), so nothing divides by a singular value.  Each range
of columns lies on one side, and exp(G) acts on it from that side: three
products per range, and none on the all-zero other side.  Both ways are
unitary to rounding, whatever the norm of G.
Truncated generators of D and S are still anti-hermitian, so those factors
remain exactly unitary and the trace deficit alone cannot detect their
truncation error; the builder therefore also records the occupancy of the top
Fock levels of every mode, which is what actually controls convergence.  The
gate reads the top _TAIL_LEVELS = 2 levels, so a cutoff must exceed 2.

Ladder operators are never formed as matrices.  A word of them acts by
index arithmetic on the Fock digits of the basis states (``_word_action``,
cached per word, modes and cutoff): it maps each basis state it does not
annihilate to one other, with a weight.  Each generator is scattered from
these maps straight into the blocks it keeps, at block-local places cached
per (modes, cutoff) (``_number_blocks``); of the squeeze, only the A <- B
quarter of each parity block.  No generator exists on the full space.  A
side lists its number blocks in turn, and the squeeze maps each number block
to its neighbours on the other side only, so past _RUN columns the Gram
matrix, C and the first product of each range skip, run by run of columns,
the rows that hold no entry (``_column_runs``).

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
exponential or one displacement step.  The largest eigenproblem is the Gram
eigh of the smaller side of a squeeze half, about dim/4 x dim/4 (432 x 432
at (M, cutoff) = (3, 12)), U/16 per matrix of its size: the half, the Gram
matrix, U, C and eigh's workspace.  A rotation number block is smaller
still (108 states at (3, 12)).  The products with one range of columns hold
up to six matrices of one side by that range, U/16 each for a fully mixed
state.  A displacement step writes one new W, so it sets the peak at about
2 U: a fully mixed state at (3, 12) peaks at 2.00 U under tracemalloc, and
its max RSS grows by 1.85 U.  That is 0.5 GB at MAX_DIMENSION = 4096, and
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
# columns per run in the products that skip rows without entries; up to
# _RUN columns (every half at M = 1) the plain products are faster
_RUN = 64
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
    each block, and for every basis state s its block label[s] and its
    place local[s] in that block.

    Number blocks come by side (N = 0, 2, 1, 3 mod 4), then by ascending N,
    each in ascending basis order.  ``sides`` splits each parity block in
    two: parity p is side 2p (N = p mod 4, side A) and side 2p + 1
    (N = p + 2 mod 4, side B), each the concatenation of its number blocks.
    So columns in number-block order are in side order too, and each parity
    block's columns are two contiguous ranges, one per side.  A term that
    moves N by two maps each side of its parity block to the other, and a
    number block to the neighbouring ones on the other side."""
    total = _fock_digits(modes, cutoff).sum(axis=0)
    n = np.arange(total.max() + 1)
    side = n % 2 * 2 + n // 2 % 2
    rank = np.empty_like(n)
    rank[np.lexsort((n, side))] = n
    order = np.argsort(rank[total], kind="stable")

    def grouping(label, count):
        label.flags.writeable = False
        blocks = tuple(order[label[order] == b] for b in range(count))
        local = np.empty_like(label)
        for idx in blocks:
            local[idx] = np.arange(idx.size)
        local.flags.writeable = False
        return blocks, label, local

    return grouping(rank[total], n.size), grouping(side[total], 4)


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


@lru_cache(maxsize=256)
def _word_action(ops, modes: int, cutoff: int):
    """(src, dst, weight) with O|src> = weight |dst> for the truncated product
    O of the ladder operators ``ops`` (leftmost first); basis states that O
    annihilates are left out.  Each operator, rightmost first, moves one Fock
    digit by one and multiplies by sqrt(n) (a) or sqrt(n + 1) (a†).  Cached
    per (ops, modes, cutoff) as read-only arrays: verify reads at most 67
    words (its rows and the generators' terms) per rung of M = 1, 2 and 3
    together, so its three-rung ladders fit in 256 entries."""
    steps = _ladder_steps(modes, cutoff)
    dim = cutoff**modes
    dst = np.arange(dim)
    weight = np.ones(dim)
    for op in reversed(ops):
        nxt, factor = steps[op.mode][op.creation]
        weight = weight * factor[dst]
        dst = nxt[dst]
    src = np.flatnonzero(dst < dim)
    action = src, dst[src], weight[src]
    for arr in action:
        arr.flags.writeable = False
    return action


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

    w is the thermal seed: column c is w[seeds[c], c] |seeds[c]>, and the
    columns come in block order.  So each block's exponential acts on its
    own columns only, and a block that holds none is skipped before its
    generator is built.  Each word's entries are scattered straight into the
    block they lie in, at their block-local places, and exp(G) =
    V diag(e^{-iw}) V^H from eigh of the hermitian 1j*G; V^H of a seed
    column is a row of V, conjugated and scaled.  A diagonal phi is skipped:
    it multiplies each thermal column |n> by a phase, which W W^H cancels."""
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
        seed = seeds[c0:c1]
        coeffs = (vecs[local[seed]] * np.exp(1j * evals)).conj().T
        coeffs *= w[seed, np.arange(c0, c1)]
        w[idx, c0:c1] = vecs @ coeffs


def _column_runs(x: np.ndarray):
    """(c0, c1, r0, r1) for each run c0:c1 of up to _RUN consecutive columns
    of x that holds a nonzero entry: rows r0:r1 hold all of them."""
    rows, cols = x.shape
    nonzero = x != 0
    starts = np.arange(0, cols, _RUN)
    first = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), rows)
    last = np.where(first < rows, rows - nonzero[::-1].argmax(axis=0), 0)
    r0 = np.minimum.reduceat(first, starts)
    r1 = np.maximum.reduceat(last, starts)
    return [(c0, min(c0 + _RUN, cols), a, b)
            for c0, a, b in zip(starts.tolist(), r0.tolist(), r1.tolist()) if a < b]


def _adjoint_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a^H x; past _RUN columns, each run of x's columns over the rows that
    hold its entries (``_column_runs``)."""
    if x.shape[1] <= _RUN:
        return a.conj().T @ x
    out = np.zeros((a.shape[1], x.shape[1]), dtype=complex)
    for c0, c1, r0, r1 in _column_runs(x):
        out[:, c0:c1] = a[r0:r1].conj().T @ x[r0:r1, c0:c1]
    return out


def _expm_bipartite(half: np.ndarray):
    """exp(G) for the anti-hermitian G with 1j*G = [[0, half], [half^H, 0]]
    between sides A and B, as a function ``apply(x, side)`` that returns
    (ya, yb) = exp(G) x on both sides for x given by its rows on one side
    only (side 0 is A, side 1 is B).

    With b the half read from its smaller side S to the larger side L
    (``half`` itself, or its adjoint), one eigh of the Gram matrix
    b b^H = U diag(lam) U^H and C = b^H U give, from S and from L,

        yS = x + U (cos sqrt(lam) - 1) U^H x,    yL = -1j C sinc sqrt(lam) U^H x,
        yL = x + C g(lam) C^H x,                 yS = -1j U sinc sqrt(lam) C^H x,

    with sinc x = sin x / x and g(lam) = (cos sqrt(lam) - 1) / lam =
    -sinc^2(sqrt(lam) / 2) / 2, entire functions of lam, so nothing divides
    by a singular value.  lam >= 0 up to rounding, and is clipped at 0.  On
    the complement of U's (or C's) columns 1j*G acts as 0, so a rectangular
    ``half`` needs no special case, and each side costs three products.

    Past _RUN columns, the Gram matrix, C and the first product of each side
    skip the rows that a run of columns (of b, or of x) holds no entry in
    (``_column_runs``): a squeeze half maps each number block to its
    neighbours only, and a column of x lies in one number block."""
    flip = half.shape[0] > half.shape[1]
    b = half.conj().T if flip else half
    if b.shape[1] <= _RUN:
        bh = b.conj().T
        lam, u = np.linalg.eigh(b @ bh)
        c = bh @ u
    else:
        runs = _column_runs(b)
        gram = np.zeros((b.shape[0],) * 2, dtype=complex)
        for c0, c1, r0, r1 in runs:
            part = b[r0:r1, c0:c1]
            gram[r0:r1, r0:r1] += part @ part.conj().T
        lam, u = np.linalg.eigh(gram)
        del gram
        c = np.zeros((b.shape[1], u.shape[1]), dtype=complex)
        for c0, c1, r0, r1 in runs:
            c[c0:c1] = b[r0:r1, c0:c1].conj().T @ u[r0:r1]
    half_root = 0.5 * np.sqrt(np.maximum(lam, 0.0))
    sin_half = np.sin(half_root)
    half_sinc = np.divide(sin_half, half_root, out=np.ones_like(half_root),
                          where=half_root > 0)
    cos1 = (-2.0 * sin_half**2)[:, None]
    g = (-0.5 * half_sinc**2)[:, None]
    misinc = (-1j * half_sinc * np.cos(half_root))[:, None]

    def apply(x, side):
        if side == flip:  # from the smaller side
            t = _adjoint_product(u, x)
            own, other = x + u @ (cos1 * t), c @ (misinc * t)
        else:
            t = _adjoint_product(c, x)
            own, other = x + c @ (g * t), u @ (misinc * t)
        return (other, own) if side else (own, other)

    return apply


def _squeeze(w: np.ndarray, z: np.ndarray, seeds: np.ndarray, modes: int, cutoff: int) -> None:
    """w <- exp(G) w in place for the squeeze generator
    G = sum_ij (z_ij* a_i a_j - z_ij a_i† a_j†) / 2.

    G moves the total photon number by two, so it keeps its parity and has
    no diagonal: 1j*G maps each side of a parity block (``_number_blocks``)
    to the other, and one eigh of the Gram matrix of its A <- B quarter
    gives the block's exponential (``_expm_bipartite``).  Only that quarter
    is scattered.  Column c of w is zero outside the number block of its
    seed state ``seeds[c]``, which lies on one side, and the columns come in
    number-block order, so each side's columns are one range, and the
    exponential acts on each range from its own side.  A block that holds
    no column, or has an empty side, is left as it is."""
    if not np.any(z):
        return
    terms = [term for i in range(modes) for j in range(modes) if z[i, j] != 0
             for term in ((0.5 * np.conj(z[i, j]), (LadderOp(i, False), LadderOp(j, False))),
                          (-0.5 * z[i, j], (LadderOp(i, True), LadderOp(j, True))))]
    blocks, label, local = _number_blocks(modes, cutoff)[1]
    src, dst, val = _generator_entries(terms, modes, cutoff)
    columns = np.searchsorted(label[seeds], np.arange(5))
    for p in (0, 1):
        a, b = blocks[2 * p], blocks[2 * p + 1]
        if columns[2 * p] == columns[2 * p + 2] or not a.size or not b.size:
            continue
        e = label[src] == 2 * p + 1
        half = np.zeros((a.size, b.size), dtype=complex)
        np.add.at(half, (local[dst[e]], local[src[e]]), 1j * val[e])
        apply = _expm_bipartite(half)
        del half
        for side, rows in enumerate((a, b)):
            c0, c1 = columns[2 * p + side], columns[2 * p + side + 1]
            if c0 < c1:
                w[a, c0:c1], w[b, c0:c1] = apply(w[rows, c0:c1], side)


def _displacement(w: np.ndarray, alpha: complex, mode: int, cutoff: int) -> np.ndarray:
    """exp(alpha a† - alpha* a) w for a on ``mode``, as a new array: one
    cutoff x cutoff factor applied along the mode's Fock digit.  The
    generator moves n by one, so it maps even n (side A) to odd n (side B)
    and back; the factor's columns are the even and the odd unit vectors,
    each on one side."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    apply = _expm_bipartite(1j * (alpha * a.T - np.conj(alpha) * a)[0::2, 1::2])
    eye = np.eye(cutoff, dtype=complex)
    factor = np.empty((cutoff, cutoff), dtype=complex)
    factor[0::2, 0::2], factor[1::2, 0::2] = apply(eye[0::2, 0::2], 0)
    factor[0::2, 1::2], factor[1::2, 1::2] = apply(eye[1::2, 1::2], 1)
    dim = w.shape[0]
    # the mode's digit is the middle axis of (cutoff^mode, cutoff, rest)
    return np.matmul(factor, w.reshape(cutoff**mode, cutoff, -1)).reshape(dim, -1)


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
    if d <= _TAIL_LEVELS:
        raise ValidationError(f"cutoff must be at least {_TAIL_LEVELS + 1}: the truncation "
                              f"gate reads the top {_TAIL_LEVELS} levels of each mode")
    if d**m > MAX_DIMENSION:
        raise ValidationError(f"requested dimension {d**m} exceeds limit {MAX_DIMENSION}")

    dim = d**m
    # columns in number-block order, which is side order too
    states, weights, dropped = _thermal_columns(params.thermal, d, _number_blocks(m, d)[0][1])
    w = np.zeros((dim, states.size), dtype=complex)
    w[states, np.arange(states.size)] = np.sqrt(weights)
    _rotate(w, params.rotation, states, m, d)
    _squeeze(w, params.squeeze, states, m, d)
    for i, alpha in enumerate(params.alpha):
        if alpha != 0:
            w = _displacement(w, alpha, i, d)
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
