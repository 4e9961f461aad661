"""Partition combinatorics and closed-form decomposition of ladder-operator moments.

Everything here works on ordered words of creation/annihilation operators.
Moments of a general Gaussian state of order up to six reduce to first and
second moments:

* order 4:  sum over the 3 pair partitions minus twice the product of the
  four first moments,
* order 6:  sum over the 15 pair partitions of triple products, minus twice a
  sum over the 15 (4, 2) bipartitions of (second moment of the pair) times
  (four first moments), plus 16 times the product of all six first moments.

Partition enumeration order is fixed (lexicographic) so intermediate sums are
reproducible term by term.  Within a pair the original word order is kept;
the kernel never normal-orders implicitly, so ``(a_i, a_j^†)`` and
``(a_j^†, a_i)`` differ by the commutator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import UnsupportedOrderError, ValidationError

SUPPORTED_ORDERS = (1, 2, 3, 4, 6)


@dataclass(frozen=True)
class LadderOp:
    """A single creation (``creation=True``) or annihilation operator on ``mode``."""

    mode: int
    creation: bool

    def dagger(self) -> "LadderOp":
        return LadderOp(self.mode, not self.creation)

    def __str__(self) -> str:
        return f"{self.mode}{'+' if self.creation else '-'}"


@dataclass(frozen=True)
class LadderWord:
    """An ordered product of ladder operators, read left to right."""

    ops: tuple[LadderOp, ...]

    def __post_init__(self):
        for op in self.ops:
            if op.mode < 0:
                raise ValidationError(f"negative mode index in word: {op}")

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        return " ".join(str(op) for op in self.ops)

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(op.mode for op in self.ops)

    def max_mode(self) -> int:
        return max(op.mode for op in self.ops) if self.ops else -1

    def dagger(self) -> "LadderWord":
        """Hermitian adjoint: reverse the word and conjugate every operator."""
        return LadderWord(tuple(op.dagger() for op in reversed(self.ops)))

    @classmethod
    def from_spec(cls, spec: str) -> "LadderWord":
        """Parse e.g. ``"0+ 1+ 0- 1-"`` (``+`` creation, ``-`` annihilation)."""
        ops = []
        for token in spec.split():
            if token[-1] not in "+-":
                raise ValidationError(f"bad ladder token {token!r}")
            ops.append(LadderOp(int(token[:-1]), token[-1] == "+"))
        return cls(tuple(ops))

    @classmethod
    def number_word(cls, modes: Sequence[int]) -> "LadderWord":
        """Normally ordered word a†_{m1}..a†_{mk} a_{m1}..a_{mk}."""
        create = [LadderOp(m, True) for m in modes]
        destroy = [LadderOp(m, False) for m in modes]
        return cls(tuple(create + destroy))


@dataclass(frozen=True)
class PairPartition:
    """Disjoint position pairs covering every position of an even-length word."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Bipartition42:
    """Split of six word positions into an ordered 4-subset and 2-subset."""

    psi: tuple[int, int, int, int]
    chi: tuple[int, int]


@lru_cache(maxsize=None)
def _pair_partitions(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All pairings of positions 0..n-1, lexicographic by sorted pair list."""
    if n == 0:
        return ((),)
    positions = tuple(range(n))

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            partner = remaining[k]
            rest = remaining[1:k] + remaining[k + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    return tuple(rec(positions))


def enumerate_pair_partitions(word: LadderWord) -> list[PairPartition]:
    """All pair partitions of the word positions, in canonical order.

    The count is (2n)!/(2^n n!), i.e. 1, 3, 15 for words of length 2, 4, 6.
    """
    n = len(word)
    if n % 2 != 0:
        raise UnsupportedOrderError(f"pair partitions need an even word, got length {n}")
    if n > 6:
        raise UnsupportedOrderError(f"word length {n} > 6 is not supported")
    return [PairPartition(p) for p in _pair_partitions(n)]


def enumerate_bipartitions_4_2(word: LadderWord) -> list[Bipartition42]:
    """All 15 splits of a 6-position word into a 4-subset and a 2-subset.

    Positions keep the original word order inside each subset; the list is
    ordered lexicographically by the 2-subset.
    """
    if len(word) != 6:
        raise UnsupportedOrderError(f"(4,2) bipartitions need a 6-word, got length {len(word)}")
    out = []
    for a in range(6):
        for b in range(a + 1, 6):
            psi = tuple(p for p in range(6) if p not in (a, b))
            out.append(Bipartition42(psi, (a, b)))  # type: ignore[arg-type]
    return out


class MomentTable:
    """First and second moments of the stacked vector (a_1..a_M, a_1†..a_M†).

    Args:
        alpha: first moments <a_i>.
        aa: uncentered second moments <a_i a_j> (symmetric).
        adag_a: uncentered second moments <a_i† a_j> (hermitian).
    """

    def __init__(self, alpha: np.ndarray, aa: np.ndarray, adag_a: np.ndarray):
        self.alpha = np.asarray(alpha, dtype=complex)
        self.aa = np.asarray(aa, dtype=complex)
        self.adag_a = np.asarray(adag_a, dtype=complex)
        m = self.alpha.shape[0]
        if self.aa.shape != (m, m) or self.adag_a.shape != (m, m):
            raise ValidationError("moment table blocks have inconsistent shapes")

    @property
    def modes(self) -> int:
        return self.alpha.shape[0]

    def first(self, op: LadderOp) -> complex:
        a = self.alpha[op.mode]
        return complex(np.conj(a)) if op.creation else complex(a)

    def second(self, op1: LadderOp, op2: LadderOp) -> complex:
        i, j = op1.mode, op2.mode
        if not op1.creation and not op2.creation:
            return complex(self.aa[i, j])
        if op1.creation and op2.creation:
            return complex(np.conj(self.aa[i, j]))
        if op1.creation:
            return complex(self.adag_a[i, j])
        # <a_i a_j†> = <a_j† a_i> + δ_ij
        return complex(self.adag_a[j, i]) + (1.0 if i == j else 0.0)


def gaussian_moment(word: LadderWord, table: MomentTable) -> complex:
    """Moment of an arbitrary ladder word in a general Gaussian state.

    Supports orders 1-4 and 6.  Orders 5 and above 6 are rejected; the
    partition scheme generalizes but is intentionally not implemented.
    """
    n = len(word)
    if n not in SUPPORTED_ORDERS:
        raise UnsupportedOrderError(f"unsupported moment order {n}")
    if word.max_mode() >= table.modes:
        raise ValidationError("word references a mode outside the moment table")
    ops = word.ops
    if n == 1:
        return table.first(ops[0])
    if n == 2:
        return table.second(ops[0], ops[1])
    if n == 3:
        a = [table.first(op) for op in ops]
        return (
            table.second(ops[0], ops[1]) * a[2]
            + table.second(ops[0], ops[2]) * a[1]
            + table.second(ops[1], ops[2]) * a[0]
            - 2.0 * a[0] * a[1] * a[2]
        )
    firsts = [table.first(op) for op in ops]
    pair_sum = 0.0 + 0.0j
    for part in _pair_partitions(n):
        term = 1.0 + 0.0j
        for a, b in part:
            term *= table.second(ops[a], ops[b])
        pair_sum += term
    if n == 4:
        return pair_sum - 2.0 * np.prod(firsts)
    # n == 6
    cross = 0.0 + 0.0j
    for bp in enumerate_bipartitions_4_2(word):
        a, b = bp.chi
        term = table.second(ops[a], ops[b])
        for p in bp.psi:
            term *= firsts[p]
        cross += term
    return pair_sum - 2.0 * cross + 16.0 * np.prod(firsts)


def correlation_word(modes: Iterable[int]) -> LadderWord:
    """The normally ordered word whose moment enters g^(n) for the given modes."""
    return LadderWord.number_word(tuple(modes))
