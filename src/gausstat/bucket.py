"""Mode-insensitive (bucket) correlation functions, bounds, and mode-count estimation.

A bucket detector sees only totals, so its correlations are the mode
correlations g2 and g3 summed with the mean photon numbers as weights.
Bucket data alone can never reconstruct a state; every verdict here is
conditional on a Gaussian-state assumption and says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, UndefinedCorrelationError
from .states import MomentSummary, _g3_array, _pair_blocks

GAUSSIAN_CAVEAT = "under Gaussian-state assumption"


@dataclass(frozen=True)
class BucketObservables:
    g2_b: float
    g3_b: float
    total_nbar: float


def bucket_correlations(moments: MomentSummary) -> BucketObservables:
    """Second- and third-order bucket correlations: g2 and g3 summed over the modes.

    With n_i the mean photon numbers, T = Tr G = sum_i n_i and P = g2 - 1,

        g2_B = sum_ij n_i n_j g2_ij / T^2 = 1 + n.P.n / T^2,
        g3_B = sum_ijk n_i n_j n_k g3_ijk / T^3,

    with P and g3 the state's memoized blocks and g3 tensor, which
    ``g2_tensor`` and ``g3_tensor`` read too, both taken on the occupied
    modes: an empty mode of a Gaussian state is vacuum and adds nothing to
    either sum.
    """
    keep = moments.nbar > 0
    occupied = keep.all()
    n = moments.nbar if occupied else moments.nbar[keep]
    t1 = float(n.sum())
    if not t1 > 0:
        raise UndefinedCorrelationError("bucket correlations undefined: Tr G = 0")
    pair = _pair_blocks(moments)[-1]
    g3 = _g3_array(moments)
    if not occupied:
        pair, g3 = pair[np.ix_(keep, keep)], g3[np.ix_(keep, keep, keep)]
    return BucketObservables(float(1.0 + n @ pair @ n / t1**2),
                             float(g3 @ n @ n @ n / t1**3), t1)


CONSISTENT_NONSQUEEZED = "consistent-nonsqueezed"
CERTIFIES_SQUEEZING = "certifies-squeezing"
REQUIRES_DISPLACEMENT_AND_SQUEEZING = "requires-displacement-and-squeezing"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BucketVerdict:
    verdict: str
    caveat: str = GAUSSIAN_CAVEAT


def bucket_bounds_check(obs: BucketObservables, tol: float = 1e-9) -> BucketVerdict:
    """Locate g2_B relative to the non-squeezed window 1 <= g2_B <= 2.

    Exceeding 2 certifies a nontrivial squeezing parameter; falling below 1
    requires both squeezing and displacement.  Values within ``tol`` of a
    boundary are inconclusive.  All verdicts assume a Gaussian state.
    """
    g2_b = obs.g2_b
    if abs(g2_b - 2.0) <= tol or abs(g2_b - 1.0) <= tol:
        return BucketVerdict(INCONCLUSIVE)
    if g2_b > 2.0:
        return BucketVerdict(CERTIFIES_SQUEEZING)
    if g2_b < 1.0:
        return BucketVerdict(REQUIRES_DISPLACEMENT_AND_SQUEEZING)
    return BucketVerdict(CONSISTENT_NONSQUEEZED)


@dataclass(frozen=True)
class ModeCountEstimate:
    mode_count: float
    sinh2_per_mode: float
    total_nbar: float
    residual: float
    assumptions: str = ("pure uncorrelated equal single-beam squeezers with "
                        "loss affecting all modes equally")


def equal_squeezer_bucket(k: int | float, sinh2: float) -> tuple[float, float]:
    """(g2_B, g3_B) of K identical pure single-beam squeezers with sinh^2|z| each."""
    t1 = k * sinh2
    u = 1.0 / t1
    v = 1.0 / k
    g2_b = 1.0 + u + 2.0 * v
    g3_b = 1.0 + 3.0 * u + 6.0 * v + 6.0 * u * v + 8.0 * v**2
    return g2_b, g3_b


def pure_squeezer_mode_estimate(g2_b: float, g3_b: float,
                                tol: float = 1e-9) -> ModeCountEstimate:
    """Estimate the squeezer count K from bucket correlations.

    Under the equal-squeezer model, with u = 1/Tr G and v = 1/K,
    g2_B = 1 + u + 2v and g3_B = 1 + 3u + 6v + 6uv + 8v^2; eliminating u
    leaves 4v^2 - 6(g2_B - 1) v + (g3_B - 3 g2_B + 2) = 0, solved for the
    admissible root (v in (0, 1], u > 0).
    """
    disc = 9.0 * (g2_b - 1.0) ** 2 - 4.0 * (g3_b - 3.0 * g2_b + 2.0)
    if disc < 0:
        raise InfeasibleError("bucket pair incompatible with the equal-squeezer model")
    root = np.sqrt(disc)
    admissible = []
    for v in ((3.0 * (g2_b - 1.0) + root) / 4.0, (3.0 * (g2_b - 1.0) - root) / 4.0):
        if not tol < v <= 1.0 + 1e-9:
            continue
        u = g2_b - 1.0 - 2.0 * v
        if u <= tol:
            continue
        k = 1.0 / v
        sinh2 = v / u
        model_g2, model_g3 = equal_squeezer_bucket(k, sinh2)
        residual = max(abs(model_g2 - g2_b), abs(model_g3 - g3_b))
        admissible.append((residual, k, sinh2, 1.0 / u))
    if not admissible:
        raise InfeasibleError(
            "no admissible (K, sinh^2) solves the equal-squeezer model")
    admissible.sort()
    residual, k, sinh2, t1 = admissible[0]
    return ModeCountEstimate(float(k), float(sinh2), float(t1), float(residual))
