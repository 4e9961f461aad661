"""Spanning-tree solver for cosine phase-constraint systems on a complete graph.

Displacement phases phi_i obey c_ij = cos(Phi_ij + phi_i - phi_j) with
symmetric c; covariance phases Theta_ij obey the pair of equations
c_ij = cos(Phi_ij + Theta_ii - Theta_ij) and c_ji = cos(-Phi_ij + Theta_jj
- Theta_ij) whose combination eliminates the off-diagonal unknown at the cost
of a binary branch per edge.

Solving fixes the gauge (phi_1 = 0, respectively Theta_11 = 0) and searches
the arccos sign signature on the star spanning tree rooted at mode 1 depth
first.  Each non-root mode has a few options: the sign sigma_i of its tree
edge, and for the covariance kind also the branch eps_i, which together fix
phi_i or Theta_ii.  The modes are placed in order; placing mode i tests every
pair (k, i) with k already placed, which needs only the two placed values, and
cuts the branch at the first pair that fails.  The pair test lives in one
table per search, over all pairs and options: the search prunes with it, and
the kept solutions are read from it.  The solution set is the one exhaustive
enumeration (2^(M-1) signatures, 4^(M-1) for the covariance kind) returns,
but generic data costs O(M^2) pair tests; degenerate data costs that times
the number of branches that survive.  ``SearchStats`` counts the
branches explored, pruned and kept.

NaN entries of c mark unconstrained edges (e.g. a correlation whose phase
sensitivity vanishes); they are skipped in checks, and a mode whose tree edge
is NaN takes the gauge value 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ValidationError

DISPLACEMENT = "displacement"
COVARIANCE = "covariance"


def wrap_angle(x):
    """Map angles to (-pi, pi]."""
    out = np.mod(np.asarray(x, dtype=float) + np.pi, 2 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out) if np.ndim(out) else (
        np.pi if out == -np.pi else float(out))


@dataclass(frozen=True)
class PhaseSystem:
    """Known fringe phases Phi (antisymmetric) and cosine data c for one kind."""

    kind: str
    big_phi: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if self.kind not in (DISPLACEMENT, COVARIANCE):
            raise ValidationError(f"unknown phase-system kind {self.kind!r}")
        phi = np.asarray(self.big_phi, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if phi.shape != c.shape or phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise ValidationError("Phi and c must be square matrices of equal size")
        if np.abs(phi + phi.T).max() > 1e-9:
            raise ValidationError("Phi must be antisymmetric")
        if self.kind == DISPLACEMENT:
            asym = np.nanmax(np.abs(c - c.T)) if np.isfinite(c).any() else 0.0
            if asym > 1e-9:
                raise ValidationError("displacement-kind c must be symmetric")
        object.__setattr__(self, "big_phi", phi)
        object.__setattr__(self, "c", c)

    @property
    def modes(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class PhaseSolution:
    """One consistent assignment of phases, with the signature that produced it."""

    phases: np.ndarray
    signature: tuple[int, ...]
    epsilon: tuple[int, ...] | None = None
    theta: np.ndarray | None = None
    residual: float = 0.0


def _clamped(c: np.ndarray, tol: float) -> np.ndarray:
    """Clamp |c| in (1, 1+tol] to +-1; larger excursions are invalid input."""
    out = c.copy()
    mask = np.isfinite(out)
    over = mask & (np.abs(out) > 1.0 + tol)
    if over.any():
        worst = np.abs(out[over]).max()
        raise ValidationError(f"|c| = {worst:.6f} exceeds 1 + tol")
    out[mask] = np.clip(out[mask], -1.0, 1.0)
    return out


def _sign_choices(ctilde: float, tol: float) -> tuple[int, ...]:
    """Sign alternatives of one tree edge; degenerate arccos values collapse the branch."""
    if not np.isfinite(ctilde) or min(abs(ctilde), abs(np.pi - ctilde)) <= tol:
        return (1,)
    return (1, -1)


@dataclass
class SearchStats:
    """Branch counts of depth-first phase searches, summed over calls.

    A branch is one option placed at one node: ``explored`` counts every
    placement tried, ``pruned`` those cut by a failing pair test, and ``kept``
    the complete assignments that passed every pair.
    """

    explored: int = 0
    pruned: int = 0
    kept: int = 0


def _depth_first(counts, compatible: np.ndarray,
                 stats: SearchStats | None = None) -> list[tuple[int, ...]]:
    """Every choice of one option per node whose pairs all pass.

    Node i has ``counts[i]`` options, and ``compatible[k, a, i, b]`` (k < i)
    says whether option a of node k and option b of node i can stand together.
    Nodes are placed in order along the star tree; placing node i tests it
    against every node already placed and cuts the branch when a pair fails.
    Choices come out in the order of ``itertools.product`` over the options.
    """
    stats = SearchStats() if stats is None else stats
    m = len(counts)
    choice = [0] * m
    kept: list[tuple[int, ...]] = []

    def place(i):
        if i == m:
            kept.append(tuple(choice))
            return
        placed = np.arange(i)
        for b in range(counts[i]):
            stats.explored += 1
            if not compatible[placed, choice[:i], i, b].all():
                stats.pruned += 1
                continue
            choice[i] = b
            place(i + 1)

    place(0)
    stats.kept += len(kept)
    return kept


def _padded(values: list[list[float]]) -> np.ndarray:
    """Per-node option values as an (M, K) array, NaN past each node's count."""
    out = np.full((len(values), max(map(len, values))), np.nan)
    for i, row in enumerate(values):
        out[i, :len(row)] = row
    return out


def solve_displacement_phases(system: PhaseSystem, tol: float = 1e-8,
                              stats: SearchStats | None = None) -> list[PhaseSolution]:
    """All phase vectors consistent with a displacement-kind system.

    Gauge phi_1 = 0.  Mode i's options are the signs sigma_i of its tree edge,
    and a pair (k, i) of non-root modes passes when the cosine of edge (k, i)
    matches within tol.  An empty list means the data is inconsistent with
    the sector hypothesis; several entries list genuinely distinct solutions.
    """
    if system.kind != DISPLACEMENT:
        raise ValidationError("system kind must be displacement")
    m = system.modes
    c = _clamped(system.c, tol)
    phi = system.big_phi
    signs = [(0,)]
    values = [[0.0]]
    for i in range(1, m):
        ctilde = np.arccos(c[0, i]) if np.isfinite(c[0, i]) else np.nan
        signs.append(_sign_choices(ctilde, tol))
        # an unconstrained tree edge takes the gauge value
        values.append([phi[0, i] + s * ctilde if np.isfinite(ctilde) else 0.0
                       for s in signs[-1]])
    ph = _padded(values)
    res = np.abs(np.cos(phi[:, None, :, None] + ph[:, :, None, None]
                        - ph[None, None, :, :]) - c[:, None, :, None])
    # tree edges hold by construction, and NaN cosines constrain nothing
    checked = np.isfinite(c)
    checked[0] = False
    compatible = (res <= tol) | ~checked[:, None, :, None]
    nodes = np.arange(m)
    solutions: list[PhaseSolution] = []
    for choice in _depth_first([len(s) for s in signs], compatible, stats):
        pick = np.array(choice)
        pair = res[nodes[:, None], pick[:, None], nodes, pick]
        worst = float(pair[np.triu(checked, 1)].max(initial=0.0))
        solutions.append(PhaseSolution(wrap_angle(ph[nodes, pick]),
                                       tuple(signs[i][b] for i, b in enumerate(choice))[1:],
                                       residual=worst))
    return _dedupe(solutions, 10 * tol)


def _dedupe(solutions: list[PhaseSolution], tol: float) -> list[PhaseSolution]:
    """The solutions in order, less each one within tol of one kept before it.

    Two solutions are within tol when every wrapped angle difference of their
    phases, and of their theta when both carry one, is at most tol.  One solve
    returns one kind, so all solutions carry theta or none do, and each is
    compared with the stack of kept ones in one broadcast.
    """
    rows = [sol.phases if sol.theta is None else np.concatenate([sol.phases, sol.theta.ravel()])
            for sol in solutions]
    stack = np.empty((len(rows), rows[0].size if rows else 0))
    kept: list[PhaseSolution] = []
    for sol, row in zip(solutions, rows):
        if kept and (np.abs(wrap_angle(stack[:len(kept)] - row)).max(axis=1) <= tol).any():
            continue
        stack[len(kept)] = row
        kept.append(sol)
    return kept


def solve_covariance_phases(system: PhaseSystem, tol: float = 1e-8,
                            stats: SearchStats | None = None) -> list[PhaseSolution]:
    """All covariance-phase matrices Theta consistent with the system.

    Gauge Theta_11 = 0.  Mode i's options are its (eps_i, sigma_i) choices,
    which fix Theta_ii; a pair (k, i) passes when some Theta_ki satisfies both
    of its edge equations, which needs only Theta_kk and Theta_ii.  One table
    holds, for both arccos branches of every pair and option, Theta_ki and its
    residual: the search prunes with it, and each kept choice reads its
    Theta_ki from it, every standing branch of a pair giving a solution.
    Returns solutions carrying the full symmetric Theta.  The two-mode case
    generically yields four discrete solutions (one sigma and one epsilon
    branch with nothing to constrain them).
    """
    if system.kind != COVARIANCE:
        raise ValidationError("system kind must be covariance")
    m = system.modes
    c = _clamped(system.c, tol)
    phi = system.big_phi
    options = [[(1, 1)]]  # (eps_i, sigma_i) per mode
    values = [[0.0]]
    for i in range(1, m):
        options.append([])
        values.append([])
        if not (np.isfinite(c[0, i]) and np.isfinite(c[i, 0])):
            options[i].append((1, 1))
            values[i].append(0.0)
            continue
        # tree-edge combination C_1i(eps) = cos(2 Phi_1i - Theta_ii); the sqrt
        # factor vanishes at a unit cosine, which collapses eps
        s = (1.0 - c[0, i] ** 2) * (1.0 - c[i, 0] ** 2)
        collapsed = min(1.0 - abs(c[0, i]), 1.0 - abs(c[i, 0])) <= tol
        for eps in (1,) if collapsed else (1, -1):
            ctilde = np.arccos(np.clip(c[0, i] * c[i, 0] + eps * np.sqrt(max(s, 0.0)), -1, 1))
            for sig in _sign_choices(ctilde, tol):
                options[i].append((eps, sig))
                values[i].append(2 * phi[0, i] + sig * ctilde)
    diag = _padded(values)
    # pair (k, i), branch s of the (k, i) equation: Theta_ki, and its residual
    # in the (i, k) equation; the branch stands when that is within tol
    s = np.array([1.0, -1.0])[:, None, None, None]
    theta = phi[:, None, :] + diag[:, :, None] - s * np.arccos(c)[:, None, :]
    res = np.abs(np.cos(-phi[:, None, :, None] + diag[None, None, :, :] - theta[..., None])
                 - c.T[:, None, :, None])
    free = ~(np.isfinite(c) & np.isfinite(c.T))
    compatible = (res <= tol).any(axis=0) | free[:, None, :, None]
    chosen = _depth_first([len(o) for o in options], compatible, stats)
    # the eps-major order of exhaustive enumeration (+1 before -1), so that
    # _dedupe keeps the same copies
    chosen.sort(key=lambda t: ([-options[i][b][0] for i, b in enumerate(t)],
                               [-options[i][b][1] for i, b in enumerate(t)]))
    nodes = np.arange(m)
    rows, cols = np.triu_indices(m, 1)
    constrained = ~free[rows, cols]
    rows, cols = rows[constrained], cols[constrained]
    solutions: list[PhaseSolution] = []
    for choice in chosen:
        picked = [options[i][b] for i, b in enumerate(choice)][1:]
        pick = np.array(choice)
        theta_diag = diag[nodes, pick]
        a = pick[rows]
        pair_theta = theta[:, rows, a, cols]
        pair_res = res[:, rows, a, cols, pick[cols]]
        kept = pair_res <= tol
        # the search passed every constrained pair, so some branch stands; a
        # pair gives a solution per branch where both stand more than 10 tol apart
        second = ~kept[0]
        both = np.flatnonzero(kept[0] & kept[1] & (
            np.abs(wrap_angle(pair_theta[0] - pair_theta[1])) > 10 * tol))
        for branches in product((False, True), repeat=len(both)):
            second[both] = branches
            full = np.diag(theta_diag)
            full[rows, cols] = full[cols, rows] = np.where(second, pair_theta[1], pair_theta[0])
            solutions.append(PhaseSolution(
                wrap_angle(theta_diag), tuple(o[1] for o in picked),
                epsilon=tuple(o[0] for o in picked), theta=wrap_angle(full),
                residual=float(np.where(second, pair_res[1], pair_res[0]).max(initial=0.0))))
    return _dedupe(solutions, 10 * tol)


def degeneracy_report(system: PhaseSystem, solutions: list[PhaseSolution]) -> list[str]:
    """Explain solution multiplicity in terms of the edge-case conditions.

    A +-sigma pair requires, on every off-tree edge, Gamma_ij = 0 mod pi or
    Delta_ij(sigma) = 0 mod pi; other coincidences need, per locally flipped
    pair, either c_1i = +-1 or (c_1j = c_ij and c_1i = cos Gamma_ij).  Each
    further solution is compared with the first, the one a report gives, so
    the cost grows linearly with the number of solutions.
    """
    if len(solutions) <= 1:
        return []
    m = system.modes
    c = _clamped(system.c, 1e-6)
    phi = system.big_phi
    if system.kind == COVARIANCE:
        return [f"{len(solutions)} covariance solutions: sigma/epsilon branches "
                "left unconstrained by the available pair equations"]
    ctilde = {i: np.arccos(c[0, i]) for i in range(1, m) if np.isfinite(c[0, i])}
    notes = []
    tagged = set()
    sa = solutions[0].signature
    for other in solutions[1:]:
        sb = other.signature
        if len(sa) != len(sb) or not sa:
            continue
        if all(x == -y for x, y in zip(sa, sb)):
            conds = []
            for i in range(1, m):
                for j in range(i + 1, m):
                    gamma = phi[i, j] + phi[0, i] - phi[0, j]
                    delta = sa[i - 1] * ctilde.get(i, 0.0) - sa[j - 1] * ctilde.get(j, 0.0)
                    if min(abs(wrap_angle(gamma)), abs(wrap_angle(gamma - np.pi))) < 1e-6:
                        conds.append(f"Gamma_{i + 1}{j + 1} = 0 mod pi")
                    elif min(abs(wrap_angle(delta)), abs(wrap_angle(delta - np.pi))) < 1e-6:
                        conds.append(f"Delta_{i + 1}{j + 1} = 0 mod pi")
            key = ("pm-sigma", tuple(conds))
            if key not in tagged:
                tagged.add(key)
                notes.append("+-sigma degeneracy: " + ("; ".join(conds) if conds
                                                       else "no off-tree edges"))
        else:
            conds = []
            for i in range(1, m):
                for j in range(1, m):
                    if i == j:
                        continue
                    if sa[i - 1] == sb[i - 1] and sa[j - 1] == -sb[j - 1]:
                        gamma = phi[i, j] + phi[0, i] - phi[0, j]
                        if 1.0 - abs(c[0, i]) < 1e-6:
                            conds.append(f"c_1{i + 1} = +-1")
                        elif (abs(c[0, j] - c[i, j]) < 1e-6
                              and abs(c[0, i] - np.cos(gamma)) < 1e-6):
                            conds.append(f"G-condition on pair ({i + 1},{j + 1})")
            key = ("general", tuple(sorted(set(conds))))
            if key not in tagged:
                tagged.add(key)
                notes.append("general signature degeneracy: "
                             + ("; ".join(sorted(set(conds))) if conds else "unclassified"))
    return notes
