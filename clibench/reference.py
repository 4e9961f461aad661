"""Reference forward model of a multimode Gaussian state, written apart from gausstat.states.

The benchmark checks the program's outputs against this model, so it takes
routes of its own to every observable:

* Bogoliubov matrix.  Each quadratic generator is written as 1/2 b^T H b in
  the stacked ladder vector b = (a, a+).  Its commutator action is
  [b, G] = Omega H b with Omega_mn = [b_m, b_n], so conjugating b by e^G is
  the matrix exponential expm(Omega H).  For U = D(alpha) S(z) R(phi) this
  gives U+ b U = expm(Omega H_S) expm(Omega H_R) b + (alpha, alpha*).
* Normally ordered moments.  Every moment is an Isserlis/Wick sum over the
  displaced fluctuations b = A + c: each operator contributes its mean, or a
  contraction <c_m c_n> with a later operator, order kept.
* No-click probability.  p0 of each mode is the overlap of the mode's reduced
  Wigner function with the vacuum Wigner function.

Parameters follow the program's documented convention: rho =
D S R rho_th R+ S+ D+, R = exp(i a+ phi a), S = exp(1/2 (a z* a - a+ z a+)).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
from scipy.linalg import expm


class RefState:
    """Mean vector A and fluctuation moments S_mn = <c_m c_n> in the (a, a+) basis."""

    def __init__(self, alpha, z, phi, thermal):
        alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
        m = alpha.shape[0]
        z = np.asarray(z, dtype=complex).reshape(m, m)
        phi = np.asarray(phi, dtype=complex).reshape(m, m)
        thermal = np.atleast_1d(np.asarray(thermal, dtype=float))
        zero = np.zeros((m, m), dtype=complex)
        omega = np.block([[zero, np.eye(m)], [-np.eye(m), zero]])
        h_rot = np.block([[zero, 1j * phi.T], [1j * phi, zero]])
        h_sq = np.block([[z.conj(), zero], [zero, -z]])
        bog = expm(omega @ h_sq) @ expm(omega @ h_rot)
        seed = np.zeros((2 * m, 2 * m), dtype=complex)
        seed[:m, m:] = np.diag(thermal + 1.0)  # <a a+>
        seed[m:, :m] = np.diag(thermal)  # <a+ a>
        self.modes = m
        self.alpha = alpha
        self.mean = np.concatenate([alpha, alpha.conj()])
        self.fluct = bog @ seed @ bog.T
        self._mean = [complex(v) for v in self.mean]
        self._fluct = [[complex(v) for v in row] for row in self.fluct]

    @classmethod
    def from_json(cls, doc: dict) -> "RefState":
        """State from a gausstat/v1 ``gaussian_params`` document."""

        def cmat(rows):
            return np.array([[complex(*v) for v in row] for row in rows])

        return cls([complex(*v) for v in doc["alpha"]], cmat(doc["squeeze"]),
                   cmat(doc["rotation"]), doc["thermal"])

    def moment(self, word) -> complex:
        """<b_w1 b_w2 ... b_wn> for stacked indices w (annihilator i, creator M + i)."""
        return _wick(self._mean, self._fluct, tuple(word))

    def nbar(self) -> np.ndarray:
        m = self.modes
        return np.array([self.moment((m + i, i)).real for i in range(m)])

    def coherence(self) -> np.ndarray:
        """G_ij = <a_i+ a_j>."""
        m = self.modes
        return np.array([[self.moment((m + i, j)) for j in range(m)] for i in range(m)])

    def g1(self) -> np.ndarray:
        g = self.coherence()
        n = np.diag(g).real
        return g / np.sqrt(np.outer(n, n))

    def g2(self) -> np.ndarray:
        m = self.modes
        n = self.nbar()
        out = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                val = self.moment((m + i, m + j, j, i)).real / (n[i] * n[j])
                out[i, j] = out[j, i] = val
        return out

    def g3_unnormalized(self, triples) -> dict:
        m = self.modes
        return {t: self.moment((m + t[0], m + t[1], m + t[2], t[2], t[1], t[0])).real
                for t in triples}

    def g3(self, triples=None) -> dict:
        triples = sorted_triples(self.modes) if triples is None else triples
        n = self.nbar()
        return {t: v / (n[t[0]] * n[t[1]] * n[t[2]])
                for t, v in self.g3_unnormalized(triples).items()}

    def p0(self) -> np.ndarray:
        """Vacuum probability of every mode: 2 pi times the Wigner overlap with vacuum.

        For Gaussians with quadrature covariances V, V0 = I/2 and mean offset d
        the overlap integral is exp(-d^T (V + V0)^-1 d / 2) / sqrt(det(V + V0)).
        """
        m = self.modes
        to_quad = np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0)  # (x, p) from (a, a+)
        out = np.empty(m)
        for i in range(m):
            idx = [i, m + i]
            s = self.fluct[np.ix_(idx, idx)]
            cov = (to_quad @ (0.5 * (s + s.T)) @ to_quad.T).real
            d = np.sqrt(2.0) * np.array([self.alpha[i].real, self.alpha[i].imag])
            total = cov + 0.5 * np.eye(2)
            out[i] = np.exp(-0.5 * d @ np.linalg.solve(total, d)) / np.sqrt(np.linalg.det(total))
        return out

    def bucket(self) -> tuple[float, float, float]:
        """(g2_B, g3_B, <N>) of the summed photon number N = sum_i a_i+ a_i."""
        m = self.modes
        n = self.nbar()
        total = float(n.sum())
        second = sum(self.moment((m + i, m + j, j, i)).real
                     for i in range(m) for j in range(m))
        third = sum(multiplicity(t) * v
                    for t, v in self.g3_unnormalized(sorted_triples(m)).items())
        return second / total**2, third / total**3, total


def _wick(mean, fluct, word) -> complex:
    if not word:
        return 1.0
    first, rest = word[0], word[1:]
    total = mean[first] * _wick(mean, fluct, rest)
    row = fluct[first]
    for k, partner in enumerate(rest):
        coeff = row[partner]
        if coeff != 0:
            total += coeff * _wick(mean, fluct, rest[:k] + rest[k + 1:])
    return total


def sorted_triples(m: int) -> list[tuple[int, int, int]]:
    return [(i, j, k) for i in range(m) for j in range(i, m) for k in range(j, m)]


def multiplicity(triple) -> int:
    return len(set(permutations(triple)))
