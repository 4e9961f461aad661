import numpy as np
import pytest

from gausstat.recon_multi import ComplexCovariance
from gausstat.states import GaussianParams, derive_moments, g2_tensor, g3_tensor

# Fock cutoffs per mode count for oracle checks of states with small moments
ORACLE_CUTOFFS = {1: 25, 2: 12, 3: 8}


def random_symmetric(rng, m, scale):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    z = z + z.T
    top = np.linalg.svd(z, compute_uv=False).max()
    if top > 0:
        z *= scale / top
    return z


def random_hermitian(rng, m, scale=1.0):
    h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = h + h.conj().T
    return scale * h / max(1.0, np.abs(h).max())


def random_params(rng, modes, alpha_max=0.8, r_max=0.7, n_max=0.5):
    """Random GaussianParams with magnitudes bounded by the given caps."""
    amp = rng.uniform(0.0, alpha_max, modes)
    phase = rng.uniform(-np.pi, np.pi, modes)
    alpha = amp * np.exp(1j * phase)
    z = random_symmetric(rng, modes, rng.uniform(0.0, r_max))
    phi = random_hermitian(rng, modes, rng.uniform(0.0, 1.0))
    occ = rng.uniform(0.0, n_max, modes)
    return GaussianParams(alpha, z, phi, occ)


def scale_params(params, s):
    """Shrink all parameter magnitudes by s (thermal and squeeze linearly)."""
    return GaussianParams(s * params.alpha, s * params.squeeze,
                          params.rotation, s * params.thermal)


def single_mode_g2_g3(params: GaussianParams) -> tuple[float, float]:
    """(g2, g3) of a single-mode state."""
    mom = derive_moments(params)
    return float(g2_tensor(mom)[0, 0]), g3_tensor(mom)[0, 0, 0]


def complex_covariance(moments) -> ComplexCovariance:
    """Ladder covariance blocks of a state: A = conj(<a_i† a_j> - alpha_i* alpha_j) + I/2
    and B = cov."""
    centered = moments.coherence_matrix() - moments.alpha.conj()[:, None] * moments.alpha
    return ComplexCovariance(centered.conj() + 0.5 * np.eye(moments.modes), moments.cov)


def balanced_beamsplitter_duplicate(params: GaussianParams):
    """Interfere the state with an identical copy on a balanced beam splitter.

    The joint Bogoliubov block L ⊕ L commutes with the 50:50 transformation,
    so both outputs keep the input covariance structure and are uncorrelated;
    the displacement concentrates as sqrt(2) alpha in one port and vanishes in
    the other.  Returns (plus_port, minus_port).
    """
    plus = GaussianParams(np.sqrt(2.0) * params.alpha, params.squeeze,
                          params.rotation, params.thermal)
    minus = GaussianParams(np.zeros_like(params.alpha), params.squeeze,
                           params.rotation, params.thermal)
    return plus, minus


def assert_no_sign_copies(rec, tol=1e-9):
    """No two listed solutions differ only by alpha -> -alpha, the global phase pi."""
    sols = [rec.params, *rec.ambiguity.discrete_solutions]
    for k, a in enumerate(sols):
        for b in sols[k + 1:]:
            same_rest = max(np.abs(a.squeeze - b.squeeze).max(),
                            np.abs(a.rotation - b.rotation).max(),
                            np.abs(a.thermal - b.thermal).max()) <= tol
            assert not (same_rest and np.abs(a.alpha + b.alpha).max() <= tol), \
                f"solutions {a.alpha} and {b.alpha} are global-sign copies"


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)
