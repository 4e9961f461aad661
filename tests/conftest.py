import numpy as np
import pytest

from gausstat.states import GaussianParams


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
