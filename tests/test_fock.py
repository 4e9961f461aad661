"""Truncated Fock-space oracle."""

import tracemalloc
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ORACLE_CUTOFFS, random_params, random_symmetric
from scipy import sparse
from scipy.linalg import expm

from gausstat import fock
from gausstat.cli import VERIFY_LADDERS
from gausstat.errors import TruncationError, ValidationError
from gausstat.fock import (
    _RUN,
    _TAIL_LEVELS,
    MAX_DIMENSION,
    TruncatedDensity,
    _displacement,
    _expm_bipartite,
    _generator_entries,
    _ladder_steps,
    _number_blocks,
    _squeeze,
    _thermal_columns,
    _word_action,
    build_density,
    moment_bruteforce,
    photon_number_distribution,
    total_number_factorial_moment,
    vacuum_overlap,
)
from gausstat.states import GaussianParams, derive_moments
from gausstat.words import LadderOp, LadderWord, correlation_word, gaussian_moment

# the cutoff verify tries first at each mode count
VERIFY_CUTOFFS = {m: ladder[0] for m, ladder in VERIFY_LADDERS.items()}


def dense(rho: TruncatedDensity) -> np.ndarray:
    """The dim x dim density matrix W W^H that the oracle never forms."""
    return rho.factor @ rho.factor.conj().T


def mode_number_distribution_matrix(matrix, mode, modes, cutoff):
    """Marginal photon-number distribution of one mode, by partial trace of a
    dense density matrix."""
    out = matrix.reshape((cutoff,) * modes * 2)
    # trace out every other mode, highest axis first to keep indices stable
    for ax in reversed(range(modes)):
        if ax == mode:
            continue
        out = np.trace(out, axis1=ax, axis2=out.ndim // 2 + ax)
    return np.diag(out).real.copy()


def thermal_weights(occupations, cutoff):
    """p_n of the truncated thermal seed, mode 0 most significant."""
    n = np.arange(cutoff)
    per_mode = [(occ / (occ + 1.0)) ** n / (occ + 1.0) if occ > 0 else (n == 0) * 1.0
                for occ in occupations]
    return np.prod(np.meshgrid(*per_mode, indexing="ij"), axis=0).ravel()


def floored_columns(occupations, cutoff):
    """(k, delta): the number of thermal columns the floor keeps, and the
    weight it drops: the lightest weights go while their total delta keeps
    delta (M (d - 1))^3 <= 1e-16."""
    light = np.cumsum(np.sort(thermal_weights(occupations, cutoff)))
    gone = light <= 1e-16 / (len(occupations) * (cutoff - 1)) ** 3
    return light.size - int(gone.sum()), float(light[gone][-1]) if gone.any() else 0.0


def test_vacuum_is_projector():
    rho = build_density(GaussianParams.vacuum(1), cutoff=10)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.allclose(dense(rho), expected)


def test_thermal_geometric_diagonal():
    occ = 0.5
    rho = build_density(GaussianParams.single_mode(occupation=occ), cutoff=40)
    n = np.arange(40)
    expected = (occ / (occ + 1)) ** n / (occ + 1)
    assert np.allclose(rho.populations, expected)
    assert rho.deficit < 1e-12


def test_squeezed_vacuum_mean_photon():
    rho = build_density(GaussianParams.single_mode(r=0.5), cutoff=40)
    word = LadderWord.from_spec("0+ 0-")
    assert moment_bruteforce(rho, word).real == pytest.approx(np.sinh(0.5) ** 2, abs=1e-10)


def test_vacuum_moments_vanish():
    rho = build_density(GaussianParams.vacuum(2), cutoff=6)
    for spec in ("0-", "0+ 1-", "0+ 1+ 0- 1-"):
        assert moment_bruteforce(rho, LadderWord.from_spec(spec)) == pytest.approx(0)


def test_coherent_eigenvalue_property():
    rho = build_density(GaussianParams.single_mode(alpha=0.3), cutoff=30)
    assert moment_bruteforce(rho, LadderWord.from_spec("0-")) == pytest.approx(0.3, abs=1e-10)


def test_vacuum_overlap_examples():
    assert vacuum_overlap(build_density(GaussianParams.vacuum(1), cutoff=8)) == pytest.approx(1.0)
    rho = build_density(GaussianParams.single_mode(occupation=1.0), cutoff=60)
    assert vacuum_overlap(rho) == pytest.approx(0.5, abs=1e-9)


def test_photon_number_distribution_marginal():
    params = GaussianParams(
        np.array([0.4, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)), np.array([0.0, 0.3])
    )
    rho = build_density(params, cutoff=12)
    p0 = photon_number_distribution(rho, 0)
    mu = 0.16
    assert p0[1] == pytest.approx(np.exp(-mu) * mu, abs=1e-8)
    p1 = photon_number_distribution(rho, 1)
    assert p1[0] == pytest.approx(1 / 1.3, abs=1e-8)


def test_total_number_factorial_moment_single_mode_thermal():
    rho = build_density(GaussianParams.single_mode(occupation=0.4), cutoff=40)
    assert total_number_factorial_moment(rho, 2) == pytest.approx(2 * 0.4**2, abs=1e-9)
    assert total_number_factorial_moment(rho, 3) == pytest.approx(6 * 0.4**3, abs=1e-9)


@pytest.mark.parametrize("pure", [False, True])
@pytest.mark.parametrize("modes", [2, 3])
def test_readers_match_dense_partial_trace(modes, pure):
    """Populations, each mode's marginal, the vacuum overlap and the factorial
    moments read from W equal those of the dense W W^H, on squeezed and
    rotated states, mixed (k = the floored column count) and pure (k = 1)."""
    params = random_params(np.random.default_rng(40 + modes), modes,
                           alpha_max=0.5, r_max=0.4, n_max=0.3)
    if pure:
        params = GaussianParams(params.alpha, params.squeeze, params.rotation, np.zeros(modes))
    assert np.any(params.squeeze) and np.any(params.rotation - np.diag(np.diag(params.rotation)))
    cutoff = VERIFY_CUTOFFS[modes]
    rho = build_density(params, cutoff=cutoff, tail_tol=1.0)
    kept, _ = floored_columns(params.thermal, cutoff)
    assert rho.factor.shape == (cutoff**modes, 1 if pure else kept)
    assert pure or 1 < kept < cutoff**modes
    matrix = dense(rho)
    diag = np.diag(matrix).real
    assert np.abs(rho.populations - diag).max() <= 1e-12
    for mode in range(modes):
        ref = mode_number_distribution_matrix(matrix, mode, modes, cutoff)
        assert np.abs(photon_number_distribution(rho, mode) - ref).max() <= 1e-12
    assert vacuum_overlap(rho) == pytest.approx(matrix[0, 0].real, abs=1e-12)
    n_tot = np.indices((cutoff,) * modes).reshape(modes, -1).sum(axis=0)
    for order in (1, 2, 3):
        falling = np.prod([n_tot - k for k in range(order)], axis=0)
        assert total_number_factorial_moment(rho, order) == pytest.approx(
            falling @ diag, abs=1e-12)


def test_trace_deficit_decreases_with_cutoff():
    params = GaussianParams.single_mode(occupation=0.8)
    deficits = [build_density(params, cutoff=d, tail_tol=1.0).deficit for d in (8, 12, 16, 20)]
    assert all(a > b for a, b in zip(deficits, deficits[1:]))


def test_truncation_error_carries_measurements():
    params = GaussianParams.single_mode(r=1.2)
    with pytest.raises(TruncationError) as exc:
        build_density(params, cutoff=8, tail_tol=1e-8)
    assert exc.value.tail_mass > 0


def test_mode_limit():
    with pytest.raises(ValidationError):
        build_density(GaussianParams.vacuum(4), cutoff=4)


def test_oracle_contract_random_state(rng):
    params = random_params(rng, 2, alpha_max=0.4, r_max=0.2, n_max=0.1)
    rho = build_density(params, cutoff=14)
    table = derive_moments(params).to_moment_table()
    for spec in ("0+ 0-", "0+ 1+ 0- 1-", "0- 1- 0+ 1+", "0+ 1+ 1+ 0- 1- 1-"):
        word = LadderWord.from_spec(spec)
        direct = moment_bruteforce(rho, word)
        closed = gaussian_moment(word, table)
        assert abs(direct - closed) / (1 + abs(direct)) < 1e-6


def test_no_click_cross_check():
    params = GaussianParams.single_mode(alpha=0.3, r=0.5, occupation=0.2)
    rho = build_density(params, cutoff=40)
    from gausstat.states import derive_moments, mode_vacuum_probability

    assert vacuum_overlap(rho) == pytest.approx(
        mode_vacuum_probability(derive_moments(params), 0), abs=1e-6)


def test_g3_word_matches_kernel(rng):
    params = random_params(rng, 2, alpha_max=0.35, r_max=0.2, n_max=0.1)
    rho = build_density(params, cutoff=14)
    table = derive_moments(params).to_moment_table()
    word = correlation_word((0, 0, 1))
    assert abs(moment_bruteforce(rho, word) - gaussian_moment(word, table)) < 2e-6


def test_dimension_limit_covers_verify_ladders():
    assert max(c**m for m, ladder in VERIFY_LADDERS.items() for c in ladder) <= MAX_DIMENSION
    assert max(c**m for m, c in ORACLE_CUTOFFS.items()) <= MAX_DIMENSION


@pytest.mark.parametrize("modes,cutoff", [(1, MAX_DIMENSION + 1), (2, 65), (3, 17)])
def test_dimension_limit_rejects_before_allocating(modes, cutoff):
    params = random_params(np.random.default_rng(modes), modes)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="exceeds limit"):
            build_density(params, cutoff=cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cutoff**modes > MAX_DIMENSION
    assert peak < 1e6  # one dense matrix at this size would take over 256 MB


@lru_cache(maxsize=8)
def _sparse_annihilators(modes: int, cutoff: int):
    """The truncated annihilators as sparse Kronecker products (mode 0 outermost)."""
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


def _sparse_words(modes, cutoff, max_order):
    """(word, O) for every word of order 1..max_order, with O the product of
    the sparse truncated ladder matrices, each built from its prefix's O."""
    ladders = _sparse_annihilators(modes, cutoff)
    letters = [(LadderOp(k, c), ladders[k].conj().T.tocsr() if c else ladders[k])
               for k in range(modes) for c in (False, True)]
    stack = [((), None)]
    while stack:
        prefix, mat = stack.pop()
        for op, letter in letters:
            ops, prod = prefix + (op,), letter if mat is None else mat @ letter
            yield LadderWord(ops), prod
            if len(ops) < max_order:
                stack.append((ops, prod))


@pytest.mark.parametrize("modes,cutoff", sorted(set(ORACLE_CUTOFFS.items())
                                                | set(VERIFY_CUTOFFS.items())))
def test_moment_matches_sparse_product_on_every_word(modes, cutoff):
    """Index arithmetic equals Tr[rho O] with O the sparse matrix product, the
    former ``moment_bruteforce``, on every word of order 1-6 at every cutoff
    that the oracle tests use or verify tries first."""
    params = random_params(np.random.default_rng(10 * modes + cutoff), modes,
                           alpha_max=0.5, r_max=0.3, n_max=0.3)
    rho = build_density(params, cutoff=cutoff, tail_tol=1.0)
    matrix = dense(rho)
    words = 0
    worst = 0.0
    for word, op in _sparse_words(modes, cutoff, 6):
        op = op.tocoo()
        ref = complex((op.data * matrix[op.col, op.row]).sum())
        worst = max(worst, abs(moment_bruteforce(rho, word) - ref) / max(1.0, abs(ref)))
        words += 1
    assert words == sum((2 * modes) ** k for k in range(1, 7))
    assert worst <= 1e-12


def squeeze_generator(z, modes, cutoff):
    """The truncated squeeze generator sum_ij (z_ij* a_i a_j - z_ij a_i† a_j†) / 2
    as a sparse matrix on the full Fock space."""
    ladders = _sparse_annihilators(modes, cutoff)
    gen = sparse.csr_matrix((cutoff**modes,) * 2, dtype=complex)
    for i, ai in enumerate(ladders):
        for j, aj in enumerate(ladders):
            if z[i, j] != 0:
                gen = gen + 0.5 * np.conj(z[i, j]) * (ai @ aj) \
                    - 0.5 * z[i, j] * (ai.conj().T @ aj.conj().T)
    return gen


def expm_reference_build(params, cutoff, tail_tol=1e-3):
    """The former oracle build: rho = D S R rho_th R† S† D† with each unitary
    from a dense expm of its truncated generator on the full Fock space."""
    m, d = params.modes, cutoff
    ladders = _sparse_annihilators(m, d)
    dim = d**m
    gen_d = sparse.csr_matrix((dim, dim), dtype=complex)
    gen_s = squeeze_generator(params.squeeze, m, d)
    gen_r = sparse.csr_matrix((dim, dim), dtype=complex)
    for i in range(m):
        ai = ladders[i]
        gen_d = gen_d + params.alpha[i] * ai.conj().T - np.conj(params.alpha[i]) * ai
        for j in range(m):
            aj = ladders[j]
            pij = params.rotation[i, j]
            if pij != 0:
                gen_r = gen_r + 1j * pij * (ai.conj().T @ aj)

    n = np.arange(d)
    rho = None
    for occ in params.thermal:
        if occ > 0:
            p = (occ / (occ + 1.0)) ** n / (occ + 1.0)
        else:
            p = np.zeros(d)
            p[0] = 1.0
        block = np.diag(p.astype(complex))
        rho = block if rho is None else np.kron(rho, block)
    for gen in (gen_r, gen_s, gen_d):
        if gen.count_nonzero() == 0:
            continue
        u = expm(gen.toarray())
        rho = u @ rho @ u.conj().T
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
    return SimpleNamespace(matrix=rho, dim=d, modes=m, deficit=deficit, tail_mass=tail)


def _outcome(build, params, cutoff, tail_tol):
    try:
        return build(params, cutoff=cutoff, tail_tol=tail_tol)
    except TruncationError as err:
        return err


def assert_matches_reference(params, cutoff, tail_tol=1.0):
    """The factorized build equals the expm build: W W^H equals its matrix, and
    the deficit and tail agree, to 1e-12; or both raise TruncationError."""
    new = _outcome(build_density, params, cutoff, tail_tol)
    old = _outcome(expm_reference_build, params, cutoff, tail_tol)
    assert isinstance(new, TruncationError) == isinstance(old, TruncationError)
    assert new.deficit == pytest.approx(old.deficit, abs=1e-12)
    assert new.tail_mass == pytest.approx(old.tail_mass, abs=1e-12)
    if isinstance(new, TruncatedDensity):
        assert (new.dim, new.modes) == (old.dim, old.modes)
        assert np.abs(dense(new) - old.matrix).max() <= 1e-12
    return new


def _params(alpha, z, phi, occ):
    m = len(alpha)
    return GaussianParams(np.asarray(alpha, dtype=complex),
                          np.asarray(z, dtype=complex).reshape(m, m),
                          np.asarray(phi, dtype=complex).reshape(m, m), occ)


_SIDE_BY_SIDE_CUTOFFS = sorted(set(ORACLE_CUTOFFS.items()) | set(VERIFY_CUTOFFS.items()))
_EDGE_CASES = ["vacuum", "z = 0", "phi = 0", "diagonal z", "diagonal phi",
               "displacement only", "thermal only"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFactorizedBuildVsExpm:
    @pytest.mark.parametrize("modes,cutoff", _SIDE_BY_SIDE_CUTOFFS)
    def test_seeded_states(self, modes, cutoff):
        rng = np.random.default_rng(1000 * modes + cutoff)
        for _ in range(3):
            assert_matches_reference(random_params(rng, modes), cutoff)
        # pure states: one thermal column
        params = random_params(rng, modes)
        pure = GaussianParams(params.alpha, params.squeeze, params.rotation, np.zeros(modes))
        assert_matches_reference(pure, cutoff)

    @pytest.mark.parametrize("case", _EDGE_CASES)
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_edge_cases(self, modes, case):
        p = random_params(np.random.default_rng(modes), modes,
                          alpha_max=0.5, r_max=0.3, n_max=0.3)
        zero, occ = np.zeros((modes, modes)), p.thermal
        params = {
            "vacuum": GaussianParams.vacuum(modes),
            "z = 0": _params(p.alpha, zero, p.rotation, occ),
            "phi = 0": _params(p.alpha, p.squeeze, zero, occ),
            "diagonal z": _params(p.alpha, np.diag(np.diag(p.squeeze)), p.rotation, occ),
            "diagonal phi": _params(p.alpha, p.squeeze, np.diag(np.diag(p.rotation)), occ),
            "displacement only": _params(p.alpha, zero, zero, np.zeros(modes)),
            "thermal only": _params(np.zeros(modes), zero, zero, occ),
        }[case]
        assert_matches_reference(params, ORACLE_CUTOFFS[modes])

    @pytest.mark.parametrize("params,cutoff", [
        (GaussianParams.single_mode(r=1.2), 8),
        (GaussianParams.single_mode(alpha=2.0, occupation=0.5), 10),
        (_params([1.5, 0.3], [[0.4, 0.2], [0.2, 0.1]], [[0, 0.5], [0.5, 0]], [0.3, 0.1]), 6),
        (_params([0.8, 0.5, 0.9], np.full((3, 3), 0.2), np.eye(3), [0.2, 0.1, 0.4]), 5),
    ])
    def test_same_truncation_error(self, params, cutoff):
        with pytest.raises(TruncationError):
            build_density(params, cutoff=cutoff)
        assert isinstance(assert_matches_reference(params, cutoff, tail_tol=1e-3),
                          TruncationError)


def eigh_displacement(alpha, cutoff):
    """exp(alpha a^+ - alpha* a) of one truncated mode from eigh of its
    hermitian 1j*G, as the oracle computed it before the bipartite SVD."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    evals, vecs = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


def rotation_terms(phi):
    """(coef, ops) of the rotation generator sum_ij 1j phi_ij a_i† a_j."""
    m = phi.shape[0]
    return [(1j * phi[i, j], (LadderOp(i, True), LadderOp(j, False)))
            for i in range(m) for j in range(m) if phi[i, j] != 0]


def squeeze_terms(z):
    """(coef, ops) of the squeeze generator sum_ij (z_ij* a_i a_j - z_ij a_i† a_j†) / 2."""
    m = z.shape[0]
    return [term for i in range(m) for j in range(m) if z[i, j] != 0
            for term in ((0.5 * np.conj(z[i, j]), (LadderOp(i, False), LadderOp(j, False))),
                         (-0.5 * z[i, j], (LadderOp(i, True), LadderOp(j, True))))]


def eigh_reference_build(params, cutoff, tail_tol=1e-3):
    """The former eigh build, before the thermal floor, the block-local
    generators and the bipartite SVD: every nonzero thermal column, each
    generator scattered into a dense dim x dim array, each number block
    (rotation) and parity block (squeeze) exponentiated by eigh and applied
    to every column, and each displacement factor from eigh."""
    m, d = params.modes, cutoff
    dim = d**m
    digits = np.indices((d,) * m).reshape(m, -1)
    total = digits.sum(axis=0)
    p = thermal_weights(params.thermal, d)
    cols = np.flatnonzero(p)
    w = np.zeros((dim, cols.size), dtype=complex)
    w[cols, np.arange(cols.size)] = np.sqrt(p[cols])

    def apply_blocked(terms, labels):
        gen = np.zeros((dim, dim), dtype=complex)
        for coef, ops in terms:
            src, dst, weight = _word_action(ops, m, d)
            np.add.at(gen, (dst, src), coef * weight)
        for label in range(labels.max() + 1):
            idx = np.flatnonzero(labels == label)
            rows = w[idx]
            if not rows.any():
                continue
            evals, vecs = np.linalg.eigh(1j * gen[np.ix_(idx, idx)])
            w[idx] = vecs @ (np.exp(-1j * evals)[:, None] * (vecs.conj().T @ rows))

    phi, z = params.rotation, params.squeeze
    if np.any(phi - np.diag(np.diag(phi))):
        apply_blocked(rotation_terms(phi), total)
    if np.any(z):
        apply_blocked(squeeze_terms(z), total % 2)
    t = w.reshape((d,) * m + (-1,))
    for i, alpha in enumerate(params.alpha):
        if alpha != 0:
            t = np.moveaxis(np.tensordot(eigh_displacement(alpha, d), t, axes=(1, i)), 0, i)
    w = t.reshape(dim, -1)
    populations = (w.real**2 + w.imag**2).sum(axis=1)
    deficit = float(abs(1.0 - populations.sum()))
    tail = max(float(np.bincount(digits[i], weights=populations, minlength=d)[-_TAIL_LEVELS:].sum())
               for i in range(m))
    if deficit > tail_tol or tail > tail_tol:
        raise TruncationError("reference build truncated", deficit=deficit, tail_mass=tail)
    return SimpleNamespace(factor=w, populations=populations, dim=d, modes=m,
                           deficit=deficit, tail_mass=tail)


def max_word_difference(diff, modes, cutoff, max_order=6):
    """(words, worst): the number of ladder words of order 1..max_order, and
    the largest |Tr[diff O]| over them.  O|s> = weight_s |dst_s> by index
    arithmetic, so Tr[diff O] = sum_s weight_s diff[s, dst_s]; each word is
    reached from its right part by one more operator on the left."""
    steps = _ladder_steps(modes, cutoff)
    dim = cutoff**modes
    padded = np.zeros((dim, dim + 1), dtype=complex)  # column dim: the sink
    padded[:, :dim] = diff
    rows = np.arange(dim)
    stack = [(rows, np.ones(dim), 0)]
    words, worst = 0, 0.0
    while stack:
        dst, weight, order = stack.pop()
        for mode in range(modes):
            for creation in (False, True):
                nxt, factor = steps[mode][creation]
                right = (nxt[dst], weight * factor[dst], order + 1)
                worst = max(worst, abs((right[1] * padded[rows, right[0]]).sum()))
                words += 1
                if right[2] < max_order:
                    stack.append(right)
    return words, worst


def _floor_states(modes, cutoff):
    """Seeded mixed states (the verify draw's small occupations, whose lightest
    columns the floor drops, and larger ones), one with an empty mode, and a
    pure state."""
    rng = np.random.default_rng(3000 * modes + cutoff)
    mixed = [random_params(rng, modes, alpha_max=0.6, r_max=0.15, n_max=0.1),
             random_params(rng, modes, alpha_max=0.5, r_max=0.3, n_max=0.5)]
    p = random_params(rng, modes, alpha_max=0.5, r_max=0.3, n_max=0.3)
    occ = p.thermal.copy()
    occ[rng.integers(modes)] = 0.0
    p2 = random_params(rng, modes, alpha_max=0.5, r_max=0.3)
    return mixed + [GaussianParams(p.alpha, p.squeeze, p.rotation, occ),
                    GaussianParams(p2.alpha, p2.squeeze, p2.rotation, np.zeros(modes))]


@pytest.fixture
def unfloored(monkeypatch):
    """build_density with the thermal floor off: only zero weights go."""
    def build(params, cutoff):
        with monkeypatch.context() as patch:
            patch.setattr(fock, "_DROP_TOL", 0.0)
            return build_density(params, cutoff=cutoff, tail_tol=1.0)
    return build


@pytest.mark.parametrize("modes,cutoff", _SIDE_BY_SIDE_CUTOFFS)
def test_floored_build_matches_unfloored_build(modes, cutoff, unfloored):
    """The build with the thermal floor against the same build without it:
    W W^H within delta + 1e-15, every ladder word of order 1-6 within
    delta (M (d - 1))^3 + 1e-14, and deficit and tail within delta + 1e-15,
    where delta is the dropped thermal weight."""
    norm = (modes * (cutoff - 1)) ** 3
    dropped = []
    for params in _floor_states(modes, cutoff):
        new = build_density(params, cutoff=cutoff, tail_tol=1.0)
        old = unfloored(params, cutoff)
        kept, delta = floored_columns(params.thermal, cutoff)
        assert new.factor.shape == (cutoff**modes, kept)
        assert old.factor.shape == (cutoff**modes,
                                    np.count_nonzero(thermal_weights(params.thermal, cutoff)))
        assert new.dropped_weight == pytest.approx(delta, rel=1e-12, abs=0.0)
        assert delta * norm <= 1e-16
        delta = new.dropped_weight
        dropped.append(delta)
        diff = dense(new) - dense(old)
        assert np.abs(diff).max() <= delta + 1e-15
        assert abs(new.deficit - old.deficit) <= delta + 1e-15
        assert abs(new.tail_mass - old.tail_mass) <= delta + 1e-15
        words, worst = max_word_difference(diff, modes, cutoff)
        assert words == sum((2 * modes) ** k for k in range(1, 7))
        assert worst <= delta * norm + 1e-14
    assert dropped[0] > 0.0 and dropped[-1] == 0.0


@pytest.mark.parametrize("modes,cutoff", _SIDE_BY_SIDE_CUTOFFS)
def test_svd_build_matches_former_eigh_build(modes, cutoff, unfloored):
    """The build, squeeze and displacement from their bipartite halves,
    against the former eigh build, both without the floor: W W^H within
    1e-14, every ladder word of order 1-6 within 1e-13, and deficit and
    tail within 1e-14."""
    for params in _floor_states(modes, cutoff):
        new = unfloored(params, cutoff)
        old = eigh_reference_build(params, cutoff, tail_tol=1.0)
        diff = dense(new) - old.factor @ old.factor.conj().T
        assert np.abs(diff).max() <= 1e-14
        assert abs(new.deficit - old.deficit) <= 1e-14
        assert abs(new.tail_mass - old.tail_mass) <= 1e-14
        words, worst = max_word_difference(diff, modes, cutoff)
        assert words == sum((2 * modes) ** k for k in range(1, 7))
        assert worst <= 1e-13


def svd_expm_bipartite(half, xa, xb):
    """The former two-sided exponential: exp(G) x for 1j*G =
    [[0, half], [half^H, 0]] and x given by its rows xa on side A and xb on
    side B, from the thin SVD half = U S V^H: cos S on each side and
    -1j sin S across, with cos S - 1 as -2 sin^2(S/2)."""
    u, s, vh = np.linalg.svd(half, full_matrices=False)
    cos1 = (-2.0 * np.sin(0.5 * s) ** 2)[:, None]
    isin = 1j * np.sin(s)[:, None]
    ua, vb = u.conj().T @ xa, vh @ xb
    return xa + u @ (cos1 * ua - isin * vb), xb + vh.conj().T @ (cos1 * vb - isin * ua)


def svd_reference_build(params, cutoff):
    """W of the former SVD build: the thermal columns the build keeps, each
    rotation number block from eigh of its block-local generator, and each
    squeeze parity block and displacement factor from the two-sided SVD
    exponential of its half, every block applied to every column."""
    m, d = params.modes, cutoff
    dim = d**m
    number, sides = _number_blocks(m, d)
    states, weights, _ = _thermal_columns(params.thermal, d, number[1])
    w = np.zeros((dim, states.size), dtype=complex)
    w[states, np.arange(states.size)] = np.sqrt(weights)
    phi, z = params.rotation, params.squeeze
    if np.any(phi - np.diag(np.diag(phi))):
        blocks, label, local = number
        src, dst, val = _generator_entries(rotation_terms(phi), m, d)
        for b, idx in enumerate(blocks):
            e = label[src] == b
            gen = np.zeros((idx.size, idx.size), dtype=complex)
            np.add.at(gen, (local[dst[e]], local[src[e]]), val[e])
            evals, vecs = np.linalg.eigh(1j * gen)
            w[idx] = vecs @ (np.exp(-1j * evals)[:, None] * (vecs.conj().T @ w[idx]))
    if np.any(z):
        blocks, label, local = sides
        src, dst, val = _generator_entries(squeeze_terms(z), m, d)
        for p in (0, 1):
            a, b = blocks[2 * p], blocks[2 * p + 1]
            e = label[src] == 2 * p + 1
            half = np.zeros((a.size, b.size), dtype=complex)
            np.add.at(half, (local[dst[e]], local[src[e]]), 1j * val[e])
            w[a], w[b] = svd_expm_bipartite(half, w[a], w[b])
    lower = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d, dtype=complex)
    for i, alpha in enumerate(params.alpha):
        if alpha != 0:
            half = 1j * (alpha * lower.T - np.conj(alpha) * lower)[0::2, 1::2]
            factor = np.empty((d, d), dtype=complex)
            factor[0::2], factor[1::2] = svd_expm_bipartite(half, eye[0::2], eye[1::2])
            w = np.matmul(factor, w.reshape(d**i, d, -1)).reshape(dim, -1)
    return w


@pytest.mark.parametrize("case", ["z = 0", "diagonal z", "random z"])
@pytest.mark.parametrize("pure", [False, True])
@pytest.mark.parametrize("modes,cutoff", _SIDE_BY_SIDE_CUTOFFS)
def test_build_matches_former_svd_build(modes, cutoff, pure, case):
    """The build, each squeeze parity block and displacement factor from one
    Gram eigh and applied to each column from its own side, against the
    former two-sided SVD build: W W^H within 1e-14 and every ladder word of
    order 1-6 within 1e-13, on mixed and pure states."""
    p = random_params(np.random.default_rng(4000 * modes + cutoff), modes,
                      alpha_max=0.5, r_max=0.3, n_max=0.3)
    z = {"z = 0": 0 * p.squeeze, "diagonal z": np.diag(np.diag(p.squeeze))}.get(case, p.squeeze)
    params = GaussianParams(p.alpha, z, p.rotation, 0 * p.thermal if pure else p.thermal)
    new = build_density(params, cutoff=cutoff, tail_tol=1.0)
    old = svd_reference_build(params, cutoff)
    assert new.factor.shape == old.shape and (old.shape[1] == 1) == pure
    diff = dense(new) - old @ old.conj().T
    assert np.abs(diff).max() <= 1e-14
    words, worst = max_word_difference(diff, modes, cutoff)
    assert words == sum((2 * modes) ** k for k in range(1, 7))
    assert worst <= 1e-13


def _bipartite_expm(half):
    """expm(G) for 1j*G = [[0, half], [half^H, 0]], by scipy."""
    p, q = half.shape
    h = np.zeros((p + q, p + q), dtype=complex)
    h[:p, p:] = half
    h[p:, :p] = half.conj().T
    return expm(-1j * h)


def gram_expm(half):
    """exp(G) from ``_expm_bipartite``: the identity's first p columns applied
    from side A, the other q from side B."""
    p, q = half.shape
    apply = _expm_bipartite(half)
    return np.hstack([np.vstack(apply(np.eye(p, dtype=complex), 0)),
                      np.vstack(apply(np.eye(q, dtype=complex), 1))])


def assert_unitary(u, tol=1e-13):
    assert np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() <= tol


@pytest.mark.parametrize("scale", [0.0, 0.05, 0.5, 2.0])
@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (5, 3), (3, 5), (4, 0), (0, 2)])
def test_expm_bipartite_matches_expm(shape, scale):
    """Square, rectangular and one-sided halves, from zero to a norm of
    several units."""
    rng = np.random.default_rng(sum(shape))
    half = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    u = gram_expm(half)
    assert np.abs(u - _bipartite_expm(half)).max() <= 1e-13
    assert_unitary(u)


def _edge_half(case, shape, rng):
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if case == "zero rows":
        # on the smaller side, so the Gram matrix has exact zero rows
        if shape[0] <= shape[1]:
            half[1::2] = 0
        else:
            half[:, 1::2] = 0
    elif case == "rank 2":
        half = half[:, :2] @ (rng.standard_normal((2, shape[1])) + 0j)
    elif case == "norm 10":
        half *= 10.0 / np.linalg.norm(half, 2)
    return half


@pytest.mark.parametrize("shape", [(150, 140), (140, 150)])
def test_expm_bipartite_skips_rows_without_entries(shape):
    """A staircase half of more than ``_RUN`` columns each way, as a squeeze
    half maps each number block to its neighbours only, and columns that
    hold entries in a band of rows only, as a range of W's columns does:
    exp(G) of the products that skip the empty rows run by run equals
    scipy's expm to 1e-13 and is unitary to 1e-13."""
    rng = np.random.default_rng(shape[0])
    p, q = shape
    rows, cols = np.indices(shape)
    band = np.abs(rows / p - cols / q) < 0.08
    half = np.where(band, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0)
    assert min(shape) > _RUN and 0.05 < band.mean() < 0.2
    ref = _bipartite_expm(half)
    u = gram_expm(half)
    assert np.abs(u - ref).max() <= 1e-13
    assert_unitary(u)
    apply = _expm_bipartite(half)
    for side, size, offset in ((0, p, 0), (1, q, p)):
        x = np.zeros((size, 2 * _RUN + 5), dtype=complex)
        for c in range(x.shape[1]):
            lo = c * size // x.shape[1]
            x[lo:lo + 9, c] = rng.standard_normal(min(9, size - lo))
        assert np.abs(np.vstack(apply(x, side)) - ref[:, offset:offset + size] @ x).max() <= 1e-13


@pytest.mark.parametrize("case", ["zero rows", "rank 2", "norm 10"])
@pytest.mark.parametrize("shape", [(6, 6), (4, 7), (7, 4)])
def test_expm_bipartite_edge_halves(shape, case):
    """Rank-deficient halves, whose Gram matrix has eigenvalues 0 or slightly
    below from rounding, and a half of top singular value 10, square and
    rectangular both ways, so the Gram side flips: exp(G) equals scipy's
    expm to 1e-13 and is unitary to 1e-13, from each side alone too."""
    rng = np.random.default_rng(sum(shape) + len(case))
    half = _edge_half(case, shape, rng)
    small = half if shape[0] <= shape[1] else half.conj().T
    lam = np.linalg.eigvalsh(small @ small.conj().T)
    if case == "norm 10":
        assert lam.max() == pytest.approx(100.0)
    elif case == "zero rows":
        assert lam.min() <= 0.0
    else:
        # zero up to rounding, below zero at shapes (6, 6) and (4, 7)
        assert np.abs(lam[:-2]).max() <= 1e-15 * lam.max()
    ref = _bipartite_expm(half)
    u = gram_expm(half)
    assert np.abs(u - ref).max() <= 1e-13
    assert_unitary(u)
    # columns seeded on one side only
    apply = _expm_bipartite(half)
    p = shape[0]
    for side, rows in ((0, slice(0, p)), (1, slice(p, None))):
        x = rng.standard_normal((ref[:, rows].shape[1], 3)) + 0j
        assert np.abs(np.vstack(apply(x, side)) - ref[:, rows] @ x).max() <= 1e-13


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5 - 1.1j, 2.0j])
@pytest.mark.parametrize("cutoff", [2, 3, 8, 9, 25])
def test_displacement_matches_expm(cutoff, alpha):
    """Even and odd cutoffs, where the odd-n side is as large as the even-n
    side or one smaller."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    u = _displacement(np.eye(cutoff, dtype=complex), alpha, 0, cutoff)
    assert np.abs(u - expm(alpha * a.T - np.conj(alpha) * a)).max() <= 1e-13
    assert_unitary(u)


@pytest.mark.parametrize("case", ["random z", "diagonal z", "z = 0", "r = 1.2"])
@pytest.mark.parametrize("pure", [False, True])
@pytest.mark.parametrize("modes,cutoff", [(1, 2), (1, 7), (1, 8), (2, 2), (2, 5), (2, 6),
                                          (3, 2), (3, 3), (3, 4)])
def test_squeeze_matches_expm(modes, cutoff, pure, case):
    """``_squeeze`` on every basis state, or on the vacuum column alone (a
    pure state), equals expm of the truncated squeeze generator to 1e-13,
    and is unitary to 1e-13.  Odd and even cutoffs give rectangular halves,
    and at cutoff 2 the odd parity block has an empty side."""
    rng = np.random.default_rng(10 * modes + cutoff)
    z = random_symmetric(rng, modes, 1.2 if case == "r = 1.2" else 0.4)
    z = {"diagonal z": np.diag(np.diag(z)), "z = 0": 0 * z}.get(case, z)
    # every state, in number-block order, as the build orders its columns
    seeds = np.concatenate(_number_blocks(modes, cutoff)[0][0])[:1 if pure else None]
    w = np.eye(cutoff**modes, dtype=complex)[:, seeds]
    _squeeze(w, z, seeds, modes, cutoff)
    ref = expm(squeeze_generator(z, modes, cutoff).toarray())[:, seeds]
    assert np.abs(w - ref).max() <= 1e-13
    assert_unitary(w)


def _traced_peak(params, cutoff, tail_tol=1e-3):
    """(rho, peak): one build and the peak bytes tracemalloc saw during it."""
    tracemalloc.start()
    try:
        rho = build_density(params, cutoff=cutoff, tail_tol=tail_tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rho, peak


def test_build_holds_no_dense_generator():
    """Builds at (M, cutoff) = (3, 12), U = 16 dim^2 bytes, under tracemalloc.
    A state with few thermal columns peaks at 1.5 U or less: no generator on
    the full space (U) and no product of a block with all of W's columns.  A
    fully mixed state (N = 1 in every mode, most of the dim columns kept)
    peaks at 2.1 U or less: W (U) and the new W of one displacement step."""
    unit = 16 * (12**3) ** 2
    params = _params([0.2, 0.1j, 0], 0.1 * np.eye(3), np.full((3, 3), 0.2), [0.05, 0.1, 0])
    rho, peak = _traced_peak(params, 12)
    assert rho.factor.shape[0] == 12**3
    assert peak <= 1.5 * unit
    mixed = _params([0.2, 0.1j, 0], 0.1 * np.eye(3), np.full((3, 3), 0.2), [1.0, 1.0, 1.0])
    rho, peak = _traced_peak(mixed, 12, tail_tol=1.0)
    assert rho.factor.shape[1] > 0.9 * 12**3
    assert peak <= 2.1 * unit
