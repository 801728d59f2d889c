"""Local-operation properties of the negative partial-transpose monotones, on
random states drawn by a derandomized Hypothesis search.

Every ``neg_pnorm`` of the partial transpose is invariant under local
unitaries, since ``(U x V) rho (U x V)^H`` has the partial transpose
``(U x V*) rho^T_B (U x V*)^H``. Only ``p = 1``, the negativity, is known not
to increase under local channels, nor on average under local instruments
(Vidal and Werner, PRA 65, 032314 (2002)); ``TestLocalChannels`` in
``test_monotones.py`` shows a channel that raises every ``p > 1``, and its
``test_instrument_raises_the_average_above_p_one`` reads the channel's two
Kraus operators as a local instrument whose average raises every ``p > 1``
too. The random-instrument test below checks ``p = 1`` only.

On a pure state with Schmidt probabilities ``lambda`` the member is
``(sum_{i<j} (lambda_i lambda_j)^(p/2))^(1/p)``, and by Nielsen (PRL 83, 436
(1999)) it does not increase under local operations on pure states exactly
when it is Schur-concave in ``lambda``: a T-transform, which mixes two
probabilities, never lowers it. That holds in every test for
``p in {1, 1.5, 2}`` and fails at ``p = 3``.
"""

import numpy as np
from conftest import random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import DensityMatrix, PureState, neg_pnorm, partial_transpose

_settings = settings(derandomize=True, database=None, max_examples=100, deadline=None)
_dims = st.tuples(st.integers(2, 3), st.integers(2, 3))
_seeds = st.integers(0, 2**32 - 1)


def _isometry(rng, rows, cols):
    """Orthonormal columns: the Q factor of a complex Gaussian matrix."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(z)[0]


def _kraus(rng, d):
    """Kraus operators of a random channel on one party: the ``d x d`` blocks of
    a ``(k d) x d`` isometry, so that ``sum_i K_i^H K_i = I``."""
    k = int(rng.integers(1, 4))
    return _isometry(rng, k * d, d).reshape(k, d, d)


def _state(rng, dims):
    return random_density(rng, *dims, rank=int(rng.integers(1, dims[0] * dims[1] + 1)))


def _pt_norm(mat, dims, p):
    return neg_pnorm(partial_transpose(DensityMatrix(mat, dims)), p)


@_settings
@given(_dims, _seeds, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_invariant_under_local_unitaries(dims, seed, p):
    rng = np.random.default_rng(seed)
    rho = _state(rng, dims)
    w = np.kron(_isometry(rng, dims[0], dims[0]), _isometry(rng, dims[1], dims[1]))
    before = neg_pnorm(partial_transpose(rho), p)
    assert abs(_pt_norm(w @ rho.mat @ w.conj().T, dims, p) - before) <= 1e-12


@_settings
@given(_dims, _seeds)
def test_negativity_does_not_increase_under_local_channels(dims, seed):
    rng = np.random.default_rng(seed)
    rho = _state(rng, dims)
    out = sum(k @ rho.mat @ k.conj().T
              for a in _kraus(rng, dims[0]) for b in _kraus(rng, dims[1])
              for k in [np.kron(a, b)])
    assert _pt_norm(out, dims, 1.0) <= neg_pnorm(partial_transpose(rho), 1.0) + 1e-12


def _instrument(rng, d):
    """Kraus operators of a random instrument on one party, grouped by
    outcome: 2 or 3 outcomes of Kraus rank 1 or 2 each, the ``d x d`` blocks
    of one isometry, so that all of them together satisfy ``sum K^H K = I``."""
    ranks = rng.integers(1, 3, size=int(rng.integers(2, 4)))
    blocks = _isometry(rng, int(ranks.sum()) * d, d).reshape(-1, d, d)
    return np.split(blocks, np.cumsum(ranks)[:-1])


@_settings
@given(st.tuples(st.integers(2, 4), st.integers(2, 4)), _seeds, st.booleans())
def test_negativity_does_not_increase_on_average_under_local_instruments(dims, seed, on_a):
    # outcome i has probability q_i = tr(sigma_i), sigma_i = sum_k K rho K^H,
    # and leaves sigma_i / q_i; the average sum_i q_i N(sigma_i / q_i) may
    # not exceed N(rho) at p = 1
    rng = np.random.default_rng(seed)
    rho = _state(rng, dims)
    eye = np.eye(dims[1] if on_a else dims[0])
    average = 0.0
    for kraus in _instrument(rng, dims[0] if on_a else dims[1]):
        ops = [np.kron(k, eye) if on_a else np.kron(eye, k) for k in kraus]
        sigma = sum(k @ rho.mat @ k.conj().T for k in ops)
        q = np.trace(sigma).real
        average += q * _pt_norm(sigma / q, dims, 1.0)
    assert average <= neg_pnorm(partial_transpose(rho), 1.0) + 1e-12


def _schmidt_pt_norm(rng, probs, p):
    """``neg_pnorm`` of the partial transpose of a ``d x d`` pure state with
    Schmidt probabilities ``probs``, turned by random local unitaries."""
    d = probs.size
    w = np.kron(_isometry(rng, d, d), _isometry(rng, d, d))
    psi = PureState(w @ np.diag(np.sqrt(probs)).reshape(-1), (d, d))
    return neg_pnorm(partial_transpose(psi.to_density()), p)


@_settings
@given(st.integers(2, 4), _seeds, st.sampled_from([1.0, 1.5, 2.0]))
def test_schur_concave_on_pure_states(d, seed, p):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(d, rng.uniform(0.2, 2.0)))
    i, j = rng.choice(d, size=2, replace=False)
    t = rng.uniform(0.0, 1.0)
    mixed = probs.copy()
    mixed[i], mixed[j] = t * probs[i] + (1 - t) * probs[j], (1 - t) * probs[i] + t * probs[j]
    assert _schmidt_pt_norm(rng, mixed, p) >= _schmidt_pt_norm(rng, probs, p) - 1e-12


def test_schur_concavity_fails_at_p_3():
    # the T-transform with t = 1/2 on the last two of (1/2, 1/2, 0) gives
    # (1/2, 1/4, 1/4): the p = 3 member falls from 1/2 to
    # (2 (1/8)^(3/2) + (1/16)^(3/2))^(1/3) = 0.470...
    rng = np.random.default_rng(0)
    before = _schmidt_pt_norm(rng, np.array([0.5, 0.5, 0.0]), 3.0)
    after = _schmidt_pt_norm(rng, np.array([0.5, 0.25, 0.25]), 3.0)
    assert abs(before - 0.5) <= 1e-12
    assert abs(after - (2 * (1 / 8) ** 1.5 + (1 / 16) ** 1.5) ** (1 / 3)) <= 1e-12
    assert after < before - 0.02
