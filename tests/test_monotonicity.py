"""Local-operation properties of the negative partial-transpose monotones, on
random states drawn by a derandomized Hypothesis search.

Every ``neg_pnorm`` of the partial transpose is invariant under local
unitaries, since ``(U x V) rho (U x V)^H`` has the partial transpose
``(U x V*) rho^T_B (U x V*)^H``. Only ``p = 1``, the negativity, is known not
to increase under local channels (Vidal and Werner, PRA 65, 032314 (2002));
``TestLocalChannels`` in ``test_monotones.py`` shows a channel that raises
every ``p > 1``.
"""

import numpy as np
from conftest import random_density
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import DensityMatrix, neg_pnorm, partial_transpose

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
