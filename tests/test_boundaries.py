"""Inputs beyond the float range, past a count's bound or of the wrong type
are refused by name.

A Python int such as ``10**400`` (or a ``Fraction``) has no float: ``float()``
and ``np.asarray(..., float)`` raise ``OverflowError`` on it. Every public
entry point that takes such a scalar or array refuses it with a
``ValueError`` that names the argument, through the one scalar rule
(``linalg._as_float``) and the one array rule (``linalg._as_array``). A count
above ``MAX_COUNT`` is refused by name before anything is allocated for it,
and a string where a real number belongs raises a ``TypeError`` naming it.
"""

import numpy as np
import pytest

from entmono import (
    DensityMatrix,
    PureState,
    TcmConfig,
    coherent_state,
    hermitian_eigenvalues,
    is_doubly_stochastic,
    isotropic_concurrence_bound,
    isotropic_state,
    isotropic_tangle_bound,
    majorizes,
    max_entangled,
    mixing_parameter,
    monotone_report,
    neg_pnorm,
    positive_part,
    pth_power,
)
from entmono.convex_roof import Ensemble, RoofConfig, random_isometry
from entmono.linalg import MAX_COUNT
from entmono.states import isotropic_pt_spectrum

CALLS = {  # name -> (call of a huge value, the argument its error names)
    "monotone_report": (lambda x: monotone_report(np.eye(2), x), "p"),
    "neg_pnorm": (lambda x: neg_pnorm(np.eye(2), x), "p"),
    "monotone_report_state": (lambda x: monotone_report(isotropic_state(3, 0.8), x), "p"),
    "pth_power": (lambda x: pth_power([1.0], x), "p"),
    "isotropic_state": (lambda x: isotropic_state(3, x), "fidelity"),
    "mixing_parameter": (lambda x: mixing_parameter(3, x), "fidelity"),
    "isotropic_concurrence_bound": (lambda x: isotropic_concurrence_bound(3, x), "fidelity"),
    "isotropic_tangle_bound": (lambda x: isotropic_tangle_bound(3, x), "fidelity"),
    "isotropic_pt_spectrum": (lambda x: isotropic_pt_spectrum(3, x), "fidelity"),
    "coherent_state": (lambda x: coherent_state(x, 5), "alpha"),
    "TcmConfig_nbar": (lambda x: TcmConfig(nbar=x, n_max=30), "nbar"),
    "DensityMatrix": (lambda x: DensityMatrix([[x]], (1, 1)), "density matrix"),
    "PureState": (lambda x: PureState([x], (1, 1)), "state vector"),
    "hermitian_eigenvalues": (lambda x: hermitian_eigenvalues([[x]]), "matrix"),
    "majorizes": (lambda x: majorizes([x, 0], [1, 0]), "y"),
    "positive_part": (lambda x: positive_part([x]), "x"),
    "is_doubly_stochastic": (lambda x: is_doubly_stochastic([[x]]), "matrix"),
    "TcmConfig_t_grid": (lambda x: TcmConfig(nbar=1.0, n_max=20, t_grid=[0, x]), "t_grid"),
    "Ensemble": (lambda x: Ensemble([x], [PureState([1.0], (1, 1))]), "probabilities"),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("name", list(CALLS))
def test_beyond_the_float_range_is_refused_by_name(name, sign):
    call, arg = CALLS[name]
    with pytest.raises(ValueError, match=f"^{arg} (must be finite|contains entries beyond)"):
        call(sign * 10**400)


COUNTS = {  # name -> (call of a count, the argument its error names)
    "coherent_state": (lambda n: coherent_state(2.0, n), "n_max"),
    "TcmConfig": (lambda n: TcmConfig(nbar=1.0, n_max=n), "n_max"),
    "RoofConfig_restarts": (lambda n: RoofConfig(restarts=n), "restarts"),
    "RoofConfig_max_iters": (lambda n: RoofConfig(max_iters=n), "max_iters"),
    "RoofConfig_ensemble_size": (lambda n: RoofConfig(ensemble_size=n), "ensemble_size"),
    "isotropic_state": (lambda d: isotropic_state(d, 0.5), "isotropic dimension d"),
    "max_entangled": (lambda d: max_entangled(d), "isotropic dimension d"),
    "random_isometry_m": (lambda m: random_isometry(m, 2, np.random.default_rng(0)), "m"),
    "random_isometry_r": (lambda r: random_isometry(5, r, np.random.default_rng(0)), "r"),
}


# 2**63 and above only: numpy cannot size an array that long and fails
# before it allocates, so a missing bound fails this test unnamed instead
@pytest.mark.parametrize("count", [2**63, np.uint64(2**63), 10**400],
                         ids=["2**63", "uint64", "10**400"])
@pytest.mark.parametrize("name", list(COUNTS))
def test_count_beyond_the_bound_is_refused_by_name(name, count):
    call, arg = COUNTS[name]
    with pytest.raises(ValueError, match=f"^{arg} must be .*{MAX_COUNT}"):
        call(count)


@pytest.mark.parametrize("call, arg", [
    (lambda: isotropic_state(46341, 0.5), "isotropic dimension d"),  # 46341**2 > MAX_COUNT
    (lambda: max_entangled(46341), "isotropic dimension d"),
    (lambda: random_isometry(-1, -2, np.random.default_rng(0)), "m"),
    (lambda: random_isometry(3, -2, np.random.default_rng(0)), "r"),
], ids=["isotropic_state", "max_entangled", "random_isometry_m", "random_isometry_r"])
def test_a_size_just_out_of_range_is_refused_by_name(call, arg):
    with pytest.raises(ValueError, match=f"^{arg} must be .*{MAX_COUNT}"):
        call()


def test_counts_up_to_the_bound_configure_a_search():
    cfg = RoofConfig(ensemble_size=MAX_COUNT, restarts=MAX_COUNT, max_iters=MAX_COUNT)
    assert cfg.restarts == cfg.max_iters == cfg.ensemble_size == MAX_COUNT


@pytest.mark.parametrize("call, arg", [
    (lambda: monotone_report(np.eye(2), "2"), "p"),
    (lambda: isotropic_state(3, "0.5"), "fidelity"),
], ids=["monotone_report", "isotropic_state"])
def test_a_string_number_is_refused_by_name(call, arg):
    with pytest.raises(TypeError, match=f"^{arg} must be a real number, got '"):
        call()
