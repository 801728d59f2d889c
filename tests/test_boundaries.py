"""Inputs beyond the float range are refused by name.

A Python int such as ``10**400`` (or a ``Fraction``) has no float: ``float()``
and ``np.asarray(..., float)`` raise ``OverflowError`` on it. Every public
entry point that takes such a scalar or array refuses it with a
``ValueError`` that names the argument, through the one scalar rule
(``linalg._as_float``) and the one array rule (``linalg._finite_array``).
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
    mixing_parameter,
    monotone_report,
    neg_pnorm,
    positive_part,
    pth_power,
)
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
}


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("name", list(CALLS))
def test_beyond_the_float_range_is_refused_by_name(name, sign):
    call, arg = CALLS[name]
    with pytest.raises(ValueError, match=f"^{arg} (must be finite|contains entries beyond)"):
        call(sign * 10**400)
