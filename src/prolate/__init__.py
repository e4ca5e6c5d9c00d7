"""DPSS (Slepian) eigenvalues at scale, with certified non-asymptotic bounds.

The package computes the spectrum of the prolate matrix by dense and
tridiagonal-commuting routes, evaluates the transition-width and eigenvalue
bounds (new and prior), executes the structural machinery behind them
(rank-2 displacement of the boundary matrix, Zolotarev singular-value decay,
Chebyshev low-rank sinc approximation), and transfers results to the
continuous case through a quantitative discrete proxy.
"""

from .bounds import (
    BoundValue,
    EnvelopeBound,
    SlepianApprox,
    eig_envelope,
    eig_upper_prior,
    evaluate_bound_set,
    pswf_eig_envelope,
    pswf_sum_bounds,
    pswf_width_bound,
    slepian_approx,
    sum_bounds_cor2,
    width_bound_prior,
    width_bound_thm1,
    width_bound_thm2,
)
from .chebsinc import (
    ChebInterpolant,
    cheb_interpolate,
    interpolation_error_bound,
    lowrank_block_approx,
    sinc_derivative_bound,
)
from .displacement import (
    DisplacementSystem,
    ZolotarevSetPair,
    build_xl,
    gram_defect,
    loewner_min_eig,
    mobius_normalize,
    partition_check,
    sv_decay_check,
    zolotarev_bound,
)
from .errors import (
    CapacityError,
    DomainError,
    NumericalError,
    ParameterError,
    ProlateError,
)
from .kernel import (
    ProlateParams,
    build_prolate_matrix,
    sinc_entry,
    sinc_identity_residual,
    sinc_identity_tail_bound,
    sinc_kernel,
)
from .spectrum import (
    PSWFProxy,
    SpectrumSlice,
    TransitionReport,
    dense_spectrum,
    eigensum_head,
    eigensum_tail,
    pswf_proxy,
    transition_width,
    transition_widths,
    tridiagonal_spectrum,
)

__version__ = "0.1.0"
