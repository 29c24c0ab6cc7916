"""Exact-arithmetic twisted spin representations and holonomy certificates.

The kernel works over Q(i) plus a per-spinor positive rational squared-scale
factor, so every verdict (purity, reducing, annihilator dimension, relation
checks) is an exact equality, never a tolerance call.
"""

__version__ = "0.1.0"

from .analysis import (
    AmbientElement,
    ClDims,
    LieSubalgebra,
    PurityReport,
    ReducingReport,
    ambient_annihilates,
    annihilator,
    bracket,
    check_pure,
    check_reducing,
    check_spinc_pure,
    cl_dims,
    commutant,
    equivariance_check,
    even_clifford_verify,
    frame_rotation_check,
    lie_closure_report,
)
from .catalog import (
    CatalogEntry,
    beta_forms,
    build_generic_reducing,
    build_qk_pure,
    build_spin7_pure,
    build_spin7_reducing,
    eta13_recursion_check,
    g2_generators,
    maps_G_H,
)
from .forms import Endo, TwoForm, eta, eta_hat, etas, phi_extend, spinc_form
from .scalars import GaussianRational, gr
from .spinrep import (
    FormTerm,
    ScaledSpinor,
    SpinorVector,
    basis_spinor,
    gamma_apply,
    kappa_generator,
    spin_action_on_vector,
)
from .twisted import (
    mu_slot,
    norm2,
    tangent_action,
    twist_bivector_action,
    twisted_group_action,
    twisted_hermitian,
)

__all__ = [
    "AmbientElement",
    "CatalogEntry",
    "ClDims",
    "Endo",
    "FormTerm",
    "GaussianRational",
    "LieSubalgebra",
    "PurityReport",
    "ReducingReport",
    "ScaledSpinor",
    "SpinorVector",
    "TwoForm",
    "ambient_annihilates",
    "annihilator",
    "basis_spinor",
    "beta_forms",
    "bracket",
    "build_generic_reducing",
    "build_qk_pure",
    "build_spin7_pure",
    "build_spin7_reducing",
    "check_pure",
    "check_reducing",
    "check_spinc_pure",
    "cl_dims",
    "commutant",
    "equivariance_check",
    "eta",
    "eta13_recursion_check",
    "eta_hat",
    "etas",
    "even_clifford_verify",
    "frame_rotation_check",
    "g2_generators",
    "gamma_apply",
    "gr",
    "kappa_generator",
    "lie_closure_report",
    "maps_G_H",
    "mu_slot",
    "norm2",
    "phi_extend",
    "spin_action_on_vector",
    "spinc_form",
    "tangent_action",
    "twist_bivector_action",
    "twisted_group_action",
    "twisted_hermitian",
]
