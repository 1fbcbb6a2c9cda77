"""Quantum Fisher information for Gaussian states of bosonic modes.

The package computes the symmetric logarithmic derivative and the quantum
Fisher information of one-parameter Gaussian models directly from first and
second moments, characterizes the optimal measurements (homodyne frames for
equal-temperature models, photon counting where the quadratic normal form
exists), and cross-checks every phase-space formula against a brute-force
truncated Fock-basis oracle.

Conventions: quadrature ordering ``R = (Q_1..Q_n, P_1..P_n)``, vacuum
covariance equal to the identity, symplectic form
``omega = [[0, I], [-I, 0]]``.
"""

from .dgamma import (
    DGammaSpectrum,
    SpectralLine,
    apply_dgamma,
    dgamma_matrix,
    dgamma_pseudoinverse_apply,
    dgamma_spectrum,
    stein_series_solve,
)
from .estimation import (
    FisherReport,
    PhotonCountingForm,
    SLDCoefficients,
    gaussian_distribution_fisher,
    photon_counting_form,
    qfi_general,
    qfi_isothermal,
    sld_coefficients,
    wigner_fisher,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    NearSingularWarning,
    PreconditionError,
)
from .fock import (
    FockConvergence,
    IdentityReport,
    TruncatedState,
    build_state,
    destroy,
    displacement_unitary,
    gaussian_unitary,
    identity_checks,
    passive_unitary,
    qfi_fock,
    qfi_fock_probe,
    quadrature_operators,
    sld_matrix,
    sld_residual,
    squeeze_unitary,
    state_moments,
    suggested_cutoff,
    thermal_density,
)
from .homodyne import (
    HomodynePlan,
    IsothermalFrame,
    ancilla_extend,
    homodyne_fisher,
    homodyne_plan,
    isothermal_frame,
    optimal_homodyne_fisher,
)
from .models import (
    GaussianModelPoint,
    IsothermalCheck,
    ModelConfig,
    ModelFamily,
    builtin_family,
    check_isothermal,
    finite_difference_point,
    linear_family,
    load_model_config,
    parse_model_config,
)
from .symplectic import (
    CovarianceCheck,
    WilliamsonDecomposition,
    euler_decompose,
    hamiltonian_eigenframe,
    is_symplectic,
    random_orthogonal_symplectic,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    validate_covariance,
    williamson,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # symplectic
    "symplectic_form",
    "is_symplectic",
    "symplectic_eigenvalues",
    "CovarianceCheck",
    "validate_covariance",
    "WilliamsonDecomposition",
    "williamson",
    "random_orthogonal_symplectic",
    "random_symplectic",
    "hamiltonian_eigenframe",
    "euler_decompose",
    # superoperator
    "apply_dgamma",
    "dgamma_matrix",
    "SpectralLine",
    "DGammaSpectrum",
    "dgamma_spectrum",
    "dgamma_pseudoinverse_apply",
    "stein_series_solve",
    # models
    "GaussianModelPoint",
    "ModelFamily",
    "ModelConfig",
    "builtin_family",
    "linear_family",
    "finite_difference_point",
    "IsothermalCheck",
    "check_isothermal",
    "parse_model_config",
    "load_model_config",
    # estimation
    "SLDCoefficients",
    "sld_coefficients",
    "FisherReport",
    "qfi_general",
    "qfi_isothermal",
    "wigner_fisher",
    "gaussian_distribution_fisher",
    "PhotonCountingForm",
    "photon_counting_form",
    # homodyne
    "IsothermalFrame",
    "isothermal_frame",
    "optimal_homodyne_fisher",
    "homodyne_fisher",
    "HomodynePlan",
    "homodyne_plan",
    "ancilla_extend",
    # fock oracle
    "destroy",
    "quadrature_operators",
    "thermal_density",
    "passive_unitary",
    "squeeze_unitary",
    "displacement_unitary",
    "gaussian_unitary",
    "TruncatedState",
    "build_state",
    "state_moments",
    "suggested_cutoff",
    "qfi_fock",
    "FockConvergence",
    "qfi_fock_probe",
    "sld_matrix",
    "sld_residual",
    "IdentityReport",
    "identity_checks",
    # errors
    "ConfigError",
    "PreconditionError",
    "ConvergenceError",
    "NearSingularWarning",
]
