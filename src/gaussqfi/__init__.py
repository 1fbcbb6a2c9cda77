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

from . import dgamma, estimation, exceptions, fock, homodyne, models, symplectic
from .dgamma import *  # noqa: F403  (each layer's __all__ is its public surface)
from .estimation import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .fock import *  # noqa: F403
from .homodyne import *  # noqa: F403
from .models import *  # noqa: F403
from .symplectic import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *symplectic.__all__,
    *dgamma.__all__,
    *models.__all__,
    *estimation.__all__,
    *homodyne.__all__,
    *fock.__all__,
    *exceptions.__all__,
]
