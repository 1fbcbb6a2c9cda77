"""Optimal homodyne measurement design for equal-temperature models.

For a model with all symplectic eigenvalues equal to ``nu``, a
temperature-preserving derivative, and static first moments, there is a
symplectic frame ``T`` in which the state looks fully thermal
(``T Gamma T^T = nu I``) while the derivative is diagonal,
``T dGamma T^T = diag(nu lam, -nu lam)``.  In that frame the best quadrature
measurement is simply "measure every Q": it achieves
``I* = sum_k lam_k^2 / 2``, and no other homodyne frame beats it.  For pure
states ``I*`` equals the quantum Fisher information.

``T = O S^-1`` is built in two steps, both in the point's Williamson frame
``Gamma = S diag(nu, nu) S^T`` (see
:class:`~gaussqfi.models.GaussianModelPoint`).  ``S^-1`` takes the state to
``nu I``.  ``O``, the orthogonal symplectic eigenframe of the Hamiltonian
``W = Xt = S^-1 dGamma S^-T``, then diagonalises the derivative and leaves
``nu I`` in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import gaussian_distribution_fisher
from .exceptions import ConfigError, ConvergenceError, PreconditionError
from .models import GaussianModelPoint, _require_isothermal
from .symplectic import (
    _ISOTHERMAL_TOL,
    _direct_sum,
    _direct_sum_vector,
    hamiltonian_eigenframe,
    is_symplectic,
    validate_covariance,
)

_FRAME_TOL = 1e-10  # homodyne_fisher's max-abs gates on U: symplectic, a b^T = b a^T

__all__ = [
    "IsothermalFrame",
    "isothermal_frame",
    "optimal_homodyne_fisher",
    "homodyne_fisher",
    "ancilla_extend",
]


@dataclass(frozen=True)
class IsothermalFrame:
    """Normal frame of an equal-temperature model point.

    Attributes:
        T: symplectic transformation to the normal frame.
        lam: non-negative spectrum of the normalised derivative, descending;
            ``T dGamma T^T = diag(nu * lam, -nu * lam)``.
        nu: common symplectic eigenvalue.
    """

    T: np.ndarray
    lam: np.ndarray
    nu: float

    @property
    def n(self) -> int:
        return self.lam.size


def isothermal_frame(point: GaussianModelPoint) -> IsothermalFrame:
    """Construct the measurement normal frame of a model point.

    Requires the two equal-temperature gates, a state, and static first
    moments (``max|dd| <= 1e-8``); rejection names the flag that failed.
    The gates are those of :func:`~gaussqfi.models.check_isothermal`, at the
    same fixed tolerance, so both give one verdict.  ``T = O S^-1`` as in the
    module docstring.

    Route: the gate and the frame read ``nu``, ``S^-1`` and ``W = Xt`` off
    the point's Williamson frame, and the frame costs one ``eigh``, of
    ``W``, in :func:`~gaussqfi.symplectic.hamiltonian_eigenframe`.  ``O`` is
    checked in that frame, not through the stored moments:
    ``O diag(nu, nu) O^T`` must be ``nu I`` and ``O Xt O^T`` must be
    ``diag(nu lam, -nu lam)``, within ``1e-5 (1 + nu + nu max lam)``
    (max-abs); each product has its diagonal target taken off in place.

    Raises:
        PreconditionError: flags ``"is_isothermal"``, ``"nu_min"`` (not a
            state; see ``validate_covariance``), ``"derivative_preserves_nu"``,
            or ``"static_first_moments"``, in that order.
        ValueError: if ``W`` fails a rule of ``hamiltonian_eigenframe``
            (symmetry, or a zero eigenspace too small).
        ConvergenceError: if ``O`` misses that residual bound.
    """
    chk = _require_isothermal(point)
    if np.abs(point.dd).max(initial=0.0) > _ISOTHERMAL_TOL:
        raise PreconditionError(
            "static_first_moments",
            "homodyne normal-frame analysis assumes dd = 0",
        )
    frame = point._frame
    nus, Si, W = frame.nu, frame.S_inv, frame.Xt
    nu = chk.nu
    O, wlam = hamiltonian_eigenframe(W)
    n = nus.size
    scale = 1.0 + abs(nu) + float(wlam[0])  # lam >= 0, descending
    state = (O * np.concatenate([nus, nus])) @ O.T
    state.reshape(-1)[:: 2 * n + 1] -= nu
    derivative = O @ W @ O.T
    diagonal = derivative.reshape(-1)[:: 2 * n + 1]
    diagonal[:n] -= wlam
    diagonal[n:] += wlam
    dev = max(np.abs(state, out=state).max(), np.abs(derivative, out=derivative).max())
    if dev > 1e3 * _ISOTHERMAL_TOL * scale:
        raise ConvergenceError(f"normal-frame residual {dev:.3e} exceeds tolerance")
    return IsothermalFrame(T=O @ Si, lam=wlam / nu, nu=nu)


def optimal_homodyne_fisher(frame: IsothermalFrame) -> float:
    """Best homodyne Fisher information, ``sum_k lam_k^2 / 2``.

    Attained by measuring the Q quadratures of the normal-frame modes; equals
    half the Wigner-distribution information of the second moments, and the
    full quantum Fisher information when ``nu = 1``.
    """
    return 0.5 * float(np.sum(frame.lam**2))


def homodyne_fisher(frame: IsothermalFrame, U: np.ndarray) -> float:
    """Fisher information of the quadratures ``(U R)_Q`` in the normal frame.

    ``U`` is a symplectic matrix selecting which rotated/squeezed quadratures
    are measured; with top blocks ``(a b)`` the measured marginal has
    covariance ``nu (a a^T + b b^T)`` and derivative
    ``nu (a lam a^T - b lam b^T)``.  ``U = I`` reproduces
    :func:`optimal_homodyne_fisher`; no choice exceeds it.

    Raises:
        ConfigError: if ``U`` is not symplectic or the commutation constraint
            ``a b^T = b a^T`` fails beyond ``1e-10`` (max-abs).
    """
    U = np.asarray(U, dtype=float)
    n = frame.n
    if U.shape != (2 * n, 2 * n):
        raise ConfigError(f"U has shape {U.shape}, expected {(2 * n, 2 * n)}")
    if not is_symplectic(U, _FRAME_TOL):
        raise ConfigError("U is not symplectic")
    a, b = U[:n, :n], U[:n, n:]
    if np.abs(a @ b.T - b @ a.T).max() > _FRAME_TOL:
        raise ConfigError("quadrature blocks do not commute (a b^T != b a^T)")
    lam = frame.lam
    ghat = frame.nu * (a @ a.T + b @ b.T)
    dghat = frame.nu * ((a * lam[None, :]) @ a.T - (b * lam[None, :]) @ b.T)
    return gaussian_distribution_fisher(ghat, dghat)


def ancilla_extend(point: GaussianModelPoint, gamma_ancilla: np.ndarray) -> GaussianModelPoint:
    """Append parameter-independent ancilla modes to a model point.

    The ancilla contributes no derivative, so ``lam`` just gains zeros: side
    channels cannot raise the optimal homodyne information.  The extension is
    equal-temperature only if the ancilla is thermal at the same ``nu``.
    Raises ``ConfigError`` unless ``gamma_ancilla`` is admissible
    (:func:`~gaussqfi.symplectic.validate_covariance`).
    """
    gamma_ancilla = np.asarray(gamma_ancilla, dtype=float)
    chk = validate_covariance(gamma_ancilla)
    if not chk.valid:
        raise ConfigError(
            f"ancilla covariance is not admissible (1 - nu_min = {1.0 - chk.nu_min:.3g}, "
            f"asymmetry = {chk.asymmetry:.3g})"
        )
    m2 = gamma_ancilla.shape[0]
    return GaussianModelPoint(
        d=_direct_sum_vector(point.d, np.zeros(m2)),
        gamma=_direct_sum(point.gamma, gamma_ancilla),
        dd=_direct_sum_vector(point.dd, np.zeros(m2)),
        dgamma=_direct_sum(point.dgamma, np.zeros((m2, m2))),
    )
