"""Symmetric logarithmic derivative and Fisher informations for Gaussian models.

The SLD of a Gaussian model is at most quadratic in the canonical operators.
We represent it in centered form

    ``L_hat = sum_ij L_ij (R_i - d_i) o (R_j - d_j)
              + sum_i b_i (R_i - d_i) - tr[L Gamma] / 2``

with ``b = 2 Gamma^-1 dd`` and ``L`` solving the second-moment superoperator
equation ``D(L) = dGamma``.  The constant offset makes ``<L_hat> = 0``
automatic, and the centered form avoids the cancellation-prone cross terms of
the uncentered polynomial.

Quantum Fisher information then splits into a first-moment term
``2 dd^T Gamma^-1 dd`` and a second-moment term ``tr[dGamma L] / 2``; the
classical benchmark ``wigner_fisher`` is the Fisher information of the Wigner
phase-space distribution itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgamma import _frame_solve
from .exceptions import ConvergenceError, PreconditionError
from .models import GaussianModelPoint, _require_isothermal
from .symplectic import _require_state, williamson

_DEFINITE_TOL = 1e-9  # photon_counting_form: eigenvalues of L beyond this times max|L|

__all__ = [
    "SLDCoefficients",
    "sld_coefficients",
    "FisherReport",
    "qfi_general",
    "qfi_isothermal",
    "wigner_fisher",
    "gaussian_distribution_fisher",
    "PhotonCountingForm",
    "photon_counting_form",
]


@dataclass(frozen=True)
class SLDCoefficients:
    """Centered SLD polynomial coefficients.

    Attributes:
        L: symmetric quadratic coefficient matrix, ``D(L) = dGamma``.
        b: linear coefficients, ``2 Gamma^-1 dd``.
        c: constant offset ``-tr[L Gamma] / 2`` (zero-mean normalisation).
        range_residual: Frobenius norm of ``D(L) - dGamma``.  Nonzero means
            ``dGamma`` overlaps the kernel of the superoperator (purity
            changing to first order at a purity boundary); the quadratic
            solve then only captures the range component and downstream
            results should be flagged.
    """

    L: np.ndarray
    b: np.ndarray
    c: float
    range_residual: float


def _linear_coefficients(point: GaussianModelPoint) -> np.ndarray:
    """``b = 2 Gamma^-1 dd``; zero, with no solve, when ``dd = 0``."""
    if not np.any(point.dd):
        return np.zeros_like(point.dd)
    return 2.0 * np.linalg.solve(point.gamma, point.dd)


def _solve(point: GaussianModelPoint) -> tuple[SLDCoefficients, np.ndarray, np.ndarray]:
    """The SLD coefficients, with the symplectic spectrum ``nu`` and the
    thermal-frame input ``Xt`` of the Williamson frame that solved them.

    Raises:
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see ``validate_covariance``).
    """
    Y, residual, dec, Xt = _frame_solve(point.gamma, point.dgamma)
    _require_state(float(dec.nu[-1]), dec.S, point.gamma)
    L = 0.5 * (Y + Y.T)
    c = -0.5 * float(np.sum(L * point.gamma))
    coeffs = SLDCoefficients(L=L, b=_linear_coefficients(point), c=c, range_residual=residual)
    return coeffs, dec.nu, Xt


def sld_coefficients(point: GaussianModelPoint) -> SLDCoefficients:
    """Solve for the centered SLD coefficients of a model point.

    ``L`` is the solve of :func:`~gaussqfi.dgamma.dgamma_pseudoinverse_apply`,
    whose kernel is the parity-+ entries of vacuum mode pairs.

    Args:
        point: model point with an admissible covariance matrix.

    Raises:
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see ``validate_covariance``).
    """
    return _solve(point)[0]


@dataclass(frozen=True)
class FisherReport:
    """Fisher information of a model point, split by moment contribution.

    ``qfi = first_moment_term + second_moment_term`` always.  ``method``
    records which route produced the value (``"general"`` or
    ``"isothermal"``).  ``range_residual`` is inherited from the SLD solve;
    see :class:`SLDCoefficients`.
    """

    qfi: float
    wigner_fisher: float
    first_moment_term: float
    second_moment_term: float
    method: str
    range_residual: float = 0.0

    @property
    def ratio(self) -> float:
        """``qfi / wigner_fisher`` (NaN when the benchmark vanishes)."""
        if self.wigner_fisher == 0.0:
            return float("nan")
        return self.qfi / self.wigner_fisher


def _nonnegative(value: float, what: str) -> float:
    if value < -1e-10 * (1.0 + abs(value)):
        raise ConvergenceError(f"{what} came out negative ({value:.3e})")
    return max(value, 0.0)


def qfi_general(point: GaussianModelPoint) -> FisherReport:
    """Quantum Fisher information via the superoperator pseudoinverse.

    Valid for any admissible model point, including purity boundaries (where
    the kernel components of ``dGamma`` are projected out and reported
    through ``range_residual``).

    Route: the solve of :func:`sld_coefficients`, one Williamson frame of
    ``Gamma`` (a Cholesky factor and one Hermitian ``eigh``) and the
    thermal-frame input ``Xt = S^-1 dGamma S^-T``.  The SLD solve divides the
    entries of ``Xt`` by ``nu_i nu_j -/+ 1`` and gives ``L``, so the
    second-moment term is ``tr[dGamma L] / 2``, and the first-moment term
    ``2 dd^T Gamma^-1 dd`` is ``dd . b`` (``b`` costs the only other
    factorisation, one solve, skipped when ``dd = 0``).  The Wigner
    information divides ``Xt_ij Xt_ji`` by ``nu_i nu_j`` instead;
    :func:`wigner_fisher` computes it by linear solves.

    Raises:
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see ``validate_covariance``).
        ConvergenceError: if a Fisher term comes out negative beyond
            rounding; the message names the term.
    """
    coeffs, nu, Xt = _solve(point)
    second = _nonnegative(0.5 * float(np.sum(point.dgamma * coeffs.L)), "second-moment term")
    first = _nonnegative(float(point.dd @ coeffs.b), "first-moment term")
    nt = np.concatenate([nu, nu])
    wigner = 0.5 * float(np.sum(Xt * Xt.T / np.outer(nt, nt))) + first
    return FisherReport(
        qfi=first + second,
        wigner_fisher=wigner,
        first_moment_term=first,
        second_moment_term=second,
        method="general",
        range_residual=coeffs.range_residual,
    )


def qfi_isothermal(point: GaussianModelPoint) -> FisherReport:
    """Quantum Fisher information through the equal-temperature shortcut.

    For a model with all symplectic eigenvalues equal to ``nu`` *and* a
    temperature-preserving derivative, the second-moment term collapses to

        ``nu^2 / (1 + nu^2) * tr[(Gamma^-1 dGamma)^2] / 2``,

    i.e. the Wigner-distribution information damped by ``nu^2 / (1 + nu^2)``.
    Both gates are checked at tolerance 1e-8; rejection names the failed flag.

    Raises:
        PreconditionError: flag ``"is_isothermal"``, ``"nu_min"`` (not a
            state; see ``validate_covariance``) or
            ``"derivative_preserves_nu"``, in that order.
        ConvergenceError: if a Fisher term comes out negative beyond
            rounding.
    """
    chk = _require_isothermal(point)[0]
    nu2 = chk.nu * chk.nu
    wigner_second = gaussian_distribution_fisher(point.gamma, point.dgamma)
    second = _nonnegative(nu2 / (1.0 + nu2) * wigner_second, "second-moment term")
    first = _nonnegative(float(point.dd @ _linear_coefficients(point)), "first-moment term")
    return FisherReport(
        qfi=first + second,
        wigner_fisher=wigner_second + first,
        first_moment_term=first,
        second_moment_term=second,
        method="isothermal",
    )


def gaussian_distribution_fisher(
    gamma: np.ndarray, dgamma: np.ndarray, dmean: np.ndarray | None = None
) -> float:
    """Classical Fisher information of a Gaussian distribution.

    Uses the package covariance normalisation (twice the probability
    covariance), hence the factor 2 on the mean term:
    ``tr[(gamma^-1 dgamma)^2] / 2 + 2 dmean^T gamma^-1 dmean``.
    Accepts any square size — also used for measurement marginals.
    """
    gamma = np.asarray(gamma, dtype=float)
    dgamma = np.asarray(dgamma, dtype=float)
    M = np.linalg.solve(gamma, dgamma)
    value = 0.5 * float(np.trace(M @ M))
    if dmean is not None and np.any(dmean):
        dmean = np.asarray(dmean, dtype=float)
        value += 2.0 * float(dmean @ np.linalg.solve(gamma, dmean))
    return value


def wigner_fisher(point: GaussianModelPoint) -> float:
    """Fisher information of the model's Wigner (phase-space) distribution."""
    return gaussian_distribution_fisher(point.gamma, point.dgamma, point.dd)


def _mean_photon(gamma: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Mean photon number of each mode of a state with moments ``(d, gamma)``:
    ``(Gamma_kk + Gamma_{n+k,n+k}) / 4 + (d_k^2 + d_{n+k}^2) / 2 - 1/2``."""
    n = d.size // 2
    diag = np.diagonal(gamma)
    return 0.25 * (diag[:n] + diag[n:]) + 0.5 * (d[:n] ** 2 + d[n:] ** 2) - 0.5


@dataclass(frozen=True)
class PhotonCountingForm:
    """Symplectic normal form of the quadratic SLD part.

    When ``L`` is definite, Williamson's theorem applied to ``+/- L`` gives
    ``L = T^T diag(alpha, alpha) T`` with ``T`` symplectic.  ``L`` is then
    invertible, so the linear part folds into the quadratic one about
    ``d* = d - L^-1 b / 2``, and measuring the mode numbers ``N_k`` of the
    ``T``-frame modes of ``R - d*`` measures the SLD's eigenbasis, which
    saturates the quantum bound: ``L_hat = 2 sum_k alpha_k (N_k - <N_k>)``.

    Attributes:
        T: symplectic frame change.
        alpha: per-mode weights, of the sign of ``L``.
        displacement: the point ``d*`` the modes are counted about; ``d``
            itself when ``b = 0``.
        mean_photon: ``<N_k>`` of the state in the ``T`` frame, about ``d*``.
    """

    T: np.ndarray
    alpha: np.ndarray
    displacement: np.ndarray
    mean_photon: np.ndarray


def photon_counting_form(
    coeffs: SLDCoefficients, point: GaussianModelPoint
) -> PhotonCountingForm | None:
    """Attempt the photon-counting normal form of the SLD.

    The form exists exactly when ``L`` is definite: every eigenvalue of
    ``L`` exceeds ``1e-9 max|L|`` in one sign.  Returns None otherwise: for a
    purely linear model (``max|L| <= 1e-9``, first moments carry all
    information), and when ``L`` is indefinite or singular (no strictly
    symplectic normal form).
    """
    scaleL = float(np.abs(coeffs.L).max())
    if scaleL <= _DEFINITE_TOL:
        return None  # linear model
    ev = np.linalg.eigvalsh(coeffs.L)
    if ev[0] > _DEFINITE_TOL * scaleL:
        sign = +1.0
    elif ev[-1] < -_DEFINITE_TOL * scaleL:
        sign = -1.0
    else:
        return None  # indefinite or singular
    dec = williamson(sign * coeffs.L)
    T = dec.S.T
    # (R-d) L (R-d) + b.(R-d) is (R-d*) L (R-d*) up to a constant, d - d* = shift
    shift = 0.5 * np.linalg.solve(coeffs.L, coeffs.b)
    return PhotonCountingForm(
        T=T,
        alpha=sign * dec.nu,
        displacement=point.d - shift,
        mean_photon=_mean_photon(T @ point.gamma @ T.T, T @ shift),
    )
