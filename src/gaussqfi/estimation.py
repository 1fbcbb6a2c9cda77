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

from .dgamma import _frame_solve, dgamma_pseudoinverse_apply
from .exceptions import ConvergenceError
from .models import GaussianModelPoint, _require_isothermal
from .symplectic import williamson

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


def sld_coefficients(point: GaussianModelPoint, tol: float = 1e-9) -> SLDCoefficients:
    """Solve for the centered SLD coefficients of a model point.

    Args:
        point: model point with an admissible covariance matrix.
        tol: kernel threshold passed to the superoperator pseudoinverse.
    """
    L, residual = dgamma_pseudoinverse_apply(point.gamma, point.dgamma, tol)
    L = 0.5 * (L + L.T)
    b = 2.0 * np.linalg.solve(point.gamma, point.dd)
    c = -0.5 * float(np.sum(L * point.gamma))
    return SLDCoefficients(L=L, b=b, c=c, range_residual=residual)


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


def _first_moment_term(point: GaussianModelPoint) -> float:
    if not np.any(point.dd):
        return 0.0
    return 2.0 * float(point.dd @ np.linalg.solve(point.gamma, point.dd))


def _nonnegative(value: float, what: str) -> float:
    if value < -1e-10 * (1.0 + abs(value)):
        raise ConvergenceError(f"{what} came out negative ({value:.3e})")
    return max(value, 0.0)


def qfi_general(point: GaussianModelPoint, tol: float = 1e-9) -> FisherReport:
    """Quantum Fisher information via the superoperator pseudoinverse.

    Valid for any admissible model point, including purity boundaries (where
    the kernel components of ``dGamma`` are projected out and reported
    through ``range_residual``).

    Route: one Williamson frame of ``Gamma`` (a Cholesky factor and one
    Hermitian ``eigh``) and the thermal-frame input ``Xt = S^-1 dGamma S^-T``.
    The SLD solve divides the entries of ``Xt`` by ``nu_i nu_j -/+ 1`` and
    gives ``L``, so the second-moment term is ``tr[dGamma L] / 2``; the Wigner
    information divides ``Xt_ij Xt_ji`` by ``nu_i nu_j`` instead.  The only
    other factorisation is one solve for the first-moment term
    ``2 dd^T Gamma^-1 dd``, skipped when ``dd = 0``.  :func:`wigner_fisher`
    computes the same Wigner information by linear solves.

    Raises:
        ConvergenceError: if a Fisher term comes out negative beyond
            rounding; the message names the term.
    """
    Y, residual, nu, Xt = _frame_solve(point.gamma, point.dgamma, tol)
    L = 0.5 * (Y + Y.T)
    second = _nonnegative(0.5 * float(np.sum(point.dgamma * L)), "second-moment term")
    first = _nonnegative(_first_moment_term(point), "first-moment term")
    nt = np.concatenate([nu, nu])
    wigner = 0.5 * float(np.sum(Xt * Xt.T / np.outer(nt, nt))) + first
    return FisherReport(
        qfi=first + second,
        wigner_fisher=wigner,
        first_moment_term=first,
        second_moment_term=second,
        method="general",
        range_residual=residual,
    )


def qfi_isothermal(point: GaussianModelPoint, tol: float = 1e-8) -> FisherReport:
    """Quantum Fisher information through the equal-temperature shortcut.

    For a model with all symplectic eigenvalues equal to ``nu`` *and* a
    temperature-preserving derivative, the second-moment term collapses to

        ``nu^2 / (1 + nu^2) * tr[(Gamma^-1 dGamma)^2] / 2``,

    i.e. the Wigner-distribution information damped by ``nu^2 / (1 + nu^2)``.
    Both gates are checked; rejection names the failed flag.

    Raises:
        PreconditionError: flag ``"is_isothermal"`` or
            ``"derivative_preserves_nu"``.
        ConvergenceError: if a Fisher term comes out negative beyond
            rounding.
    """
    chk = _require_isothermal(point, tol)[0]
    M = np.linalg.solve(point.gamma, point.dgamma)
    nu2 = chk.nu * chk.nu
    wigner_second = 0.5 * float(np.trace(M @ M))
    second = _nonnegative(nu2 / (1.0 + nu2) * wigner_second, "second-moment term")
    first = _nonnegative(_first_moment_term(point), "first-moment term")
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

    When ``d(Gamma^-1)/dtheta`` is semidefinite, the quadratic coefficient
    matrix admits ``L = T^T diag(alpha, alpha) T`` with ``T`` symplectic, so
    measuring the mode numbers ``N_k`` of the ``T``-frame modes saturates the
    quantum bound: ``L_hat = 2 sum_k alpha_k (N_k - <N_k>)``.

    Attributes:
        T: symplectic frame change.
        alpha: per-mode weights (sign matches the definite direction).
        mean_photon: ``<N_k>`` of the state in the ``T`` frame.
    """

    T: np.ndarray
    alpha: np.ndarray
    mean_photon: np.ndarray


def photon_counting_form(
    coeffs: SLDCoefficients, point: GaussianModelPoint, tol: float = 1e-9
) -> PhotonCountingForm | None:
    """Attempt the photon-counting normal form of the SLD.

    Returns None when the form does not exist: for a purely linear model
    (``L = 0``, first moments carry all information), when
    ``d(Gamma^-1)/dtheta = -Gamma^-1 dGamma Gamma^-1`` is indefinite, or when
    ``L`` is semidefinite but singular (no strictly symplectic normal form).
    """
    scaleL = float(np.abs(coeffs.L).max())
    if scaleL <= tol:
        return None  # linear model
    gi_d = np.linalg.solve(point.gamma, point.dgamma)
    dginv = -np.linalg.solve(point.gamma, gi_d.T).T
    dginv = 0.5 * (dginv + dginv.T)
    ev = np.linalg.eigvalsh(dginv)
    cut = tol * (1.0 + np.abs(ev).max())
    if ev[0] >= -cut and ev[-1] > cut:
        sign = -1.0  # dGamma^-1 >= 0  ->  L <= 0
    elif ev[-1] <= cut and ev[0] < -cut:
        sign = +1.0
    else:
        return None  # indefinite
    A = sign * coeffs.L
    A = 0.5 * (A + A.T)
    evA = np.linalg.eigvalsh(A)
    if evA[0] <= tol * scaleL:
        return None  # singular quadratic part: no symplectic normal form
    dec = williamson(A)
    T = dec.S.T
    alpha = sign * dec.nu
    mean_photon = _mean_photon(T @ point.gamma @ T.T, T @ point.d)
    return PhotonCountingForm(T=T, alpha=alpha, mean_photon=mean_photon)
