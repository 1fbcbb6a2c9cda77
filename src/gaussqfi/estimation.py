"""Symmetric logarithmic derivative and Fisher informations for Gaussian models.

The SLD of a Gaussian model is at most quadratic in the canonical operators.
We represent it in centered form

    ``L_hat = sum_ij L_ij (R_i - d_i) o (R_j - d_j)
              + sum_i b_i (R_i - d_i) - tr[L Gamma] / 2``

with ``b = 2 Gamma^-1 dd`` and ``L`` solving the second-moment superoperator
equation ``D(L) = dGamma``.  The constant offset makes ``<L_hat> = 0``
automatic, and the centered form avoids the cancellation-prone cross terms of
the uncentered polynomial.

Every reader here works in the point's one Williamson frame
``Gamma = S diag(nu, nu) S^T``, ``Xt = S^-1 dGamma S^-T`` (see
:class:`~gaussqfi.models.GaussianModelPoint`): the SLD solve, its offset,
the linear coefficients ``b = 2 S^-T diag(nu, nu)^-1 S^-1 dd``, the Wigner
information and the equal-temperature shortcut.

Quantum Fisher information then splits into a first-moment term
``2 dd^T Gamma^-1 dd`` and a second-moment term ``tr[dGamma L] / 2``; the
classical benchmark ``wigner_fisher`` is the Fisher information of the Wigner
phase-space distribution itself.  In the frame each is a sum of non-negative
terms over positive divisors: the second-moment terms are the parity weights
``w+/-`` of ``Xt`` over ``nu_i nu_j -/+ 1`` (QFI) or ``nu_i nu_j`` (Wigner),
both summed by the one pass :func:`~gaussqfi.dgamma._frame_sums`, and the
first-moment term of both is ``2 sum ddt^2 / (nu, nu)`` with ``ddt = S^-1 dd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgamma import _frame_solve, _frame_sums
from .exceptions import PreconditionError
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
        c: constant offset ``-tr[L Gamma] / 2`` (zero-mean normalisation),
            read in the thermal frame as ``-tr[Yt N] / 2`` with
            ``Yt = S^T L S`` and ``N = diag(nu, nu)``.
        range_residual: Frobenius norm of the kernel part of ``dGamma`` in
            the thermal frame, ``|N Yt N - w Yt w^T - Xt|_F``.  Nonzero means
            ``dGamma`` overlaps the kernel of the superoperator (purity
            changing to first order at a purity boundary); the quadratic
            solve then only captures the range component and downstream
            results should be flagged.
    """

    L: np.ndarray
    b: np.ndarray
    c: float
    range_residual: float


def _inverse_apply(S_inv: np.ndarray, nu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M^-1 v = S^-T diag(nu, nu)^-1 S^-1 v`` for ``M = S diag(nu, nu) S^T``
    in its Williamson frame: two matrix-vector products, no solve."""
    vt = S_inv @ v
    vt /= np.concatenate([nu, nu])
    return vt @ S_inv


def _fisher_sums(point: GaussianModelPoint) -> tuple[float, float, float, float]:
    """``(first, second, wigner, residual)`` of the point's frame, the one
    reader of every Fisher term: the first-moment term ``2 dd^T Gamma^-1 dd
    = 2 sum ddt^2 / (nu, nu)`` with ``ddt = S^-1 dd``, and the sums and
    residual of :func:`~gaussqfi.dgamma._frame_sums`, which solves nothing.
    They are formed under one ``np.errstate``, so an overflow raises here
    and is not warned.

    Raises:
        FloatingPointError: if ``nu_i nu_j`` overflows, or any of the four
            is not finite.
    """
    frame = point._frame
    with np.errstate(over="ignore", invalid="ignore"):
        residual, second, wigner = _frame_sums(frame)
        ddt = frame.S_inv @ point.dd
        first = 2.0 * float((np.square(ddt) / np.concatenate([frame.nu, frame.nu])).sum())
    if not math.isfinite(first + second + wigner + residual):  # each is >= 0
        raise FloatingPointError("overflow encountered in the Fisher sums of this point")
    return first, second, wigner, residual


def sld_coefficients(point: GaussianModelPoint) -> SLDCoefficients:
    """Solve for the centered SLD coefficients of a model point.

    ``L`` is the solve of :func:`~gaussqfi.dgamma.dgamma_pseudoinverse_apply`
    in the point's Williamson frame, whose kernel is the parity-+ entries of
    vacuum mode pairs.  The solve's vacuum test and the state rule read the
    rounding scale ``eps |S|_F^2 tr Gamma`` of the point's frame record, and
    ``b`` is read off the same frame.  It is the one reader that maps the
    thermal-frame ``Yt`` to the lab ``L``, the symmetric part of ``S^-T Yt S^-1``.

    Args:
        point: model point with an admissible covariance matrix.

    Raises:
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see ``validate_covariance``).
    """
    frame = point._frame
    nu, Si = frame.nu, frame.S_inv
    with np.errstate(over="ignore", invalid="ignore"):  # the residual or Yt may overflow
        Yt, residual = _frame_solve(frame)
    _require_state(float(nu[-1]), frame.rounding)
    c = -0.5 * float(Yt.diagonal() @ np.concatenate([nu, nu])) + 0.0  # no -0.0
    Y = Si.T @ Yt @ Si
    L = Y + Y.T
    L *= 0.5
    b = 2.0 * _inverse_apply(Si, nu, point.dd) if point.dd.any() else np.zeros_like(point.dd)
    return SLDCoefficients(L=L, b=b, c=c, range_residual=residual)


@dataclass(frozen=True)
class FisherReport:
    """Fisher information of a model point, split by moment contribution.

    ``qfi = first_moment_term + second_moment_term`` always.  ``method``
    records which route produced the value (``"general"`` or
    ``"isothermal"``).  ``range_residual``, the frame norm of the kernel part
    of ``dGamma`` (0 on the isothermal route), is the SLD solve's; see
    :class:`SLDCoefficients`.
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


def qfi_general(point: GaussianModelPoint) -> FisherReport:
    """Quantum Fisher information via the superoperator pseudoinverse.

    Valid for any admissible model point, including purity boundaries (where
    the kernel components of ``dGamma`` are projected out and reported
    through ``range_residual``).

    Route: the point's Williamson frame, formed once per point: in closed
    form for a built-in family's ``fn`` (:func:`~gaussqfi.dgamma._closed_form_frame`,
    ``nu`` exact however strong the squeezing), else by one Williamson
    factorisation.  One pass over ``Xt`` (:func:`~gaussqfi.dgamma._frame_sums`)
    sums the parity weights ``w+/-`` of each mode pair over ``nu_i nu_j -/+ 1``
    into ``tr[dGamma L] / 2`` and over ``nu_i nu_j`` into the Wigner
    information; no ``Yt`` and no lab ``L`` is formed.  The first-moment term
    ``2 dd^T Gamma^-1 dd`` is ``2 sum ddt^2 / (nu, nu)``, ``ddt = S^-1 dd``.

    Raises:
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see ``validate_covariance``).
        FloatingPointError: if ``nu_i nu_j`` overflows, or a Fisher term or
            ``range_residual`` is not finite in floating point.
    """
    frame = point._frame
    _require_state(float(frame.nu[-1]), frame.rounding)
    first, second, wigner, residual = _fisher_sums(point)
    return FisherReport(
        qfi=first + second,
        wigner_fisher=wigner + first,
        first_moment_term=first,
        second_moment_term=second,
        method="general",
        range_residual=residual,
    )


def qfi_isothermal(point: GaussianModelPoint) -> FisherReport:
    """Quantum Fisher information through the equal-temperature shortcut.

    For a model with all symplectic eigenvalues equal to ``nu`` *and* a
    temperature-preserving derivative, the second-moment term collapses to

        ``nu^2 / (1 + nu^2) * tr[(Gamma^-1 dGamma)^2] / 2``,

    i.e. the Wigner-distribution information damped by ``nu^2 / (1 + nu^2)``,
    read in the point's frame as :func:`wigner_fisher` reads it.  Both gates
    are checked at tolerance 1e-8; rejection names the failed flag.

    Raises:
        PreconditionError: flag ``"is_isothermal"``, ``"nu_min"`` (not a
            state; see ``validate_covariance``) or
            ``"derivative_preserves_nu"``, in that order.
        FloatingPointError: if ``nu_i nu_j`` overflows, or a Fisher term is
            not finite in floating point.
    """
    chk = _require_isothermal(point)
    nu2 = chk.nu * chk.nu
    first, _, wigner, _ = _fisher_sums(point)
    second = nu2 / (1.0 + nu2) * wigner
    return FisherReport(
        qfi=first + second,
        wigner_fisher=wigner + first,
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
    """Fisher information of the model's Wigner (phase-space) distribution,
    ``tr[(Gamma^-1 dGamma)^2] / 2 + 2 dd^T Gamma^-1 dd``, both terms read
    in the point's Williamson frame: the first is the Wigner sum of
    :func:`~gaussqfi.dgamma._frame_sums`.

    Raises:
        ValueError: if ``Gamma`` is not positive definite (a point that
            takes ``williamson``).
        FloatingPointError: if ``nu_i nu_j`` overflows, or a term is not
            finite in floating point.
    """
    first, _, wigner, _ = _fisher_sums(point)
    return wigner + first


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
    symplectic normal form).  Raises ``FloatingPointError`` if a mean photon
    number of the form overflows.
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
    # (R-d) L (R-d) + b.(R-d) is (R-d*) L (R-d*) up to a constant, d - d* = L^-1 b / 2,
    # read off the frame sign L = S diag(nu, nu) S^T with no solve
    shift = 0.5 * sign * _inverse_apply(dec.S_inv, dec.nu, coeffs.b)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_photon = _mean_photon(T @ point.gamma @ T.T, T @ shift)
    if not np.isfinite(mean_photon).all():
        raise FloatingPointError("overflow encountered in the mean photon numbers")
    return PhotonCountingForm(
        T=T, alpha=sign * dec.nu, displacement=point.d - shift, mean_photon=mean_photon
    )
