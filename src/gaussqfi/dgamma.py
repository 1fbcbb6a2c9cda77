"""The second-moment superoperator ``D(Y) = Gamma Y Gamma - w Y w^T``.

This map sends the quadratic coefficient matrix of a candidate symmetric
logarithmic derivative to the corresponding derivative of the covariance
matrix, so inverting it is the core linear-algebra step of Gaussian quantum
estimation.

In a Williamson frame ``Gamma = S diag(nu, nu) S^T`` the map factorises as a
congruence ``(S (x) S) D_thermal (S (x) S)^T``, and ``D_thermal`` is diagonal
on 2x2 mode-pair blocks: the block basis ``{I, w} / sqrt2`` carries eigenvalue
``nu_i nu_j - 1`` (parity +) and ``{sigma_x, sigma_z} / sqrt2`` carries
``nu_i nu_j + 1`` (parity -).  The kernel is therefore spanned, two dimensions
per ordered mode pair, by the parity-+ blocks of vacuum pairs
(``nu_i = nu_j = 1``).

The solve is four elementwise divisions.  With ``N = nu nu^T`` and the
QQ/QP/PQ/PP blocks of the thermal-frame input ``Xt = S^-1 X S^-T``:

* ``(Xt_QQ + Xt_PP) / 2`` and ``(Xt_QP - Xt_PQ) / 2`` are divided by ``N - 1``;
* ``(Xt_QQ - Xt_PP) / 2`` and ``(Xt_QP + Xt_PQ) / 2`` are divided by ``N + 1``;
* the parity-+ entries of vacuum pairs are zeroed (kernel).

A mode is vacuum when ``nu_k - 1 <= 16 eps |S|_F^2 tr Gamma``, sixteen times
the rounding the state rule (:func:`~gaussqfi.symplectic.validate_covariance`)
allows in the same frame, whatever the other modes' temperatures.  The rule
is one-sided: a mode the state rule accepted below 1 is vacuum, and reads as
1 in ``N - 1``.

Route: the solve reads ``(nu, Xt, rounding)`` off a Williamson frame record
``(S, nu, S^-1, Xt, rounding)`` of ``Gamma``, ``Xt = S^-1 X S^-T`` and
``rounding = eps |S|_F^2 tr Gamma``, formed once with the frame.  A model
point forms that record once and every estimator reads it (see
:class:`~gaussqfi.models.GaussianModelPoint`).  It has two constructors:
:func:`_closed_form_frame` takes a built-in family's factor as the family
wrote it and factorises nothing; :func:`_williamson_frame`, for any other
point and the public functions here, factorises ``Gamma`` once (see
:func:`~gaussqfi.symplectic.williamson`), and rounding in the stored ``Gamma``
then moves ``nu`` by up to ``eps |S|_F^2 tr Gamma``.  Either way the kernel
rule and the state rule are the same.  The solve returns ``Yt``, the range
residual (the frame norm of the kernel part of ``Xt``) and two Fisher sums
(see :func:`_frame_solve`); only
:func:`~gaussqfi.estimation.sld_coefficients` and
:func:`dgamma_pseudoinverse_apply` form the lab ``Y = S^-T Yt S^-1``.

The solve is the one reader of ``Xt``.  Each ordered mode pair carries two
parity weights, ``4 w+ = (Xt_QQ + Xt_PP)^2 + (Xt_QP - Xt_PQ)^2`` and
``4 w- = (Xt_QQ - Xt_PP)^2 + (Xt_QP + Xt_PQ)^2``, and both Fisher
informations of the second moments are sums of them:
``tr[X D^-1(X)] / 2 = sum w+ / (N - 1) + w- / (N + 1)`` off the kernel,
and the Wigner information
``tr[(Gamma^-1 X)^2] / 2 = sum (w+ + w-) / N``, ``N = nu_i nu_j``.

:func:`dgamma_spectrum` returns those divisors and that mask as arrays:
``values[k, i, j]`` is ``nu_i nu_j - 1`` for ``k = 0`` (parity +) and
``nu_i nu_j + 1`` for ``k = 1`` (parity -), each an eigenvalue of
multiplicity 2, and ``kernel`` of the same ``(2, n, n)`` shape marks the
entries the solve zeroes; one function decides both.  All production
solves run through this frame; the dense ``(2n)^2 x (2n)^2`` matrix
representation is exposed only for verification at small ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import ConvergenceError, PreconditionError
from .symplectic import (
    _EPS,
    _VACUUM_ROUNDING,
    _check_even_square,
    _frame_rounding,
    _symmetric_part,
    _w_left,
    _w_right,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)

__all__ = [
    "apply_dgamma",
    "dgamma_matrix",
    "DGammaSpectrum",
    "dgamma_spectrum",
    "dgamma_pseudoinverse_apply",
    "stein_series_solve",
]

# Hard cap on the terms of the Stein series in stein_series_solve.
_STEIN_MAX_TERMS = 10_000
_STEIN_TOL = 1e-12  # stein_series_solve's term-norm stop and nu_min refusal margin
_PARITY_SHIFT = np.array([-1.0, 1.0])[:, None, None]  # N -/+ 1 by parity


def apply_dgamma(gamma: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Evaluate ``Gamma @ Y @ Gamma^T - w @ Y @ w^T``."""
    gamma = np.asarray(gamma, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.shape != gamma.shape:
        raise ValueError(f"Y has shape {Y.shape}, expected {gamma.shape}")
    return gamma @ Y @ gamma.T + _w_right(_w_left(Y))  # w^T = -w


def dgamma_matrix(gamma: np.ndarray) -> np.ndarray:
    """Dense matrix representation ``Gamma (x) Gamma - w (x) w``.

    Acts on row-major vectorised matrices; symmetric (the superoperator is
    self-adjoint under ``(X|Y) = tr[X^T Y]``).  Memory is O((2n)^4) — intended
    for verification at n <= 3, not for production solves.
    """
    gamma = np.asarray(gamma, dtype=float)
    w = symplectic_form(gamma.shape[0] // 2)
    return np.kron(gamma, gamma) - np.kron(w, w)


@dataclass(frozen=True)
class DGammaSpectrum:
    """Spectral data of the superoperator, organised by Williamson frame.

    ``values`` and ``kernel`` have shape ``(2, n, n)``: ``values[k, i, j]``
    is the eigenvalue ``nu_i nu_j - 1`` (``k = 0``, parity +) or
    ``nu_i nu_j + 1`` (``k = 1``, parity -) of the ordered mode pair
    ``(i, j)``, of multiplicity 2, and ``kernel`` marks the ones the solve
    zeroes, the parity-+ entries of vacuum pairs (see the module docstring).
    The associated matrix eigendirections are ``S E S^T``, with ``S``
    the Williamson frame and ``E`` the block basis of the module docstring
    placed on the rows and columns ``(i, n + i)``, ``(j, n + j)``.  When
    ``S`` is orthogonal these are literal eigenvectors of the dense
    representation; in general they form the congruence frame in which the
    map is diagonal.
    """

    nu: np.ndarray
    values: np.ndarray
    kernel: np.ndarray
    kernel_dimension: int

    def eigenvalues(self) -> np.ndarray:
        """All (2n)^2 eigenvalues with multiplicity, ascending."""
        return np.sort(np.repeat(self.values.ravel(), 2))


def _vacuum_modes(nu: np.ndarray, rounding: float) -> np.ndarray:
    """The kernel rule's vacuum test, per mode: ``nu_k - 1 <= 16 rounding``,
    with ``rounding = eps |S|_F^2 tr gamma`` the :func:`_frame_rounding` of
    the Williamson frame ``S`` of ``gamma`` that ``nu`` was read in.  Every
    mode is vacuum exactly when the state is pure."""
    return nu - 1.0 <= _VACUUM_ROUNDING * rounding


def _block_eigenvalues(nu: np.ndarray, rounding: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue arrays of the thermal-frame map and its vacuum modes.

    Returns ``(lam, vacuum)``: ``lam`` of shape ``(2, n, n)`` holds
    ``lam[0] = N - 1`` (parity +) and ``lam[1] = N + 1`` (parity -) with
    ``N = nu nu^T``, and ``vacuum`` is the per-mode mask of
    :func:`_vacuum_modes` (given ``rounding`` as there); the kernel is the
    parity-+ entries whose two modes are both vacuum.  Each entry is one
    eigenvalue of multiplicity 2.  In ``lam[0]`` a ``nu`` below 1 reads as
    1: a mode the state rule accepted below the vacuum meets a warmer one
    through ``nu_j - 1``, not through a difference that may vanish.  No
    order of ``nu`` is assumed.

    Raises:
        FloatingPointError: if ``N`` overflows.
    """
    top = float(nu.max())
    if top * top == math.inf:  # N's largest entry
        raise FloatingPointError("overflow encountered in nu_i nu_j")
    lam = np.add(np.multiply.outer(nu, nu), _PARITY_SHIFT)
    if nu.min() < 1.0:
        cold = np.maximum(nu, 1.0)
        np.subtract(np.multiply.outer(cold, cold), 1.0, out=lam[0])
    return lam, _vacuum_modes(nu, rounding)


def dgamma_spectrum(gamma: np.ndarray) -> DGammaSpectrum:
    """Spectrum of the superoperator via the Williamson frame.

    The kernel is the one the solve of :func:`dgamma_pseudoinverse_apply`
    zeroes: the parity-+ entries of vacuum mode pairs.

    Args:
        gamma: covariance matrix of a state (symmetric, ``nu_min >= 1``);
            a mode below the vacuum counts as vacuum.

    Returns:
        :class:`DGammaSpectrum`; ``kernel_dimension`` counts 2 per ordered
        vacuum mode pair.
    """
    dec = williamson(gamma)
    lam, vacuum = _block_eigenvalues(dec.nu, _frame_rounding(dec.S, gamma))
    kernel = np.zeros_like(lam, dtype=bool)
    kernel[0] = np.outer(vacuum, vacuum)
    return DGammaSpectrum(
        nu=dec.nu, values=lam, kernel=kernel, kernel_dimension=2 * int(kernel.sum())
    )


class _Frame(NamedTuple):
    """A Williamson frame ``gamma = S diag(nu, nu) S^T`` and what every reader
    takes from it, each formed once where the frame is formed."""

    S: np.ndarray
    nu: np.ndarray
    S_inv: np.ndarray
    Xt: np.ndarray  # an input X read in the frame, S^-1 X S^-T
    rounding: float  # _frame_rounding(S, gamma)


def _williamson_frame(gamma: np.ndarray, X: np.ndarray) -> _Frame:
    """``williamson(gamma)`` and ``X`` read in it, ``Xt = S^-1 X S^-T``; the
    frame of every point that is not a built-in family's."""
    dec = williamson(gamma)
    Si = dec.S_inv
    return _Frame(dec.S, dec.nu, Si, Si @ X @ Si.T, _frame_rounding(dec.S, gamma))


def _closed_form_frame(
    S: np.ndarray, nu: np.ndarray, A: np.ndarray, dnu: np.ndarray, gamma: np.ndarray
) -> _Frame:
    """The frame of a closed-form Williamson factor ``gamma = S diag(nu, nu) S^T``
    (``nu`` descending, ``S`` symplectic) with ``A = S^-1 dS`` and ``dnu`` the
    derivative of ``nu``: ``S^-1 = -w S^T w`` and
    ``Xt = A N + N A^T + diag(dnu, dnu)``, ``N = diag(nu, nu)``.  Every reader
    takes ``nu`` and ``Xt`` as the family wrote them, with none of the
    ``eps cond(S)^2`` that factorising the rounded ``gamma`` puts into ``nu``.

    Raises:
        FloatingPointError: if ``eps |S|_F^2 >= 1``: ``S^-1 S = I`` then
            holds to no digit in floating point, and nothing read in the
            frame comes back to the stored moments (``phase_squeezed`` from
            ``r ~ 18``).
    """
    spread = _EPS * float(np.vdot(S, S))
    if spread >= 1.0:
        raise FloatingPointError(
            f"the symplectic frame of this point is beyond double precision "
            f"(eps |S|_F^2 = {spread:.3g})"
        )
    half = A * np.concatenate([nu, nu])  # A N, and (A N)^T = N A^T
    if dnu.any():
        half += np.diag(0.5 * np.concatenate([dnu, dnu]))
    return _Frame(S, nu, _w_right(_w_left(-S.T)), half + half.T, spread * float(gamma.trace()))


def _frame_solve(frame: _Frame) -> tuple[np.ndarray, float, float, float]:
    """:func:`dgamma_pseudoinverse_apply` in a Williamson frame, read off its
    ``(nu, Xt, rounding)`` alone, and the Fisher sums of its parity weights.

    Returns ``(Yt, residual, second, wigner)``: ``Yt = S^T Y S`` the solution
    in the thermal frame; ``residual = sqrt(sum 4 w+ / 2)`` over vacuum pairs,
    the Frobenius norm of the kernel part of ``Xt``, in exact arithmetic
    ``|N Yt N - w Yt w^T - Xt|_F`` with ``N = diag(nu, nu)``;
    ``second = sum w+ / (N - 1) + w- / (N + 1)`` off the kernel, which is
    ``sum Xt o Yt / 2``; and ``wigner = sum (w+ + w-) / N``, which is
    ``tr[(Gamma^-1 X)^2] / 2``, with ``N = nu_i nu_j`` and the weights
    ``w+/-`` of the module docstring.  Both sums add non-negative terms over
    positive divisors, so neither comes out negative.

    One pass over the frame: the divisors ``nu_i nu_j -/+ 1`` and the vacuum
    modes (:func:`_block_eigenvalues`), the four parity combinations of
    ``Xt`` as two sums of its block rows, whose parity-+ sums on vacuum
    pairs give the residual and whose squares give the weights, and ``Yt``
    written into one array.

    Raises:
        FloatingPointError: if ``nu_i nu_j`` overflows.
    """
    nu, Xt = frame.nu, frame.Xt
    n = nu.size
    lam, vacuum = _block_eigenvalues(nu, frame.rounding)
    # Block rows [i, block, j]: top = [qq, qp], and bottom reversed = [pp, pq]
    blocks = Xt.reshape(2, n, 2, n)
    top, bottom = blocks[0], blocks[1, :, ::-1]
    even_odd = top + bottom  # [qq + pp, qp + pq], divided by [N - 1, N + 1]
    odd_even = top - bottom  # [qq - pp, qp - pq], divided by [N + 1, N - 1]
    w4 = np.square(even_odd)
    w4 += np.square(odd_even)[:, ::-1]  # [4 w+, 4 w-]
    residual = 0.0
    if vacuum.any():
        pair = np.ix_(vacuum, vacuum)
        kernel = np.concatenate([even_odd[:, 0][pair], odd_even[:, 1][pair]], axis=None)
        residual = math.sqrt(0.5 * float(kernel.dot(kernel)))
        lam[0][pair] = np.inf  # the kernel: its weight 0.5 / inf is 0
    wigner = 0.25 * float((w4.sum(axis=1) / np.multiply.outer(nu, nu)).sum())
    weight = np.divide(0.5, lam, out=lam).transpose(1, 0, 2)  # [i, parity, j]
    second = 0.5 * float(np.vdot(w4, weight))
    even_odd *= weight
    odd_even *= weight[:, ::-1]
    Yt = np.empty((2 * n, 2 * n))
    out = Yt.reshape(2, n, 2, n)
    np.add(even_odd, odd_even, out=out[0])
    np.subtract(even_odd[:, ::-1], odd_even[:, ::-1], out=out[1])
    return Yt, residual, second, wigner


def dgamma_pseudoinverse_apply(gamma: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``D(Y) = X`` through the Williamson frame, dropping kernel modes.

    The input is transported to the thermal frame, split into the four
    parity combinations of its QQ/QP/PQ/PP blocks, divided elementwise by the
    eigenvalues ``nu_i nu_j -/+ 1`` (the parity-+ components of vacuum mode
    pairs, the kernel of :func:`dgamma_spectrum`, are zeroed), and
    transported back.  For ``X`` in the range of the map this returns an
    exact solution; otherwise ``residual = |D(Y) - X|_F`` measures how much
    of ``X`` escapes the range, and callers should surface it.

    Args:
        gamma: covariance matrix of a state (symmetric, ``nu_min >= 1``);
            a mode below the vacuum counts as vacuum.
        X: right-hand side, of the shape of ``gamma``.

    Returns:
        ``(Y, residual)``.

    Raises:
        FloatingPointError: if ``nu_i nu_j`` overflows.
    """
    gamma = np.asarray(gamma, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.shape != gamma.shape:
        raise ValueError(f"X has shape {X.shape}, expected {gamma.shape}")
    frame = _williamson_frame(gamma, X)
    Y = frame.S_inv.T @ _frame_solve(frame)[0] @ frame.S_inv
    return Y, float(np.linalg.norm(apply_dgamma(gamma, Y) - X))


def stein_series_solve(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Solve for the SLD coefficient matrix via the Stein-equation series.

    ``Y = D^-1(dgamma)`` satisfies the discrete-Lyapunov (Stein) equation

        ``Y - H Y H^T = Gamma^-1 dgamma Gamma^-1``,   ``H = Gamma^-1 w``,

    whose fixed-point series ``sum_k H^k (Gamma^-1 dgamma Gamma^-1) H^T^k``
    converges geometrically iff every symplectic eigenvalue exceeds 1 (the
    spectral radius of ``H`` is ``1 / nu_min``).  Serves as an independent
    cross-check of :func:`dgamma_pseudoinverse_apply` away from purity,
    as long as ``H`` is close to normal.
    The series stops at the first term whose Frobenius norm drops below
    ``1e-12``, which is also the margin of the refusal gate.

    When ``H`` is far from normal, which strong squeezing in a rotated frame
    makes it, the partial sums carry rounding of order ``eps |H|^2 |Y|``
    and the residual check refuses the result, well away from purity.  On
    ``Gamma = O diag(2.25e4, 1e-4) O^T`` (``nu = 1.5``, ``O`` a rotation)
    with ``dgamma = I`` the residual is 1.6 and the series raises
    ``ConvergenceError``, while :func:`~gaussqfi.estimation.qfi_general`
    returns 6.23e7; the diagonal ``Gamma`` of the same spectrum, where
    ``H`` is normal, passes.

    Args:
        gamma: admissible covariance matrix, strictly above purity.
        dgamma: symmetric derivative of the covariance matrix.  Both are
            held to the symmetry rule of
            :func:`~gaussqfi.symplectic.validate_covariance` and read as
            their symmetric parts.

    Raises:
        ValueError: if either matrix fails the symmetry rule (not finite, or
            not symmetric) or the shapes differ.
        PreconditionError: if ``nu_min <= 1 + 1e-12`` (flag ``"nu_min"``).
        ConvergenceError: if no term of the first 10 000 drops below
            ``1e-12``, or the partial sum fails the Stein equation by more
            than ``1e-11`` (relative).
    """
    n = _check_even_square(gamma, "gamma")
    if np.shape(dgamma) != np.shape(gamma):
        raise ValueError(f"dgamma has shape {np.shape(dgamma)}, expected {np.shape(gamma)}")
    gamma = _symmetric_part(gamma, "gamma")
    dgamma = _symmetric_part(dgamma, "dgamma")
    nu_min = float(symplectic_eigenvalues(gamma)[-1])
    if nu_min <= 1.0 + _STEIN_TOL:
        raise PreconditionError(
            "nu_min",
            f"Stein series needs nu_min > 1 (got {nu_min:.6g}); "
            "use the pseudoinverse route at or near purity",
        )
    H = np.linalg.solve(gamma, symplectic_form(n))
    rhs = np.linalg.solve(gamma, np.linalg.solve(gamma, dgamma).T).T
    rhs = 0.5 * (rhs + rhs.T)

    term = rhs.copy()
    Y = term.copy()
    for _ in range(_STEIN_MAX_TERMS):
        term = H @ term @ H.T
        Y += term
        if np.linalg.norm(term) < _STEIN_TOL:
            break
    else:
        raise ConvergenceError(
            f"Stein series did not converge within {_STEIN_MAX_TERMS} terms "
            f"(nu_min = {nu_min:.6g})"
        )
    check = np.linalg.norm(Y - H @ Y @ H.T - rhs)
    if check > 10 * _STEIN_TOL * (1.0 + np.linalg.norm(rhs)):
        raise ConvergenceError(f"Stein equation residual {check:.3e} exceeds tolerance")
    return Y
