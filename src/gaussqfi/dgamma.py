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

The frame costs one Cholesky factor and one Hermitian ``eigh`` (see
:func:`~gaussqfi.symplectic.williamson`), and ``S^-1 = -w S^T w`` needs no
solve.  The same ``Xt`` carries the Fisher information of the Wigner
distribution, ``tr[(Gamma^-1 X)^2] / 2 = sum_ij Xt_ij Xt_ji / (2 nt_i nt_j)``
with ``nt = (nu, nu)``: the Wigner information pairs each entry with
``nu_i nu_j``, where the SLD solve pairs it with ``nu_i nu_j -/+ 1``.

:func:`dgamma_spectrum` returns those divisors and that mask as arrays:
``values[k, i, j]`` is ``nu_i nu_j - 1`` for ``k = 0`` (parity +) and
``nu_i nu_j + 1`` for ``k = 1`` (parity -), each an eigenvalue of
multiplicity 2, and ``kernel`` of the same ``(2, n, n)`` shape marks the
entries the solve zeroes; one function decides both.  All production
solves run through this frame; the dense ``(2n)^2 x (2n)^2`` matrix
representation is exposed only for verification at small ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, PreconditionError
from .symplectic import (
    WilliamsonDecomposition,
    _frame_rounding,
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
_VACUUM_ROUNDING = 16  # a mode is vacuum within this many times the state rule's rounding


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


def _block_eigenvalues(
    dec: WilliamsonDecomposition, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue arrays of the thermal-frame map and their kernel mask.

    Returns ``(lam, kernel)``, both of shape ``(2, n, n)``: ``lam[0] = N - 1``
    (parity +) and ``lam[1] = N + 1`` (parity -) with ``N = nu nu^T``;
    ``kernel`` marks the parity-+ entries whose two modes are both vacuum,
    ``nu_k - 1 <= 16 eps |S|_F^2 tr gamma``.  Each entry is one eigenvalue of
    multiplicity 2.  In ``lam[0]`` a ``nu`` below 1 reads as 1: a mode the
    state rule accepted below the vacuum meets a warmer one through
    ``nu_j - 1``, not through a difference that may vanish.

    Raises:
        FloatingPointError: if ``N`` overflows.
    """
    nu = dec.nu
    with np.errstate(over="raise"):
        N = np.outer(nu, nu)
    lam = np.stack([N - 1.0, N + 1.0])
    if nu[-1] < 1.0:
        cold = np.maximum(nu, 1.0)
        lam[0] = np.outer(cold, cold) - 1.0
    vacuum = nu - 1.0 <= _VACUUM_ROUNDING * _frame_rounding(dec.S, gamma)
    kernel = np.zeros_like(lam, dtype=bool)
    kernel[0] = np.outer(vacuum, vacuum)
    return lam, kernel


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
    lam, kernel = _block_eigenvalues(dec, gamma)
    return DGammaSpectrum(
        nu=dec.nu, values=lam, kernel=kernel, kernel_dimension=2 * int(kernel.sum())
    )


def _frame_solve(
    gamma: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, float, WilliamsonDecomposition, np.ndarray]:
    """:func:`dgamma_pseudoinverse_apply`, also returning the frame it read.

    Returns ``(Y, residual, dec, Xt)`` with ``dec = williamson(gamma)`` and
    ``Xt = S^-1 X S^-T``, so a caller can read the spectrum, the frame and
    other thermal-frame sums without factorising ``gamma`` again.
    """
    gamma = np.asarray(gamma, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.shape != gamma.shape:
        raise ValueError(f"X has shape {X.shape}, expected {gamma.shape}")
    dec = williamson(gamma)
    n = len(dec.nu)
    Si = dec.S_inv
    Xt = Si @ X @ Si.T
    lam, kernel = _block_eigenvalues(dec, gamma)

    qq, qp, pq, pp = Xt[:n, :n], Xt[:n, n:], Xt[n:, :n], Xt[n:, n:]
    # combos[k] holds the (QQ/PP, QP/PQ) combinations that see eigenvalue lam[k];
    # each is halved and divided by it, and zeroed on the kernel
    combos = np.stack([[qq + pp, qp - pq], [qq - pp, qp + pq]])
    weight = np.divide(0.5, lam, out=np.zeros_like(lam), where=~kernel)
    (s_even, a_even), (s_odd, a_odd) = weight[:, None] * combos
    Yt = np.empty_like(Xt)
    Yt[:n, :n] = s_even + s_odd
    Yt[:n, n:] = a_odd + a_even
    Yt[n:, :n] = a_odd - a_even
    Yt[n:, n:] = s_even - s_odd
    Y = Si.T @ Yt @ Si
    residual = float(np.linalg.norm(apply_dgamma(gamma, Y) - X))
    return Y, residual, dec, Xt


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
    return _frame_solve(gamma, X)[:2]


def stein_series_solve(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Solve for the SLD coefficient matrix via the Stein-equation series.

    ``Y = D^-1(dgamma)`` satisfies the discrete-Lyapunov (Stein) equation

        ``Y - H Y H^T = Gamma^-1 dgamma Gamma^-1``,   ``H = Gamma^-1 w``,

    whose fixed-point series ``sum_k H^k (Gamma^-1 dgamma Gamma^-1) H^T^k``
    converges geometrically iff every symplectic eigenvalue exceeds 1 (the
    spectral radius of ``H`` is ``1 / nu_min``).  Serves as an independent
    cross-check of :func:`dgamma_pseudoinverse_apply` away from purity.
    The series stops at the first term whose Frobenius norm drops below
    ``1e-12``, which is also the margin of the refusal gate.

    Args:
        gamma: admissible covariance matrix, strictly above purity.
        dgamma: symmetric derivative of the covariance matrix.

    Raises:
        PreconditionError: if ``nu_min <= 1 + 1e-12`` (flag ``"nu_min"``).
        ConvergenceError: if no term of the first 10 000 drops below
            ``1e-12``, or the partial sum fails the Stein equation by more
            than ``1e-11`` (relative).
    """
    gamma = np.asarray(gamma, dtype=float)
    dgamma = np.asarray(dgamma, dtype=float)
    if dgamma.shape != gamma.shape:
        raise ValueError(f"dgamma has shape {dgamma.shape}, expected {gamma.shape}")
    nu_min = float(symplectic_eigenvalues(gamma)[-1])
    if nu_min <= 1.0 + _STEIN_TOL:
        raise PreconditionError(
            "nu_min",
            f"Stein series needs nu_min > 1 (got {nu_min:.6g}); "
            "use the pseudoinverse route at or near purity",
        )
    n = gamma.shape[0] // 2
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
