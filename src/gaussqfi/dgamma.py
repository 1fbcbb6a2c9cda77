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
* entries whose divisor is below ``tol * (1 + nu_max^2)`` are zeroed (kernel).

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
entries the solve zeroes.  So one kernel rule serves both.  All production
solves run through this frame; the dense ``(2n)^2 x (2n)^2`` matrix
representation is exposed only for verification at small ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, PreconditionError
from .symplectic import symplectic_eigenvalues, symplectic_form, williamson

__all__ = [
    "apply_dgamma",
    "dgamma_matrix",
    "DGammaSpectrum",
    "dgamma_spectrum",
    "dgamma_pseudoinverse_apply",
    "stein_series_solve",
]

_SQ2 = np.sqrt(2.0)
# orthonormal block basis of parity + (index 0) and parity - (index 1), the
# sign picked up under conjugation by the one-mode symplectic form
_BLOCK_BASIS = (
    (np.eye(2) / _SQ2, np.array([[0.0, 1.0], [-1.0, 0.0]]) / _SQ2),
    (np.array([[0.0, 1.0], [1.0, 0.0]]) / _SQ2, np.array([[1.0, 0.0], [0.0, -1.0]]) / _SQ2),
)


def apply_dgamma(gamma: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Evaluate ``Gamma @ Y @ Gamma^T - w @ Y @ w^T``."""
    gamma = np.asarray(gamma, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.shape != gamma.shape:
        raise ValueError(f"Y has shape {Y.shape}, expected {gamma.shape}")
    w = symplectic_form(gamma.shape[0] // 2)
    return gamma @ Y @ gamma.T - w @ Y @ w.T


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
    ``(i, j)``, of multiplicity 2, and ``kernel`` marks the ones treated as
    zero.  The associated matrix eigendirections are ``S E S^T`` over the
    block basis ``E`` (see :meth:`basis_matrices`).  When the frame ``S`` is
    orthogonal these are literal eigenvectors of the dense representation;
    in general they form the congruence frame in which the map is diagonal.
    """

    nu: np.ndarray
    frame: np.ndarray
    values: np.ndarray
    kernel: np.ndarray
    kernel_dimension: int

    def eigenvalues(self) -> np.ndarray:
        """All (2n)^2 eigenvalues with multiplicity, ascending."""
        return np.sort(np.repeat(self.values.ravel(), 2))

    def basis_matrices(self, k: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The two frame matrices ``S E S^T`` spanning the eigenspace of ``values[k, i, j]``."""
        n = len(self.nu)
        out = []
        for E2 in _BLOCK_BASIS[k]:
            E = np.zeros((2 * n, 2 * n))
            E[np.ix_([i, n + i], [j, n + j])] = E2
            out.append(self.frame @ E @ self.frame.T)
        return out[0], out[1]


def _block_eigenvalues(nu: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue arrays of the thermal-frame map and their kernel mask.

    Returns ``(lam, kernel)``, both of shape ``(2, n, n)``: ``lam[0] = N - 1``
    (parity +) and ``lam[1] = N + 1`` (parity -) with ``N = nu nu^T``;
    ``kernel`` marks the entries below ``tol * (1 + nu_max^2)``.  Each entry
    is one eigenvalue of multiplicity 2.
    """
    N = np.outer(nu, nu)
    lam = np.stack([N - 1.0, N + 1.0])
    return lam, np.abs(lam) < tol * (1.0 + float(nu.max()) ** 2)


def dgamma_spectrum(gamma: np.ndarray, tol: float = 1e-9) -> DGammaSpectrum:
    """Spectrum of the superoperator via the Williamson frame.

    Args:
        gamma: admissible covariance matrix (symmetric, ``nu_min >= 1``).
        tol: eigenvalues below ``tol * (1 + nu_max^2)`` are flagged as kernel.

    Returns:
        :class:`DGammaSpectrum`; ``kernel_dimension`` counts 2 per ordered
        vacuum mode pair.
    """
    dec = williamson(gamma)
    lam, kernel = _block_eigenvalues(dec.nu, tol)
    return DGammaSpectrum(
        nu=dec.nu, frame=dec.S, values=lam, kernel=kernel,
        kernel_dimension=2 * int(kernel.sum()),
    )


def _frame_solve(
    gamma: np.ndarray, X: np.ndarray, tol: float
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """:func:`dgamma_pseudoinverse_apply`, also returning the frame it read.

    Returns ``(Y, residual, nu, Xt)`` with ``Xt = S^-1 X S^-T``, so a caller
    can read other thermal-frame sums off ``Xt`` without factorising
    ``gamma`` again.
    """
    gamma = np.asarray(gamma, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.shape != gamma.shape:
        raise ValueError(f"X has shape {X.shape}, expected {gamma.shape}")
    dec = williamson(gamma)
    n = len(dec.nu)
    Si = dec.S_inv
    Xt = Si @ X @ Si.T
    lam, kernel = _block_eigenvalues(dec.nu, tol)

    qq, qp, pq, pp = Xt[:n, :n], Xt[:n, n:], Xt[n:, :n], Xt[n:, n:]
    # combos[k] holds the (QQ/PP, QP/PQ) combinations that see eigenvalue lam[k];
    # each is halved and divided by it, and zeroed on the kernel
    combos = np.stack([[qq + pp, qp - pq], [qq - pp, qp + pq]])
    weight = np.divide(0.5, lam, out=np.zeros_like(lam), where=~kernel)
    (s_even, a_even), (s_odd, a_odd) = weight[:, None] * combos
    Yt = np.block([[s_even + s_odd, a_odd + a_even], [a_odd - a_even, s_even - s_odd]])
    Y = Si.T @ Yt @ Si
    residual = float(np.linalg.norm(apply_dgamma(gamma, Y) - X))
    return Y, residual, dec.nu, Xt


def dgamma_pseudoinverse_apply(
    gamma: np.ndarray, X: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, float]:
    """Solve ``D(Y) = X`` through the Williamson frame, dropping kernel modes.

    The input is transported to the thermal frame, split into the four
    parity combinations of its QQ/QP/PQ/PP blocks, divided elementwise by the
    eigenvalues ``nu_i nu_j -/+ 1`` (components on eigenvalues smaller than
    ``tol * (1 + nu_max^2)`` are zeroed), and transported back.  For ``X`` in
    the range of the map this returns an exact solution; otherwise
    ``residual = |D(Y) - X|_F`` measures how much of ``X`` escapes the range,
    and callers should surface it.

    Returns:
        ``(Y, residual)``.
    """
    return _frame_solve(gamma, X, tol)[:2]


def stein_series_solve(
    gamma: np.ndarray,
    dgamma: np.ndarray,
    tol: float = 1e-12,
    max_terms: int = 10_000,
) -> np.ndarray:
    """Solve for the SLD coefficient matrix via the Stein-equation series.

    ``Y = D^-1(dgamma)`` satisfies the discrete-Lyapunov (Stein) equation

        ``Y - H Y H^T = Gamma^-1 dgamma Gamma^-1``,   ``H = Gamma^-1 w``,

    whose fixed-point series ``sum_k H^k (Gamma^-1 dgamma Gamma^-1) H^T^k``
    converges geometrically iff every symplectic eigenvalue exceeds 1 (the
    spectral radius of ``H`` is ``1 / nu_min``).  Serves as an independent
    cross-check of :func:`dgamma_pseudoinverse_apply` away from purity.

    Args:
        gamma: admissible covariance matrix, strictly above purity.
        dgamma: symmetric derivative of the covariance matrix.
        tol: terminate when a term's Frobenius norm drops below ``tol``;
            also the margin of the ``nu_min > 1 + tol`` refusal gate.
        max_terms: hard cap on the number of series terms.

    Raises:
        PreconditionError: if ``nu_min <= 1 + tol`` (flag ``"nu_min"``).
        ConvergenceError: if the cap is hit, or the partial sum fails the
            Stein equation by more than ``10 * tol`` (relative).
    """
    gamma = np.asarray(gamma, dtype=float)
    dgamma = np.asarray(dgamma, dtype=float)
    if dgamma.shape != gamma.shape:
        raise ValueError(f"dgamma has shape {dgamma.shape}, expected {gamma.shape}")
    nu_min = float(symplectic_eigenvalues(gamma)[-1])
    if nu_min <= 1.0 + tol:
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
    for _ in range(max_terms):
        term = H @ term @ H.T
        Y += term
        if np.linalg.norm(term) < tol:
            break
    else:
        raise ConvergenceError(
            f"Stein series did not converge within {max_terms} terms "
            f"(nu_min = {nu_min:.6g})"
        )
    check = np.linalg.norm(Y - H @ Y @ H.T - rhs)
    if check > 10 * tol * (1.0 + np.linalg.norm(rhs)):
        raise ConvergenceError(f"Stein equation residual {check:.3e} exceeds tolerance")
    return Y
