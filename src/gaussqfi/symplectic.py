"""Symplectic linear algebra for Gaussian bosonic states.

Conventions used throughout the package:

* canonical operators are ordered ``R = (Q_1 .. Q_n, P_1 .. P_n)``;
* the symplectic form is ``w = [[0, I], [-I, 0]]`` (so ``w @ w = -I``);
* covariance matrices are vacuum-normalised, ``Gamma_vacuum = I``, i.e.
  ``Gamma_ij = 2 <(R_i - d_i) o (R_j - d_j)>`` with ``o`` the symmetrised
  product.

A covariance matrix describes a physical state iff it is symmetric and all
its symplectic eigenvalues ``nu_k`` (Williamson spectrum) satisfy
``nu_k >= 1``; every entry point decides both, within rounding, by the
symmetry rule and the state rule stated in :func:`validate_covariance`.

Every orthogonal symplectic frame here (a passive network) is built as the
image ``[[Re u, -Im u], [Im u, Re u]]`` of an n x n unitary ``u`` on the
modes: the Haar-random ones and the eigenframe of a symmetric Hamiltonian
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, PreconditionError

_WILLIAMSON_TOL = 1e-10  # williamson's reconstruction bound
_STATE_TOL = 1e-8  # state rule: how far below 1 nu_min may lie beyond rounding
_SYMMETRY_TOL = 1e-8  # symmetry rule: max |M - M^T| per unit of 1 + max|M|
_ISOTHERMAL_TOL = 1e-8  # equal-temperature gates, their normal frame and hamiltonian_eigenframe
_VACUUM_ROUNDING = 16  # kernel rule and equal-temperature gate: times the state rule's rounding
_EPS = float(np.finfo(float).eps)

__all__ = [
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
]


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form ``[[0, I], [-I, 0]]``.

    Args:
        n: number of modes (must be positive).
    """
    if n < 1:
        raise ValueError(f"number of modes must be positive, got {n}")
    w = np.zeros((2 * n, 2 * n))
    w[:n, n:] = np.eye(n)
    w[n:, :n] = -np.eye(n)
    return w


def _w_left(M: np.ndarray) -> np.ndarray:
    """``w @ M`` by rows: ``[M_P; -M_Q]``.  Exact, as every entry of ``w`` is
    0 or +/-1, so it equals the dense product."""
    n = M.shape[0] // 2
    return np.concatenate([M[n:], -M[:n]])


def _w_right(M: np.ndarray) -> np.ndarray:
    """``M @ w`` by columns: ``[-M_P, M_Q]``, exact like :func:`_w_left`."""
    n = M.shape[1] // 2
    return np.concatenate([-M[:, n:], M[:, :n]], axis=1)


def _check_even_square(M: np.ndarray, name: str) -> int:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0 or M.shape[0] == 0:
        raise ValueError(f"{name} must be a 2n x 2n matrix, got shape {M.shape}")
    return M.shape[0] // 2


def is_symplectic(S: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ``S @ w @ S.T == w`` within ``tol`` (max-abs deviation)."""
    n = _check_even_square(S, "S")
    return bool(np.abs(_w_right(S) @ S.T - symplectic_form(n)).max() <= tol)


def _symmetric_part(M: np.ndarray, name: str) -> np.ndarray:
    """The symmetry rule of every entry point that reads ``gamma`` or
    ``dgamma``: ``M`` must be finite with ``max|M - M^T| <= 1e-8 (1 + max|M|)``,
    and the caller works on the returned ``(M + M^T) / 2``.

    Raises:
        ValueError: naming ``name``, if ``M`` is not finite or not symmetric.
    """
    M = np.asarray(M, dtype=float)
    scale = float(np.abs(M).max(initial=0.0))
    if not math.isfinite(scale):  # max|M| is NaN or inf exactly when M is not finite
        raise ValueError(f"{name} contains non-finite entries")
    asym = float(np.abs(M - M.T).max(initial=0.0))
    if asym > _SYMMETRY_TOL * (1.0 + scale):
        raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.3g})")
    return 0.5 * (M + M.T)


def _hermitian_form(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(L, H)``: the Cholesky factor ``L L^T = gamma`` and ``H = i L^T w L``,
    whose eigenvalues are ``+/- nu_k`` (``L^T w L`` is similar to ``gamma w``).

    Raises ``ValueError`` if ``gamma`` is not positive definite.
    """
    try:
        L = np.linalg.cholesky(gamma)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None
    A = _w_right(L.T) @ L
    return L, 0.5j * (A - A.T)  # exactly Hermitian: eigh reads one triangle


def symplectic_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive-definite matrix, descending.

    The positive eigenvalues of ``i L^T w L`` with ``L`` the Cholesky factor
    of the symmetric part of ``gamma``: the eigenproblem :func:`williamson`
    solves, with no square root taken.  Raises ``ValueError`` if ``gamma``
    fails the symmetry rule of :func:`validate_covariance` or is not positive
    definite (singular included).
    """
    n = _check_even_square(gamma, "gamma")
    _, H = _hermitian_form(_symmetric_part(gamma, "gamma"))
    return np.linalg.eigvalsh(H)[n:][::-1]


def _frame_rounding(S: np.ndarray, gamma: np.ndarray) -> float:
    """``eps |S|_F^2 tr gamma``: to first order, how far rounding moves what
    is read in the symplectic frame ``S`` of ``gamma`` (a Williamson frame or
    its inverse; ``|S^-1|_F = |S|_F``).  Rounding ``gamma`` by ``E`` moves a
    ``nu`` by at most ``|E| |S|_F^2``, and ``|E| ~ eps |gamma| <= eps tr gamma``.

    The one rounding scale of a frame, formed once where the frame is formed
    (a model point's frame record, or the one ``williamson`` of a public
    function without a point); the state rule, the kernel rule's vacuum test
    and the equal-temperature gate each read it."""
    return _EPS * float(np.vdot(S, S)) * float(gamma.trace())


def _is_state(nu_min: float, rounding: float) -> bool:
    """The state rule of :func:`validate_covariance`, given ``nu_min`` and
    the :func:`_frame_rounding` of the frame it was read in."""
    return bool(1.0 - nu_min <= _STATE_TOL + rounding)


def _require_state(nu_min: float, rounding: float) -> None:
    """Raise ``PreconditionError`` (flag ``"nu_min"``, giving ``1 - nu_min``)
    unless :func:`_is_state`."""
    if not _is_state(nu_min, rounding):
        raise PreconditionError(
            "nu_min", f"moments are not a physical state (1 - nu_min = {1.0 - nu_min:.3g})"
        )


@dataclass(frozen=True)
class CovarianceCheck:
    """Diagnostics produced by :func:`validate_covariance`."""

    valid: bool
    nu_min: float
    asymmetry: float

    def __bool__(self) -> bool:
        return self.valid


def validate_covariance(gamma: np.ndarray) -> CovarianceCheck:
    """Check that ``gamma`` is an admissible covariance matrix.

    Admissible means symmetric, positive definite, and a state: the
    uncertainty relation ``gamma + i w >= 0``, i.e. ``nu_min >= 1``, up to
    rounding.  Symmetric is the symmetry rule of every entry point that reads
    ``gamma`` or ``dgamma`` (a model point, the config reader,
    :func:`williamson`, :func:`symplectic_eigenvalues`, the Stein series):
    the matrix is finite with

        ``max|gamma - gamma^T| <= 1e-8 (1 + max|gamma|)``

    and is read as its symmetric part.  A state is the state rule of every
    entry point that reads moments (the SLD solve, the config reader, the
    equal-temperature gate, the Fock oracle): ``gamma`` is refused when

        ``1 - nu_min > 1e-8 + eps |S|_F^2 tr gamma``

    with ``S`` the Williamson frame in which ``nu_min`` was read (a model
    point's own frame; here ``williamson(gamma)``).  The second
    term is how far rounding moves ``nu_min`` in that frame; on a pure state
    it is ``eps |S|_F^4``.

    Returns:
        :class:`CovarianceCheck` with the verdict and the measured
        ``nu_min`` / ``max|gamma - gamma^T|``, so callers can report *why* a
        matrix was rejected.  A matrix that is not finite gets
        ``nu_min = NaN`` and asymmetry ``inf``; :func:`williamson` applies
        the symmetry rule and its Cholesky factor decides positive
        definiteness, and a matrix it refuses gets ``nu_min = 0``.

    Raises:
        ConvergenceError: if the Williamson frame does not reconstruct
            ``gamma`` (see :func:`williamson`).
    """
    gamma = np.asarray(gamma, dtype=float)
    _check_even_square(gamma, "gamma")
    if not np.isfinite(gamma).all():
        return CovarianceCheck(False, np.nan, np.inf)
    asym = float(np.abs(gamma - gamma.T).max())
    try:
        dec = williamson(gamma)
    except ValueError:  # not symmetric, or not positive definite
        return CovarianceCheck(False, 0.0, asym)
    nu_min = float(dec.nu[-1])
    return CovarianceCheck(_is_state(nu_min, _frame_rounding(dec.S, gamma)), nu_min, asym)


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Williamson normal form ``gamma = S @ diag(nu, nu) @ S.T``.

    Attributes:
        S: symplectic congruence, ``S @ w @ S.T = w``.
        nu: symplectic eigenvalues, descending.
    """

    S: np.ndarray
    nu: np.ndarray

    @property
    def thermal_diagonal(self) -> np.ndarray:
        return np.concatenate([self.nu, self.nu])

    def reconstruct(self) -> np.ndarray:
        return (self.S * self.thermal_diagonal[None, :]) @ self.S.T

    @property
    def S_inv(self) -> np.ndarray:
        """Inverse frame ``-w S^T w``, exact for symplectic ``S`` (no linear solve)."""
        return _w_right(_w_left(-self.S.T))


def williamson(gamma: np.ndarray) -> WilliamsonDecomposition:
    """Williamson decomposition of a symmetric positive-definite matrix.

    Route: one Cholesky factor ``L L^T = gamma`` and ``eigh(i L^T w L)``, the
    Hermitian eigenproblem :func:`symplectic_eigenvalues` reads.  The top
    ``n`` eigenvalues are ``nu``; the imaginary and real parts of their
    eigenvectors, times ``L`` and ``nu^(-1/2)``, are the Q and P columns of
    ``S``.  Any root of ``gamma`` would do; the Cholesky factor is the
    cheapest (the symmetric root costs an ``eigh`` of its own).  The result
    must reconstruct the symmetric part of ``gamma`` within a max-abs error
    of ``1e-10 max(1, |gamma|)``.

    Args:
        gamma: symmetric positive-definite ``2n x 2n`` matrix, held to the
            symmetry rule of :func:`validate_covariance` and read as its
            symmetric part.  Validity as a quantum state is *not* required
            here; the decomposition is also used on operator matrices whose
            "nu" may be < 1.

    Raises:
        ValueError: if ``gamma`` fails the symmetry rule (not finite, or not
            symmetric) or is not positive definite.
        ConvergenceError: if the reconstruction error exceeds that bound.
    """
    n = _check_even_square(gamma, "gamma")
    gamma = _symmetric_part(gamma, "gamma")
    L, H = _hermitian_form(gamma)
    ev, V = np.linalg.eigh(H)
    nu = ev[n:][::-1]
    # an eigenvector x + i y of +nu gives the orthonormal Q/P pair sqrt(2) (y, x)
    top = V[:, n:][:, ::-1] * np.sqrt(2.0 / nu)
    dec = WilliamsonDecomposition(S=L @ np.concatenate([top.imag, top.real], axis=1), nu=nu)
    err = np.abs(dec.reconstruct() - gamma).max()
    if err > _WILLIAMSON_TOL * max(1.0, float(np.abs(gamma).max())):
        raise ConvergenceError(f"williamson reconstruction error {err:.3e} exceeds tolerance")
    return dec


def _passive(u: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic ``[[Re u, -Im u], [Im u, Re u]]`` of an n x n
    unitary ``u``: the passive network ``[[c, s], [-s, c]]`` of ``u = c - i s``."""
    n = u.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = out[n:, n:] = u.real
    out[:n, n:] = -u.imag
    out[n:, :n] = u.imag
    return out


def random_orthogonal_symplectic(n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-random orthogonal symplectic matrix (a passive network).

    Orthogonal symplectic matrices are exactly the images
    ``[[c, s], [-s, c]]`` of n x n unitaries ``u = c - i s``; the unitary is
    drawn Haar-uniformly via QR of a complex Ginibre sample.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    Qc, R = np.linalg.qr(Z)
    diag = np.diagonal(R)
    return _passive(Qc * (diag / np.abs(diag))[None, :])


def random_symplectic(
    n: int, seed: int | np.random.Generator | None = None, squeeze_cap: float = 1.0
) -> np.ndarray:
    """Seeded random symplectic matrix in Euler form ``O1 diag(e^z, e^-z) O2``.

    ``O1, O2`` are Haar orthogonal-symplectic and the squeeze parameters are
    uniform with ``|z_k| <= squeeze_cap``.  Deterministic for a fixed seed.
    ``seed`` may also be a ``np.random.Generator``, which is used as is and
    advanced in place, so successive calls on one generator give different
    matrices.
    """
    if squeeze_cap < 0:
        raise ValueError("squeeze_cap must be non-negative")
    rng = np.random.default_rng(seed)
    O1 = random_orthogonal_symplectic(n, rng)
    O2 = random_orthogonal_symplectic(n, rng)
    z = rng.uniform(-squeeze_cap, squeeze_cap, n)
    return (O1 * np.concatenate([np.exp(z), np.exp(-z)])[None, :]) @ O2


def _hamiltonian_deviation(W: np.ndarray) -> float:
    """``max |W w + w W|``: zero iff ``W`` anticommutes with ``w``.

    Read from the blocks, as ``W w + w W`` is ``[[W_PQ - W_QP, W_QQ + W_PP],
    [-(W_QQ + W_PP), W_PQ - W_QP]]``."""
    n = W.shape[0] // 2
    trace_part = np.abs(W[:n, :n] + W[n:, n:]).max()
    skew_part = np.abs(W[:n, n:] - W[n:, :n]).max()
    return float(np.maximum(trace_part, skew_part))  # NaN propagates


def hamiltonian_eigenframe(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalise a symmetric Hamiltonian matrix by an orthogonal symplectic.

    A symmetric ``W`` with ``W w + w W = 0`` has spectrum symmetric about 0;
    this returns ``(O, lam)`` with ``O`` orthogonal *and* symplectic,
    ``lam >= 0`` descending, and ``O @ W @ O.T = diag(lam, -lam)``.

    ``w`` acts on ``(x, y)`` as ``-i`` on the mode ``x + i y``, and it maps
    the ``+lam`` eigenvectors of ``W`` to the ``-lam`` ones, so the
    eigenvectors of the ``n`` largest eigenvalues, read as modes, are
    orthonormal in ``C^n``.  Eigenvalues within ``1e-8 (1 + max|W|)`` of 0
    count as zero; they span a ``w``-invariant, i.e. complex, subspace, and
    the ``m`` modes it contributes are the leading left singular vectors of
    its eigenvectors read the same way.  ``O`` is the passive image of the
    unitary whose rows are the conjugated modes.  ``W`` is held to the
    symmetry rule of :func:`validate_covariance` and read as its symmetric
    part.

    Raises:
        ValueError: if ``W`` fails the symmetry rule, does not anticommute
            with ``w`` within ``1e-8 (1 + max|W|)``, or its zero eigenspace
            has fewer than ``2 m`` dimensions.
    """
    n = _check_even_square(W, "W")
    W = _symmetric_part(W, "W")
    cut = _ISOTHERMAL_TOL * (1.0 + float(np.abs(W).max()))
    if _hamiltonian_deviation(W) > cut:
        raise ValueError("W does not anticommute with the symplectic form")
    ev, V = np.linalg.eigh(W)
    order = np.argsort(-ev)
    pos = order[ev[order] > cut][:n]
    modes = V[:n, pos] + 1j * V[n:, pos]
    lam = ev[pos]
    m = n - pos.size
    if m:
        zero = np.abs(ev) <= cut
        if np.count_nonzero(zero) < 2 * m:
            raise ValueError("failed to build a symplectic basis of the null space")
        null = np.linalg.svd(V[:n, zero] + 1j * V[n:, zero], full_matrices=False)[0][:, :m]
        modes = np.concatenate([modes, null], axis=1)
        lam = np.concatenate([lam, np.zeros(m)])
    return _passive(modes.conj().T), lam


def _direct_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Mode-wise direct sum of two matrices in (Q.., P..) ordering.

    The result acts as ``A`` on the first block of modes and as ``B`` on the
    remaining ones; Q/P sectors are interleaved accordingly (a plain block
    diagonal would scramble the ordering convention).
    """
    nA = _check_even_square(A, "A")
    nB = _check_even_square(B, "B")
    n = nA + nB
    out = np.zeros((2 * n, 2 * n), dtype=np.result_type(A, B))
    idxA = list(range(nA)) + list(range(n, n + nA))
    idxB = list(range(nA, n)) + list(range(n + nA, 2 * n))
    out[np.ix_(idxA, idxA)] = A
    out[np.ix_(idxB, idxB)] = B
    return out


def _direct_sum_vector(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mode-wise direct sum of two phase-space vectors in (Q.., P..) ordering."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or a.size % 2 or b.ndim != 1 or b.size % 2:
        raise ValueError("inputs must be even-length vectors")
    nA, nB = a.size // 2, b.size // 2
    return np.concatenate([a[:nA], b[:nB], a[nA:], b[nB:]])
