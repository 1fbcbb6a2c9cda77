"""Truncated Fock-basis oracle for Gaussian-state quantities.

The oracle reads a Gaussian state's Fock matrix elements, and their exact
derivative along the tangent, straight from the moments
``(d, Gamma, dd, dGamma)`` by the Bargmann recurrence (F. M. Miatto and
N. Quesada, Quantum 4, 366 (2020)).  With the ladder operators
``(a, a†) = W R``, the complex mean ``zeta = W d`` and the Husimi
covariance ``Q = (W Gamma W^H + I) / 2``, the generating function
``F(v) = sum <m|rho|k> x^m y^k / sqrt(m! k!)`` of ``v = (x, y)`` is
``G0 exp(v^T A v / 2 + gamma^T v)``, with ``A = (I - Q^-1) X`` (``X`` swaps
the halves of ``v``), ``gamma = Q^-1 zeta`` and
``G0 = exp(-zeta^H Q^-1 zeta / 2) / sqrt(det Q)``.  Its coefficients obey
``G_{k+e_i} = (gamma_i G_k + sum_j A_ij sqrt(k_j) G_{k-e_j}) / sqrt(k_i + 1)``,
so every element is exact at any index, to rounding: a larger array
cropped is the smaller one, nothing is padded, and ``tail_mass`` reports
the weight beyond the cutoff instead of renormalising it away.  The
derivative ``F (v^T dA v / 2 + dgamma^T v + d log G0)`` of ``F`` gives
``drho`` from the same elements, with no difference step.

A pure state is read from its ket.  Its generating function factorises,
``F(x, y) = psi(x) conj(psi(y))``, so the ket is the same recurrence on the
``n`` ket indices of ``v``, with ``A[:n, :n]``, ``gamma[:n]`` and
``sqrt(G0)``, and its tangent is the same derivative with ``dA[:n, :n]``,
``dgamma[:n]`` and ``d log G0 / 2``.  A point is pure when every mode is
vacuum by the kernel rule of :mod:`~gaussqfi.dgamma`; every other point
keeps ``rho``.

The oracle stays independent of the moment engine: it uses the Husimi
covariance and the Bargmann generating function, never the superoperator
equation ``D(L) = dGamma`` that gives the engine its SLD, and it takes the
QFI from the defining eigenbasis formula, on ``rho`` or, for a pure state,
in closed form on ``rho = psi psi^H`` (Williamson's decomposition only
gates the input, by the state rule, and tells pure from mixed).  So
agreement between the two routes is evidence rather than circular
arithmetic.

Every oracle call and layer builder checks its size before it allocates,
by the representation it builds.  A dense ``dim**n`` square complex matrix
may take at most ``_MAX_BYTES`` (2**28 bytes, so at most 4096 levels
on one mode, 64 on two or 16 on three); :func:`build_state` and the
single layers build one on every state, :func:`sld_residual` its ``L`` on
``cutoff + 2`` levels, and :func:`identity_checks`, :func:`qfi_fock` and
:func:`qfi_fock_probe` one on a mixed state, on the cutoff and
``cutoff + 10`` levels.  :func:`identity_checks` reads a pure state's ket
but keeps the dense rule.  The ket route of :func:`qfi_fock` and
:func:`qfi_fock_probe` holds at most ``2n + 5`` complex arrays of
``dim**n`` entries at once, and 128 bytes a level for the recurrence's
Python scalars (:func:`_ket_bytes`), and may take the same 2**28 bytes in
all (at most 1364 levels on two modes, 115 on three, 33 on four or 16 on
five).  A basis above its rule raises ``ConfigError`` naming its memory.

Every dense ``rho`` that is read is held to the eigenvalue rule: a smallest
eigenvalue below ``-1e-10`` raises ``ConvergenceError`` naming it.
:func:`build_state`, :func:`sld_residual` and :func:`identity_checks` decide
it by one Cholesky factor of ``rho + 1e-10 I``, and run ``eigvalsh`` only to
name the eigenvalue of a refusal; :func:`qfi_fock` and
:func:`qfi_fock_probe` read it off the ``eigh`` their QFI needs anyway.

:func:`passive_unitary` and :func:`squeeze_unitary` form single Gaussian
layers, for inspection, as truncated exponentials with one ``eigh`` per
block of a label their generator conserves (total photon number, level
parity); :func:`displacement_unitary` is the Kronecker product of the
one-mode Weyl factors.  Every operator the oracle reads is built from
one-mode ``dim x dim`` factors: expectations contract them against
``rho``'s or, on a pure state, ``psi``'s index tensor, and the SLD
observable sums their Kronecker products.  The Weyl factors are phased in
place on the one array they are formed in, so :func:`identity_checks` on
one mode peaks at about 28 dense ``cutoff x cutoff`` complex matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dgamma import _vacuum_modes
from .estimation import SLDCoefficients
from .exceptions import ConfigError, ConvergenceError, PreconditionError
from .models import GaussianModelPoint, ModelFamily
from .symplectic import _EPS, _passive, _require_state, symplectic_form

__all__ = [
    "passive_unitary",
    "squeeze_unitary",
    "displacement_unitary",
    "TruncatedState",
    "build_state",
    "state_moments",
    "qfi_fock",
    "FockConvergence",
    "qfi_fock_probe",
    "sld_residual",
    "IdentityReport",
    "identity_checks",
    "suggested_cutoff",
]

_SQRT2 = np.sqrt(2.0)
_PASSIVE_TOL = 1e-10  # passive_unitary's max-abs gate
_TAIL_BOUND = 1e-3  # build_state's default bound on tail_mass, and every oracle call's
_MAX_BYTES = 2**28  # the most a dense dim**n square complex matrix, or the ket route, may take
# Markov's inequality is tried at x = (1 + s)/(1 - s), s = u / lambda_max: u
# runs from 0.034 to 1 - 2^-40, evenly in log(1 - u).
_MARKOV_U = 1.0 - 2.0 ** -(np.arange(1, 801) / 20.0)


def _destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a ``dim``-dimensional basis."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


@functools.lru_cache(maxsize=8)
def _mode_quadratures(n: int, dim: int) -> np.ndarray:
    """Quadratures ``(Q_1..Q_n, P_1..P_n)`` as one-mode factors.

    Row ``i`` of the ``(2n, n, dim, dim)`` stack holds ``R_i`` as
    ``F_1 ⊗ ... ⊗ F_n``: its quadrature on its own mode, the identity on the
    others.  ``Q = (a + a†)/sqrt(2)`` so the vacuum has ``<Q²> = 1/2`` and
    covariance matrix equal to the identity in the scaling used throughout.
    The stack depends on ``(n, dim)`` only, so it is built once and kept,
    read-only, for the next call (the 8 latest are kept).
    """
    a = _destroy(dim).astype(complex)
    F = np.zeros((2 * n, n, dim, dim), dtype=complex)
    F[:, :] = np.eye(dim)
    for k in range(n):
        F[k, k] = (a + a.conj().T) / _SQRT2
        F[n + k, k] = 1j * (a.conj().T - a) / _SQRT2
    F.setflags(write=False)
    return F


def _kron_modes(factors: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Kronecker product of (stacks of) one-mode factors, mode 1 outermost."""
    out = np.ones((1, 1))
    for f in factors:
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        s = out.shape
        out = out.reshape(s[:-4] + (s[-4] * s[-3], s[-2] * s[-1]))
    return out


def _block_expi(H: np.ndarray, label: np.ndarray) -> np.ndarray:
    """``exp(-i H)`` for a Hermitian ``H`` that couples only indices of equal
    ``label``: one ``eigh`` per label, so every entry between two blocks is
    exactly zero."""
    U = np.zeros(H.shape, dtype=complex)
    for value in np.unique(label):
        block = np.ix_(*[np.flatnonzero(label == value)] * 2)
        lam, V = np.linalg.eigh(H[block])
        U[block] = (V * np.exp(-1j * lam)) @ V.conj().T
    return U


@functools.lru_cache(maxsize=32)
def _ladder_chain(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The real ``eigh`` ``(lam, V)`` of the ladder chain ``a + a†`` on
    ``dim`` levels.

    It depends on ``dim`` only, so each ``dim`` is diagonalised once and
    kept, read-only, for the next call (the 32 latest are kept).
    """
    a = _destroy(dim)
    lam, V = np.linalg.eigh(a + a.T)
    for table in (lam, V):
        table.setflags(write=False)
    return lam, V


def _passive_deviation(O: np.ndarray) -> float:
    """Max-abs distance of the ``2n x 2n`` matrix ``O`` from the form
    ``[[c, s], [-s, c]]`` with ``u = c - i s`` unitary."""
    n = O.shape[0] // 2
    u = O[:n, :n] - 1j * O[:n, n:]
    return float(max(np.abs(O - _passive(u)).max(), np.abs(u @ u.conj().T - np.eye(n)).max()))


def passive_unitary(O: np.ndarray, dim: int) -> np.ndarray:
    """Fock-space unitary of an orthogonal symplectic (passive) transformation.

    With blocks ``O = [[c, s], [-s, c]]`` the corresponding mode-space
    unitary is ``u = c - i s``; its logarithm gives a number-conserving
    quadratic generator whose exponential maps moments by ``R -> O R``.
    ``u`` is normal, so its orthonormalised eigenvectors diagonalise it and
    ``i log u = V diag(-arg lam) V^H`` on the principal branch.

    The truncated generator ``sum_jk hc_jk a_j† a_k`` is written entry by
    entry, each term moving one photon between two modes.  It conserves the
    total photon number, so it is exponentiated with one ``eigh`` per number
    sector, and the entries between different sectors are exactly zero.  On
    the sectors of fewer than ``dim`` photons the truncation cuts nothing.

    Raises:
        ConfigError: ``O`` is not ``2n x 2n`` of the form
            ``[[c, s], [-s, c]]`` with ``c - i s`` unitary, or the basis
            exceeds the size limit.
    """
    O = np.asarray(O, dtype=float)
    n = O.shape[0] // 2
    if O.shape != (2 * n, 2 * n) or _passive_deviation(O) > _PASSIVE_TOL:
        raise ConfigError("matrix is not orthogonal symplectic")
    _check_size(dim, n)
    lam, V = np.linalg.eig(O[:n, :n] - 1j * O[:n, n:])
    V, _ = np.linalg.qr(V)
    hc = (V * -np.angle(lam)) @ V.conj().T
    hc = 0.5 * (hc + hc.conj().T)
    levels = np.indices((dim,) * n).reshape(n, -1)  # the level of each mode, per index
    stride = dim ** np.arange(n - 1, -1, -1)
    gen = np.zeros((dim**n, dim**n), dtype=complex)
    for j in range(n):
        for k in range(n):
            # a_j† a_k takes index q, where mode k is not empty, to
            # q + stride_j - stride_k, unless mode j overflows.
            up = levels[j] - (j == k)
            q = np.flatnonzero((levels[k] > 0) & (up < dim - 1))
            gen[q + stride[j] - stride[k], q] += hc[j, k] * np.sqrt(levels[k, q] * (up[q] + 1.0))
    return _block_expi(gen, levels.sum(0))


def squeeze_unitary(z: np.ndarray, dim: int) -> np.ndarray:
    """Product of single-mode squeezers, ``Q_k -> exp(z_k) Q_k``.

    Each factor ``exp(z_k (a†² - a²) / 2)`` is exponentiated in its own
    single-mode basis, one ``eigh`` per level parity, and the results are
    Kronecker-multiplied, which keeps the exponentials small and well
    conditioned.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _check_size(dim, z.size)
    a = _destroy(dim)
    parity = np.arange(dim) % 2
    return _kron_modes([_block_expi(0.5j * z_k * (a.T @ a.T - a @ a), parity) for z_k in z])


def displacement_unitary(d: np.ndarray, dim: int) -> np.ndarray:
    """Product of single-mode displacements shifting moments by ``d``.

    The displacement ``exp(alpha a† - conj(alpha) a)`` of a mode is the Weyl
    factor of :func:`identity_checks` at ``beta = i alpha``.
    """
    d = np.asarray(d, dtype=float)
    n = d.size // 2
    _check_size(dim, n)
    return _kron_modes(_weyl_factors(1j * (d[:n] + 1j * d[n:]) / _SQRT2, dim))


@dataclass(frozen=True)
class TruncatedState:
    """Density matrix of a Gaussian state on a truncated Fock basis.

    Attributes:
        n: mode count.
        cutoff: per-mode Fock dimension.
        rho: ``cutoff**n`` square Hermitian PSD matrix; its trace is
            ``1 - tail_mass`` and is never silently renormalized.
        tail_mass: probability weight lost to truncation.
    """

    n: int
    cutoff: int
    rho: np.ndarray
    tail_mass: float


def _cutoff_for(point: GaussianModelPoint, bound: float) -> int:
    """Smallest per-mode cutoff (at least 8) that a closed-form bound
    certifies to lose at most ``bound``, floored at the smallest normal
    float; see :func:`suggested_cutoff`."""
    n, bound = point.n, max(bound, np.finfo(float).tiny)
    worst = 0.0
    for k in range(n):
        idx = [k, n + k]
        lam, V = np.linalg.eigh(point.gamma[np.ix_(idx, idx)])
        p = (V.T @ point.d[idx]) ** 2
        s = _MARKOV_U / lam[-1]
        gap = 1.0 - _MARKOV_U[:, None] * (lam / lam[-1])  # 1 - s lam, exact at the top
        log_mean = np.log1p(-s) - 0.5 * np.log(gap).sum(1) + s * (p / gap).sum(1)
        levels = (log_mean - math.log(bound / n)) / (np.log1p(s) - np.log1p(-s))
        worst = max(worst, float(levels.min()))
    return max(8, math.ceil(worst))


def suggested_cutoff(point: GaussianModelPoint) -> int:
    """Per-mode dimension at which :func:`build_state` meets its default
    tail bound, ``tail_mass <= 1e-3``.

    The crop loses ``P(some n_k >= c) <= sum_k P(n_k >= c)``, and Markov's
    inequality gives ``P(n_k >= c) <= E[x^n_k] / x^c`` for ``x > 1``.  With
    ``x = (1 + s)/(1 - s)``, ``0 < s < 1/lambda_max(Gamma_k)``, the mean is
    the Gaussian integral ``(1 - s) det(I - s Gamma_k)^(-1/2)
    exp(s d_k^T (I - s Gamma_k)^-1 d_k)`` over mode ``k``'s moments.  The
    cutoff is the least ``c`` (at least 8) that takes each term to
    ``1e-3 / n`` at the best of 800 fixed ``s``.  It is closed form, so it
    sizes states too large to build, and a true bound, so it never suggests
    a cutoff that fails the tail bound (it may suggest one above the size
    limit of the module docstring, which the oracle then refuses); it
    overshoots by up to 1.6x on squeezed modes (49 where 30 passes on
    ``phase_squeezed`` r 1, nu 1.5).
    """
    return _cutoff_for(point, _TAIL_BOUND)


def _format_bytes(size: float) -> str:
    """A memory size, e.g. ``31 GB``."""
    for unit in ("B", "kB", "MB", "GB", "TB"):
        if size < 1000.0:
            break
        size /= 1000.0
    return f"{size:.0f} {unit}" if size >= 10.0 else f"{size:.2g} {unit}"


def _dense_size(cutoff: int, n: int) -> str:
    """Memory of one dense ``cutoff^n`` square complex matrix, e.g. ``31 GB``."""
    return _format_bytes(float(cutoff) ** (2 * n) * 16)


def _ket_bytes(dim: int, n: int) -> float:
    """Most memory the ket route holds at once on ``dim`` levels per mode.

    That is ``2n + 5`` complex arrays of ``dim**n`` entries and 128 bytes a
    level.  The ket, its tangent and its ``n`` raised kets (``n + 2``) are
    kept; beside them the tangent's ``dA`` product (``n``) and two
    temporaries are alive while it is formed, and a copy of the kept block
    of all ``n + 2`` and one temporary while the QFI reads it.  The bytes a
    level hold the three lists of Python complex numbers that run the
    recurrence's last index (three times 40 bytes), the largest term on one
    mode.  Measured peaks (``tracemalloc``) stay within it on one to four
    modes."""
    return 16.0 * (2 * n + 5) * float(dim) ** n + 128.0 * dim


def _ket_size(dim: int, n: int) -> str:
    """:func:`_ket_bytes` as text, e.g. ``31 MB``."""
    return _format_bytes(_ket_bytes(dim, n))


def _max_dim(n: int, ket: bool = False) -> int:
    """Most levels per mode whose dense ``dim**n`` square complex matrix
    (or, with ``ket``, whose ket route) takes at most ``_MAX_BYTES``."""
    if not ket:
        return int((_MAX_BYTES / 16.0) ** (1.0 / (2 * n)) * (1.0 + 1e-12))
    # Bisect between the level counts that fit with 128 bytes a level
    # counted per entry (lo) and that fail on the arrays alone (hi).
    lo = int((_MAX_BYTES / (16.0 * (2 * n + 5) + 128.0)) ** (1.0 / n))
    hi = int((_MAX_BYTES / (16.0 * (2 * n + 5))) ** (1.0 / n)) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _ket_bytes(mid, n) <= _MAX_BYTES else (lo, mid)
    return lo


def _check_size(dim: int, n: int, ket: bool = False) -> None:
    """Refuse, before anything is allocated, a basis of ``dim`` levels on
    ``n`` modes above the size limit of the module docstring: that of a
    dense matrix, or with ``ket`` that of the ket route."""
    top = _max_dim(n, ket)
    if dim > top:
        what, size, per = ("ket", _ket_size, "with its tangent") if ket else (
            "basis", _dense_size, "per dense matrix")
        raise ConfigError(
            f"a Fock {what} of {dim} levels on {n} modes needs {size(dim, n)} {per}; "
            f"the oracle builds at most {top} levels on {n} modes ({size(top, n)})"
        )


@functools.lru_cache(maxsize=2)
def _bargmann_frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``W`` of ``(a, a†) = W R`` and the swap ``X`` of the halves of ``v``
    on ``n`` modes, formed once per ``n`` and kept read-only."""
    eye = np.eye(n)
    W = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / _SQRT2
    X = np.roll(np.eye(2 * n), n, axis=1)
    for table in (W, X):
        table.setflags(write=False)
    return W, X


def _generating_function(point: GaussianModelPoint, tangent: bool = False):
    """``(A, gamma, G0)`` of the module docstring and, with ``tangent``,
    their derivative ``(dA, dgamma, d log G0)`` along ``(dd, dGamma)`` (else
    None)."""
    n, m = point.n, 2 * point.n
    W, X = _bargmann_frame(n)
    Q = 0.5 * (W @ point.gamma @ W.conj().T + np.eye(m))
    Qi = np.linalg.inv(Q)
    A = (np.eye(m) - Qi) @ X
    zeta = W @ point.d
    gam = Qi @ zeta
    G0 = np.exp(-0.5 * (zeta.conj() @ gam).real) / np.sqrt(np.linalg.det(Q).real)
    if not tangent:
        return (A, gam, G0), None
    dQ = 0.5 * W @ point.dgamma @ W.conj().T
    dzeta = W @ point.dd
    dgam = Qi @ (dzeta - dQ @ gam)
    dlog = (0.5 * gam.conj() @ dQ @ gam - gam.conj() @ dzeta - 0.5 * np.trace(Qi @ dQ)).real
    return (A, gam, G0), (Qi @ dQ @ Qi @ X, dgam, dlog)


def _raising(m: int, dim: int) -> tuple[list, list, list]:
    """Raising index ``j`` of an ``m``-index array on ``dim`` levels
    (``k_j -> k_j + 1`` with weight ``sqrt(k_j + 1)``): the same slice of
    every array, counted from its last axis.  Returns the ``up`` and
    ``down`` slices and the weights, one per index."""
    root = np.sqrt(np.arange(dim))
    trail = [(slice(None),) * (m - 1 - j) for j in range(m)]
    up = [(..., slice(1, None)) + t for t in trail]
    down = [(..., slice(None, -1)) + t for t in trail]
    weight = [root[1:].reshape((-1,) + (1,) * len(t)) for t in trail]
    return up, down, weight


def _recurrence(A: np.ndarray, gam: np.ndarray, G0: float, dim: int) -> np.ndarray:
    """The coefficients of ``G0 exp(v^T A v / 2 + gam^T v)`` on ``dim``
    levels of each of the ``len(gam)`` indices of ``v``, by the recurrence
    of the module docstring.

    Index ``i`` is filled last to first: with indices ``0..i-1`` at 0, step
    ``k -> k + 1`` of index ``i`` is one vector operation over the rest; the
    last index is a chain of scalars, run in Python complex arithmetic.
    """
    m = len(gam)
    root = np.sqrt(np.arange(dim))
    # Times 1/sqrt(k + 1), which rounds as numpy's division by sqrt(k + 1) does.
    scale = (1.0 / root[1:]).astype(complex).tolist()
    up, down, weight = _raising(m, dim)
    g, diag = complex(gam[-1]), (A[-1, -1] * root).tolist()
    chain = [complex(G0)]
    for k in range(dim - 1):
        nxt = g * chain[k]
        if k:
            nxt += diag[k] * chain[k - 1]
        chain.append(nxt * scale[k])
    G = np.array(chain)
    for i in reversed(range(m - 1)):
        out = np.empty((dim,) + G.shape, dtype=complex)
        out[0] = G
        rows = list(out)
        g, diag = complex(gam[i]), (A[i, i] * root).tolist()
        raises = [
            (A[i, j] * weight[j], [r[up[j]] for r in rows], [r[down[j]] for r in rows])
            for j in range(i + 1, m)
        ]
        for k in range(dim - 1):
            nxt = rows[k + 1]
            np.multiply(g, rows[k], out=nxt)
            if k:
                nxt += diag[k] * rows[k - 1]
            for w, tops, lows in raises:
                top = tops[k + 1]
                top += w * lows[k]
            nxt *= scale[k]
        G = out
    return G


def _raise_tangent(
    G: np.ndarray, dA: np.ndarray, dgam: np.ndarray, dlog: float
) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients ``dG`` of ``F (v^T dA v / 2 + dgam^T v + dlog)``
    when those of ``F`` are ``G``, and the raised stack: ``raised[j]`` holds
    those of ``v_j F``.

    ``dG = dlog G + sum_i raise_i(dgam_i G + sum_j dA_ij raise_j(G) / 2)``,
    exact at every index of ``G``.
    """
    m = G.ndim
    up, down, weight = _raising(m, G.shape[0])
    raised = np.zeros((m,) + G.shape, dtype=complex)
    for j in range(m):
        raised[j][up[j]] = weight[j] * G[down[j]]
    # Scaled and summed in place, so at most one term is held beside the stacks.
    half = (dA @ raised.reshape(m, -1)).reshape(raised.shape)
    half *= 0.5
    dG = dlog * G
    for i in range(m):
        term = dgam[i] * G[down[i]]
        term += half[i][down[i]]
        term *= weight[i]
        target = dG[up[i]]
        target += term
    return dG, raised


def _flushed(G: np.ndarray) -> np.ndarray:
    """``G`` with its elements below ``eps^2`` of the largest set to 0, in
    place: far below the rounding of anything read from ``rho``, many are
    rounding residue of exact zeros, and as subnormal numbers they slowed
    ``eigh`` 2.4x."""
    mag = np.abs(G)
    G[mag < _EPS**2 * mag.max()] = 0.0
    return G


def _bargmann(point: GaussianModelPoint, dim: int, tangent: bool = False):
    """``rho`` on ``dim`` levels per mode by the recurrence of the module
    docstring over its ``2n`` indices and, with ``tangent``, its exact
    derivative along ``(dd, dGamma)`` (else None); both Hermitian,
    ``dim**n`` square, and ``rho`` :func:`_flushed`."""
    n = point.n
    (A, gam, G0), tan = _generating_function(point, tangent)
    G = _flushed(_recurrence(A, gam, G0, dim))
    rho = G.reshape(dim**n, dim**n)
    rho = 0.5 * (rho + rho.conj().T)
    if not tangent:
        return rho, None
    drho = _raise_tangent(G, *tan)[0].reshape(dim**n, dim**n)
    return rho, 0.5 * (drho + drho.conj().T)


def _ket(point: GaussianModelPoint, dim: int, tangent: bool = False):
    """The ket ``psi`` of a pure ``point`` on ``dim`` levels per mode, an
    ``n``-index array, and with ``tangent`` ``(dpsi, raised, cross)`` (else
    None).

    A pure state's generating function factorises as
    ``F(x, y) = psi(x) conj(psi(y))``, ``psi(x) = sqrt(G0) exp(x^T A_xx x / 2
    + gamma_x^T x)`` on the ket blocks ``A_xx = A[:n, :n]`` and
    ``gamma_x = gamma[:n]``, so ``psi`` is :func:`_recurrence` on the ``n``
    ket indices.  Its tangent is :func:`_raise_tangent` with
    ``dA[:n, :n]``, ``dgamma[:n]`` and ``d log G0 / 2``, and
    ``raised[i] = a_i† psi``.  The bra-ket block of ``dA`` adds
    ``sum_ij C_ij raised_i raised_j^H`` to ``drho``, ``C = cross``
    Hermitian: it vanishes, to rounding, on a tangent that keeps the state
    pure, and is what a tangent that heats or cools it adds.  So
    ``drho = dpsi psi^H + psi dpsi^H + raised^T C raised^*``.
    """
    n = point.n
    (A, gam, G0), tan = _generating_function(point, tangent)
    psi = _recurrence(A[:n, :n], gam[:n], np.sqrt(G0), dim)
    if not tangent:
        return psi, None
    dA, dgam, dlog = tan
    dpsi, raised = _raise_tangent(psi, dA[:n, :n], dgam[:n], 0.5 * dlog)
    cross = 0.5 * (dA[:n, n:] + dA[n:, :n].T)
    return psi, (dpsi, raised, 0.5 * (cross + cross.conj().T))


def _gate(point: GaussianModelPoint, cutoff: int, dim: int, dense: bool = False) -> bool:
    """The oracle's input gates for ``cutoff``; returns whether the point is
    pure, every mode vacuum by the kernel rule (:func:`_vacuum_modes`).

    A pure point is sized as a ket of ``dim`` levels per mode unless the
    caller builds a ``dense`` matrix on them; a mixed one always as dense.
    """
    if cutoff < 8:
        raise ConfigError(f"cutoff must be at least 8, got {cutoff}")
    frame = point._frame
    pure = bool(_vacuum_modes(frame.nu, frame.rounding).all())
    _check_size(dim, point.n, ket=pure and not dense)
    _require_state(float(frame.nu[-1]), frame.rounding)
    return pure


def _block(M: np.ndarray, n: int, cutoff: int) -> np.ndarray:
    """The leading ``cutoff`` levels per mode of the Fock matrix ``M``."""
    dim = round(M.shape[0] ** (1.0 / n))
    return M.reshape((dim,) * 2 * n)[(slice(cutoff),) * 2 * n].reshape(cutoff**n, cutoff**n)


def _require_tail(
    point: GaussianModelPoint,
    tail: float,
    cutoff: int,
    tail_bound: float = _TAIL_BOUND,
    ket: bool = False,
) -> None:
    """The tail rule: refuse a truncation at ``cutoff`` that loses ``tail``
    above ``tail_bound``, with the cutoff that would meet it, its memory as
    a dense state and, on the ket route (``ket``), as a ket."""
    if tail > tail_bound:
        n, suggested = point.n, _cutoff_for(point, tail_bound)
        advice = f"suggested cutoff is {suggested} ({_dense_size(suggested, n)} dense state)"
        if suggested > _max_dim(n):
            limit = "dense" if ket else "oracle's"
            advice += f", above the {limit} size limit of {_max_dim(n)} levels"
        if ket:
            advice += f"; a ket with its tangent takes {_ket_size(suggested, n)}"
            if suggested > _max_dim(n, ket=True):
                advice += f", above the ket size limit of {_max_dim(n, ket=True)} levels"
        raise PreconditionError(
            "tail_mass",
            f"truncation at cutoff {cutoff} loses {tail:.3e} > {tail_bound:.3e}; {advice}",
        )


def _kept(
    point: GaussianModelPoint, rho: np.ndarray, cutoff: int, tail_bound: float = _TAIL_BOUND
) -> TruncatedState:
    """The leading ``cutoff`` levels of ``rho``, held to the tail rule."""
    rho = _block(rho, point.n, cutoff)
    tail = float(1.0 - np.trace(rho).real)
    _require_tail(point, tail, cutoff, tail_bound)
    return TruncatedState(n=point.n, cutoff=cutoff, rho=rho, tail_mass=tail)


def _kept_ket(
    point: GaussianModelPoint, psi: np.ndarray, tangent: tuple, cutoff: int, ket: bool = True
) -> tuple:
    """The leading ``cutoff`` levels of ``psi``, ``dpsi`` and ``raised`` of
    :func:`_ket`, flattened, and ``cross``; ``psi psi^H`` held to the tail
    rule, whose advice quotes the ket route's memory unless the caller is
    sized as dense (``ket`` false)."""
    dpsi, raised, cross = tangent
    block = (slice(cutoff),) * point.n
    psi, dpsi = psi[block].ravel(), dpsi[block].ravel()
    raised = raised[(slice(None),) + block].reshape(point.n, -1)
    _require_tail(point, float(1.0 - np.vdot(psi, psi).real), cutoff, ket=ket)
    return psi, dpsi, raised, cross


def _require_psd(low: float) -> None:
    """Refuse a constructed state whose smallest eigenvalue ``low`` is below
    ``-1e-10``."""
    if low < -1e-10:
        raise ConvergenceError(f"constructed state has eigenvalue {low:.3e} < 0")


def _checked(
    point: GaussianModelPoint, rho: np.ndarray, cutoff: int, tail_bound: float = _TAIL_BOUND
) -> TruncatedState:
    """:func:`_kept`, then the eigenvalue rule on the kept state: the
    Cholesky factor of ``rho + 1e-10 I`` fails exactly when an eigenvalue is
    below ``-1e-10`` (to its rounding, about ``dim eps |rho|``), and only
    then does ``eigvalsh`` run, to name that eigenvalue."""
    state = _kept(point, rho, cutoff, tail_bound)
    try:
        np.linalg.cholesky(state.rho + 1e-10 * np.eye(len(state.rho)))
    except np.linalg.LinAlgError:
        _require_psd(np.linalg.eigvalsh(state.rho)[0])
    return state


def build_state(
    point: GaussianModelPoint,
    cutoff: int,
    pad: int = 12,
    tail_bound: float = _TAIL_BOUND,
) -> TruncatedState:
    """Construct the density matrix of a Gaussian state.

    Reads the elements ``<m|rho|k>``, every ``m_j, k_j < cutoff``, from the
    Bargmann recurrence of the module docstring over the ``2n`` indices of
    ``rho``, on a pure state as on a mixed one.  Each is exact, so no
    Euler layer or padded basis is formed.

    Args:
        point: moments to realize (derivatives are ignored).
        cutoff: per-mode Fock dimension of the returned state.
        pad: ignored, as ``rho`` is the same for every ``pad``; it stays
            because the benchmark's tracer reads it from every call.
        tail_bound: maximum acceptable tail_mass; ``np.inf`` disables the
            check.

    Raises:
        ConfigError: ``cutoff < 8``, or a basis above the size limit of
            the module docstring (at most 64 levels on two modes, 16 on
            three).
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see ``validate_covariance``), or
            flag ``"tail_mass"`` when the truncation loses more weight than
            ``tail_bound`` (the message suggests a cutoff that meets
            ``tail_bound``, sized as in :func:`suggested_cutoff`, gives the
            memory of a dense state at it, and says when that cutoff is
            above the size limit).
        ConvergenceError: if (after the tail) the constructed matrix has an
            eigenvalue below ``-1e-10``: the Cholesky factor of
            ``rho + 1e-10 I`` fails, and ``eigvalsh`` names the eigenvalue.
    """
    _gate(point, cutoff, cutoff, dense=True)
    return _checked(point, _bargmann(point, cutoff)[0], cutoff, tail_bound)


def state_moments(state: TruncatedState) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments ``(d, gamma)`` extracted from the matrix.

    Moments are taken with respect to the truncated state normalized on its
    support, so deviations from the exact values measure truncation error
    only.  Both come from one-mode factors (:func:`_moments`).
    """
    expect = functools.partial(_mode_traces, state.rho)
    return _moments(expect, np.trace(state.rho).real, state.n, state.cutoff)[:2]


def _solve_sld_eigenbasis(eig: tuple[np.ndarray, np.ndarray], drho: np.ndarray) -> float:
    """QFI ``sum 2 |<m|drho|n>|^2 / (p_m + p_n)`` from the eigenbasis formula.

    ``eig`` is ``np.linalg.eigh(rho)``.  Eigenpairs with
    ``p_m + p_n <= 1e-12 * max(p)`` are left out of the sum.
    """
    p, V = eig
    M = V.conj().T @ drho @ V
    denom = p[:, None] + p[None, :]
    keep = denom > 1e-12 * p.max()
    return float(np.sum(2.0 * np.abs(M[keep]) ** 2 / denom[keep]))


def _qfi(state: TruncatedState, drho: np.ndarray) -> float:
    """The eigenbasis QFI of ``state`` and the matching block of ``drho``;
    the one ``eigh`` also serves the eigenvalue rule."""
    eig = np.linalg.eigh(state.rho)
    _require_psd(eig[0][0])
    return _solve_sld_eigenbasis(eig, _block(drho, state.n, state.cutoff))


def _ket_qfi(psi: np.ndarray, dpsi: np.ndarray, raised: np.ndarray, cross: np.ndarray) -> float:
    """:func:`_solve_sld_eigenbasis` on ``rho = psi psi^H`` and
    ``drho = dpsi psi^H + psi dpsi^H + raised^T C raised^*``, in closed
    form, with no ``eigh``.

    The pairs the eigenbasis formula keeps all involve ``psi``, so with
    ``p = |psi|^2`` it is ``M00^2 / p + 4 |P drho psi|^2 / p^2``, ``P`` the
    projector off ``psi``.  With ``w = raised^T C raised^* psi``,
    ``r = <psi|w> / p``, ``e = dpsi + w / p`` and ``t = <psi|e>`` that is
    ``4 (|e|^2 - (Im t)^2 / p) + r (r - 4 Re t) / p``: for ``C = 0``,
    ``4 (|dpsi|^2 - (Im <psi|dpsi>)^2 / p)``.
    """
    p = np.vdot(psi, psi).real
    w = raised.T @ (cross @ np.array([np.vdot(row, psi) for row in raised]))
    r = np.vdot(psi, w).real / p
    e = w  # dpsi + w / p, formed in place
    e /= p
    e += dpsi
    t = np.vdot(psi, e)
    return float(4.0 * (np.vdot(e, e).real - t.imag**2 / p) + r * (r - 4.0 * t.real) / p)


def _tangent_elements(point: GaussianModelPoint, cutoff: int, dim: int):
    """The gates, then ``(pure, psi, tangent)`` of :func:`_ket` on a pure
    point, else ``(pure, rho, drho)`` of :func:`_bargmann`, on ``dim``
    levels."""
    if _gate(point, cutoff, dim):
        return True, *_ket(point, dim, tangent=True)
    return False, *_bargmann(point, dim, tangent=True)


def _block_qfi(point: GaussianModelPoint, elements: tuple, cutoff: int) -> float:
    """The QFI of the leading ``cutoff`` block of :func:`_tangent_elements`,
    held to the gates of :func:`build_state`: by :func:`_ket_qfi` on a pure
    point (``psi psi^H`` is positive semidefinite, so the eigenvalue rule
    holds), else by :func:`_qfi`."""
    pure, state, tangent = elements
    if pure:
        return _ket_qfi(*_kept_ket(point, state, tangent, cutoff))
    return _qfi(_kept(point, state, cutoff), tangent)


def qfi_fock(family: ModelFamily, theta: float, cutoff: int) -> float:
    """Quantum Fisher information computed entirely in the Fock basis.

    Reads the state and its exact derivative at ``theta`` from one Bargmann
    recurrence on the family's moments and tangent, and applies the gates
    of :func:`build_state`.  A mixed state's ``rho`` has ``cutoff**(2n)``
    elements: the symmetric-logarithmic-derivative equation is solved in
    its eigenbasis, and the QFI is ``tr[rho L²]``.  A pure state is read
    from its ket, ``cutoff**n`` elements, and the same eigenbasis formula
    on ``rho = psi psi^H`` is taken in closed form,
    ``4 (|dpsi|^2 - (Im <psi|dpsi>)^2 / |psi|^2)`` on the kept block for a
    tangent that keeps the state pure, with no eigendecomposition.
    """
    point = family.point(theta)
    return _block_qfi(point, _tangent_elements(point, cutoff, cutoff), cutoff)


@dataclass(frozen=True)
class FockConvergence:
    """Convergence probe around a single oracle evaluation.

    ``cutoff_shift`` is the change when the basis grows to ``cutoff + 10``.
    A small shift certifies that truncation does not dominate the reported
    value; with an exact ``drho`` there is no step to probe.
    """

    value: float
    cutoff_value: float
    cutoff_shift: float


def qfi_fock_probe(family: ModelFamily, theta: float, cutoff: int) -> FockConvergence:
    """Oracle value plus its sensitivity to the cutoff.

    ``value`` and ``cutoff_value`` equal :func:`qfi_fock` at ``cutoff`` and
    ``cutoff + 10``.  Both come from one recurrence on ``cutoff + 10``
    levels, of ``rho`` or, on a pure state, of the ket: every element is
    exact at any index, so ``value`` reads its leading ``cutoff`` block.
    Each block passes the gates of :func:`build_state`.
    """
    return _probe(family.point(theta), cutoff)


def _probe(point: GaussianModelPoint, cutoff: int) -> FockConvergence:
    """:func:`qfi_fock_probe` at ``point``."""
    elements = _tangent_elements(point, cutoff, cutoff + 10)
    value = _block_qfi(point, elements, cutoff)
    cutoff_value = _block_qfi(point, elements, cutoff + 10)
    return FockConvergence(value, cutoff_value, abs(cutoff_value - value))


def _sld_matrix(coeffs: SLDCoefficients, d: np.ndarray, cutoff: int) -> np.ndarray:
    """Assemble the SLD observable as a Fock matrix.

    Returns ``sum_ij L_ij (R-d)_i (R-d)_j + sum_i b_i (R-d)_i + c`` (the
    quadratic term is automatically Hermitian because ``L`` is symmetric)
    as ``c + sum_i dR_i B_i``: each ``B_i = sum_j L_ij dR_j + b_i`` is a sum
    of one-mode terms, so ``L̂`` is a sum of Kronecker products of one-mode
    factors, and no two ``cutoff**n`` square matrices are multiplied.
    """
    m, n, eye = d.size, d.size // 2, np.eye(cutoff)
    own = np.arange(m) % n  # the mode of R_i
    x = _mode_quadratures(n, cutoff)[np.arange(m), own] - d[:, None, None] * eye
    # bracket[i, k]: B_i's mode-k term sum_s L_i(s,k) dR_(s,k), plus b_i on R_i's mode.
    bracket = (coeffs.L.reshape(m, 2, n, 1, 1) * x.reshape(2, n, cutoff, cutoff)).sum(1)
    bracket[np.arange(m), own] += coeffs.b[:, None, None] * eye
    # dR_i times B_i's term on its own mode, summed per mode: one mode takes two products.
    local = (x @ bracket[np.arange(m), own]).reshape(2, n, cutoff, cutoff).sum(0)
    local[0] += coeffs.c * eye
    # Each term maps modes to factors, the identity on the modes it omits.
    terms = [{k: local[k]} for k in range(n)]
    terms += [{own[i]: x[i], k: bracket[i, k]} for i in range(m) for k in range(n) if k != own[i]]
    return sum(_kron_modes([t.get(k, eye) for k in range(n)]) for t in terms)


def _ket_trace_norm(
    psi: np.ndarray, u: np.ndarray, raised: np.ndarray, cross: np.ndarray
) -> float:
    """``|| u psi^H + psi u^H + raised^T C raised^* ||_1``, of rank
    ``n + 2`` at most.

    The matrix is ``B K B^H`` on the columns ``B = (psi, u, raised_1..n)``
    with ``K = [[0, 1], [1, 0]] ⊕ C``; with ``B = Q R`` its nonzero
    eigenvalues are those of the small ``R K R^H``.  Householder QR keeps
    each column to its own relative rounding, so a ``u`` at rounding level
    is read at rounding level.
    """
    B = np.column_stack([psi, u, raised.T])
    R = np.linalg.qr(B, mode="r")
    K = np.zeros((B.shape[1],) * 2, dtype=complex)
    K[0, 1] = K[1, 0] = 1.0
    K[2:, 2:] = cross
    return float(np.abs(np.linalg.eigvalsh(R @ K @ R.conj().T)).sum())


def sld_residual(point: GaussianModelPoint, coeffs: SLDCoefficients, cutoff: int) -> float:
    """Trace-norm defect of the SLD equation for the given coefficients.

    Reads the state and its exact derivative along the point's own tangent
    ``(dd, dgamma)`` from one Bargmann recurrence, and returns
    ``|| drho - (rho L + L rho)/2 ||_1`` on the leading ``cutoff`` levels.
    ``L`` couples levels at most 2 apart, so it is formed on ``cutoff + 2``
    levels, applied and cropped: every kept element is then exact, and a
    correct coefficient set leaves rounding only (1e-14 on
    ``phase_squeezed`` r 1 at ``theta = 0.7``, pure and with ``nu = 1.5``,
    at :func:`suggested_cutoff`).  A wrong one leaves an O(1) defect, as
    does a tangent that leaves the state set, where no SLD exists (a pure
    state heated or cooled).  The kept state passes the gates of
    :func:`build_state`.

    On a mixed state the defect is formed densely, ``drho - (rho L + L
    rho)/2``, and its singular values summed.  On a pure state, with
    ``u = dpsi - L psi / 2``, it is ``u psi^H + psi u^H`` plus the tangent's
    bra-ket term of :func:`_ket`, and its trace norm is read from an
    ``(n + 2)``-square problem (:func:`_ket_trace_norm`), with no dense
    product and no SVD.
    """
    big = cutoff + 2
    if _gate(point, cutoff, big, dense=True):
        psi, tangent = _ket(point, big, tangent=True)
        Lpsi = (_sld_matrix(coeffs, point.d, big) @ psi.ravel()).reshape(psi.shape)
        dpsi, raised, cross = tangent
        kept = _kept_ket(point, psi, (dpsi - 0.5 * Lpsi, raised, cross), cutoff, ket=False)
        return _ket_trace_norm(*kept)
    rho, drho = _bargmann(point, big, tangent=True)
    _checked(point, rho, cutoff)
    Lhat = _sld_matrix(coeffs, point.d, big)
    resid = _block(drho - 0.5 * (rho @ Lhat + Lhat @ rho), point.n, cutoff)
    return float(np.linalg.svd(resid, compute_uv=False).sum())


@dataclass(frozen=True)
class IdentityReport:
    """Maximum absolute deviations of the Fock state from Gaussian identities.

    Attributes:
        displacement_dev: first moments vs the exact ``d``.
        covariance_dev: symmetrized second moments vs the exact ``gamma``.
        char_dev: characteristic function ``tr[rho W(xi)]`` vs the Gaussian
            closed form over sampled ``xi``.
        fourth_moment_dev: symmetrized fourth moments vs the Wick-type
            pairing formula built from ``gamma`` and the symplectic form.
        tail_mass: truncation weight of the state used for the checks.
    """

    displacement_dev: float
    covariance_dev: float
    char_dev: float
    fourth_moment_dev: float
    tail_mass: float


def _mode_traces(rho: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """``tr[rho (F_1 ⊗ ... ⊗ F_n)]`` for every row ``(F_1, ..., F_n)`` of
    the ``(P, n, dim, dim)`` stack ``factors`` (mode 1 outermost).

    ``rho``'s index tensor is contracted one mode at a time, so no
    ``dim**n`` square operator is formed.
    """
    P, n, dim = factors.shape[0], factors.shape[1], factors.shape[-1]
    # tr[rho F] = sum_ab rho_ab F_ba: mode k's ket and bra axes side by side.
    t = rho.reshape((dim,) * 2 * n).transpose(np.arange(2 * n).reshape(2, n).T.ravel())
    f = np.swapaxes(factors, -1, -2).reshape(P, n, dim * dim)
    out = f[:, 0] @ t.reshape(dim * dim, -1)
    for k in range(1, n):
        out = np.einsum("pi,pij->pj", f[:, k], out.reshape(P, dim * dim, -1))
    return out[:, 0]


def _ket_traces(psi: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """``<psi|F_1 ⊗ ... ⊗ F_n|psi>`` for every row ``(F_1, ..., F_n)`` of
    the ``(P, n, dim, dim)`` stack ``factors``, ``psi`` an ``n``-index array:
    :func:`_mode_traces` on ``rho = psi psi^H``.

    The factors act on ``psi``'s index tensor one mode at a time, so no
    ``dim**n`` square operator or matrix is formed.
    """
    P, n, dim = factors.shape[0], factors.shape[1], factors.shape[-1]
    out = factors[:, 0] @ psi.reshape(dim, -1)
    for k in range(1, n):
        out = factors[:, k, None] @ out.reshape(P, dim**k, dim, -1)
    return out.reshape(P, -1) @ psi.conj().ravel()


def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``i <= j`` of ``m`` indices, in ``np.triu_indices``
    order, from Python ranges, which at these sizes cost a few microseconds
    where ``np.triu_indices`` costs tens."""
    i, j = zip(*[(a, b) for a in range(m) for b in range(a, m)])
    return np.array(i), np.array(j)


def _moments(expect, norm: float, n: int, dim: int, centre: np.ndarray | None = None):
    """Mean ``d``, covariance, and the one-mode factors of the symmetrised
    pairs ``(dR_i dR_j + dR_j dR_i)/2``, ``i <= j`` in :func:`_pairs`
    order, of the quadratures of :func:`_mode_quadratures` on ``n`` modes of
    ``dim`` levels centred at ``centre`` (default: the mean).  Each
    expectation is ``expect(factors) / norm``: ``tr[rho F]`` by
    :func:`_mode_traces` or ``<psi|F|psi>`` by :func:`_ket_traces`, with
    ``norm`` the trace of ``rho`` or ``|psi|^2``.

    On each mode the one-mode factors of ``dR_i`` and ``dR_j`` commute
    unless both act there (one is the identity), so the pair is the
    Kronecker product of the symmetrised one-mode products.  The covariance
    is ``2 (<pairs> - shift shift^T)``, ``shift = d - centre``: moved to the
    mean, at rounding level for a centre near it.
    """
    m = 2 * n
    R = _mode_quadratures(n, dim)
    d = expect(R).real / norm
    centre = d if centre is None else centre
    R = R.copy()
    R[np.arange(m), np.arange(m) % n] -= centre[:, None, None] * np.eye(dim)
    i, j = _pairs(m)
    prod = R[i] @ R[j]
    pair = 0.5 * (prod + np.swapaxes(prod.conj(), -1, -2))
    second = np.empty((m, m))
    second[i, j] = second[j, i] = expect(pair).real / norm
    shift = d - centre
    return d, 2.0 * (second - np.outer(shift, shift)), pair


def _weyl_factors(beta: np.ndarray, dim: int) -> np.ndarray:
    """``exp(-i H)`` for ``H = beta a† + conj(beta) a`` on one mode, stacked
    over the entries of ``beta``.

    ``H = |beta| D T D^H`` with the ladder chain ``T = a + a†`` and
    ``D = diag(exp(i k arg beta))``, so ``exp(-i H)`` is
    ``D V exp(-i |beta| Lambda) V^T D^H`` on the cached real ``eigh``
    ``(Lambda, V)`` of ``T`` (:func:`_ladder_chain`).  The one chain fills
    the matrix, so nothing is scattered, and ``V`` times the complex
    ``exp(-i |beta| Lambda) V^T`` is one real product over its interleaved
    real and imaginary parts.  The phases ``D ... D^H`` are applied in place
    on that product, so the stack holds two arrays of its size at most.
    """
    lam, V = _ladder_chain(dim)
    spread = np.exp(-1j * np.abs(beta)[..., None] * lam)[..., :, None]
    spread = np.multiply(spread, V.T, order="C")
    phase = np.exp(1j * np.angle(beta)[..., None] * np.arange(dim))
    core = (V @ spread.view(float)).view(complex)
    # D ... D^H in place.  Swapping the operands of a complex product can move
    # its last bit in numpy, so they keep the order of phase * core * conj(phase).
    np.multiply(phase[..., :, None], core, out=core)
    return np.multiply(core, phase.conj()[..., None, :], out=core)


def identity_checks(point: GaussianModelPoint, cutoff: int) -> IdentityReport:
    """Check the standard Gaussian-state identities on the Fock state.

    Verifies moment recovery, the Gaussian characteristic function at 12
    phase-space points drawn uniformly from the ball ``|xi| <= 2`` (seed 7),
    and the factorization of symmetrized fourth moments
    ``<(dR_i o dR_j) o (dR_k o dR_l)>`` into covariance/symplectic-form
    pairs.  The state is read with no tail bound; truncation quality is
    part of the report.

    A mixed point reads the dense ``rho`` of :func:`build_state`, held to
    its eigenvalue rule by one Cholesky factor of ``rho + 1e-10 I``, and
    each expectation is ``tr[rho F]``.  A pure point is read from its ket, the
    recurrence on its ``n`` ket indices (:func:`_ket`), and each expectation
    is ``<psi|F|psi>``, with ``tr rho = |psi|^2``: no ``cutoff**(2n)``
    entries are formed and nothing is diagonalised, as ``psi psi^H`` is
    positive semidefinite.  Both routes are sized as dense (the size rule of
    the module docstring).

    Every operator read is a Kronecker product of one-mode
    ``cutoff x cutoff`` factors: the quadratures, their symmetrised pairs
    and the products of those, and the Weyl operators, whose factors come
    from the cached real eigenbasis of the ladder chain ``a + a†``.  Each
    expectation contracts ``rho``'s or ``psi``'s index tensor with the
    factors one mode at a time, so no ``cutoff**n`` square operator is
    formed.  The moments come from the reader of :func:`state_moments`, its
    pairs centred at ``d`` and kept for the fourth moments.

    Raises:
        ConfigError: ``cutoff < 8``, or a basis above the size limit (see
            :func:`build_state`).
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see :func:`build_state`).
        ConvergenceError: on a mixed point, if the constructed matrix has
            an eigenvalue below ``-1e-10`` (the Cholesky factor of
            ``rho + 1e-10 I`` fails).
    """
    n, m = point.n, 2 * point.n
    if _gate(point, cutoff, cutoff, dense=True):
        psi = _ket(point, cutoff)[0]
        expect, norm = functools.partial(_ket_traces, psi), np.vdot(psi, psi).real
    else:
        rho = _checked(point, _bargmann(point, cutoff)[0], cutoff, np.inf).rho
        expect, norm = functools.partial(_mode_traces, rho), np.trace(rho).real
    d_fock, gamma_fock, pair = _moments(expect, norm, n, cutoff, point.d)
    i, j = _pairs(m)
    displacement_dev = float(np.abs(d_fock - point.d).max())
    covariance_dev = float(np.abs(gamma_fock - point.gamma).max())

    # exp(i eta.R) = exp(-i H) with H = -eta.R = sum_k beta_k a_k† + h.c., a
    # sum of one-mode terms, so it is a Kronecker product over the modes.
    rng = np.random.default_rng(7)
    xis = rng.standard_normal((12, m))
    xis *= (2.0 * rng.random(12) ** (1.0 / m) / np.linalg.norm(xis, axis=1))[:, None]
    etas = xis @ symplectic_form(n).T
    beta = -(etas[:, :n] + 1j * etas[:, n:]) / _SQRT2
    char = expect(_weyl_factors(beta, cutoff)) / norm
    char_gauss = np.exp(
        1j * etas @ point.d - 0.25 * np.einsum("xi,ij,xj->x", etas, point.gamma, etas)
    )
    char_dev = float(np.abs(char - char_gauss).max())

    # Re tr[rho A_ij A_kl] is symmetric under (ij) <-> (kl), so only one half
    # of the products is formed.
    p, q = _pairs(i.size)
    fourth = np.empty((i.size, i.size))
    fourth[p, q] = fourth[q, p] = expect(pair[p] @ pair[q]).real / norm
    i, j, k, l = i[:, None], j[:, None], i[None, :], j[None, :]
    g, w = point.gamma, symplectic_form(n)
    wick = 0.25 * (
        g[i, j] * g[k, l]
        + g[i, k] * g[j, l]
        - w[i, k] * w[j, l]
        + g[i, l] * g[j, k]
        - w[i, l] * w[j, k]
    )
    fourth_dev = float(np.abs(fourth - wick).max())
    return IdentityReport(
        displacement_dev=displacement_dev,
        covariance_dev=covariance_dev,
        char_dev=char_dev,
        fourth_moment_dev=fourth_dev,
        tail_mass=float(1.0 - norm),
    )
