"""Truncated Fock-basis oracle for Gaussian-state quantities.

Everything in this module is deliberately brute force: states are dense
density matrices, Gaussian unitaries are matrix exponentials of quadratic
generators, and information quantities come straight from the defining
eigenbasis formulas.  Every exponential ``exp(-i H)`` is taken from the
Hermitian eigendecomposition of its generator ``H``, and the generator of a
passive map from the eigendecomposition of its mode-space unitary.  None of
the phase-space identities used by the fast engine appear here, so agreement
between the two routes is meaningful evidence rather than circular
arithmetic.

States are built at ``cutoff + pad`` and then cropped back to ``cutoff``.
The truncated exponentials are unitary on the padded space, so the cropped
state has a genuinely missing tail; ``tail_mass`` reports it instead of
renormalizing it away.

States and passive maps have one or two modes: every function that builds
one raises ``ConfigError`` for more.

A state's Gaussian unitary is the product of the Euler layers of its
Williamson frame: a passive map, one-mode squeezers and a passive map.
Each Gaussian factor is applied by its structure, never as a dense padded
matrix, and a state is formed only on the rows the crop keeps;
:func:`passive_unitary`, :func:`squeeze_unitary` and
:func:`displacement_unitary` form single layers as matrices for inspection.
A passive generator conserves the total photon number, so it is
exponentiated and applied one number sector at a time: a single level on
one mode, a chain in ``n_1`` on two.  Squeezers, displacements and the Weyl operators of the
characteristic function are Kronecker products of one-mode exponentials,
which are formed on their own; the squeezers act on the kept rows one mode
at a time.  Every one-mode generator here couples level ``k`` only to
``k ± s``, as does each two-mode passive sector to its neighbour in ``n_1``;
a diagonal level phase makes such a generator real symmetric, so its
exponential comes from a real ``eigh``.  The one-mode chains depend only on
``(s, dim)``, so their ``eigh`` is made once per pair and reused.  Every
factor is still the truncated exponential itself.

Work that cannot change ``rho`` is left out: the first passive layer acts
only on the sectors the kept rows meet, and the second only on the sectors
reached by the nonzero thermal weights, whose columns alone are summed (a
pure mode has weight exactly 0 above its vacuum).  The Fock QFI reads the
eigenvalue check of the state at ``theta`` and its SLD eigenbasis off one
``eigh``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .estimation import SLDCoefficients, _mean_photon
from .exceptions import ConfigError, ConvergenceError, PreconditionError
from .models import GaussianModelPoint, ModelFamily, _linear_family
from .symplectic import (
    _frame_rounding,
    _passive,
    _require_state,
    euler_decompose,
    symplectic_form,
    williamson,
)

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
_PASSIVE_TOL = 1e-10  # passive_unitary's max-abs gate; build_state adds rounding


def _destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a ``dim``-dimensional basis."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _quadrature_operators(n: int, dim: int) -> np.ndarray:
    """Quadratures ``(Q_1..Q_n, P_1..P_n)`` as a stack of Fock matrices.

    ``Q = (a + a†)/sqrt(2)`` so the vacuum has ``<Q²> = 1/2`` and covariance
    matrix equal to the identity in the scaling used throughout.
    """
    a = _destroy(dim).astype(complex)
    q1 = (a + a.conj().T) / _SQRT2
    p1 = 1j * (a.conj().T - a) / _SQRT2
    eye = np.eye(dim)
    R = np.empty((2 * n, dim**n, dim**n), dtype=complex)
    for k in range(n):
        R[k] = _kron_modes([q1 if j == k else eye for j in range(n)])
        R[n + k] = _kron_modes([p1 if j == k else eye for j in range(n)])
    return R


def _thermal_weights(nu: np.ndarray, dim: int) -> np.ndarray:
    """Photon-number weights of the product of one-mode thermal states with
    symplectic eigenvalues ``nu``: mode ``k`` is geometric with mean
    ``(nu_k - 1)/2``, and zero for a ``nu_k`` the state rule accepted below
    1 (rounding), so no weight is negative.  Not renormalised after
    truncation."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    p = np.ones(1)
    ks = np.arange(dim)
    for nu_k in nu:
        nbar = max(0.5 * (nu_k - 1.0), 0.0)
        p = np.kron(p, nbar**ks / (nbar + 1.0) ** (ks + 1))
    return p


def _expi(lam: np.ndarray, V: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``exp(-i H)`` for the Hermitian ``H = D V diag(lam) V^H D^H``, where
    ``D = diag(phase)``; stacks broadcast."""
    V = phase[..., :, None] * V
    return (V * np.exp(-1j * lam)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def _check_modes(n: int) -> None:
    """Refuse more than two modes, the most the oracle builds."""
    if n > 2:
        raise ConfigError(f"Fock oracle supports at most 2 modes, got {n}")


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes of two (stacks of) matrices."""
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    s = out.shape
    return out.reshape(s[:-4] + (s[-4] * s[-3], s[-2] * s[-1]))


def _kron_modes(factors: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Kronecker product of one-mode factors, mode 1 outermost."""
    out = np.ones((1, 1))
    for f in factors:
        out = _kron(out, f)
    return out


@functools.lru_cache(maxsize=32)
def _ladder_chains(step: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels ``lev`` and the real ``eigh`` ``(lam, V)`` of the chains of
    :func:`_ladder_expi` at ``(step, dim)``.

    They depend on the two integers only, so each pair is diagonalised once
    and kept, read-only, for the next call (the 32 latest pairs are kept).
    """
    span = -(-dim // step)
    lev = np.arange(step)[:, None] + step * np.arange(span)  # levels >= dim pad
    amp = np.prod(lev[:, :-1, None] + np.arange(1.0, step + 1), axis=-1) ** 0.5
    t = np.arange(span - 1)
    T = np.zeros((step, span, span))
    T[:, t + 1, t] = T[:, t, t + 1] = amp * (lev[:, 1:] < dim)
    lam, V = np.linalg.eigh(T)
    for table in (lev, lam, V):
        table.setflags(write=False)
    return lev, lam, V


def _ladder_expi(beta: np.ndarray | complex, step: int, dim: int) -> np.ndarray:
    """``exp(-i H)`` for ``H = beta a†^step + conj(beta) a^step`` on one mode.

    ``H`` couples level ``k`` only to ``k ± step``, so it splits into
    ``step`` chains ``c, c + step, c + 2 step, ...``.  The level phase
    ``D = diag(exp(i k arg(beta) / step))`` gives ``H = |beta| D T D^H``
    with the real symmetric tridiagonal ``T`` of each chain, so one real
    ``eigh`` of the chains (:func:`_ladder_chains`) serves every ``beta`` of
    every call at that ``(step, dim)``.  ``beta`` may be an array; the
    result stacks over it.
    """
    beta = np.asarray(beta, dtype=complex)
    lev, lam, V = _ladder_chains(step, dim)
    span = lev.shape[1]
    phase = np.exp(1j * np.angle(beta)[..., None, None] / step * lev)
    U = np.zeros(beta.shape + (step * span,) * 2, dtype=complex)
    U[..., lev[:, :, None], lev[:, None, :]] = _expi(
        np.abs(beta)[..., None, None] * lam, V, phase
    )
    return U[..., :dim, :dim]


def _squeezers(z: np.ndarray, dim: int) -> np.ndarray:
    """One-mode squeezers ``exp(z_k (a†² - a²) / 2)``, stacked over modes."""
    return _ladder_expi(0.5j * np.atleast_1d(np.asarray(z, dtype=float)), 2, dim)


def _displacements(d: np.ndarray, dim: int) -> np.ndarray:
    """One-mode displacements ``exp(alpha_k a† - conj(alpha_k) a)``, stacked."""
    d = np.asarray(d, dtype=float)
    n = d.size // 2
    return _ladder_expi(1j * (d[:n] + 1j * d[n:]) / _SQRT2, 1, dim)


def _passive_deviation(O: np.ndarray) -> float:
    """Max-abs distance of the ``2n x 2n`` matrix ``O`` from the form
    ``[[c, s], [-s, c]]`` with ``u = c - i s`` unitary."""
    n = O.shape[0] // 2
    u = O[:n, :n] - 1j * O[:n, n:]
    return float(max(np.abs(O - _passive(u)).max(), np.abs(u @ u.conj().T - np.eye(n)).max()))


def _passive_sectors(
    O: np.ndarray, dim: int, top: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exponential of the passive generator of ``O`` on each photon-number sector.

    Covers the sectors of total photon number ``N <= top`` (all of them by
    default) and returns one ``(cols, blocks)`` pair per sector size: row
    ``i`` of ``cols`` lists the flat ``dim**n`` indices of one sector, and
    ``blocks[i]`` is the exponential on it.  See :func:`passive_unitary`.
    ``O`` is used as given: callers check it with :func:`_passive_deviation`.
    """
    n = O.shape[0] // 2
    u = O[:n, :n] - 1j * O[:n, n:]
    _check_modes(n)
    if n == 1:
        # Every sector is one level k, where the exponential is exp(-i hc k).
        k = np.arange(dim if top is None else min(dim, top + 1))
        return [(k[:, None], np.exp(1j * np.angle(u[0, 0]) * k)[:, None, None])]
    lam, V = np.linalg.eig(u)
    V, _ = np.linalg.qr(V)
    hc = (V * -np.angle(lam)) @ V.conj().T
    hc = 0.5 * (hc + hc.conj().T)
    # Sector N is the chain n_1 = max(0, N - dim + 1) .. min(N, dim - 1) with
    # n_2 = N - n_1; taking out the level phase exp(i n_1 arg hc_12) makes
    # its generator real.
    arg = np.angle(hc[0, 1])
    hc = (hc * np.exp(-1j * np.array([[0.0, arg], [-arg, 0.0]]))).real
    N = np.arange(2 * dim - 1 if top is None else min(2 * dim - 1, top + 1))
    lo = np.maximum(0, N - dim + 1)
    sizes = np.minimum(N, dim - 1) - lo + 1
    # Row r of n1 and n2 is sector N[r], padded to dim levels past its end.
    n1 = lo[:, None] + np.arange(dim)
    n2 = np.maximum(N[:, None] - n1, 0)
    t = np.arange(dim - 1)
    gen = np.zeros((N.size, dim, dim))
    gen[:, t + 1, t] = gen[:, t, t + 1] = hc[0, 1] * np.sqrt((n1[:, :-1] + 1.0) * n2[:, :-1])
    gen[:, np.arange(dim), np.arange(dim)] = hc[0, 0] * n1 + hc[1, 1] * n2
    phase = np.exp(1j * arg * n1)
    sectors = []
    for size in np.unique(sizes):
        sel = np.flatnonzero(sizes == size)
        lam, V = np.linalg.eigh(gen[sel, :size, :size])
        sectors.append(((n1 * dim + n2)[sel, :size], _expi(lam, V, phase[sel, :size])))
    return sectors


def _apply_sectors(X: np.ndarray, sectors: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """``X @ P`` in place, for the sector-diagonal ``P`` of :func:`_passive_sectors`."""
    for cols, blocks in sectors:
        X[:, cols] = (X[:, cols].transpose(1, 0, 2) @ blocks).transpose(1, 0, 2)
    return X


def _apply_modes(X: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``X @ (mats[0] ⊗ mats[1] ⊗ ...)`` for a stack of one-mode matrices,
    one mode at a time on ``X`` reshaped to ``(rows, dim, ..., dim)``."""
    rows, dim = X.shape[0], mats.shape[-1]
    for k, M in enumerate(mats):
        inner = dim ** (len(mats) - 1 - k)
        if inner == 1:
            X = X.reshape(-1, dim) @ M
        else:
            X = M.T @ X.reshape(-1, dim, inner)
    return X.reshape(rows, -1)


def passive_unitary(O: np.ndarray, dim: int) -> np.ndarray:
    """Fock-space unitary of an orthogonal symplectic (passive) transformation.

    With blocks ``O = [[c, s], [-s, c]]`` the corresponding mode-space
    unitary is ``u = c - i s``; its logarithm gives a number-conserving
    quadratic generator whose exponential maps moments by ``R -> O R``.
    ``u`` is normal, so its orthonormalised eigenvectors diagonalise it and
    ``i log u = V diag(-arg lam) V^H`` on the principal branch.

    The generator ``sum_jk hc_jk a_j† a_k`` conserves the total photon
    number, so it is formed and exponentiated one number sector at a time.
    On one mode a sector is a single level ``k``, with exponential
    ``exp(-i hc k)``.  On two modes sector ``N`` is the chain
    ``n_1 = max(0, N - dim + 1) .. min(N, dim - 1)`` with ``n_2 = N - n_1``:
    diagonal ``hc_11 n_1 + hc_22 n_2``, off-diagonal
    ``|hc_12| sqrt((n_1 + 1) n_2)`` once the level phase
    ``exp(i n_1 arg hc_12)`` is taken out, so it is real symmetric
    tridiagonal.  Sectors of equal size share one stacked real ``eigh``.  The
    dense result is the identity with each sector block applied, so the
    entries between different sectors are exactly zero.

    Raises:
        ConfigError: ``O`` is not ``2n x 2n`` of the form
            ``[[c, s], [-s, c]]`` with ``c - i s`` unitary, or ``n > 2``.
    """
    O = np.asarray(O, dtype=float)
    n = O.shape[0] // 2
    if O.shape != (2 * n, 2 * n) or _passive_deviation(O) > _PASSIVE_TOL:
        raise ConfigError("matrix is not orthogonal symplectic")
    sectors = _passive_sectors(O, dim)
    return _apply_sectors(np.eye(dim**n, dtype=complex), sectors)


def squeeze_unitary(z: np.ndarray, dim: int) -> np.ndarray:
    """Product of single-mode squeezers, ``Q_k -> exp(z_k) Q_k``.

    Each factor is exponentiated in its own single-mode basis and the results
    are Kronecker-multiplied, which keeps the exponentials small and well
    conditioned.
    """
    return _kron_modes(_squeezers(z, dim))


def displacement_unitary(d: np.ndarray, dim: int) -> np.ndarray:
    """Product of single-mode displacements shifting moments by ``d``."""
    return _kron_modes(_displacements(d, dim))


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


def suggested_cutoff(point: GaussianModelPoint) -> int:
    """Heuristic per-mode dimension, ``10 + 8 * max mean photon number``.

    Gaussian Fock tails decay geometrically, so a linear-in-energy cutoff
    keeps ``tail_mass`` small, with the convergence probe on top.  The
    heuristic is sized for ``tail_mass`` only; :func:`sld_residual` needs
    far larger cutoffs on squeezed models (see there).
    """
    nbar = _mean_photon(point.gamma, point.d)
    return int(np.ceil(10 + 8 * max(0.0, nbar.max())))


def _dense_size(cutoff: int, n: int) -> str:
    """Memory of one dense ``cutoff^n`` square complex matrix, e.g. ``31 GB``."""
    size = float(cutoff) ** (2 * n) * 16
    for unit in ("B", "kB", "MB", "GB", "TB"):
        if size < 1000.0:
            break
        size /= 1000.0
    return f"{size:.0f} {unit}" if size >= 10.0 else f"{size:.2g} {unit}"


def _build(
    point: GaussianModelPoint, cutoff: int, pad: int = 12, tail_bound: float = 1e-3
) -> TruncatedState:
    """:func:`build_state` up to its eigenvalue check, which the caller makes."""
    n = point.n
    _check_modes(n)
    if cutoff < 8:
        raise ConfigError(f"cutoff must be at least 8, got {cutoff}")
    big = cutoff + pad
    dec = williamson(point.gamma)
    _require_state(float(dec.nu[-1]), dec.S, point.gamma)
    O1, z, O2 = euler_decompose(dec.S)
    dev = max(_passive_deviation(O1), _passive_deviation(O2))
    if dev > _PASSIVE_TOL + _frame_rounding(dec.S, point.gamma):
        raise ConvergenceError(f"Euler factor is {dev:.3e} from orthogonal symplectic")
    if np.abs(point.d).max(initial=0.0) > 0.0:
        X, top = _kron_modes(_displacements(point.d, big)[:, :cutoff]), None
    else:
        # The kept rows of the identity meet only the sectors N <= n (cutoff - 1).
        X, top = _kron_modes([np.eye(cutoff, big)] * n).astype(complex), n * (cutoff - 1)
    X = _apply_sectors(X, _passive_sectors(O1, big, top))
    if z.any():
        X = _apply_modes(X, _squeezers(z, big))
    # Columns of zero weight (levels above 0 of a pure mode) drop out of rho,
    # so P2 acts only on the sectors that the others reach.
    p = _thermal_weights(dec.nu, big)
    support = np.flatnonzero(p)
    reach = int(np.sum(np.unravel_index(support, (big,) * n), axis=0).max())
    X = _apply_sectors(X, _passive_sectors(O2, big, reach))[:, support]
    rho = (X * p[support]) @ X.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    tail = float(1.0 - np.trace(rho).real)
    if tail > tail_bound:
        suggested = suggested_cutoff(point)
        raise PreconditionError(
            "tail_mass",
            f"truncation at cutoff {cutoff} loses {tail:.3e} > {tail_bound:.3e}; "
            f"suggested cutoff is {suggested} ({_dense_size(suggested, n)} dense state)",
        )
    return TruncatedState(n=n, cutoff=cutoff, rho=rho, tail_mass=tail)


def _require_psd(low: float) -> None:
    """Refuse a constructed state whose smallest eigenvalue ``low`` is below
    ``-1e-10``."""
    if low < -1e-10:
        raise ConvergenceError(f"constructed state has eigenvalue {low:.3e} < 0")


def build_state(
    point: GaussianModelPoint,
    cutoff: int,
    pad: int = 12,
    tail_bound: float = 1e-3,
) -> TruncatedState:
    """Construct the density matrix of a Gaussian state.

    Builds the thermal normal form from the Williamson factorization, applies
    the Gaussian unitary of the symplectic factor ``S`` and then the
    displacement, all on a padded basis, and finally crops to ``cutoff``.
    The unitary of ``S`` is applied as the three layers of its Euler
    factorisation ``S = O1 diag(e^z, e^-z) O2``
    (:func:`~gaussqfi.symplectic.euler_decompose`), which avoids one large
    ill-conditioned generator.  Only the kept rows are formed: with
    ``X = D[keep] P1 Sq P2`` (the displacement, then the passive, squeeze
    and passive factors; ``D`` is the identity when ``d = 0`` and ``Sq``
    when ``z = 0``) and the thermal weights ``p``, the cropped state is
    ``X diag(p) X^H``.

    No ``(cutoff + pad)**n`` square factor is formed.  ``X`` starts as the
    kept rows of ``D``, the Kronecker product of one-mode displacements, or
    of the identity; each passive factor acts one photon-number sector at a
    time, and ``Sq`` one mode at a time.  The first passive factor acts only
    on the sectors its kept rows meet, the second only on the sectors that
    the nonzero weights reach, and ``X diag(p) X^H`` is summed over the
    columns of nonzero weight: a pure mode has weight exactly 0 above its
    level 0, so a pure state needs the vacuum column alone.  Every factor
    is still the truncated exponential on the padded space.

    Args:
        point: moments to realize (derivatives are ignored).
        cutoff: per-mode Fock dimension of the returned state.
        pad: extra levels used during construction so the crop exposes the
            true tail.
        tail_bound: maximum acceptable tail_mass; ``np.inf`` disables the
            check.

    Raises:
        ConfigError: more than two modes, or ``cutoff < 8``.
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see ``validate_covariance``), or
            flag ``"tail_mass"`` when the truncation loses more weight than
            ``tail_bound`` (the message suggests a cutoff and gives the
            memory of a dense state at it).
        ConvergenceError: if an Euler factor deviates from orthogonal
            symplectic by more than ``1e-10`` plus the rounding of the
            state rule, or (after the tail) the constructed matrix has an
            eigenvalue below ``-1e-10``.
    """
    state = _build(point, cutoff, pad, tail_bound)
    _require_psd(np.linalg.eigvalsh(state.rho)[0])
    return state


def _centred(R: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The centred quadratures ``R - d I`` of a stack ``R``."""
    return R - d[:, None, None] * np.eye(R.shape[-1])


def state_moments(state: TruncatedState) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments ``(d, gamma)`` extracted from the matrix.

    Moments are taken with respect to the truncated state normalized on its
    support, so deviations from the exact values measure truncation error
    only.
    """
    R = _quadrature_operators(state.n, state.cutoff)
    norm = np.trace(state.rho).real
    d = np.array([np.trace(state.rho @ Rk).real for Rk in R]) / norm
    delta = _centred(R, d)
    gamma = np.einsum("iab,jba->ij", state.rho @ delta, delta).real * 2.0 / norm
    return d, 0.5 * (gamma + gamma.T)


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


def _drho(family: ModelFamily, theta: float, h: float, cutoff: int) -> np.ndarray:
    """Central difference with step ``h`` of the family's state at ``theta``."""
    return (
        build_state(family.point(theta + h), cutoff).rho
        - build_state(family.point(theta - h), cutoff).rho
    ) / (2.0 * h)


def _central_qfis(
    family: ModelFamily, theta: float, cutoff: int, steps: tuple[float, ...]
) -> list[float]:
    """Fock QFI at ``theta`` for each central-difference step in ``steps``.

    The state at ``theta`` and its eigenbasis are formed once and shared,
    and the eigenvalue check of :func:`build_state` reads the same ``eigh``.
    """
    eig = np.linalg.eigh(_build(family.point(theta), cutoff).rho)
    _require_psd(eig[0][0])
    return [_solve_sld_eigenbasis(eig, _drho(family, theta, h, cutoff)) for h in steps]


def qfi_fock(family: ModelFamily, theta: float, cutoff: int, h: float = 1e-4) -> float:
    """Quantum Fisher information computed entirely in the Fock basis.

    Builds the state at ``theta`` and ``theta ± h``, forms the derivative by
    central difference, solves the symmetric-logarithmic-derivative equation
    in the eigenbasis of the state, and returns ``tr[rho L²]``.
    """
    return _central_qfis(family, theta, cutoff, (h,))[0]


@dataclass(frozen=True)
class FockConvergence:
    """Convergence probe around a single oracle evaluation.

    ``cutoff_shift`` is the change when the basis grows to ``cutoff + 10``;
    ``step_shift`` is the change when the finite-difference step is halved.
    Small shifts certify that neither truncation nor differencing dominates
    the reported value.
    """

    value: float
    cutoff_value: float
    cutoff_shift: float
    step_value: float
    step_shift: float


def qfi_fock_probe(
    family: ModelFamily, theta: float, cutoff: int, h: float = 1e-4
) -> FockConvergence:
    """Oracle value plus its sensitivity to cutoff and difference step.

    The three values equal :func:`qfi_fock` at ``(cutoff, h)``,
    ``(cutoff + 10, h)`` and ``(cutoff, h / 2)``; the first and the last
    share the state at ``theta`` and its one eigendecomposition, which also
    serves the eigenvalue check of :func:`build_state`.
    """
    value, step_value = _central_qfis(family, theta, cutoff, (h, h / 2.0))
    cutoff_value = qfi_fock(family, theta, cutoff + 10, h)
    return FockConvergence(
        value=value,
        cutoff_value=cutoff_value,
        cutoff_shift=abs(cutoff_value - value),
        step_value=step_value,
        step_shift=abs(step_value - value),
    )


def _sld_matrix(coeffs: SLDCoefficients, d: np.ndarray, cutoff: int) -> np.ndarray:
    """Assemble the SLD observable as a Fock matrix.

    Returns ``sum_ij L_ij (R-d)_i (R-d)_j + sum_i b_i (R-d)_i + c`` (the
    quadratic term is automatically Hermitian because ``L`` is symmetric).
    """
    d = np.asarray(d, dtype=float)
    delta = _centred(_quadrature_operators(d.size // 2, cutoff), d)
    quadratic = (delta @ np.tensordot(coeffs.L, delta, 1)).sum(0)
    return quadratic + np.tensordot(coeffs.b, delta, 1) + coeffs.c * np.eye(delta.shape[-1])


def sld_residual(
    point: GaussianModelPoint,
    coeffs: SLDCoefficients,
    cutoff: int,
    h: float = 1e-4,
) -> float:
    """Trace-norm defect of the SLD equation for the given coefficients.

    Builds ``rho`` from ``point`` itself and differentiates it numerically
    along the point's own tangent ``(dd, dgamma)``, by a central difference
    on the lifted curve through the point that an explicit model follows
    (:func:`~gaussqfi.models._linear_family`, whose point at ``t = 0`` is
    ``point``).  Returns ``|| drho - (rho L + L rho)/2 ||_1``.  A correct
    coefficient set drives this to the truncation floor; a wrong one leaves
    an O(1) residual.

    On squeezed models the residual converges far more slowly in the cutoff
    than ``tail_mass``, so it needs cutoffs well beyond
    :func:`suggested_cutoff`.  For ``phase_squeezed`` with ``r = 1`` at
    ``theta = 0.7`` it is 0.015, 1.3e-3 and 2.2e-4 at cutoffs 60, 80 and 100
    on the pure state (suggested cutoff 22), and 0.029, 2.9e-3 and 3.5e-4
    with ``nu = 1.5`` (suggested cutoff 29); the step ``h`` does not matter.
    """
    rho = build_state(point, cutoff).rho
    drho = _drho(_linear_family(point), 0.0, h, cutoff)
    Lhat = _sld_matrix(coeffs, point.d, cutoff)
    resid = drho - 0.5 * (rho @ Lhat + Lhat @ rho)
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


def identity_checks(point: GaussianModelPoint, cutoff: int) -> IdentityReport:
    """Check the standard Gaussian-state identities on the Fock matrix.

    Verifies moment recovery, the Gaussian characteristic function at 12
    phase-space points drawn uniformly from the ball ``|xi| <= 2`` (seed 7),
    and the factorization of symmetrized fourth moments
    ``<(dR_i o dR_j) o (dR_k o dR_l)>`` into covariance/symplectic-form
    pairs.  The state is built with no tail bound; truncation quality is
    part of the report.

    Raises:
        ConfigError: more than two modes, or ``cutoff < 8``.
        PreconditionError: flag ``"nu_min"`` when the moments are not a
            state (see :func:`build_state`).
        ConvergenceError: if the constructed matrix has an eigenvalue below
            ``-1e-10``.
    """
    state = build_state(point, cutoff, tail_bound=np.inf)
    n, m = state.n, 2 * point.n
    norm = np.trace(state.rho).real
    d_fock, gamma_fock = state_moments(state)
    displacement_dev = float(np.abs(d_fock - point.d).max())
    covariance_dev = float(np.abs(gamma_fock - point.gamma).max())

    # exp(i eta.R) = exp(-i H) with H = -eta.R = sum_k beta_k a_k† + h.c., a
    # sum of one-mode terms, so it is a Kronecker product over the modes.
    rng = np.random.default_rng(7)
    xis = rng.standard_normal((12, m))
    xis *= (2.0 * rng.random(12) ** (1.0 / m) / np.linalg.norm(xis, axis=1))[:, None]
    etas = xis @ symplectic_form(n).T
    beta = -(etas[:, :n] + 1j * etas[:, n:]) / _SQRT2
    W = _kron_modes(np.moveaxis(_ladder_expi(beta, 1, cutoff), 1, 0))
    char = np.einsum("ab,xba->x", state.rho, W) / norm
    char_gauss = np.exp(
        1j * etas @ point.d - 0.25 * np.einsum("xi,ij,xj->x", etas, point.gamma, etas)
    )
    char_dev = float(np.abs(char - char_gauss).max())

    # The symmetrised pairs A_ij = (dR_i dR_j + dR_j dR_i)/2 for i <= j, with
    # dR_j dR_i = (dR_i dR_j)^H, and every tr[rho A_ij A_kl] from one product.
    delta = _centred(_quadrature_operators(n, cutoff), point.d)
    i, j = np.triu_indices(m)
    prod = delta[i] @ delta[j]
    pair = 0.5 * (prod + np.swapaxes(prod.conj(), -1, -2))
    size = pair.shape[-1] ** 2
    fourth = (
        (state.rho @ pair).reshape(-1, size) @ np.swapaxes(pair, -1, -2).reshape(-1, size).T
    ).real / norm
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
        tail_mass=state.tail_mass,
    )
