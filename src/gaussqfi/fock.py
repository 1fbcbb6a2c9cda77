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

Two shortcuts keep this affordable without changing any matrix: a passive
generator conserves the total photon number, so it is exponentiated one
number sector at a time, and a state is formed only on the rows and columns
the crop keeps.  Every matrix is still the truncated operator itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import SLDCoefficients, _mean_photon
from .exceptions import ConfigError, ConvergenceError, PreconditionError
from .models import GaussianModelPoint, ModelFamily
from .symplectic import euler_decompose, symplectic_form, williamson

__all__ = [
    "destroy",
    "quadrature_operators",
    "thermal_density",
    "passive_unitary",
    "squeeze_unitary",
    "displacement_unitary",
    "gaussian_unitary",
    "TruncatedState",
    "build_state",
    "state_moments",
    "qfi_fock",
    "FockConvergence",
    "qfi_fock_probe",
    "sld_matrix",
    "sld_residual",
    "IdentityReport",
    "identity_checks",
    "suggested_cutoff",
]

_SQRT2 = np.sqrt(2.0)


def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a ``dim``-dimensional basis."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _embed(op: np.ndarray, mode: int, n: int, dim: int) -> np.ndarray:
    """Kronecker-embed a single-mode operator at position ``mode`` of ``n``."""
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, op if k == mode else np.eye(dim))
    return out


def quadrature_operators(n: int, dim: int) -> np.ndarray:
    """Quadratures ``(Q_1..Q_n, P_1..P_n)`` as a stack of Fock matrices.

    ``Q = (a + a†)/sqrt(2)`` so the vacuum has ``<Q²> = 1/2`` and covariance
    matrix equal to the identity in the scaling used throughout.
    """
    a = destroy(dim).astype(complex)
    q1 = (a + a.conj().T) / _SQRT2
    p1 = 1j * (a.conj().T - a) / _SQRT2
    R = np.empty((2 * n, dim**n, dim**n), dtype=complex)
    for k in range(n):
        R[k] = _embed(q1, k, n, dim)
        R[n + k] = _embed(p1, k, n, dim)
    return R


def thermal_density(nu: np.ndarray, dim: int) -> np.ndarray:
    """Product of single-mode thermal states with symplectic eigenvalues ``nu``.

    Mode ``k`` carries the geometric photon distribution with mean
    ``(nu_k - 1)/2``.  Weights are not renormalized after truncation, so the
    matrix has trace slightly below one for hot modes.
    """
    return np.diag(_thermal_weights(nu, dim).astype(complex))


def _thermal_weights(nu: np.ndarray, dim: int) -> np.ndarray:
    """Diagonal of :func:`thermal_density`, as a real vector."""
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    p = np.ones(1)
    ks = np.arange(dim)
    for nu_k in nu:
        nbar = 0.5 * (nu_k - 1.0)
        p = np.kron(p, nbar**ks / (nbar + 1.0) ** (ks + 1))
    return p


def _expi(H: np.ndarray) -> np.ndarray:
    """``exp(-i H)`` of a Hermitian ``H``, or of a stack of them, as
    ``V diag(exp(-i lam)) V^H``."""
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * lam)[..., None, :]) @ np.swapaxes(V.conj(), -1, -2)


def passive_unitary(O: np.ndarray, dim: int) -> np.ndarray:
    """Fock-space unitary of an orthogonal symplectic (passive) transformation.

    With blocks ``O = [[c, s], [-s, c]]`` the corresponding mode-space
    unitary is ``u = c - i s``; its logarithm gives a number-conserving
    quadratic generator whose exponential maps moments by ``R -> O R``.
    ``u`` is normal, so its orthonormalised eigenvectors diagonalise it and
    ``i log u = V diag(-arg lam) V^H`` on the principal branch.

    The generator ``sum_jk hc_jk a_j† a_k`` is a sum of Kronecker products
    of the one-mode ``a†``, ``a`` and ``a† a``, and it conserves the total
    photon number.  Its entries are formed only inside the number sectors;
    sectors of equal size are exponentiated in one stacked ``eigh``, and the
    blocks are scattered into the dense result, so the entries between
    different sectors are exactly zero.
    """
    O = np.asarray(O, dtype=float)
    n = O.shape[0] // 2
    u = O[:n, :n] - 1j * O[:n, n:]
    if np.abs(u @ u.conj().T - np.eye(n)).max() > 1e-10:
        raise ConfigError("matrix is not orthogonal symplectic")
    lam, V = np.linalg.eig(u)
    V, _ = np.linalg.qr(V)
    hc = (V * -np.angle(lam)) @ V.conj().T
    hc = 0.5 * (hc + hc.conj().T)
    a = destroy(dim)
    terms = []
    for j in range(n):
        for k in range(n):
            if hc[j, k] != 0.0:
                factors = [a.T if m == j else np.eye(dim) for m in range(n)]
                factors[k] = factors[k] @ a
                terms.append((hc[j, k], factors))
    levels = np.indices((dim,) * n).reshape(n, -1)
    total = levels.sum(axis=0)
    order = np.argsort(total, kind="stable")
    sizes = np.bincount(total)
    starts = np.cumsum(sizes) - sizes
    U = np.zeros((dim**n, dim**n), dtype=complex)
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        gen = np.zeros(idx.shape + (size,), dtype=complex)
        for coef, factors in terms:
            entry = coef
            for f, lv in zip(factors, levels[:, idx]):
                entry = entry * f[lv[:, :, None], lv[:, None, :]]
            gen += entry
        U[idx[:, :, None], idx[:, None, :]] = _expi(gen)
    return U


def squeeze_unitary(z: np.ndarray, dim: int) -> np.ndarray:
    """Product of single-mode squeezers, ``Q_k -> exp(z_k) Q_k``.

    Each factor is exponentiated in its own single-mode basis and the results
    are Kronecker-multiplied, which keeps the exponentials small and well
    conditioned.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    a = destroy(dim)
    out = np.array([[1.0 + 0.0j]])
    for z_k in z:
        gen = 0.5 * z_k * (a.T @ a.T - a @ a)
        out = np.kron(out, _expi(1j * gen))
    return out


def displacement_unitary(d: np.ndarray, dim: int) -> np.ndarray:
    """Product of single-mode displacements shifting moments by ``d``."""
    d = np.asarray(d, dtype=float)
    n = d.size // 2
    a = destroy(dim).astype(complex)
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        alpha = (d[k] + 1j * d[n + k]) / _SQRT2
        out = np.kron(out, _expi(1j * (alpha * a.conj().T - np.conj(alpha) * a)))
    return out


def gaussian_unitary(S: np.ndarray, dim: int) -> np.ndarray:
    """Fock-space unitary implementing a symplectic matrix on moments.

    ``S`` is factored into passive + single-mode-squeeze + passive layers and
    each layer exponentiated separately, which avoids one large
    ill-conditioned generator.
    """
    P1, Sq, P2 = _gaussian_factors(S, dim)
    return P1 @ Sq @ P2


def _gaussian_factors(S: np.ndarray, dim: int) -> list[np.ndarray]:
    """Passive, squeeze and passive factors whose product implements ``S``."""
    O1, z, O2 = euler_decompose(S)
    return [passive_unitary(O1, dim), squeeze_unitary(z, dim), passive_unitary(O2, dim)]


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


def build_state(
    point: GaussianModelPoint,
    cutoff: int,
    pad: int = 12,
    tail_bound: float = 1e-3,
) -> TruncatedState:
    """Construct the density matrix of a Gaussian state.

    Builds the thermal normal form from the Williamson factorization, applies
    the Gaussian unitary of the symplectic factor and then the displacement,
    all on a padded basis, and finally crops to ``cutoff``.  Only the kept
    rows are formed: with ``X = D[keep] P1 Sq P2`` (the displacement, then
    the passive, squeeze and passive factors of :func:`gaussian_unitary`;
    ``D`` is the identity when ``d = 0``) and the thermal weights ``p``, the
    cropped state is ``X diag(p) X^H``.  The weights enter as they are, not
    through their square roots: on a pure mode they can round to -1e-16.

    Args:
        point: moments to realize (derivatives are ignored).
        cutoff: per-mode Fock dimension of the returned state.
        pad: extra levels used during construction so the crop exposes the
            true tail.
        tail_bound: maximum acceptable tail_mass; ``np.inf`` disables the
            check.

    Raises:
        ConfigError: more than two modes, or ``cutoff < 8``.
        PreconditionError: flag ``"tail_mass"`` when the truncation loses
            more weight than ``tail_bound``.
    """
    n = point.n
    if n > 2:
        raise ConfigError(f"Fock oracle supports at most 2 modes, got {n}")
    if cutoff < 8:
        raise ConfigError(f"cutoff must be at least 8, got {cutoff}")
    big = cutoff + pad
    dec = williamson(point.gamma)
    factors = _gaussian_factors(dec.S, big)
    if np.abs(point.d).max(initial=0.0) > 0.0:
        factors.insert(0, displacement_unitary(point.d, big))
    keep = np.ravel_multi_index(
        np.indices((cutoff,) * n).reshape(n, -1), (big,) * n
    )
    X = factors[0][keep]
    for F in factors[1:]:
        X = X @ F
    rho = (X * _thermal_weights(dec.nu, big)) @ X.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    tail = float(1.0 - np.trace(rho).real)
    low = np.linalg.eigvalsh(rho)[0]
    if low < -1e-10:
        raise ConvergenceError(f"constructed state has eigenvalue {low:.3e} < 0")
    if tail > tail_bound:
        raise PreconditionError(
            "tail_mass",
            f"truncation at cutoff {cutoff} loses {tail:.3e} > {tail_bound:.3e}; "
            f"suggested cutoff is {suggested_cutoff(point)}",
        )
    return TruncatedState(n=n, cutoff=cutoff, rho=rho, tail_mass=tail)


def state_moments(state: TruncatedState) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments ``(d, gamma)`` extracted from the matrix.

    Moments are taken with respect to the truncated state normalized on its
    support, so deviations from the exact values measure truncation error
    only.
    """
    R = quadrature_operators(state.n, state.cutoff)
    norm = np.trace(state.rho).real
    d = np.array([np.trace(state.rho @ Rk).real for Rk in R]) / norm
    delta = R - d[:, None, None] * np.eye(state.cutoff**state.n)
    m = 2 * state.n
    gamma = np.empty((m, m))
    for i in range(m):
        rd = state.rho @ delta[i]
        for j in range(i, m):
            gamma[i, j] = gamma[j, i] = (
                np.trace(rd @ delta[j]).real * 2.0 / norm
            )
    return d, gamma


def _solve_sld_eigenbasis(
    rho: np.ndarray, drho: np.ndarray
) -> tuple[float, float]:
    """QFI and excluded-subspace weight from the eigenbasis formula.

    Eigenpairs with ``p_m + p_n <= 1e-12 * max(p)`` are excluded from the
    solve; the derivative weight sitting on them is returned alongside so it
    can be reported rather than hidden.
    """
    p, V = np.linalg.eigh(rho)
    M = V.conj().T @ drho @ V
    denom = p[:, None] + p[None, :]
    keep = denom > 1e-12 * p.max()
    qfi = float(np.sum(2.0 * np.abs(M[keep]) ** 2 / denom[keep]))
    excluded = float(np.sum(np.abs(M[~keep]) ** 2))
    return qfi, excluded


def qfi_fock(
    family: ModelFamily,
    theta: float,
    cutoff: int,
    h: float = 1e-4,
    pad: int = 12,
    tail_bound: float = 1e-3,
) -> float:
    """Quantum Fisher information computed entirely in the Fock basis.

    Builds the state at ``theta`` and ``theta ± h``, forms the derivative by
    central difference, solves the symmetric-logarithmic-derivative equation
    in the eigenbasis of the state, and returns ``tr[rho L²]``.
    """

    def rho_at(t: float) -> np.ndarray:
        d, g = family.moments(t)
        pt = GaussianModelPoint(
            d=d, gamma=g, dd=np.zeros_like(d), dgamma=np.zeros_like(g)
        )
        return build_state(pt, cutoff, pad=pad, tail_bound=tail_bound).rho

    rho = rho_at(theta)
    drho = (rho_at(theta + h) - rho_at(theta - h)) / (2.0 * h)
    qfi, _ = _solve_sld_eigenbasis(rho, drho)
    return qfi


@dataclass(frozen=True)
class FockConvergence:
    """Convergence probe around a single oracle evaluation.

    ``cutoff_shift`` is the change when the basis grows by ``cutoff + step``;
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
    family: ModelFamily,
    theta: float,
    cutoff: int,
    h: float = 1e-4,
    cutoff_step: int = 10,
    pad: int = 12,
    tail_bound: float = 1e-3,
) -> FockConvergence:
    """Oracle value plus its sensitivity to cutoff and difference step."""
    value = qfi_fock(family, theta, cutoff, h, pad=pad, tail_bound=tail_bound)
    cutoff_value = qfi_fock(
        family, theta, cutoff + cutoff_step, h, pad=pad, tail_bound=tail_bound
    )
    step_value = qfi_fock(
        family, theta, cutoff, h / 2.0, pad=pad, tail_bound=tail_bound
    )
    return FockConvergence(
        value=value,
        cutoff_value=cutoff_value,
        cutoff_shift=abs(cutoff_value - value),
        step_value=step_value,
        step_shift=abs(step_value - value),
    )


def sld_matrix(
    coeffs: SLDCoefficients, d: np.ndarray, cutoff: int
) -> np.ndarray:
    """Assemble the SLD observable as a Fock matrix.

    Returns ``sum_ij L_ij (R-d)_i (R-d)_j + sum_i b_i (R-d)_i + c`` (the
    quadratic term is automatically Hermitian because ``L`` is symmetric).
    """
    d = np.asarray(d, dtype=float)
    n = d.size // 2
    R = quadrature_operators(n, cutoff)
    eye = np.eye(cutoff**n)
    delta = R - d[:, None, None] * eye
    out = coeffs.c * eye.astype(complex)
    for i in range(2 * n):
        out += coeffs.b[i] * delta[i]
        for j in range(2 * n):
            if coeffs.L[i, j] != 0.0:
                out += coeffs.L[i, j] * (delta[i] @ delta[j])
    return out


def sld_residual(
    point: GaussianModelPoint,
    coeffs: SLDCoefficients,
    cutoff: int,
    h: float = 1e-4,
    pad: int = 12,
    tail_bound: float = 1e-3,
) -> float:
    """Trace-norm defect of the SLD equation for the given coefficients.

    Differentiates the state numerically along the point's own tangent
    ``(dd, dgamma)`` and returns ``|| drho - (rho L + L rho)/2 ||_1``.  A
    correct coefficient set drives this to the truncation floor; a wrong one
    leaves an O(1) residual.

    The states are taken on the curve ``Gamma + t dGamma + t^2 kappa I`` with
    ``kappa = |dGamma|_2^2 |Gamma^-1|_2``.  On a pure state the straight line
    ``Gamma + t dGamma`` leaves the physical set at order ``t^2`` even for a
    purity-preserving tangent; the even term lifts it back, and the central
    difference cancels it, so the tangent is unchanged.  A tangent that
    lowers a symplectic eigenvalue below 1 to first order still yields an
    unphysical state, and :func:`build_state` raises ``ConvergenceError``.

    On squeezed models the residual converges far more slowly in the cutoff
    than ``tail_mass``, so it needs cutoffs well beyond
    :func:`suggested_cutoff`.  For ``phase_squeezed`` with ``r = 1`` at
    ``theta = 0.7`` it is 0.015, 1.3e-3 and 2.2e-4 at cutoffs 60, 80 and 100
    on the pure state (suggested cutoff 22), and 0.029, 2.9e-3 and 3.5e-4
    with ``nu = 1.5`` (suggested cutoff 29); the step ``h`` does not matter.
    """
    kappa = np.linalg.norm(point.dgamma, 2) ** 2 / np.linalg.eigvalsh(point.gamma)[0]
    lift = kappa * np.eye(point.gamma.shape[0])

    def rho_at(t: float) -> np.ndarray:
        pt = GaussianModelPoint(
            d=point.d + t * point.dd,
            gamma=point.gamma + t * point.dgamma + t * t * lift,
            dd=np.zeros_like(point.d),
            dgamma=np.zeros_like(point.gamma),
        )
        return build_state(pt, cutoff, pad=pad, tail_bound=tail_bound).rho

    rho = rho_at(0.0)
    drho = (rho_at(h) - rho_at(-h)) / (2.0 * h)
    Lhat = sld_matrix(coeffs, point.d, cutoff)
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


def identity_checks(
    point: GaussianModelPoint,
    cutoff: int,
    pad: int = 12,
    xi_count: int = 12,
    xi_radius: float = 2.0,
    seed: int = 7,
) -> IdentityReport:
    """Check the standard Gaussian-state identities on the Fock matrix.

    Verifies moment recovery, the Gaussian characteristic function at a
    deterministic sample of phase-space points with ``|xi| <= xi_radius``,
    and the factorization of symmetrized fourth moments
    ``<(dR_i o dR_j) o (dR_k o dR_l)>`` into covariance/symplectic-form
    pairs.  Never raises; truncation quality is part of the report.
    """
    state = build_state(point, cutoff, pad=pad, tail_bound=np.inf)
    n, m = state.n, 2 * point.n
    norm = np.trace(state.rho).real
    d_fock, gamma_fock = state_moments(state)
    displacement_dev = float(np.abs(d_fock - point.d).max())
    covariance_dev = float(np.abs(gamma_fock - point.gamma).max())

    R = quadrature_operators(n, cutoff)
    omega = symplectic_form(n)
    rng = np.random.default_rng(seed)
    xis = rng.standard_normal((xi_count, m))
    xis *= (xi_radius * rng.random(xi_count) ** (1.0 / m) / np.linalg.norm(
        xis, axis=1
    ))[:, None]
    char_dev = 0.0
    for xi in xis:
        eta = omega @ xi
        W = _expi(-np.einsum("k,kab->ab", eta, R))
        measured = np.trace(state.rho @ W) / norm
        predicted = np.exp(1j * eta @ point.d - 0.25 * eta @ point.gamma @ eta)
        char_dev = max(char_dev, float(abs(measured - predicted)))

    eye = np.eye(cutoff**n)
    delta = R - point.d[:, None, None] * eye
    pair = np.empty((m, m), dtype=object)
    rho_pair = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(i, m):
            A = 0.5 * (delta[i] @ delta[j] + delta[j] @ delta[i])
            pair[i, j] = pair[j, i] = A
            B = state.rho @ A
            rho_pair[i, j] = rho_pair[j, i] = B
    g, w = point.gamma, omega
    fourth_dev = 0.0
    for i in range(m):
        for j in range(i, m):
            for k in range(m):
                for l in range(k, m):
                    measured = (
                        np.sum(rho_pair[i, j].T * pair[k, l]).real / norm
                    )
                    predicted = 0.25 * (
                        g[i, j] * g[k, l]
                        + g[i, k] * g[j, l]
                        - w[i, k] * w[j, l]
                        + g[i, l] * g[j, k]
                        - w[i, l] * w[j, k]
                    )
                    fourth_dev = max(fourth_dev, abs(measured - predicted))
    return IdentityReport(
        displacement_dev=displacement_dev,
        covariance_dev=covariance_dev,
        char_dev=char_dev,
        fourth_moment_dev=fourth_dev,
        tail_mass=state.tail_mass,
    )
