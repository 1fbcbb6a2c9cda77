"""One-parameter Gaussian models: built-in families, derivatives, gates.

A *model point* bundles the first and second moments of a Gaussian state at a
parameter value together with their derivatives: ``(d, Gamma, dd, dGamma)``.
Everything downstream (SLD, Fisher informations, measurement design) consumes
model points, so external models can be supplied either through a built-in
family, or as explicit arrays in a config document.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigError, NearSingularWarning, PreconditionError
from .symplectic import (
    _ISOTHERMAL_TOL,
    _hamiltonian_deviation,
    _require_state,
    _symmetric_part,
    validate_covariance,
)

_ROUNDING = 16 * np.finfo(float).eps  # per unit of |Si|_F^2 max|Gamma / nu|

__all__ = [
    "GaussianModelPoint",
    "ModelFamily",
    "builtin_family",
    "IsothermalCheck",
    "check_isothermal",
    "ModelConfig",
    "parse_model_config",
    "load_model_config",
]


@dataclass(frozen=True)
class GaussianModelPoint:
    """Moments and moment derivatives of a Gaussian model at one parameter value.

    ``gamma`` and ``dgamma`` are held to the symmetry rule of
    :func:`~gaussqfi.symplectic.validate_covariance` (finite, and
    ``max|M - M^T| <= 1e-8 (1 + max|M|)``) and stored as their symmetric
    parts, so every consumer of a point reads symmetric matrices.

    Attributes:
        d: first moments, length 2n, ordering (Q.., P..).
        gamma: covariance matrix, 2n x 2n, vacuum-normalised, symmetric.
        dd: parameter derivative of ``d``.
        dgamma: parameter derivative of ``gamma``, symmetric.

    Raises:
        ConfigError: on inconsistent shapes, non-finite entries, or a
            ``gamma`` or ``dgamma`` the symmetry rule refuses.
    """

    d: np.ndarray
    gamma: np.ndarray
    dd: np.ndarray
    dgamma: np.ndarray

    def __post_init__(self):
        for name in ("d", "gamma", "dd", "dgamma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        m = self.d.size
        if self.d.ndim != 1 or m % 2:
            raise ConfigError(f"d must have even length, got shape {self.d.shape}")
        if self.gamma.shape != (m, m):
            raise ConfigError(
                f"gamma shape {self.gamma.shape} inconsistent with d length {m}"
            )
        if self.dd.shape != (m,):
            raise ConfigError(f"dd shape {self.dd.shape} inconsistent with d length {m}")
        if self.dgamma.shape != (m, m):
            raise ConfigError(
                f"dgamma shape {self.dgamma.shape} inconsistent with d length {m}"
            )
        for name in ("d", "dd"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} contains non-finite entries")
        for name in ("gamma", "dgamma"):
            try:
                object.__setattr__(self, name, _symmetric_part(getattr(self, name), name))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    @property
    def n(self) -> int:
        return self.d.size // 2


@dataclass
class ModelFamily:
    """A one-parameter family ``theta -> (d, Gamma, dd, dGamma)``.

    Attributes:
        name: family label (appears in CLI output).
        fn: callable ``theta -> (d, gamma, dd, dgamma)``, the moments at
            ``theta`` and their closed-form derivatives.
    """

    name: str
    fn: Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    def point(self, theta: float) -> GaussianModelPoint:
        """Evaluate the family at ``theta``."""
        return GaussianModelPoint(*self.fn(theta))


def _linear_family(point: GaussianModelPoint) -> ModelFamily:
    """Lifted tangent curve through ``point``, which sits at ``t = 0``.

    The curve is ``(d + t dd, Gamma + t dGamma + t^2 kappa I)`` with
    ``kappa = |dGamma|_2^2 |Gamma^-1|_2``, and its derivative is
    ``(dd, dGamma + 2 t kappa I)``; its ``fn`` returns both.  At ``t = 0``
    it returns ``point`` itself.  It lets consumers that take a family work
    with explicitly supplied model points.  Only a sweep evaluates the curve
    away from ``t = 0``; the Fock oracle's calls read the point at ``t = 0``
    and its own tangent ``(dd, dGamma)``.  On a pure state the straight line
    ``Gamma + t dGamma`` leaves the physical set at order ``t^2`` even for a
    purity-preserving tangent; the even term lifts it back, and its
    derivative vanishes at ``t = 0``, so the tangent is unchanged.  A
    tangent that lowers a symplectic eigenvalue below 1 to first order still
    leaves the physical set on one side, where a sweep raises
    ``PreconditionError`` (flag ``"nu_min"``).
    """
    kappa = np.linalg.norm(point.dgamma, 2) ** 2 / np.linalg.eigvalsh(point.gamma)[0]
    lift = kappa * np.eye(point.gamma.shape[0])

    def fn(t: float):
        return (
            point.d + t * point.dd,
            point.gamma + t * point.dgamma + t * t * lift,
            point.dd,
            point.dgamma + 2 * t * lift,
        )

    return ModelFamily("explicit", fn)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def _family_displacement(params: dict) -> ModelFamily:
    _family_params(params, "displacement")

    def fn(theta: float):
        return np.array([theta, 0.0]), np.eye(2), np.array([1.0, 0.0]), np.zeros((2, 2))

    return ModelFamily("displacement", fn)


def _family_thermal(params: dict) -> ModelFamily:
    _family_params(params, "thermal")

    def fn(theta: float):
        if theta < 1.0:
            raise ConfigError(f"thermal family requires theta >= 1, got {theta}")
        if theta == 1.0:
            warnings.warn(
                "thermal family at theta = 1 is a pure state; its QFI "
                "1/(theta^2 - 1) diverges here",
                NearSingularWarning,
                stacklevel=2,
            )
        return np.zeros(2), theta * np.eye(2), np.zeros(2), np.eye(2)

    return ModelFamily("thermal", fn)


def _squeeze_diag(r: float) -> np.ndarray:
    return np.diag([math.exp(2 * r), math.exp(-2 * r)])


def _family_squeezing(params: dict) -> ModelFamily:
    (nu,) = _family_params(params, "squeezing", nu=1.0)

    def fn(theta: float):
        dgamma = nu * np.diag([2 * math.exp(2 * theta), -2 * math.exp(-2 * theta)])
        return np.zeros(2), nu * _squeeze_diag(theta), np.zeros(2), dgamma

    return ModelFamily("squeezing", fn)


def _phase_family(name: str, gamma0: np.ndarray) -> ModelFamily:
    """The phase of mode 1 of the state with covariance ``gamma0``:
    ``Gamma = R gamma0 R^T`` with ``R(theta)`` the rotation of ``(Q_1, P_1)``,
    and tangent ``J Gamma - Gamma J`` with ``J = R'(0)``."""
    n = gamma0.shape[0] // 2
    J = np.zeros_like(gamma0)
    J[0, n], J[n, 0] = -1.0, 1.0

    def fn(theta: float):
        c, s = math.cos(theta), math.sin(theta)
        R = np.eye(2 * n)
        R[0, 0] = R[n, n] = c
        R[0, n], R[n, 0] = -s, s
        g = R @ gamma0 @ R.T
        return np.zeros(2 * n), g, np.zeros(2 * n), J @ g - g @ J

    return ModelFamily(name, fn)


def _family_phase_squeezed(params: dict) -> ModelFamily:
    r, nu = _family_params(params, "phase_squeezed", r=None, nu=1.0)
    return _phase_family("phase_squeezed", nu * _squeeze_diag(r))


def _family_two_mode_squeezed_phase(params: dict) -> ModelFamily:
    (r,) = _family_params(params, "two_mode_squeezed_phase", r=None)
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    base = np.zeros((4, 4))
    base[:2, :2] = [[ch, sh], [sh, ch]]
    base[2:, 2:] = [[ch, -sh], [-sh, ch]]
    return _phase_family("two_mode_squeezed_phase", base)


def _reject_unknown(doc, allowed: set, where: str, required: set = frozenset()) -> None:
    """Require ``doc`` to be an object with keys in ``allowed``, ``required`` among them."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {doc!r}")
    for problem, keys in (("unknown", set(doc) - allowed), ("missing", required - set(doc))):
        if keys:
            raise ConfigError(f"{where}: {problem} key(s) {sorted(keys)}")


def _is_finite_number(value) -> bool:
    """A finite real number as JSON writes it: no bool, no string, no null."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _number(
    doc: dict, key: str, where: str, default: float | None = None, minimum: float = -math.inf
) -> float:
    """``doc[key]`` as a finite float ``>= minimum``; ``default`` when absent,
    and absent is an error when there is no default."""
    if key not in doc:
        if default is None:
            raise ConfigError(f"{where}: missing key {key!r}")
        return default
    value = doc[key]
    if not _is_finite_number(value):
        raise ConfigError(f"{where}: {key!r} must be a finite number, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}: {key!r} must be >= {minimum:g}, got {value!r}")
    return float(value)


def _family_params(params: dict, name: str, **defaults: float | None) -> list[float]:
    """The values of the named parameters, in order; ``None`` marks a required
    one, and ``nu`` (a symplectic eigenvalue) must be at least 1."""
    where = f"family {name!r} params"
    _reject_unknown(params, set(defaults), where)
    return [
        _number(params, key, where, default, 1.0 if key == "nu" else -math.inf)
        for key, default in defaults.items()
    ]


_BUILTIN_FAMILIES = {
    "displacement": _family_displacement,
    "thermal": _family_thermal,
    "squeezing": _family_squeezing,
    "phase_squeezed": _family_phase_squeezed,
    "two_mode_squeezed_phase": _family_two_mode_squeezed_phase,
}


def builtin_family(name: str, params: dict | None = None) -> ModelFamily:
    """Instantiate a built-in family by name.

    Available: ``displacement`` (shift of Q on vacuum), ``thermal``
    (temperature as parameter), ``squeezing`` (squeeze strength),
    ``phase_squeezed`` (phase of a squeezed state, extra ``r``, ``nu``),
    ``two_mode_squeezed_phase`` (phase on one arm of a two-mode squeezed
    state, extra ``r``).
    """
    if not isinstance(name, str) or name not in _BUILTIN_FAMILIES:
        raise ConfigError(
            f"unknown family {name!r}; available: {sorted(_BUILTIN_FAMILIES)}"
        )
    return _BUILTIN_FAMILIES[name]({} if params is None else params)


# ---------------------------------------------------------------------------
# isothermal classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsothermalCheck:
    """Result of :func:`check_isothermal`.

    ``is_isothermal``: all symplectic eigenvalues equal ``nu``, the geometric
    mean of the symplectic eigenvalues, ``det(Gamma)^(1/2n)``.
    ``derivative_preserves_nu``: the derivative ``W = Si dGamma Si^T``, read
    in a symplectic frame ``Si`` with ``Si Gamma Si^T = nu I``, anticommutes
    with the symplectic form, i.e. the parameter moves the state along a
    symplectic orbit without changing its temperature.  ``nu`` is NaN when
    not isothermal.
    """

    is_isothermal: bool
    nu: float
    derivative_preserves_nu: bool


def _isothermal_gate(
    point: GaussianModelPoint,
) -> tuple[IsothermalCheck, np.ndarray | None, np.ndarray | None]:
    """The equal-temperature gates, plus the frame they computed.

    One Cholesky factor ``Lc`` of ``Gamma`` and the inverse of its leading
    block ``X = Lc[:n, :n]``; no eigendecomposition, no Williamson
    factorisation.  ``det Gamma = prod nu_k^2``, so an isothermal point has
    ``nu = exp(2 mean log diag Lc)``.  With ``C = Lc[n:, :n] X^-1``,

        ``Si = [[sqrt(nu) X^-1, 0], [-X^T C / sqrt(nu), X^T / sqrt(nu)]]``

    is the symplectic inverse of the block-triangular factor
    ``[[A, 0], [C A, A^-T]]``, ``A = X / sqrt(nu)``, of ``Gamma / nu``, and it
    is symplectic iff ``C`` is symmetric.  The point is isothermal iff ``C``
    is symmetric and ``Si (Gamma / nu) Si^T = I``.  Both deviations are
    compared with ``1e-8`` plus the rounding of that product,
    ``16 eps |Si|_F^2 max|Gamma / nu|``.  An isothermal point must then be a
    state, read in the frame ``Si``.

    Returns:
        ``(check, Si, W)``; ``Si`` and ``W`` are None when not isothermal.

    Raises:
        ValueError: if ``Gamma`` is not positive definite.
        PreconditionError: flag ``"nu_min"`` when the point is isothermal
            but not a state (see ``validate_covariance``).
    """
    n = point.n
    try:
        Lc = np.linalg.cholesky(point.gamma)
    except np.linalg.LinAlgError:
        raise ValueError("gamma is not positive definite") from None
    nu = float(np.exp(2.0 * np.mean(np.log(np.diagonal(Lc)))))
    X = Lc[:n, :n]
    Xi = np.linalg.inv(X)
    C = Lc[n:, :n] @ Xi
    rs = math.sqrt(nu)
    Si = np.zeros_like(Lc)
    Si[:n, :n] = rs * Xi
    Si[n:, :n] = -(X.T @ C) / rs
    Si[n:, n:] = X.T / rs
    G = point.gamma / nu
    cut = _ISOTHERMAL_TOL + _ROUNDING * float(np.sum(Si * Si)) * float(np.abs(G).max())
    if (
        np.abs(C - C.T).max() > cut
        or np.abs(Si @ G @ Si.T - np.eye(2 * n)).max() > cut
    ):
        return IsothermalCheck(False, math.nan, False), None, None
    _require_state(nu, Si, point.gamma)
    W = Si @ point.dgamma @ Si.T
    preserves = bool(_hamiltonian_deviation(W) <= _ISOTHERMAL_TOL * (1.0 + np.abs(W).max()))
    return IsothermalCheck(True, nu, preserves), Si, W


def check_isothermal(point: GaussianModelPoint) -> IsothermalCheck:
    """Classify a model point for the equal-temperature fast paths (tol 1e-8).

    Raises:
        ValueError: if ``Gamma`` is not positive definite.
        PreconditionError: flag ``"nu_min"`` when the point is isothermal
            but not a state (see ``validate_covariance``); spread
            temperatures read ``is_isothermal=False`` first.
    """
    return _isothermal_gate(point)[0]


def _require_isothermal(
    point: GaussianModelPoint,
) -> tuple[IsothermalCheck, np.ndarray, np.ndarray]:
    """:func:`_isothermal_gate`, raising when either gate fails.

    Raises:
        PreconditionError: flag ``"is_isothermal"``, checked first, then
            ``"nu_min"`` and ``"derivative_preserves_nu"``.
    """
    chk, Si, W = _isothermal_gate(point)
    if not chk.is_isothermal:
        raise PreconditionError("is_isothermal", "symplectic spectrum is not degenerate")
    if not chk.derivative_preserves_nu:
        raise PreconditionError(
            "derivative_preserves_nu", "the derivative changes the temperature"
        )
    return chk, Si, W


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    """A parsed model document: the evaluated point plus family context."""

    point: GaussianModelPoint
    family: ModelFamily
    theta: float
    label: str


_EXPLICIT_KEYS = {"n", "d", "Gamma", "dd", "dGamma"}


def _explicit_array(body: dict, key: str) -> np.ndarray:
    """``body[key]`` as a float array; every entry must be a finite JSON number.

    As :func:`_is_finite_number`, but each distinct type is checked once and
    the values as one array."""
    try:
        entries = np.array(body[key], dtype=object)
    except ValueError as exc:
        raise ConfigError(f"explicit model: {key!r} is malformed ({exc})") from exc
    values = None
    if all(k is not bool and issubclass(k, numbers.Real) for k in set(map(type, entries.flat))):
        try:
            values = entries.astype(float)
        except OverflowError:  # an integer too large for a float
            pass
    if values is None or not np.isfinite(values).all():
        raise ConfigError(f"explicit model: {key!r} must hold finite numbers only")
    return values


def _parse_explicit(doc: dict) -> ModelConfig:
    _reject_unknown(doc, {"explicit"}, "model config")
    body = doc["explicit"]
    _reject_unknown(body, _EXPLICIT_KEYS, "explicit model", required=_EXPLICIT_KEYS)
    n = body["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"explicit model: 'n' must be a positive integer, got {n!r}")
    point = GaussianModelPoint(
        *(_explicit_array(body, key) for key in ("d", "Gamma", "dd", "dGamma"))
    )
    if point.n != n:
        raise ConfigError(
            f"explicit model: declares n = {n} but arrays describe {point.n} mode(s)"
        )
    check = validate_covariance(point.gamma)
    if not check.valid:
        raise ConfigError(
            f"explicit model: 'Gamma' is not an admissible covariance matrix "
            f"(1 - nu_min = {1.0 - check.nu_min:.3g})"
        )
    return ModelConfig(point=point, family=_linear_family(point), theta=0.0, label="explicit")


def parse_model_config(doc: dict) -> ModelConfig:
    """Build a model from a config document.

    Two schemas are accepted::

        {"family": "thermal", "params": {...}, "theta": 2.0}

        {"explicit": {"n": 1, "d": [...], "Gamma": [[...]],
                      "dd": [...], "dGamma": [[...]]}}

    Unknown keys raise ``ConfigError``, as does any ``theta``, family
    parameter or array entry that is not a finite JSON number (bools and
    strings are not), an ``n`` that is not a positive integer, and arrays of
    the wrong shape.  Explicit ``Gamma`` and ``dGamma`` are held to the
    symmetry rule of :class:`GaussianModelPoint` and stored as their
    symmetric parts; ``Gamma`` must be admissible
    (:func:`~gaussqfi.symplectic.validate_covariance`).
    """
    if isinstance(doc, dict) and "explicit" in doc:
        return _parse_explicit(doc)
    _reject_unknown(
        doc, {"family", "params", "theta"}, "model config", required={"family", "theta"}
    )
    family = builtin_family(doc["family"], doc.get("params", {}))
    theta = _number(doc, "theta", "model config")
    label = f"{family.name}(theta={theta:g})"
    return ModelConfig(point=family.point(theta), family=family, theta=theta, label=label)


def load_model_config(path: str) -> ModelConfig:
    """Read and parse a JSON model document from ``path``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_model_config(doc)
