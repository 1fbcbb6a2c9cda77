"""One-parameter Gaussian models: built-in families, derivatives, gates.

A *model point* bundles the first and second moments of a Gaussian state at a
parameter value together with their derivatives: ``(d, Gamma, dd, dGamma)``.
Everything downstream (SLD, Fisher informations, measurement design) consumes
model points, so external models can be supplied either through a built-in
family, or as explicit arrays in a config document.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dgamma import _closed_form_frame, _Frame, _williamson_frame
from .exceptions import ConfigError, NearSingularWarning, PreconditionError
from .symplectic import (
    _EPS,
    _ISOTHERMAL_TOL,
    _VACUUM_ROUNDING,
    _hamiltonian_deviation,
    _is_state,
    _require_state,
    _symmetric_part,
    _w_left,
    _w_right,
)

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

    The four arrays are the point's own copies and read-only, so what is
    read from them once holds for the point's life.

    Every estimator reads the point through one Williamson frame record,
    ``Gamma = S diag(nu, nu) S^T`` with ``S^-1``, ``Xt = S^-1 dGamma S^-T``
    and the rounding scale ``eps |S|_F^2 tr Gamma``, formed once per point
    and held privately outside the fields.  :meth:`ModelFamily.point` of a
    built-in family sets it from the family's closed-form factor (see
    :func:`~gaussqfi.dgamma._closed_form_frame`), so nothing is factorised;
    a point built from arrays, or by ``dataclasses.replace``, takes one
    ``williamson(Gamma)`` on first read.

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
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
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
        for name in ("d", "gamma", "dd", "dgamma"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.d.size // 2

    @functools.cached_property
    def _frame(self) -> _Frame:
        """The point's Williamson frame record (see :class:`~gaussqfi.dgamma._Frame`)
        from ``williamson(Gamma)``; :meth:`ModelFamily.point` sets a built-in
        point's in closed form.

        Raises:
            ValueError: if ``Gamma`` is not positive definite.
            ConvergenceError: if ``williamson`` misses its bound.
        """
        return _williamson_frame(self.gamma, self.dgamma)


@dataclass(frozen=True)
class _FactoredFn:
    """The ``fn`` of a built-in family: ``moments(theta) = (d, Gamma, dd,
    dGamma)``, and ``factor(theta) = (S, nu, A, dnu)``, its Williamson factor
    in closed form (see :func:`~gaussqfi.dgamma._closed_form_frame`), which
    goes wherever this ``fn`` goes."""

    # own lab formulas: S Xt S^T off the factor is asymmetric by 9.83 at two-mode r 10, theta 0
    moments: Callable
    factor: Callable

    def __call__(self, theta: float):
        return self.moments(theta)


@dataclass
class ModelFamily:
    """A one-parameter family ``theta -> (d, Gamma, dd, dGamma)``.

    Attributes:
        name: family label (appears in CLI output).
        fn: callable ``theta -> (d, gamma, dd, dgamma)``, the moments at
            ``theta`` and their closed-form derivatives.

    The ``fn`` of a built-in family carries its Williamson factor in closed
    form: a point of any family holding that ``fn`` (a renamed copy, or
    another family given it) takes its frame from the factor.  Any other
    ``fn``, a wrapper of a built-in one included, gives points that take one
    ``williamson``.
    """

    name: str
    fn: Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    def point(self, theta: float) -> GaussianModelPoint:
        """Evaluate the family at ``theta``."""
        fn = self.fn
        point = GaussianModelPoint(*fn(theta))
        if isinstance(fn, _FactoredFn):  # fill the cached _frame
            point.__dict__["_frame"] = _closed_form_frame(*fn.factor(theta), point.gamma)
        return point


def _eigenvalue_floor(gamma: np.ndarray) -> tuple[float, float]:
    """``(eig_min, bound)``: the smallest eigenvalue of ``gamma`` as computed
    in floating point, and the bound ``2n eps |gamma|_2`` within which
    rounding moves it."""
    eigs = np.linalg.eigvalsh(gamma)
    return float(eigs[0]), gamma.shape[0] * _EPS * float(np.abs(eigs).max())


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

    ``kappa`` needs the smallest eigenvalue of ``Gamma``, which rounding
    moves by up to about ``2n eps |Gamma|_2``.  When the computed eigenvalue
    lies within that bound (a strongly squeezed ``Gamma``: it may then read
    0, negative, or positive but meaningless), or ``kappa`` overflows, the
    curve cannot be formed: building the family still succeeds, so the point
    itself stays readable, but evaluating the curve raises
    ``PreconditionError`` (flag ``"ill_conditioned"``), giving the
    eigenvalue and the bound, before any non-finite moment is formed.
    """
    eig_min, bound = _eigenvalue_floor(point.gamma)
    norm = float(np.linalg.norm(point.dgamma, 2))
    kappa = norm * norm / eig_min if eig_min > bound else math.inf
    if math.isfinite(kappa):
        lift = kappa * np.eye(point.gamma.shape[0])

    def fn(t: float):
        if not math.isfinite(kappa):
            raise PreconditionError(
                "ill_conditioned",
                f"the smallest eigenvalue of Gamma is {eig_min:.3g} in floating point, "
                f"within its rounding bound 2n eps |Gamma|_2 = {bound:.3g}, so the "
                "lifted tangent curve of this explicit model cannot be formed",
            )
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
    """Shift of Q on the vacuum: ``S = I``, ``nu = 1``, ``A = 0``, ``dnu = 0``."""
    _family_params(params, "displacement")

    def fn(theta: float):
        return np.array([theta, 0.0]), np.eye(2), np.array([1.0, 0.0]), np.zeros((2, 2))

    def factor(theta: float):
        return np.eye(2), np.ones(1), np.zeros((2, 2)), np.zeros(1)

    return ModelFamily("displacement", _FactoredFn(fn, factor))


def _family_thermal(params: dict) -> ModelFamily:
    """Temperature as parameter: ``S = I``, ``nu = theta``, ``A = 0``, ``dnu = 1``."""
    _family_params(params, "thermal")

    def fn(theta: float):
        if theta < 1.0:
            raise ConfigError(f"thermal family requires theta >= 1, got {theta}")
        if theta == 1.0:
            warnings.warn(
                "thermal family at theta = 1 is a pure state; its QFI "
                "1/(theta^2 - 1) diverges here",
                NearSingularWarning,
                stacklevel=3,  # the caller of fn, past _FactoredFn.__call__
            )
        return np.zeros(2), theta * np.eye(2), np.zeros(2), np.eye(2)

    def factor(theta: float):
        return np.eye(2), np.array([theta]), np.zeros((2, 2)), np.ones(1)

    return ModelFamily("thermal", _FactoredFn(fn, factor))


def _squeeze_diag(r: float) -> np.ndarray:
    return np.diag([math.exp(2 * r), math.exp(-2 * r)])


def _family_squeezing(params: dict) -> ModelFamily:
    """Squeeze strength of a thermal state at ``nu``:
    ``S = diag(e^theta, e^-theta)``, ``A = diag(1, -1)``, ``dnu = 0``."""
    (nu,) = _family_params(params, "squeezing", nu=1.0)

    def fn(theta: float):
        dgamma = nu * np.diag([2 * math.exp(2 * theta), -2 * math.exp(-2 * theta)])
        return np.zeros(2), nu * _squeeze_diag(theta), np.zeros(2), dgamma

    def factor(theta: float):
        S = np.diag([math.exp(theta), math.exp(-theta)])
        return S, np.array([nu]), np.diag([1.0, -1.0]), np.zeros(1)

    return ModelFamily("squeezing", _FactoredFn(fn, factor))


def _phase_family(name: str, gamma0: np.ndarray, S0: np.ndarray, nu: float) -> ModelFamily:
    """The phase of mode 1 of the state with covariance
    ``gamma0 = S0 (nu I) S0^T``: ``Gamma = R gamma0 R^T`` with ``R(theta)``
    the rotation of ``(Q_1, P_1)``, and tangent ``J Gamma - Gamma J`` with
    ``J = R'(0)``.  Its factor is ``S = R S0`` at ``nu``, with
    ``A = S0^-1 J S0`` for every ``theta`` (``R = exp(theta J)`` commutes
    with ``J``) and ``dnu = 0``."""
    n = gamma0.shape[0] // 2
    J = np.zeros_like(gamma0)
    J[0, n], J[n, 0] = -1.0, 1.0
    A = _w_right(_w_left(-S0.T)) @ J @ S0
    nus, dnus = np.full(n, nu), np.zeros(n)
    for table in (A, nus, dnus):  # shared by every point of the family
        table.setflags(write=False)

    def rotation(theta: float) -> np.ndarray:
        c, s = math.cos(theta), math.sin(theta)
        R = np.eye(2 * n)
        R[0, 0] = R[n, n] = c
        R[0, n], R[n, 0] = -s, s
        return R

    def fn(theta: float):
        R = rotation(theta)
        g = R @ gamma0 @ R.T
        return np.zeros(2 * n), g, np.zeros(2 * n), J @ g - g @ J

    def factor(theta: float):
        return rotation(theta) @ S0, nus, A, dnus

    return ModelFamily(name, _FactoredFn(fn, factor))


def _family_phase_squeezed(params: dict) -> ModelFamily:
    """``S0 = diag(e^r, e^-r)`` at ``nu``, so ``A = [[0, -e^-2r], [e^2r, 0]]``."""
    r, nu = _family_params(params, "phase_squeezed", r=None, nu=1.0)
    S0 = np.diag([math.exp(r), math.exp(-r)])
    return _phase_family("phase_squeezed", nu * _squeeze_diag(r), S0, nu)


def _family_two_mode_squeezed_phase(params: dict) -> ModelFamily:
    """``S0 = [[M, 0], [0, M^-1]]``, ``M = [[cosh r, sinh r], [sinh r, cosh r]]``,
    at ``nu = 1``: the pure two-mode squeezed vacuum."""
    (r,) = _family_params(params, "two_mode_squeezed_phase", r=None)
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    base = np.zeros((4, 4))
    base[:2, :2] = [[ch, sh], [sh, ch]]
    base[2:, 2:] = [[ch, -sh], [-sh, ch]]
    c, s = math.cosh(r), math.sinh(r)
    S0 = np.zeros((4, 4))
    S0[:2, :2] = [[c, s], [s, c]]
    S0[2:, 2:] = [[c, -s], [-s, c]]
    return _phase_family("two_mode_squeezed_phase", base, S0, 1.0)


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

    Every one writes its covariance as ``S diag(nu, nu) S^T`` and holds that
    factor in closed form, with ``A = S^-1 dS`` and ``dnu``; its points carry
    it as their frame, so no estimator factorises them.
    A point whose ``S`` has ``eps |S|_F^2 >= 1`` raises ``FloatingPointError``.
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

    ``is_isothermal``: the symplectic eigenvalues of the point's Williamson
    frame agree, and ``nu`` is their mean.
    ``derivative_preserves_nu``: the derivative read in that frame,
    ``W = Xt = S^-1 dGamma S^-T``, anticommutes with the symplectic form,
    i.e. the parameter moves the state along a symplectic orbit without
    changing its temperature.  ``nu`` is NaN when not isothermal.
    """

    is_isothermal: bool
    nu: float
    derivative_preserves_nu: bool


def check_isothermal(point: GaussianModelPoint) -> IsothermalCheck:
    """Classify a model point for the equal-temperature fast paths (tol 1e-8).

    Both gates read the point's Williamson frame record (see
    :class:`GaussianModelPoint`).  The point is isothermal iff
    ``nu_max - nu_min`` is within ``1e-8 nu_min`` plus the kernel rule's
    rounding allowance, ``16 eps |S|_F^2 tr Gamma``.  An isothermal point
    must be a state, and its derivative ``W = Xt`` preserves ``nu`` iff it
    anticommutes with ``w`` within ``1e-8 (1 + max|W|)``.

    The spread and the state rule read the frame's rounding scale
    ``eps |S|_F^2 tr Gamma``; ``max|W|`` and the deviation
    ``max(|W_QQ + W_PP|, |W_QP - W_PQ|)`` are formed once, from the blocks
    of ``W``.

    Raises:
        ValueError: if ``Gamma`` is not positive definite (a point that
            takes ``williamson``).
        PreconditionError: flag ``"nu_min"`` when the point is isothermal
            but not a state (see ``validate_covariance``); spread
            temperatures read ``is_isothermal=False`` first.
    """
    frame = point._frame
    nu, W = frame.nu, frame.Xt
    if nu[0] - nu[-1] > _ISOTHERMAL_TOL * nu[-1] + _VACUUM_ROUNDING * frame.rounding:  # descending
        return IsothermalCheck(False, math.nan, False)
    mean = float(nu.sum()) / nu.size
    _require_state(mean, frame.rounding)
    preserves = _hamiltonian_deviation(W) <= _ISOTHERMAL_TOL * (1.0 + float(np.abs(W).max()))
    return IsothermalCheck(True, mean, preserves)


def _require_isothermal(point: GaussianModelPoint) -> IsothermalCheck:
    """:func:`check_isothermal`, raising when either gate fails.

    Raises:
        PreconditionError: flag ``"is_isothermal"``, checked first, then
            ``"nu_min"`` and ``"derivative_preserves_nu"``.
    """
    chk = check_isothermal(point)
    if not chk.is_isothermal:
        raise PreconditionError("is_isothermal", "symplectic spectrum is not degenerate")
    if not chk.derivative_preserves_nu:
        raise PreconditionError(
            "derivative_preserves_nu", "the derivative changes the temperature"
        )
    return chk


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
    refused = "explicit model: 'Gamma' is not an admissible covariance matrix"
    try:
        frame = point._frame
    except ValueError:  # its Cholesky factor fails: not positive definite in floating point
        eig_min, bound = _eigenvalue_floor(point.gamma)
        raise ConfigError(
            f"{refused} (its Cholesky factor fails: the smallest eigenvalue of Gamma is "
            f"{eig_min:.3g} in floating point, against its rounding bound "
            f"2n eps |Gamma|_2 = {bound:.3g})"
        ) from None
    nu_min = float(frame.nu[-1])
    if not _is_state(nu_min, frame.rounding):
        raise ConfigError(f"{refused} (1 - nu_min = {1.0 - nu_min:.3g})")
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
