"""The three benchmark workloads: inputs, operations and their verification.

A workload is a fixed *cycle* of operations built from a seed by one of the
functions in ``WORKLOADS``.  The timed
loop repeats whole cycles, so every run of a workload has the same mix of
operations whatever its seed; the seed moves only the numbers inside them.

Each operation has

* ``run()``: the timed call into the package;
* ``collect(result)``: untimed, turns the return value into the kept output
  (for sweeps: reads the CSV back);
* ``check(output)``: after the timed phase, compares the output with an
  independent route and returns ``None`` or the reason it is wrong.

Tolerances are the ones ``tests/test_acceptance.py`` (and, where it has none
for an identity, ``tests/test_fock.py``) applies to the same identity.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    collect: Callable[[object], object] | None = None


def _mismatch(what: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return f"{what}: got {got:.12g}, want {want:.12g} (|diff| {abs(got - want):.3g} > {tol:.3g})"


def _first_failure(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


# ---------------------------------------------------------------------------
# point-large: what `gaussqfi qfi` computes, on one large model point
# ---------------------------------------------------------------------------

# (modes, points of each kind per cycle); two kinds, mixed and pure.
POINT_SIZES = ((5, 2), (10, 2), (20, 2), (40, 1))
STEIN_RTOL = 1e-8  # criterion 07: series solve against the spectral pseudoinverse
PURE_TOL = 1e-10  # criteria 03 and 04: qfi / wigner_fisher = 1/2, homodyne = qfi


def _point_op(gq, point, kind: str, pure: bool) -> Op:
    def run():
        rep = gq.qfi_general(point)
        try:
            frame = gq.isothermal_frame(point)
        except gq.PreconditionError as exc:
            return rep, exc.flag
        return rep, gq.optimal_homodyne_fisher(frame)

    reference: dict[str, float] = {}

    def check_mixed(out) -> str | None:
        rep, homodyne = out
        if homodyne != "is_isothermal":
            return f"homodyne step: expected rejection at is_isothermal, got {homodyne!r}"
        if not reference:
            Y = gq.stein_series_solve(point.gamma, point.dgamma)
            second = 0.5 * float(np.sum(point.dgamma * Y))
            first = 2.0 * float(point.dd @ np.linalg.solve(point.gamma, point.dd))
            # The criterion-07 bound on Y, carried through tr[dGamma Y] / 2.
            tol = 0.5 * float(np.abs(point.dgamma).sum()) * STEIN_RTOL * (
                1.0 + float(np.abs(Y).max())
            ) + 1e-10 * (1.0 + first)
            reference.update(qfi=first + second, tol=tol)
        return _mismatch("qfi vs Stein series", rep.qfi, reference["qfi"], reference["tol"])

    def check_pure(out) -> str | None:
        rep, homodyne = out
        if isinstance(homodyne, str):
            return f"homodyne step rejected at {homodyne} on an equal-temperature point"
        return _first_failure(
            _mismatch("qfi / wigner_fisher", rep.qfi / rep.wigner_fisher, 0.5, PURE_TOL),
            _mismatch("optimal homodyne vs qfi", homodyne, rep.qfi, PURE_TOL * max(1.0, rep.qfi)),
        )

    return Op(kind=kind, run=run, check=check_pure if pure else check_mixed)


def point_large(gq, seed: int, work_dir: str) -> list[Op]:
    cycle = []
    k = 0
    for n, count in POINT_SIZES:
        for _ in range(count):
            s = 10_000 * seed + 100 * k
            k += 1
            mixed = gq.GaussianModelPoint(**inputs.random_model_point(n, s))
            pure = gq.GaussianModelPoint(**inputs.random_isothermal_point(n, s, nu=1.0))
            cycle.append(_point_op(gq, mixed, f"n={n} mixed", pure=False))
            cycle.append(_point_op(gq, pure, f"n={n} pure", pure=True))
    return cycle


# ---------------------------------------------------------------------------
# sweep-small: one in-process `gaussqfi sweep --out` over a 400-point grid
# ---------------------------------------------------------------------------

SWEEP_STEPS = 400
CSV_HEADER = (
    "theta,qfi,qfi_first_moment,qfi_second_moment,"
    "wigner_fisher,homodyne_opt,ratio,method,warnings"
)
CLOSED_FORM_TOL = 1e-10  # criteria 01 and 03
CSV_RTOL = 5e-12  # half a unit in the 12th significant digit of a CSV cell


def _sweep_families(rng: np.random.Generator):
    """(family, params, start, stop, qfi(theta), homodyne_opt(theta, qfi) or None)."""
    r1, r2, nu = 1.0, 0.6, 1.5
    a = rng.uniform(-math.pi, math.pi)
    b = rng.uniform(-math.pi, math.pi)
    return (
        ("phase_squeezed", {"r": r1}, a, a + rng.uniform(math.pi, 2 * math.pi),
         lambda t: 2.0 * math.sinh(2 * r1) ** 2, lambda t, q: q),
        ("two_mode_squeezed_phase", {"r": r2}, b, b + rng.uniform(math.pi, 2 * math.pi),
         lambda t: math.sinh(2 * r2) ** 2, lambda t, q: q),
        ("squeezing", {"nu": nu}, rng.uniform(-1.0, -0.5), rng.uniform(0.5, 1.0),
         lambda t: 4 * nu**2 / (1 + nu**2), lambda t, q: 2.0),
        ("thermal", {}, rng.uniform(1.1, 1.3), rng.uniform(3.5, 4.0),
         lambda t: 1.0 / (t * t - 1.0), None),
    )


def _cell_tol(x: float) -> float:
    return CLOSED_FORM_TOL + CSV_RTOL * abs(x)


def _check_sweep_csv(text: str, start: float, stop: float, qfi_of, hom_of) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != CSV_HEADER:
        return "CSV header differs from the documented one"
    rows = rows[1:]
    if len(rows) != SWEEP_STEPS:
        return f"CSV has {len(rows)} rows, want {SWEEP_STEPS}"
    for want_theta, row in zip(np.linspace(start, stop, SWEEP_STEPS), rows):
        theta, qfi, hom = float(row[0]), float(row[1]), row[5]
        exact = qfi_of(want_theta)  # the cell holds a rounded theta
        reason = _first_failure(
            _mismatch("theta", theta, want_theta, _cell_tol(want_theta)),
            _mismatch(f"qfi at theta={theta:g}", qfi, exact, _cell_tol(exact)),
        )
        if reason is None and hom_of is None and hom != "":
            reason = f"homodyne_opt at theta={theta:g} should be empty, got {hom}"
        elif reason is None and hom_of is not None:
            if hom == "":
                reason = f"homodyne_opt at theta={theta:g} is empty"
            else:
                want = hom_of(theta, exact)
                reason = _mismatch(
                    f"homodyne_opt at theta={theta:g}", float(hom), want, _cell_tol(want)
                )
        if reason is not None:
            return reason
    return None


def sweep_small(gq, seed: int, work_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    cycle = []
    for family, params, start, stop, qfi_of, hom_of in _sweep_families(rng):
        config = os.path.join(work_dir, f"{family}.json")
        with open(config, "w") as fh:
            json.dump({"family": family, "params": params, "theta": start}, fh)
        # The first output of a grid is checked against the closed forms;
        # every later one (other --jobs, later cycles) must match it byte for byte.
        first: list[str] = []

        for jobs in (1, 2):
            out = os.path.join(work_dir, f"{family}-jobs{jobs}.csv")
            argv = ["sweep", config, "--from", repr(float(start)), "--to", repr(float(stop)),
                    "--steps", str(SWEEP_STEPS), "--out", out, "--jobs", str(jobs)]

            def run(argv=argv):
                return gq.cli.main(argv)

            def collect(code, out=out):
                with open(out) as fh:
                    return code, fh.read()

            def check(output, start=start, stop=stop, qfi_of=qfi_of, hom_of=hom_of,
                      first=first):
                code, text = output
                if code != 0:
                    return f"gaussqfi sweep exited with {code}"
                if first:
                    return None if text == first[0] else "CSV differs from the first run of this grid"
                reason = _check_sweep_csv(text, start, stop, qfi_of, hom_of)
                if reason is None:
                    first.append(text)
                return reason

            cycle.append(Op(f"{family} --jobs {jobs}", run, check, collect))
    return cycle


# ---------------------------------------------------------------------------
# oracle-fock: public Fock-oracle calls, each against the moment engine
# ---------------------------------------------------------------------------

ORACLE_CUTOFF_1 = 40
ORACLE_CUTOFF_2 = 8
ORACLE_QFI_RTOL = 1e-4  # criterion 01: Fock QFI against the engine
SLD_RESIDUAL_TOL = 1e-4  # tests/test_fock.py: residual of the engine's SLD
IDENTITY_TOL = {  # criterion 09, the loosest bound it sets for each quantity
    "displacement_dev": 1e-8,
    "covariance_dev": 1e-6,
    "char_dev": 1e-6,
    "fourth_moment_dev": 1e-4,
}
# (family, params, theta range); one-mode models at ORACLE_CUTOFF_1
ORACLE_MODELS_1 = (
    ("thermal", {}, (1.5, 2.5)),
    ("displacement", {}, (-1.0, 1.0)),
    ("squeezing", {"nu": 1.3}, (-0.4, 0.4)),
    ("phase_squeezed", {"r": 0.5, "nu": 1.5}, (0.0, math.pi)),
    ("phase_squeezed", {"r": 0.5}, (0.0, math.pi)),
)
ORACLE_MODEL_2 = ("two_mode_squeezed_phase", {"r": 0.3}, (0.0, math.pi))


def _check_identities(rep) -> str | None:
    for field, tol in IDENTITY_TOL.items():
        value = float(getattr(rep, field))
        if not value <= tol:
            return f"identity {field} = {value:.3g} > {tol:.3g}"
    return None


def oracle_fock(gq, seed: int, work_dir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    engine: dict[int, float] = {}

    def qfi_check(cfg, what):
        def check(value):
            if id(cfg) not in engine:
                engine[id(cfg)] = gq.qfi_general(cfg.point).qfi
            want = engine[id(cfg)]
            return _mismatch(f"{what} vs engine", float(value), want, ORACLE_QFI_RTOL * want)
        return check

    def residual_check(value) -> str | None:
        if value <= SLD_RESIDUAL_TOL:
            return None
        return f"sld_residual {value:.3g} > {SLD_RESIDUAL_TOL:.3g}"

    def config(family, params, lo, hi):
        return gq.parse_model_config(
            {"family": family, "params": params, "theta": rng.uniform(lo, hi)}
        )

    cycle = []
    cut = ORACLE_CUTOFF_1
    for family, params, (lo, hi) in ORACLE_MODELS_1:
        cfg = config(family, params, lo, hi)
        coeffs = gq.sld_coefficients(cfg.point)
        label = family + (json.dumps(params, sort_keys=True) if params else "")
        cycle += [
            Op(f"qfi_fock_probe {label}",
               lambda cfg=cfg: gq.qfi_fock_probe(cfg.family, cfg.theta, cut),
               lambda probe, chk=qfi_check(cfg, "qfi_fock_probe"): chk(probe.value)),
            Op(f"sld_residual {label}",
               lambda cfg=cfg, coeffs=coeffs: gq.sld_residual(cfg.point, coeffs, cut),
               residual_check),
            Op(f"identity_checks {label}",
               lambda cfg=cfg: gq.identity_checks(cfg.point, cut),
               _check_identities),
        ]

    family, params, (lo, hi) = ORACLE_MODEL_2
    cfg = config(family, params, lo, hi)
    cut2 = ORACLE_CUTOFF_2
    cycle += [
        Op(f"qfi_fock {family}",
           lambda: gq.qfi_fock(cfg.family, cfg.theta, cut2),
           qfi_check(cfg, "qfi_fock")),
        Op(f"identity_checks {family}",
           lambda: gq.identity_checks(cfg.point, cut2),
           _check_identities),
    ]
    return cycle


WORKLOADS = {
    "point-large": point_large,
    "sweep-small": sweep_small,
    "oracle-fock": oracle_fock,
}
