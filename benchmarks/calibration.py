"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a shared virtual machine: load from other tenants
slows the same code by up to 1.9x, in phases from seconds to minutes long.
The worker times this kernel between every two operations, and ``run.py``
divides each operation's latency by the kernel time around it, which cancels
the host's speed.  Timings are then reported at the speed of a host on which
the kernel takes ``REFERENCE_S``.

The kernel uses numpy alone, never the package, so no change to the package
can move it.  Its mix follows the package's hot paths: a Python loop over 2x2
blocks of a matrix (the superoperator solve, the per-point sweep code), dense
LAPACK calls on an 80x80 matrix (n = 40 points), products of 160x160 complex
matrices (the Fock oracle's dense algebra) and plain interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the reference host, close to the fastest readings on the
# 2-vCPU machine described in DESIGN.md.  Only ratios to it matter.
REFERENCE_S = 0.007

_rng = np.random.default_rng(20130315)
_A = _rng.standard_normal((80, 80))
_A = _A + _A.T
_SHIFTED = _A + 100.0 * np.eye(80)
_Z = (_rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))) / 160
_M = _rng.standard_normal((16, 16))
_NU = _rng.uniform(1.2, 3.0, 8)
_BASIS = (
    (np.eye(2), 1.0),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), -1.0),
    (np.array([[1.0, 0.0], [0.0, -1.0]]), -1.0),
)


def _block_loop() -> None:
    n = len(_NU)
    out = np.zeros_like(_M)
    for i in range(n):
        for j in range(n):
            idx = np.ix_([i, n + i], [j, n + j])
            blk = _M[idx]
            acc = np.zeros((2, 2))
            for E2, parity in _BASIS:
                acc += (np.sum(blk * E2) / (_NU[i] * _NU[j] - parity + 2.0)) * E2
            out[idx] = acc


def _dense() -> None:
    np.linalg.eigh(_A)
    np.linalg.inv(_SHIFTED) @ _A


def _complex() -> None:
    (_Z @ _Z) @ _Z


def _interpreter() -> None:
    s = 0
    for i in range(20_000):
        s += i * i % 7


def kernel() -> float:
    """Run the kernel once (about 7 ms); returns its wall-clock time in seconds."""
    t0 = time.perf_counter()
    _block_loop()
    _dense()
    _complex()
    _interpreter()
    return time.perf_counter() - t0
