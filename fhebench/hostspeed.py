"""Host-speed canary: a fixed kernel that shares no code with ``repro``.

The CPU speed of a shared VM drifts by tens of percent within a minute,
and a closed-loop bootstrap follows it.  Timing this canary between the
calls measures the host's speed at that moment; dividing a compute-bound
time by the canary's and multiplying by the canary's time on the
reference host gives the time the same work would have taken there.  The canary touches nothing under ``src/``, so a
change to the library moves the normalised time and never the canary.

Its mix follows the bootstrap's at N=2^9: small uint64 planes of 15
limbs, elementwise multiply/add/compare, gathers, a few hundred NumPy
calls per sample and some interpreter work between them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median canary sample on the reference host (2-vCPU Xeon VM, over ten
#: minutes of 20-second windows): normalised times read as times there.
REFERENCE_S = 0.0125
ROUNDS = 180
_SHAPE = (15, 512)
_MODULUS = np.uint64((1 << 50) - 27)


def _planes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(2022)
    a = rng.integers(0, int(_MODULUS), _SHAPE, dtype=np.uint64)
    b = rng.integers(0, int(_MODULUS), _SHAPE, dtype=np.uint64)
    perm = rng.permutation(_SHAPE[1])
    return a, b, perm


_A, _B, _PERM = _planes()


def _kernel(a: np.ndarray, b: np.ndarray, perm: np.ndarray) -> int:
    lo_mask = np.uint64((1 << 25) - 1)
    acc = 0
    for r in range(ROUNDS):
        lo = (a & lo_mask) * (b & lo_mask)
        hi = (a >> np.uint64(25)) * (b >> np.uint64(25))
        s = lo + hi
        s = np.where(s >= _MODULUS, s - _MODULUS, s)
        a = s[:, perm]
        b = (b + a) & np.uint64((1 << 50) - 1)
        acc ^= int(a[r % _SHAPE[0], r]) & 0xFFFF
    return acc


def sample() -> float:
    """Seconds one canary pass takes now."""
    t0 = time.perf_counter()
    _kernel(_A, _B, _PERM)
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Reference-host seconds per measured second, from canary samples."""
    return REFERENCE_S / statistics.median(samples)
