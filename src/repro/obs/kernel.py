"""Thread-local kernel tallies with a module-level no-op fast path.

The kernel layer (NTT engines, BConv, ModDown) is far too hot for
locked metric updates, so its instrumentation is a *thread-local*
integer tally guarded by one module-level flag:

    from repro.obs import kernel as _obs_kernel
    ...
    if _obs_kernel._ENABLED:
        _obs_kernel.TALLY.ntt_forward += limbs

Disabled (the default), each call site costs one global load and a
falsy branch — the overhead the benchmark gate asserts stays inside
noise.  Enabled, the counts are plain per-thread attribute adds with no
lock (each worker thread owns its tally), and consumers take *deltas*:
the runtime executor snapshots around every op-graph node and tags the
node's trace span with exactly the kernel work it caused, and the
serving scheduler snapshots around a whole attempt to price jobs in
kernel passes rather than wall noise.

Fields:

* ``ntt_forward`` / ``ntt_inverse`` — limb-transform passes through the
  batched engine (a ``(limbs, n)`` matrix counts ``limbs``) and the
  per-prime scalar oracle (counts 1).
* ``bconv_calls`` / ``bconv_planes`` — fast base conversions and their
  ``dst x src`` partial-product plane accumulations (the MMAU work).
* ``moddown`` — logical ModDown eliminations: the one stacked ModDown
  tail behind ``mod_down_pair`` and ``mod_down_many`` counts one per
  polynomial (a pair counts 2: it fuses two, it does not skip one).
"""

from __future__ import annotations

import threading

#: Fast-path switch.  Call sites read the module attribute directly;
#: keep the name stable.  Flipped by :func:`repro.obs.enable`.
_ENABLED = False

FIELDS = ("ntt_forward", "ntt_inverse", "bconv_calls", "bconv_planes",
          "moddown")


def set_enabled(on: bool) -> None:
    global _ENABLED
    _ENABLED = bool(on)


def enabled() -> bool:
    return _ENABLED


class _Tally(threading.local):
    """Per-thread kernel counters (no lock: one writer per instance)."""

    def __init__(self) -> None:
        for field in FIELDS:
            setattr(self, field, 0)


TALLY = _Tally()


def snapshot() -> dict[str, int]:
    """This thread's cumulative tally (cheap: five attribute reads)."""
    return {field: getattr(TALLY, field) for field in FIELDS}


def delta(before: dict[str, int]) -> dict[str, int]:
    """Work done on this thread since ``before`` (a :func:`snapshot`)."""
    return {field: getattr(TALLY, field) - before.get(field, 0)
            for field in FIELDS}


def reset() -> None:
    """Zero this thread's tally (other threads are untouched)."""
    for field in FIELDS:
        setattr(TALLY, field, 0)
