"""Vectorized 64-bit modular arithmetic on NumPy ``uint64`` arrays.

BTS uses a 64-bit machine word and Barrett reduction to bring 128-bit
products back to word size (Section 5 of the paper).  NumPy has no native
128-bit integer, so this module implements the 128-bit intermediate
arithmetic explicitly with 32-bit limb decomposition, then reduces with a
two-word Barrett constant.  Fixed multiplicands (NTT twiddle factors, BConv
tables) additionally get Shoup precomputation, which replaces the general
Barrett reduction with a single high-half multiply.

All moduli must satisfy ``3 <= m < 2**62`` so that every intermediate value
below fits in a ``uint64`` (see the bound comments in each function).  The
whole module is validated against Python big-int ground truth by hypothesis
tests in ``tests/ckks/test_modmath.py``.

Backends
--------

The primitives with a production caller (``mul_mod``,
``mul_mod_shoup`` and the modular dot product ``dot_mod``) dispatch
through a backend registry (``mulhi64``, ``mul128``,
``barrett_reduce128`` and ``mul_mod_shoup_lazy`` are NumPy only: the
native dot-product and NTT kernels do that arithmetic inside their own
C loops):

* ``numpy`` — the 32-bit-limb ladder implemented in this file.  Always
  available; it is the default-buildable fallback **and** the
  bit-identity oracle the native backend is tested against (the same
  role :func:`~repro.ckks.rns._base_convert_reference` plays for BConv).
* ``native`` — a small C library (``repro/ckks/_native``) doing the same
  arithmetic with real 64x128-bit machine words, one fused strided pass
  per kernel.  Exact, so outputs are bit-identical to the NumPy path.

Selection: ``REPRO_MODMATH_BACKEND`` = ``native`` | ``numpy`` | ``auto``
(default; so is an unknown value).  ``auto`` prefers the native library
and silently falls back to NumPy when it cannot be built or loaded;
``native`` falls back too but warns, so CI can also make the build a
hard step; ``numpy`` disables dispatch entirely.  The env var is read at
import and by ``set_backend(None)``, never per call; :func:`set_backend`
also overrides it at runtime (tests use this to run the differential
tiers under both backends in one process).  Because every kernel funnels
through these functions, the evk products, BSGS sums, scalar multiplies
and Shoup multiplies inherit the selected backend with no call-site
changes; the NTT engine and BConv pick their native route from the same
selection.

Performance notes (limb-batched layout)
---------------------------------------

BTS reaches its throughput by running the *same* modular operation on
every RNS limb at once: the MMAU datapath applies one modulus per lane
while all lanes advance in lockstep.  The software analogue here is
:class:`ModulusVector`: the per-limb ``value`` / ``mu_hi`` / ``mu_lo``
constants are stacked into ``(num_limbs, 1)`` column arrays, so every
function in this module broadcasts them against a full
``(num_limbs, N)`` residue matrix in a single NumPy call.  Each kernel
therefore costs O(1) Python-level dispatches instead of O(num_limbs),
which is where ~80% of the per-limb path's wall-clock went.  Every
function accepts either a scalar :class:`Modulus` or a
:class:`ModulusVector` (anything exposing broadcast-compatible ``u64`` /
``mu_hi`` / ``mu_lo``), and the ``out=`` parameters let hot callers
reuse scratch buffers instead of allocating temporaries per stage.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.ckks import _native as _native_backend

#: Largest supported modulus (exclusive).  Barrett leaves remainders in
#: [0, 3m) before correction, so we need 3m < 2**64.
MODULUS_LIMIT = 1 << 62

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

U64 = np.uint64


def _as_u64(a: np.ndarray | int) -> np.ndarray:
    """Coerce ``a`` to a ``uint64`` ndarray without copying when possible."""
    return np.asarray(a, dtype=np.uint64)


class _Workspace(threading.local):
    """Reusable scratch buffers for kernel temporaries (per thread).

    Residue matrices at batched shapes (e.g. 17 x 2048 words = 272 KiB)
    sit above glibc's mmap threshold, so naively allocating the ~10
    temporaries of a 128-bit multiply causes an mmap/munmap + page-fault
    cycle per call that dwarfs the arithmetic.  Each distinct ``tag``
    names one live temporary; its buffer is grown to the largest size
    ever requested and re-sliced per call.  Buffers never escape the
    kernel that requested them (results go to caller ``out=`` arrays or
    fresh allocations), so tags cannot alias across nested calls.

    The workspace is ``threading.local``: the serving scheduler executes
    jobs on a worker pool, and two threads sharing one scratch buffer
    would silently corrupt each other's kernels mid-flight.  Each worker
    pays its own (bounded) scratch footprint instead; every other shared
    cache on the hot path (twiddle planes, BConv tables, scalar
    columns) is compute-once read-only and therefore race-benign.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, tag: str, shape: tuple[int, ...],
            dtype=np.uint64) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        buf = self._bufs.get(tag)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(max(size, 1), dtype)
            self._bufs[tag] = buf
        return buf[:size].reshape(shape)


_ws = _Workspace()


def workspace_buffer(tag: str, shape: tuple[int, ...],
                     dtype=np.uint64) -> np.ndarray:
    """Borrow a reusable scratch array (see :class:`_Workspace`).

    The contents are undefined; the buffer stays valid until the next
    request for the same ``tag``.  Callers must not let it escape into
    long-lived objects.
    """
    return _ws.get(tag, shape, dtype)


# ----- backend registry ---------------------------------------------------

_BACKEND_ENV = "REPRO_MODMATH_BACKEND"
_VALID_BACKENDS = ("auto", "native", "numpy")

#: The native library handle every dispatch uses (``None``: NumPy), set
#: only by :func:`set_backend`.
_handle = None


def _active_native():
    """The native library handle when dispatch uses it, else None."""
    return _handle


def active_backend() -> str:
    """The backend the next kernel call will actually use."""
    return "numpy" if _handle is None else "native"


def available_backends() -> tuple[str, ...]:
    """Backends usable right now (``numpy`` always; ``native`` if loadable)."""
    return (("native", "numpy") if _native_backend.load() is not None
            else ("numpy",))


def set_backend(name: str | None) -> str:
    """Select the backend for every later call; returns the active one.

    ``"auto"``/``None`` re-reads ``REPRO_MODMATH_BACKEND`` (an unknown
    value there means ``auto``), ``"numpy"`` disables native dispatch,
    ``"native"`` requires the extension and raises ``RuntimeError`` when
    it cannot be loaded (unlike the env var, which only warns — a
    programmatic request is a test or a deployment assertion, so
    failing loud is the point).
    """
    global _handle
    if name not in (None, *_VALID_BACKENDS):
        raise ValueError(f"unknown backend {name!r}; "
                         f"expected one of {_VALID_BACKENDS}")
    mode = (os.environ.get(_BACKEND_ENV, "").strip().lower()
            if name in (None, "auto") else name)
    handle = None if mode == "numpy" else _native_backend.load()
    if handle is None and mode == "native":
        why = _native_backend.load_error()
        if name == "native":
            raise RuntimeError(f"native modmath backend unavailable: {why}")
        warnings.warn(f"{_BACKEND_ENV}=native requested but the extension "
                      f"is unavailable ({why}); falling back to the NumPy "
                      "backend", RuntimeWarning, stacklevel=2)
    _handle = handle
    return active_backend()


set_backend(None)


def _dispatch(kernel: str, out: np.ndarray | None, operands
              ) -> tuple[np.ndarray, bool]:
    """``(out, done)``: ``out`` filled by the native ``kernel`` if active.

    ``out`` defaults to a fresh array over the operands' broadcast shape,
    allocated before the backend split so both routes fill the same
    array; when ``done`` is false the caller's NumPy body fills it.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(*map(np.shape, operands)),
                       np.uint64)
    if (_handle is not None and out.dtype == np.uint64
            and out.ndim <= _native_backend.MAX_NDIM):
        _handle.call_strided(kernel, out, operands)
        return out, True
    return out, False


_LITTLE_ENDIAN = sys.byteorder == "little"


def _halves(x: np.ndarray, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """The (low32, high32) words of each ``uint64``, cheaply.

    On little-endian hosts a ``uint64`` array whose last axis is
    contiguous reinterprets as interleaved ``uint32`` pairs, so both
    half-word planes are zero-copy strided views — the multiply ufunc
    then upcasts them on the fly (``dtype=uint64``), which replaces the
    mask/shift extraction passes entirely.  Other layouts (scalars,
    broadcast twiddle columns) fall back to masked extraction.
    """
    if _LITTLE_ENDIAN and x.ndim and x.dtype == np.uint64:
        try:
            v = x.view(np.uint32)
        except ValueError:
            pass
        else:
            return v[..., 0::2], v[..., 1::2]
    x0 = np.bitwise_and(x, _MASK32, out=_ws.get(tag + "0", x.shape))
    x1 = np.right_shift(x, _SHIFT32, out=_ws.get(tag + "1", x.shape))
    return x0, x1


def mul128(a: np.ndarray, b: np.ndarray,
           out_hi: np.ndarray | None = None,
           out_lo: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of two ``uint64`` arrays as a ``(hi, lo)`` pair.

    The high word is :func:`mulhi64`'s ladder; the low word is the
    wrapping multiply.  ``out_hi`` / ``out_lo`` must not overlap the
    inputs (both words are written while the inputs are still read).
    """
    return (mulhi64(a, b, out=out_hi),
            np.multiply(_as_u64(a), _as_u64(b), out=out_lo))


def mulhi64(a: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``.

    Uses 32-bit limb decomposition; every partial product and the carry
    sum fit in a ``uint64`` ((2^32-1)^2 + 3*(2^32-1) < 2^64).
    """
    a = _as_u64(a)
    b = _as_u64(b)
    shape = np.broadcast_shapes(a.shape, b.shape)
    if out is None:
        out = np.empty(shape, np.uint64)
    a0, a1 = _halves(a, "mulhi.a")
    b0, b1 = _halves(b, "mulhi.b")
    p00 = np.multiply(a0, b0, dtype=np.uint64, out=_ws.get("mulhi.p00",
                                                           shape))
    p01 = np.multiply(a0, b1, dtype=np.uint64, out=_ws.get("mulhi.p01",
                                                           shape))
    p10 = np.multiply(a1, b0, dtype=np.uint64, out=_ws.get("mulhi.p10",
                                                           shape))
    np.multiply(a1, b1, dtype=np.uint64, out=out)  # p11
    p00_lo, p00_hi = _halves(p00, "mulhi.c")
    p01_lo, p01_hi = _halves(p01, "mulhi.d")
    p10_lo, p10_hi = _halves(p10, "mulhi.e")
    mid = np.add(p00_hi, p01_lo, dtype=np.uint64,
                 out=_ws.get("mulhi.mid", shape))
    np.add(mid, p10_lo, out=mid)
    np.add(out, p01_hi, out=out)
    np.add(out, p10_hi, out=out)
    np.right_shift(mid, _SHIFT32, out=mid)
    np.add(out, mid, out=out)
    return out


@dataclass(frozen=True)
class Modulus:
    """A prime (or odd) modulus with its precomputed Barrett constants.

    Two flavours are kept:

    * ``mu = floor(2**128 / value)`` as two 64-bit words (``mu_hi`` /
      ``mu_lo``) — reduces *any* 128-bit value, used for the lazily
      accumulated BConv sums.
    * ``mu_single = floor(2**(2k) / value)`` with ``k = value.bit_length()``
      — a single word (``k <= 62`` implies ``mu_single < 2**63``) that
      reduces products of canonical residues (``x < value**2``) with one
      high-half multiply instead of three; the quotient estimate is off
      by at most 2 either way, so two conditional subtractions finish.
    """

    value: int
    mu_hi: np.uint64 = field(repr=False, default=U64(0))
    mu_lo: np.uint64 = field(repr=False, default=U64(0))
    mu_single: np.uint64 = field(repr=False, default=U64(0))
    shift_lo: np.uint64 = field(repr=False, default=U64(0))  #: k - 1
    shift_hi: np.uint64 = field(repr=False, default=U64(0))  #: 65 - k
    shift_qlo: np.uint64 = field(repr=False, default=U64(0))  #: k + 1
    shift_qhi: np.uint64 = field(repr=False, default=U64(0))  #: 63 - k
    r64: np.uint64 = field(repr=False, default=U64(0))  #: 2^64 mod m
    r64_shoup: np.uint64 = field(repr=False, default=U64(0))
    #: True when the fold-the-high-word 128-bit reduction applies
    #: (needs m^2 > 2^64 for the low word and 5m < 2^64 for the sum).
    lazy128_ok: bool = field(repr=False, default=False)

    def __post_init__(self) -> None:
        if not 3 <= self.value < MODULUS_LIMIT:
            raise ValueError(f"modulus {self.value} outside [3, 2^62)")
        mu = (1 << 128) // self.value
        object.__setattr__(self, "mu_hi", U64(mu >> 64))
        object.__setattr__(self, "mu_lo", U64(mu & 0xFFFFFFFFFFFFFFFF))
        k = self.value.bit_length()
        object.__setattr__(self, "mu_single",
                           U64((1 << (2 * k)) // self.value))
        object.__setattr__(self, "shift_lo", U64(k - 1))
        object.__setattr__(self, "shift_hi", U64(65 - k))
        object.__setattr__(self, "shift_qlo", U64(k + 1))
        object.__setattr__(self, "shift_qhi", U64(63 - k))
        r64 = (1 << 64) % self.value
        object.__setattr__(self, "r64", U64(r64))
        object.__setattr__(self, "r64_shoup",
                           U64((r64 << 64) // self.value))
        object.__setattr__(self, "lazy128_ok", 33 <= k <= 61)

    @property
    def u64(self) -> np.uint64:
        return U64(self.value)

    @property
    def u64_x2(self) -> np.uint64:
        """``2m`` as a word (fits: m < 2**62) — for lazy-reduction bounds."""
        return U64(2 * self.value)

    def __int__(self) -> int:
        return self.value


class ModulusVector:
    """A stack of moduli broadcastable against a ``(num_limbs, N)`` matrix.

    This is the software MMAU lane configuration: row ``i`` of a residue
    matrix is reduced modulo ``moduli[i]``.  ``u64`` / ``mu_hi`` /
    ``mu_lo`` are ``(num_limbs, 1)`` column arrays so that every function
    in this module applies per-row moduli in one vectorized call (and
    to any ``(..., num_limbs, N)`` operand by broadcasting).
    """

    __slots__ = ("moduli", "values", "u64", "u64_x2", "mu_hi", "mu_lo",
                 "mu_single", "shift_lo", "shift_hi", "shift_qlo",
                 "shift_qhi", "r64", "r64_shoup", "lazy128_ok",
                 "barrett_rows")

    def __init__(self, moduli: Sequence[Modulus]) -> None:
        self.moduli = tuple(moduli)
        if not self.moduli:
            raise ValueError("ModulusVector needs at least one modulus")
        self.values = tuple(m.value for m in self.moduli)

        def column(attr: str) -> np.ndarray:
            return np.array([getattr(m, attr) for m in self.moduli],
                            dtype=np.uint64).reshape(-1, 1)

        self.u64 = column("value")
        self.u64_x2 = column("u64_x2")
        self.mu_hi = column("mu_hi")
        self.mu_lo = column("mu_lo")
        self.mu_single = column("mu_single")
        self.shift_lo = column("shift_lo")
        self.shift_hi = column("shift_hi")
        self.shift_qlo = column("shift_qlo")
        self.shift_qhi = column("shift_qhi")
        self.r64 = column("r64")
        self.r64_shoup = column("r64_shoup")
        self.lazy128_ok = all(m.lazy128_ok for m in self.moduli)
        #: ``value``, ``mu_hi`` and ``mu_lo`` as rows of one contiguous
        #: ``(3, num_limbs)`` array (the native dot product's moduli)
        self.barrett_rows = np.concatenate(
            [self.u64, self.mu_hi, self.mu_lo]).reshape(3, -1)

    def __len__(self) -> int:
        return len(self.moduli)

    def __getitem__(self, i: int) -> Modulus:
        return self.moduli[i]


def _correct_once(r: np.ndarray, mv: np.ndarray | np.uint64) -> np.ndarray:
    """In-place conditional subtraction ``r -= m`` where ``r >= m``.

    Branchless: ``min(r, r - m)`` picks ``r - m`` exactly when ``r >= m``
    (otherwise the subtraction wraps to a huge value), avoiding NumPy's
    slow masked-``where`` path.  Valid for ``r < m + 2**63``.
    """
    t = _ws.get("corr.t", r.shape)
    np.subtract(r, mv, out=t)
    np.minimum(r, t, out=r)
    return r


def barrett_reduce128(hi: np.ndarray, lo: np.ndarray,
                      m: Modulus | ModulusVector,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Reduce the 128-bit value ``hi * 2**64 + lo`` modulo ``m``.

    Correct for *any* input below ``2**128`` (the quotient estimate from
    the two-word ``mu`` is off by at most 2 even when the true quotient
    overflows 64 bits, because the final remainder is computed with
    wrapping arithmetic and is itself < 3m < 2**64).  This is what allows
    the BConv MMAU accumulation to sum many 128-bit products lazily and
    reduce once at the end.

    For mid-width moduli (``lazy128_ok``: 33..61 bits) a cheaper route
    is taken: fold the high word with a Shoup multiply by ``2**64 mod m``
    (lazy, < 2m), reduce the low word with the single-word Barrett
    constant (lazy, < 3m), and correct their sum (< 5m < 2**64) — one
    high-half multiply fewer than the generic path.
    """
    hi = _as_u64(hi)
    lo = _as_u64(lo)
    if m.lazy128_ok:
        shape = np.broadcast_shapes(hi.shape, np.shape(m.u64))
        z = mul_mod_shoup_lazy(hi, m.r64, m.r64_shoup, m,
                               out=_ws.get("barrett.z", shape))
        # lo mod m, lazily: single-word Barrett (valid: lo < 2**64 < m**2)
        t = np.right_shift(lo, m.shift_lo, out=_ws.get("barrett.t", shape))
        q = mulhi64(t, m.mu_single, out=_ws.get("barrett.q", shape))
        np.left_shift(q, m.shift_qhi, out=q)
        tl = np.multiply(t, m.mu_single, out=t)
        np.right_shift(tl, m.shift_qlo, out=tl)
        np.bitwise_or(q, tl, out=q)
        np.multiply(q, m.u64, out=q)
        r = np.subtract(lo, q, out=out)  # wrapping; true value < 3m
        np.add(r, z, out=r)              # < 5m < 2**64
        _correct_once(r, m.u64_x2)       # < 3m
        _correct_once(r, m.u64_x2)       # < 2m
        _correct_once(r, m.u64)
        return r
    # q_hat = floor(x * mu / 2**128) computed exactly with word arithmetic:
    #   x * mu = (hi*mu_hi + h1 + h2) * 2^128 + (l1 + l2 + h3) * 2^64 + low.
    shape = np.broadcast_shapes(hi.shape, np.shape(m.mu_lo))
    h1, l1 = mul128(hi, m.mu_lo, out_hi=_ws.get("barrett.h1", shape),
                    out_lo=_ws.get("barrett.l1", shape))
    h2, l2 = mul128(lo, m.mu_hi, out_hi=_ws.get("barrett.h2", shape),
                    out_lo=_ws.get("barrett.l2", shape))
    h3 = mulhi64(lo, m.mu_lo, out=_ws.get("barrett.h3", shape))
    # s = l1 + l2 (+ h3), tracking the carries out of the 64..127 bits.
    s = np.add(l1, l2, out=l2)
    c1 = np.less(s, l1, out=_ws.get("barrett.c1", shape, np.bool_))
    np.add(s, h3, out=s)
    c2 = np.less(s, h3, out=_ws.get("barrett.c2", shape, np.bool_))
    q = np.multiply(hi, m.mu_hi, out=_ws.get("barrett.q", shape))
    np.add(q, h1, out=q)
    np.add(q, h2, out=q)
    np.add(q, c1, out=q)
    np.add(q, c2, out=q)
    # r = x - q_hat * m fits in one word because r < 3m < 2**64; wrapping
    # subtraction of the low words is therefore exact.
    np.multiply(q, m.u64, out=q)
    r = np.subtract(lo, q, out=out)
    mv = m.u64
    _correct_once(r, mv)
    _correct_once(r, mv)
    return r


def mul_mod(a: np.ndarray, b: np.ndarray, m: Modulus | ModulusVector,
            out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise ``(a * b) mod m`` for canonical residues ``a, b < m``.

    Uses the single-word Barrett constant: with ``k = m.bit_length()``
    and ``x = a * b < m**2 < 2**(2k)``,

        t = floor(x / 2**(k-1))            (fits: t < 2**(k+1))
        q_hat = floor(t * mu_single / 2**(k+1))

    satisfies ``q - 2 <= q_hat <= q`` for the true quotient ``q``, so the
    remainder lands in ``[0, 3m)`` and two conditional subtractions
    finish — one high-half multiply cheaper than the 128-bit path.
    """
    a = _as_u64(a)
    b = _as_u64(b)
    out, done = _dispatch("nm_mul_mod", out, (a, b, m.u64, m.mu_single))
    if done:
        return out
    shape = np.broadcast_shapes(a.shape, b.shape)
    hi, lo = mul128(a, b, out_hi=_ws.get("mul_mod.hi", shape),
                    out_lo=_ws.get("mul_mod.lo", shape))
    # t = (hi << (65-k)) | (lo >> (k-1)); the parts cannot overlap.
    t = np.left_shift(hi, m.shift_hi, out=hi)
    np.bitwise_or(t, np.right_shift(lo, m.shift_lo,
                                    out=_ws.get("mul_mod.t", shape)),
                  out=t)
    # q_hat = (mulhi(t, mu) << (63-k)) | ((t * mu) wrapping >> (k+1)):
    # t*mu < 2**126 and its high 2**64-part is divisible by 2**(k+1).
    q = mulhi64(t, m.mu_single, out=_ws.get("mul_mod.q", shape))
    np.left_shift(q, m.shift_qhi, out=q)
    tl = np.multiply(t, m.mu_single, out=t)
    np.right_shift(tl, m.shift_qlo, out=tl)
    np.bitwise_or(q, tl, out=q)
    np.multiply(q, m.u64, out=q)
    r = np.subtract(lo, q, out=out)
    mv = m.u64
    _correct_once(r, mv)
    _correct_once(r, mv)
    return r


def add_mod(a: np.ndarray, b: np.ndarray, m: Modulus | ModulusVector,
            out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise ``(a + b) mod m``; inputs must be canonical residues."""
    s = np.add(_as_u64(a), _as_u64(b), out=out)  # < 2m < 2**63: no wrap
    return _correct_once(s, m.u64)


def dot_mod(xs, ws, m: Modulus | ModulusVector,
            negate: Sequence[bool] | None = None,
            w_rows: np.ndarray | None = None,
            bound: int | None = None) -> np.ndarray:
    """``sum_t (-1)^negate[t] * xs[t] * ws[t] mod m``: the MMAU's one job.

    The modular dot product over a term axis behind the evk inner
    product (terms: digits), the BSGS diagonal sums (terms: baby
    rotations) and BConv (terms: source limbs).  The output is a fresh
    ``(rows, n)`` or ``(halves, rows, n)`` array, the broadcast of every
    term with ``m``'s ``(rows, 1)`` moduli.  ``xs`` and ``ws`` each hold
    one operand per term: an array whose axis 0 is the term axis, or a
    sequence whose items are arrays or tuples of one array per half
    (with one shape and strides).
    Operands broadcast like NumPy, so a ``(rows, 1)`` weight is a column
    and an ``(n,)`` operand repeats on every row.  ``w_rows`` maps
    output row ``r`` to row ``w_rows[r]`` of every weight (an evk read
    in place).  Operands are canonical residues, or any words below
    ``bound`` when given.

    The native backend crosses once: the operands go as pointer tables,
    and every element sums its products exactly in 128 bits (positive
    and negative terms apart, folded before the sum could overflow) and
    takes one Barrett reduction per sign.  The NumPy backend reduces
    term by term (:func:`mul_mod`, or :func:`mul128` and
    :func:`barrett_reduce128` under ``bound``, then :func:`add_mod` or
    :func:`sub_mod`) and is the oracle; both give the same canonical
    residues.
    """
    negate = (False,) * len(xs) if negate is None else tuple(negate)
    if not 0 < len(xs) == len(ws) == len(negate):
        raise ValueError(f"dot_mod needs one weight and sign per operand: "
                         f"{len(xs)} operands, {len(ws)} weights, "
                         f"{len(negate)} signs")
    if w_rows is not None:
        w_rows = np.ascontiguousarray(w_rows, dtype=np.int64)
    shape = _dot_shape(xs, ws, np.shape(m.u64), w_rows)
    out = np.empty(shape, np.uint64)
    if _handle is not None:
        rows = shape[-2]
        if isinstance(m, ModulusVector) and len(m) == rows:
            top, mods = max(m.values), m.barrett_rows
        else:
            top = max(getattr(m, "values", (m.value,)))
            mods = np.ascontiguousarray(np.broadcast_to(
                np.reshape([m.u64, m.mu_hi, m.mu_lo], (3, -1)), (3, rows)))
        _handle.call_dot(out, xs, ws, negate,
                         _identity_rows(rows) if w_rows is None else w_rows,
                         _dot_fold(max(top, bound or 0)), mods)
        return out
    out[...] = 0
    for x, w, neg in zip(xs, ws, negate):
        x, w = _stack_halves(x), _stack_halves(w)
        if w_rows is not None:
            w = np.take(w, w_rows, axis=-2)
        prod = (mul_mod(x, w, m) if bound is None
                else barrett_reduce128(*mul128(x, w), m))
        (sub_mod if neg else add_mod)(out, prod, m, out=out)
    return out


def _stack_halves(op) -> np.ndarray:
    return np.stack(op) if isinstance(op, tuple) else op


def _dims(op) -> tuple[int, ...]:
    """An operand's shape; a tuple of halves adds a leading half axis."""
    arrays = op if isinstance(op, tuple) else (op,)
    if any(getattr(a, "dtype", None) != np.uint64 for a in arrays):
        raise TypeError("dot_mod operands must be uint64 arrays")
    if not isinstance(op, tuple):
        return op.shape
    if any((half.shape, half.strides) != (op[0].shape, op[0].strides)
           for half in op):
        raise ValueError("dot_mod: a term's halves differ in layout")
    return (len(op), *op[0].shape)


def _dot_shape(xs, ws, m_shape, w_rows) -> tuple[int, ...]:
    """The broadcast output shape of :func:`dot_mod`'s operands.

    A stacked group (an array) contributes its per-term shape once.  A
    weight's row axis may be longer than the output's when ``w_rows``
    picks its rows.
    """
    x_dims = ([_dims(xs)[1:]] if isinstance(xs, np.ndarray)
              else [_dims(x) for x in xs])
    w_dims = ([_dims(ws)[1:]] if isinstance(ws, np.ndarray)
              else [_dims(w) for w in ws])
    if w_rows is not None:
        if any(len(d) < 2 or d[-2] <= w_rows.max() for d in w_dims) \
                or w_rows.min() < 0:
            raise ValueError("dot_mod: w_rows reads past a weight")
        w_dims = [(*d[:-2], len(w_rows), d[-1]) for d in w_dims]
    shape = np.broadcast_shapes(m_shape, *set(x_dims), *set(w_dims))
    if len(shape) not in (2, 3):
        raise ValueError(f"dot_mod output {shape} is not (rows, n) or "
                         "(halves, rows, n)")
    return shape


@lru_cache(maxsize=64)
def _identity_rows(rows: int) -> np.ndarray:
    return np.arange(rows, dtype=np.int64)


@lru_cache(maxsize=64)
def _dot_fold(bound: int) -> int:
    """Terms one 128-bit sum takes before a fold: T * (bound-1)^2 < 2^128.

    Operands below ``2^62`` (every modulus is) give at least 16, more
    than the native kernel's six-term register runs.
    """
    if bound > MODULUS_LIMIT:
        raise ValueError(f"dot_mod operands must stay below 2^62, "
                         f"not {bound}")
    return min(((1 << 128) - 1) // (bound - 1) ** 2, 1 << 62)


def sub_mod(a: np.ndarray, b: np.ndarray, m: Modulus | ModulusVector,
            out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise ``(a - b) mod m``; inputs must be canonical residues."""
    # Wrapping a - b is m too low exactly when a < b; min() with a - b + m
    # (which wraps past 2**64 in the a >= b case) selects the true residue.
    r = np.subtract(_as_u64(a), _as_u64(b), out=out)
    t = _ws.get("sub_mod.t", r.shape)
    np.add(r, m.u64, out=t)
    np.minimum(r, t, out=r)
    return r


def neg_mod(a: np.ndarray, m: Modulus | ModulusVector,
            out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise ``(-a) mod m``."""
    a = _as_u64(a)
    # m - a lands in [1, m] with m only at a == 0; min() with (m - a) - m
    # (= -a, wrapping for a > 0) maps that single case back to 0.
    r = np.subtract(m.u64, a, out=out)
    return _correct_once(r, m.u64)


def shoup_precompute(w: np.ndarray | int,
                     m: Modulus | ModulusVector) -> np.ndarray:
    """Shoup constant ``floor(w * 2**64 / m)`` for fixed multiplicands ``w < m``.

    Vectorized and exact: for ``x = w * 2**64`` the two-word Barrett
    estimate collapses to ``q_hat = w * mu_hi + mulhi(w, mu_lo)`` with
    ``q - 2 <= q_hat <= q``, and the remainder ``x - q_hat * m``
    (wrapping) reveals exactly how many corrections to add back.  With a
    :class:`ModulusVector`, row ``i`` of ``w`` is reduced by
    ``m.moduli[i]`` via broadcasting.
    """
    if isinstance(m, ModulusVector):
        w_arr = np.asarray(_as_u64(w))
        if w_arr.ndim < 2 or w_arr.shape[0] != len(m):
            # A 1-D (L,) input would silently cross-broadcast against the
            # (L, 1) moduli into an (L, L) matrix — reject it.
            raise ValueError(
                f"expected ({len(m)}, ...) rows of multiplicands, "
                f"got {w_arr.shape}")
    else:
        w_arr = np.atleast_1d(_as_u64(w))
    shape = np.broadcast_shapes(w_arr.shape, np.shape(m.u64))
    q = mulhi64(w_arr, m.mu_lo)
    np.add(q, w_arr * m.mu_hi, out=q)
    # r = w * 2**64 - q_hat * m, computed mod 2**64 (true r < 3m < 2**64).
    mv = np.broadcast_to(m.u64, shape)
    r = np.multiply(q, mv)
    np.subtract(np.uint64(0), r, out=r)
    for _ in range(2):
        need = r >= mv
        np.add(q, need, out=q)
        np.subtract(r, mv, out=r, where=need)
    return q


def mul_mod_shoup(a: np.ndarray, w: np.ndarray, w_shoup: np.ndarray,
                  m: Modulus | ModulusVector,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``(a * w) mod m`` where ``w`` has a precomputed Shoup constant.

    One high-half multiply plus two wrapping low multiplies; the remainder
    before correction is < 2m.
    """
    a = _as_u64(a)
    w = _as_u64(w)
    w_shoup = _as_u64(w_shoup)
    out, done = _dispatch("nm_mul_mod_shoup", out, (a, w, w_shoup, m.u64))
    if done:
        return out
    q = mulhi64(a, w_shoup,
                out=_ws.get("shoup.q",
                            np.broadcast_shapes(a.shape, w_shoup.shape)))
    r = np.multiply(a, w, out=out)
    np.multiply(q, m.u64, out=q)
    np.subtract(r, q, out=r)  # wrapping; true r < 2m
    return _correct_once(r, m.u64)


def mul_mod_shoup_lazy(a: np.ndarray, w: np.ndarray, w_shoup: np.ndarray,
                       m: Modulus | ModulusVector,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Shoup multiply without the final correction: result in ``[0, 2m)``.

    Valid for *any* ``a < 2**64`` (not just canonical residues): the
    quotient estimate ``floor(a * w_shoup / 2**64)`` is at most 1 below
    the true quotient, so the wrapping remainder stays below ``2m``.
    This is the Harvey-style lazy butterfly multiply — the NTT keeps
    residues in ``[0, 4m)`` between stages and normalizes once at the
    end, instead of correcting after every operation.
    """
    a = _as_u64(a)
    w = _as_u64(w)
    w_shoup = _as_u64(w_shoup)
    q = mulhi64(a, w_shoup,
                out=_ws.get("shoup.q",
                            np.broadcast_shapes(a.shape, w_shoup.shape)))
    r = np.multiply(a, w, out=out)
    np.multiply(q, m.u64, out=q)
    np.subtract(r, q, out=r)
    return r


@lru_cache(maxsize=1024)
def scalar_columns(residues: tuple[int, ...], values: tuple[int, ...]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-limb scalar columns and their Shoup constants, both ``(L, 1)``.

    ``residues[i]`` must already be reduced modulo ``values[i]``.  Cached
    because the Shoup precomputation costs one big-int divide per limb —
    rebuilding these tables per call used to dominate ``mod_down``.
    """
    cols = np.array(residues, dtype=np.uint64).reshape(-1, 1)
    shoup = np.array([(int(r) << 64) // q for r, q in zip(residues, values)],
                     dtype=np.uint64).reshape(-1, 1)
    return cols, shoup


def sum128(hi: np.ndarray, lo: np.ndarray,
           axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact sum of 128-bit ``(hi, lo)`` values along ``axis``.

    The software form of the MMAU's lazy accumulation: the low words are
    split into 32-bit halves so their partial sums never wrap (requires
    fewer than 2**32 addends); the high words sum directly, since a true
    total below 2**128 — which the caller must guarantee — bounds
    ``sum(hi)`` under 2**64.
    """
    s0 = np.sum(lo & _MASK32, axis=axis)
    s1 = np.sum(lo >> _SHIFT32, axis=axis)
    s1 += s0 >> _SHIFT32
    lo_sum = (s0 & _MASK32) | (s1 << _SHIFT32)
    hi_sum = np.sum(hi, axis=axis)
    hi_sum += s1 >> _SHIFT32
    return hi_sum, lo_sum


def pow_mod(base: int, exp: int, m: int | Modulus) -> int:
    """Scalar modular exponentiation (Python big ints)."""
    return pow(base, exp, int(m))


def inv_mod(a: int, m: int | Modulus) -> int:
    """Scalar modular inverse; raises ``ValueError`` if not invertible."""
    a = int(a) % int(m)
    try:
        return pow(a, -1, int(m))
    except ValueError as exc:  # pragma: no cover - message normalization
        raise ValueError(f"{a} is not invertible modulo {int(m)}") from exc
