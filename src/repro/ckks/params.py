"""CKKS parameter descriptions and functional ring contexts.

Two layers are deliberately separated:

* :class:`CkksParams` is *symbolic*: ring degree, level budget, ``dnum`` and
  moduli bit-widths.  It is cheap to construct at any scale (including the
  paper's N = 2^17 instances) and is what the accelerator model
  (:mod:`repro.core`) and the parameter analysis (:mod:`repro.analysis`)
  consume - they only need counts and byte sizes.

* :class:`RingContext` is *functional*: it generates actual NTT-friendly
  primes, twiddle tables and samplers so that ciphertexts can really be
  computed on.  Building one is O(N * #primes), so functional work happens
  at reduced N (tests use 2^8 .. 2^13) while keeping the exact same
  structure as the paper-scale instances.

The three paper instances of Table 4 are provided as constructors
(``ins1/ins2/ins3``): N = 2^17 with (L, dnum) of (27, 1), (39, 2), (44, 3),
q0 and special primes of 60 bits and 50-bit rescaling primes, which
reproduces the paper's log PQ values of 3090 / 3210 / 3160 exactly.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.ckks.modmath import Modulus, inv_mod, scalar_columns
from repro.ckks.ntt import NttContext, batched_ntt_context
from repro.ckks.primes import ntt_friendly_primes

WORD_BYTES = 8
MEBI = float(1 << 20)

#: Widest prime a bit-width field may ask for.  Prime search alternates
#: above and below ``2**bits``, so any width from 62 up can yield a prime
#: past the ``2**62`` word limit of :class:`~repro.ckks.modmath.Modulus`.
MAX_PRIME_BITS = 61


@dataclass(frozen=True)
class CkksParams:
    """Symbolic description of a Full-RNS CKKS instance (Table 2 symbols).

    Attributes mirror the paper's notation: ``n`` is the polynomial degree
    N, ``l`` the maximum multiplicative level L, ``dnum`` the decomposition
    number, and ``k = ceil((L+1)/dnum)`` the count of special primes.
    """

    n: int
    l: int
    dnum: int
    scale_bits: int = 50
    q0_bits: int = 60
    p_bits: int = 60
    h: int = 64          #: secret-key Hamming weight (0 => dense ternary)
    sigma: float = 3.2   #: error std-dev
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"N must be a power of two >= 8, got {self.n}")
        if self.l < 1:
            raise ValueError(f"L must be >= 1, got {self.l}")
        if not 1 <= self.dnum <= self.l + 1:
            raise ValueError(
                f"dnum must be in [1, L+1]=[1,{self.l + 1}], got {self.dnum}")
        if self.h < 0 or self.h > self.n:
            raise ValueError(f"invalid Hamming weight {self.h}")
        for name in ("scale_bits", "q0_bits", "p_bits"):
            if getattr(self, name) > MAX_PRIME_BITS:
                raise ValueError(f"{name} must be <= {MAX_PRIME_BITS}, "
                                 f"got {getattr(self, name)}")

    # ----- derived counts ---------------------------------------------------

    @property
    def k(self) -> int:
        """Number of special primes: ``ceil((L+1)/dnum)`` (Section 2.5)."""
        return -(-(self.l + 1) // self.dnum)

    @property
    def alpha(self) -> int:
        """Primes per decomposition block (equals ``k``)."""
        return self.k

    @property
    def num_q_primes(self) -> int:
        return self.l + 1

    @property
    def num_p_primes(self) -> int:
        return self.k

    @property
    def slots_max(self) -> int:
        """Maximum packable message slots: N/2."""
        return self.n // 2

    # ----- content identity --------------------------------------------------

    @cached_property
    def digest_bytes(self) -> bytes:
        """16-byte content digest of every computation-relevant field.

        Two parameter sets with equal digests generate *identical* rings:
        prime search (:func:`~repro.ckks.primes.ntt_friendly_primes`) is a
        deterministic function of the bit widths and counts hashed here,
        so ciphertexts, keys and plans are interchangeable exactly when
        the digests match.  ``name`` is cosmetic and deliberately
        excluded.  The digest is the wire-format compatibility check
        (:mod:`repro.service.wire`) and part of the planner's plan-cache
        key — mismatched-params material fails loudly instead of
        decoding garbage.
        """
        packed = struct.pack("<QQQQQQQd", self.n, self.l, self.dnum,
                             self.scale_bits, self.q0_bits, self.p_bits,
                             self.h, self.sigma)
        return hashlib.sha256(b"CkksParams/v1" + packed).digest()[:16]

    @property
    def digest(self) -> str:
        """Hex form of :attr:`digest_bytes` (32 hex chars)."""
        return self.digest_bytes.hex()

    def beta(self, level: int | None = None) -> int:
        """Number of decomposition blocks at ``level`` (default: max L)."""
        level = self.l if level is None else level
        return -(-(level + 1) // self.alpha)

    # ----- modulus bit budget ----------------------------------------------

    @property
    def log_q(self) -> int:
        """log2 of the full ciphertext modulus product Q."""
        return self.q0_bits + self.l * self.scale_bits

    @property
    def log_p(self) -> int:
        """log2 of the special-moduli product P."""
        return self.k * self.p_bits

    @property
    def log_pq(self) -> int:
        """log2(PQ), the quantity that (with N) determines security."""
        return self.log_q + self.log_p

    # ----- data sizes (Section 3.3 / Section 4) -----------------------------

    def ct_bytes(self, level: int | None = None) -> int:
        """Ciphertext size at ``level``: a pair of N x (level+1) matrices."""
        level = self.l if level is None else level
        return 2 * self.n * (level + 1) * WORD_BYTES

    def evk_bytes(self, level: int | None = None) -> int:
        """Bytes of evk that must stream from memory for one key-switch.

        The evk is stored at full level but only the ``(k + level + 1)``
        needed limbs are loaded (the denominator of Eq. 10): per
        decomposition slice a pair of N x (k + level + 1) matrices, and
        ``dnum`` slices.
        """
        level = self.l if level is None else level
        return 2 * self.dnum * (self.k + level + 1) * self.n * WORD_BYTES

    def evk_bytes_full(self) -> int:
        """Resident (maximum-level) size of a single evk."""
        return self.evk_bytes(self.l)

    @property
    def ct_mib(self) -> float:
        return self.ct_bytes() / MEBI

    @property
    def evk_mib(self) -> float:
        return self.evk_bytes_full() / MEBI

    # ----- paper instances ---------------------------------------------------

    @classmethod
    def ins1(cls) -> "CkksParams":
        """Table 4 INS-1: N=2^17, L=27, dnum=1 (log PQ = 3090)."""
        return cls(n=1 << 17, l=27, dnum=1, name="INS-1")

    @classmethod
    def ins2(cls) -> "CkksParams":
        """Table 4 INS-2: N=2^17, L=39, dnum=2 (log PQ = 3210)."""
        return cls(n=1 << 17, l=39, dnum=2, name="INS-2")

    @classmethod
    def ins3(cls) -> "CkksParams":
        """Table 4 INS-3: N=2^17, L=44, dnum=3 (log PQ = 3160)."""
        return cls(n=1 << 17, l=44, dnum=3, name="INS-3")

    @classmethod
    def paper_instances(cls) -> tuple["CkksParams", ...]:
        return (cls.ins1(), cls.ins2(), cls.ins3())

    @classmethod
    def lattigo_like(cls) -> "CkksParams":
        """The Lattigo bootstrapping preset shape used by Fig. 9 (N=2^16).

        L = 28 with dnum = 5 and 42-bit rescaling primes gives
        log PQ = 1531, close to Lattigo's 128-bit default preset.
        """
        return cls(n=1 << 16, l=28, dnum=5, scale_bits=42, q0_bits=55,
                   p_bits=50, name="INS-Lattigo")

    @classmethod
    def functional(cls, n: int = 1 << 11, l: int = 16, dnum: int = 2,
                   scale_bits: int = 40, q0_bits: int = 52, p_bits: int = 52,
                   h: int = 64, name: str = "functional") -> "CkksParams":
        """A reduced-N instance suitable for real (functional) execution."""
        return cls(n=n, l=l, dnum=dnum, scale_bits=scale_bits,
                   q0_bits=q0_bits, p_bits=p_bits, h=h, name=name)


@dataclass(frozen=True)
class PrimeContext:
    """One RNS prime with its reduction and NTT machinery."""

    value: int
    modulus: Modulus
    ntt: NttContext
    kind: str   #: "q" (ciphertext modulus) or "p" (special modulus)
    index: int  #: position within its chain

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"PrimeContext({self.kind}{self.index}={self.value})"


class RingContext:
    """Functional ring machinery for a :class:`CkksParams` instance.

    Generates the moduli chain (q0 of ``q0_bits``, then L rescaling primes
    of ``scale_bits``, then k special primes of ``p_bits``), builds one
    :class:`NttContext` per prime, and exposes the bases used throughout
    the scheme.
    """

    def __init__(self, params: CkksParams) -> None:
        self.params = params
        n = params.n
        taken: set[int] = set()
        q0 = ntt_friendly_primes(params.q0_bits, 1, n, exclude=taken)
        taken.update(q0)
        scale_primes = ntt_friendly_primes(
            params.scale_bits, params.l, n, exclude=taken)
        taken.update(scale_primes)
        special = ntt_friendly_primes(params.p_bits, params.k, n,
                                      exclude=taken)
        taken.update(special)

        def make(value: int, kind: str, index: int) -> PrimeContext:
            ntt_ctx = NttContext.create(value, n)
            return PrimeContext(value=value, modulus=ntt_ctx.modulus,
                                ntt=ntt_ctx, kind=kind, index=index)

        q_values = q0 + scale_primes
        self.q_primes: tuple[PrimeContext, ...] = tuple(
            make(v, "q", i) for i, v in enumerate(q_values))
        self.p_primes: tuple[PrimeContext, ...] = tuple(
            make(v, "p", i) for i, v in enumerate(special))
        self._p_inv_columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._p_columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._rescale_inv_columns: dict[int, tuple[np.ndarray,
                                                   np.ndarray]] = {}
        self._mod_up_plans: dict[int, tuple] = {}
        self._i_monomial_columns: dict[tuple, tuple] = {}

    # ----- bases -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def max_level(self) -> int:
        return self.params.l

    def base_q(self, level: int) -> tuple[PrimeContext, ...]:
        """C_level: the first ``level+1`` ciphertext primes."""
        if not 0 <= level <= self.params.l:
            raise ValueError(f"level {level} outside [0, {self.params.l}]")
        return self.q_primes[:level + 1]

    @property
    def base_p(self) -> tuple[PrimeContext, ...]:
        """B: the special-prime base."""
        return self.p_primes

    def base_qp(self, level: int) -> tuple[PrimeContext, ...]:
        """C_level followed by B (the key-switching working base)."""
        return self.base_q(level) + self.p_primes

    @cached_property
    def p_product(self) -> int:
        """The special-moduli product P."""
        return math.prod(p.value for p in self.p_primes)

    def q_product(self, level: int) -> int:
        """The ciphertext-modulus product at ``level``."""
        return math.prod(p.value for p in self.base_q(level))

    def batched_ntt(self, base: tuple[PrimeContext, ...]):
        """Cached limb-batched NTT tables for ``base`` (see ``ntt.py``)."""
        return batched_ntt_context(tuple(p.ntt for p in base))

    def p_inv_scalar_columns(self, level: int
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``P^-1 mod q_i`` columns (+ Shoup) over ``C_level``.

        ``mod_down`` scales the ModDown subtraction by these; rebuilding
        the table (one big-int inverse per limb) on every call used to be
        a measurable slice of key-switching.
        """
        cached = self._p_inv_columns.get(level)
        if cached is None:
            base = self.base_q(level)
            residues = tuple(inv_mod(self.p_product % p.value, p.value)
                             for p in base)
            cached = scalar_columns(residues,
                                    tuple(p.value for p in base))
            self._p_inv_columns[level] = cached
        return cached

    def p_scalar_columns(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``P mod q_i`` columns (+ Shoup) over ``C_level``.

        The double-hoisted BSGS path embeds a base-``C_level``
        polynomial into the extended working base as ``P * poly`` (the
        special-prime rows are zero because ``P`` vanishes there), so it
        can be combined with not-yet-ModDown'd key-switch accumulators;
        see :func:`~repro.ckks.keyswitch.p_scaled_extension`.
        """
        cached = self._p_columns.get(level)
        if cached is None:
            base = self.base_q(level)
            residues = tuple(self.p_product % p.value for p in base)
            cached = scalar_columns(residues,
                                    tuple(p.value for p in base))
            self._p_columns[level] = cached
        return cached

    def i_monomial_columns(self, base: tuple[PrimeContext, ...]
                           ) -> tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
        """Cached NTT-domain ``X^(N/2)`` multiplier columns for ``base``.

        Slot-wise multiplication by ``i`` is the monomial product
        ``m(X) * X^(N/2)``.  In the NTT domain that is a point-wise
        multiply by ``psi^(e_t * N/2)`` where ``e_t = 2*brv(t) + 1`` is
        the evaluation exponent of slot ``t`` — and since ``e_t`` is
        odd, the multiplier is ``psi^(N/2)`` on the slots with even
        ``brv(t)`` (the first half of the bit-reversed layout) and
        ``-psi^(N/2)`` on the rest.  Returns
        ``(r_cols, r_shoup, neg_r_cols, neg_r_shoup)`` — one scalar
        column pair per half — so the whole shift is two broadcast Shoup
        multiplies instead of an iNTT -> roll -> NTT round-trip.
        """
        key = tuple(p.value for p in base)
        cached = self._i_monomial_columns.get(key)
        if cached is None:
            values = tuple(p.value for p in base)
            roots = tuple(pow(p.ntt.psi, self.n // 2, p.value)
                          for p in base)
            neg_roots = tuple((p.value - r) % p.value
                              for p, r in zip(base, roots))
            cached = (*scalar_columns(roots, values),
                      *scalar_columns(neg_roots, values))
            self._i_monomial_columns[key] = cached
        return cached

    def rescale_inv_scalar_columns(self, level: int
                                   ) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``q_level^-1 mod q_i`` columns over ``C_{level-1}``.

        Used by HRescale when dropping the top prime at ``level``.
        """
        cached = self._rescale_inv_columns.get(level)
        if cached is None:
            last = self.q_primes[level].value
            base = self.base_q(level - 1)
            residues = tuple(inv_mod(last, p.value) for p in base)
            cached = scalar_columns(residues,
                                    tuple(p.value for p in base))
            self._rescale_inv_columns[level] = cached
        return cached

    def mod_up_plan(self, level: int) -> tuple:
        """Cached per-slice ModUp layout over ``C_level + B``.

        One entry per decomposition block:
        ``(slice_base, complement_base, own_rows, conv_rows)`` where the
        row lists place the block's own (NTT-reused) limbs and the
        BConv-converted limbs inside the target-base residue matrix.
        ``raise_decomposition`` walks this plan and runs one stacked
        forward transform across every slice's converted limbs.
        """
        cached = self._mod_up_plans.get(level)
        if cached is None:
            target = self.base_qp(level)
            plans = []
            for start, stop in self.decomposition_blocks(level):
                slice_base = self.base_q(level)[start:stop]
                block_values = {p.value for p in slice_base}
                complement = tuple(p for p in target
                                   if p.value not in block_values)
                own_rows = [i for i, p in enumerate(target)
                            if p.value in block_values]
                conv_rows = [i for i, p in enumerate(target)
                             if p.value not in block_values]
                plans.append((slice_base, complement, own_rows, conv_rows))
            cached = tuple(plans)
            self._mod_up_plans[level] = cached
        return cached

    def decomposition_blocks(self, level: int) -> list[tuple[int, int]]:
        """(start, stop) limb ranges of the dnum decomposition at ``level``.

        Each block spans at most ``alpha`` q-primes (Eq. 7 restricted to
        the current level), giving ``beta(level)`` slices.
        """
        alpha = self.params.alpha
        stops = []
        start = 0
        while start <= level:
            stop = min(start + alpha, level + 1)
            stops.append((start, stop))
            start = stop
        return stops
