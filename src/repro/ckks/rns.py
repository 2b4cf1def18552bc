"""RNS (double-CRT) polynomials and fast base conversion.

A polynomial in R_Q is held as an ``(num_limbs, N)`` matrix of residues
(one row per RNS prime), exactly the layout in Fig. 4 of the paper.  The
polynomial can be in the coefficient ("RNS") domain or the NTT domain;
element-wise multiplication requires the NTT domain while base conversion
(BConv, Eq. 9) requires the coefficient domain - which is precisely why the
``iNTT -> BConv -> NTT`` sequence dominates key-switching.

Performance notes (limb-batched layout)
---------------------------------------

Every arithmetic method operates on the full residue matrix in one
vectorized call: the per-base :class:`~repro.ckks.modmath.ModulusVector`
broadcasts one modulus per row (the software MMAU), and NTT transforms
go through the cached :class:`~repro.ckks.ntt.BatchedNttContext` (the
software NTTU).  :func:`base_convert` reformulates the Eq. 9
multiply-accumulate as a single broadcasted ``(dst, src, N)`` tensor
product whose 128-bit terms are summed lazily and Barrett-reduced once
per destination limb.  The retained per-limb loop
(:func:`_base_convert_reference`) is the bit-identical reference that
the batched path is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.ckks.modmath import (
    _LITTLE_ENDIAN,
    _MASK32,
    _SHIFT32,
    _active_native,
    Modulus,
    ModulusVector,
    add_mod,
    barrett_reduce128,
    dot_mod,
    inv_mod,
    mul128,
    mul_mod,
    mul_mod_shoup,
    neg_mod,
    scalar_columns,
    sub_mod,
    sum128,
    workspace_buffer,
)
from repro.ckks.ntt import batched_ntt_context, ntt_galois_permutation
from repro.ckks.params import PrimeContext
from repro.obs import kernel as _obs_kernel


@lru_cache(maxsize=1024)
def _modulus_vector_for(values: tuple[int, ...]) -> ModulusVector:
    """Cached per-base column stack of moduli (see :class:`ModulusVector`)."""
    return ModulusVector([Modulus(v) for v in values])


def base_modulus_vector(base: tuple[PrimeContext, ...]) -> ModulusVector:
    """The ``(num_limbs, 1)`` modulus stack of a prime base."""
    return _modulus_vector_for(tuple(p.value for p in base))


@dataclass
class RnsPolynomial:
    """A polynomial over a prime base, stored limb-wise.

    ``base`` is a tuple of :class:`PrimeContext`; ``residues[i]`` holds the
    coefficients (or NTT values) modulo ``base[i]``.
    """

    base: tuple[PrimeContext, ...]
    residues: np.ndarray
    is_ntt: bool

    def __post_init__(self) -> None:
        expected = (len(self.base), self.n)
        if self.residues.shape != expected:
            raise ValueError(
                f"residue matrix shape {self.residues.shape} != {expected}")
        if self.residues.dtype != np.uint64:
            raise ValueError("residues must be uint64")

    # ----- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, base: tuple[PrimeContext, ...], n: int,
              is_ntt: bool = True) -> "RnsPolynomial":
        return cls(base, np.zeros((len(base), n), dtype=np.uint64), is_ntt)

    @classmethod
    def from_signed_coeffs(cls, coeffs: np.ndarray,
                           base: tuple[PrimeContext, ...]) -> "RnsPolynomial":
        """Spread signed integer coefficients over the base (coeff domain).

        ``coeffs`` may be int64 or object (Python big ints) for values that
        exceed 64 bits.
        """
        n = len(coeffs)
        if coeffs.dtype == object:
            residues = np.empty((len(base), n), dtype=np.uint64)
            for i, prime in enumerate(base):
                q = prime.value
                residues[i] = np.array([int(c) % q for c in coeffs],
                                       dtype=np.uint64)
        else:
            values = np.array([p.value for p in base],
                              dtype=np.int64).reshape(-1, 1)
            residues = np.mod(coeffs.astype(np.int64)[None, :],
                              values).astype(np.uint64)
        return cls(base, residues, is_ntt=False)

    @property
    def n(self) -> int:
        return self.residues.shape[1]

    @property
    def num_limbs(self) -> int:
        return len(self.base)

    @property
    def moduli(self) -> ModulusVector:
        """The cached per-row modulus stack of this polynomial's base."""
        return base_modulus_vector(self.base)

    def clone(self) -> "RnsPolynomial":
        return RnsPolynomial(self.base, self.residues.copy(), self.is_ntt)

    # ----- domain transforms --------------------------------------------------

    def to_ntt(self) -> "RnsPolynomial":
        """Batched forward negacyclic NTT (no-op if already there)."""
        if self.is_ntt:
            return self.clone()
        ctx = batched_ntt_context(tuple(p.ntt for p in self.base))
        return RnsPolynomial(self.base, ctx.forward(self.residues),
                             is_ntt=True)

    def from_ntt(self) -> "RnsPolynomial":
        """Batched inverse NTT back to coefficient domain."""
        if not self.is_ntt:
            return self.clone()
        ctx = batched_ntt_context(tuple(p.ntt for p in self.base))
        return RnsPolynomial(self.base, ctx.inverse(self.residues),
                             is_ntt=False)

    # ----- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.base != other.base:
            raise ValueError("RNS bases differ")
        if self.is_ntt != other.is_ntt:
            raise ValueError("operands are in different domains")

    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        out = add_mod(self.residues, other.residues, self.moduli,
                      out=np.empty_like(self.residues))
        return RnsPolynomial(self.base, out, self.is_ntt)

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        out = sub_mod(self.residues, other.residues, self.moduli,
                      out=np.empty_like(self.residues))
        return RnsPolynomial(self.base, out, self.is_ntt)

    def neg(self) -> "RnsPolynomial":
        out = neg_mod(self.residues, self.moduli,
                      out=np.empty_like(self.residues))
        return RnsPolynomial(self.base, out, self.is_ntt)

    def mul(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Element-wise (ring) product; both operands must be in NTT form."""
        self._check_compatible(other)
        if not self.is_ntt:
            raise ValueError("ring multiplication requires NTT domain")
        out = mul_mod(self.residues, other.residues, self.moduli,
                      out=np.empty_like(self.residues))
        return RnsPolynomial(self.base, out, True)

    def mul_scalar_columns(self, scalars: np.ndarray,
                           scalars_shoup: np.ndarray) -> "RnsPolynomial":
        """Multiply row ``i`` by ``scalars[i]`` (``(num_limbs, 1)`` arrays).

        The Shoup constants must match ``scalars``; use
        :func:`scalar_columns` to build both (callers on the hot path
        cache them, e.g. :class:`~repro.ckks.params.RingContext`).
        """
        out = mul_mod_shoup(self.residues, scalars, scalars_shoup,
                            self.moduli, out=np.empty_like(self.residues))
        return RnsPolynomial(self.base, out, self.is_ntt)

    def mul_scalar(self, scalars: dict[int, int]) -> "RnsPolynomial":
        """Multiply by a per-prime scalar table ``{prime_value: residue}``."""
        cols, cols_shoup = scalar_columns(
            tuple(scalars[p.value] % p.value for p in self.base),
            tuple(p.value for p in self.base))
        return self.mul_scalar_columns(cols, cols_shoup)

    def mul_int(self, value: int) -> "RnsPolynomial":
        """Multiply by one integer scalar (reduced per prime)."""
        return self.mul_scalar({p.value: value % p.value for p in self.base})

    # ----- base manipulation ----------------------------------------------------

    def restrict(self, new_base: tuple[PrimeContext, ...]) -> "RnsPolynomial":
        """Keep only the limbs of ``new_base`` (must be a subset, in order)."""
        index = {p.value: i for i, p in enumerate(self.base)}
        try:
            rows = [index[p.value] for p in new_base]
        except KeyError as exc:
            raise ValueError(f"prime {exc} not present in base") from exc
        return RnsPolynomial(new_base, self.residues[rows].copy(), self.is_ntt)

    def galois(self, galois_elt: int) -> "RnsPolynomial":
        """Apply the automorphism X -> X^galois_elt (Eq. 5 generalized).

        In the coefficient domain, coefficient i moves to index
        ``i * g mod 2N`` with a sign flip when the destination wraps past
        N (negacyclic ring); the permutation and the sign flip are
        applied to the whole residue matrix at once.

        In the NTT domain the automorphism only relabels evaluation
        points, so it is a single sign-free gather of the NTT values
        (:func:`~repro.ckks.ntt.ntt_galois_permutation`) — the BTS
        Section 4.1 trick that lets rotations skip the per-op
        iNTT -> permute -> NTT round-trip entirely.  Both paths produce
        bit-identical residues for NTT-domain operands (gather after the
        forward transform == transform after the coefficient permute).
        """
        if self.is_ntt:
            perm = ntt_galois_permutation(self.n, galois_elt)
            return RnsPolynomial(
                self.base, np.take(self.residues, perm, axis=1), True)
        pos_src, pos_dst, neg_src, neg_dst = _galois_permutation(
            self.n, galois_elt)
        out = np.empty_like(self.residues)
        out[:, pos_dst] = self.residues[:, pos_src]
        if len(neg_src):
            gathered = np.take(self.residues, neg_src, axis=1,
                               out=workspace_buffer(
                                   "galois.neg",
                                   (self.num_limbs, len(neg_src))))
            out[:, neg_dst] = neg_mod(gathered, self.moduli, out=gathered)
        return RnsPolynomial(self.base, out, False)

    def galois_coeff(self, galois_elt: int) -> "RnsPolynomial":
        """Force the coefficient-domain automorphism (test oracle hook).

        The NTT-domain gather in :meth:`galois` is differentially tested
        against this explicit coefficient-domain route
        (iNTT -> permute -> NTT); production code should just call
        :meth:`galois`.
        """
        if not self.is_ntt:
            return self.galois(galois_elt)
        return self.from_ntt().galois(galois_elt).to_ntt()


class StackedTransform:
    """One shared batched NTT over several limb-stacked polynomials.

    ModUp's per-slice complement conversions and ModDown's ``(b, a)``
    accumulator pairs each need the *same* transform applied to several
    residue matrices; running them as one batched transform amortizes
    the per-stage NumPy dispatch cost across every stacked limb — the
    software analogue of the BTS NTTU streaming independent limb groups
    through one butterfly schedule (and the transform-reuse FAB leans on
    to keep its NTT fed).  Polynomials over one common base stack along
    a leading axis and share that base's cached tables; mixed bases
    concatenate along the limb axis under a context cached by the
    concatenated ``(q, psi)`` chain.  Outputs are bit-identical to
    transforming each polynomial on its own.
    """

    @staticmethod
    def _validate(polys: list["RnsPolynomial"], is_ntt: bool) -> None:
        if not polys:
            raise ValueError("need at least one polynomial to stack")
        n = polys[0].n
        for p in polys:
            if p.n != n:
                raise ValueError("stacked polynomials must share a degree")
            if p.is_ntt != is_ntt:
                raise ValueError("stacked polynomials are in mixed domains")

    @staticmethod
    def _run(polys: list["RnsPolynomial"], direction: str,
             is_ntt: bool) -> list["RnsPolynomial"]:
        base = polys[0].base
        if all(len(p.base) == len(base)
               and all(a is b for a, b in zip(p.base, base))
               for p in polys):
            ctx = batched_ntt_context(tuple(p.ntt for p in base))
            out = getattr(ctx, direction)(
                np.stack([p.residues for p in polys]))
            return [RnsPolynomial(base, rows, is_ntt) for rows in out]
        ctx = batched_ntt_context(
            tuple(p.ntt for poly in polys for p in poly.base))
        out = getattr(ctx, direction)(
            np.concatenate([p.residues for p in polys]))
        results = []
        row = 0
        for p in polys:
            stop = row + p.num_limbs
            results.append(RnsPolynomial(p.base, out[row:stop], is_ntt))
            row = stop
        return results

    @classmethod
    def forward(cls, polys: list["RnsPolynomial"]
                ) -> list["RnsPolynomial"]:
        """Batched forward NTT of every polynomial in one shared pass."""
        cls._validate(polys, is_ntt=False)
        if len(polys) == 1:
            return [polys[0].to_ntt()]
        return cls._run(polys, "forward", is_ntt=True)

    @classmethod
    def inverse(cls, polys: list["RnsPolynomial"]
                ) -> list["RnsPolynomial"]:
        """Batched inverse NTT of every polynomial in one shared pass."""
        cls._validate(polys, is_ntt=True)
        if len(polys) == 1:
            return [polys[0].from_ntt()]
        return cls._run(polys, "inverse", is_ntt=False)


@lru_cache(maxsize=256)
def _galois_permutation(n: int, galois_elt: int
                        ) -> tuple[np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
    """Source/destination index pairs for X -> X^g over X^N + 1.

    Returns ``(pos_src, pos_dst, neg_src, neg_dst)``: coefficient
    ``pos_src[t]`` moves to ``pos_dst[t]`` unchanged, ``neg_src[t]``
    moves to ``neg_dst[t]`` negated (destination wrapped past N).  Split
    up-front so :meth:`RnsPolynomial.galois` is two scatters and one
    negation instead of a full-matrix masked select.
    """
    if galois_elt % 2 == 0:
        raise ValueError("galois element must be odd")
    i = np.arange(n, dtype=np.int64)
    dest = (i * galois_elt) % (2 * n)
    sign_flip = dest >= n
    dest %= n
    keep = ~sign_flip
    return i[keep], dest[keep], i[sign_flip], dest[sign_flip]


class _BConvTable(NamedTuple):
    """Precomputed constants for BConv from ``src`` to ``dst`` (Eq. 9)."""

    qhat_inv: np.ndarray        #: ``[(Q/q_j)^-1]_{q_j}``, ``(src, 1)``
    qhat_inv_shoup: np.ndarray  #: its Shoup constants
    #: ``cross[i][j] = [Q/q_j]_{dst_i}``, contiguous ``(dst, src, 1)``
    #: for broadcasting against ``(src, N)`` terms
    cross: np.ndarray
    #: the same words as ``dot_mod`` weights: a ``(src, dst, 1)`` view,
    #: one ``(dst, 1)`` column per source limb
    cross_terms: np.ndarray
    bound: int                  #: above every term and every cross word
    #: the summed 128-bit products provably stay below ``2**128``
    #: (always true for practical parameter sets; the reference loop
    #: covers the rest)
    lazy_ok: bool
    #: every 32x64 partial-product plane sum stays below ``2**62``
    planes_ok: bool


@lru_cache(maxsize=1024)
def _bconv_table(src_values: tuple[int, ...],
                 dst_values: tuple[int, ...]) -> _BConvTable:
    """The :class:`_BConvTable` of one (source, destination) base pair."""
    product = math.prod(src_values)
    qhat = [product // q for q in src_values]
    qhat_inv = tuple(inv_mod(qh, q) for qh, q in zip(qhat, src_values))
    qhat_inv_cols, qhat_inv_shoup = scalar_columns(qhat_inv, src_values)
    cross = np.array([[qh % p for qh in qhat] for p in dst_values],
                     dtype=np.uint64)[:, :, None]
    max_total = max(sum((q - 1) * (p - 1) for q in src_values)
                    for p in dst_values)
    # The plane-accumulated MMAU sums each 32x64 partial-product plane
    # directly; every plane sum must stay below 2**62 (three of them are
    # added before the carry split).
    src_log = max(1, (len(src_values) - 1).bit_length())
    max_bits = max(max(q.bit_length() for q in src_values),
                   max(p.bit_length() for p in dst_values))
    planes_ok = max_bits + src_log <= 62
    return _BConvTable(qhat_inv_cols, qhat_inv_shoup, cross,
                       cross.transpose(1, 0, 2),
                       max(*src_values, *dst_values),
                       max_total < (1 << 128), planes_ok)


def base_convert(poly: RnsPolynomial,
                 dst_base: tuple[PrimeContext, ...]) -> RnsPolynomial:
    """Fast (approximate) base conversion of Eq. 9: src base -> dst base.

    The result represents ``a + u * Q_src`` for a small integer polynomial
    ``u`` (|u| <= len(src)/2), the standard HPS approximation absorbed by
    the special-modulus product P in key-switching.  Input and output are
    in the coefficient domain.

    This is the software MMAU: part 1 multiplies every source limb by its
    ``qhat_j^-1`` in one batched Shoup pass; part 2 runs the broadcasted
    ``(dst, src, N)`` multiply-accumulate with *lazy* reduction — the
    exact 128-bit products are summed and Barrett-reduced once per
    output instead of once per term.  Under the native backend part 2 is
    one :func:`~repro.ckks.modmath.dot_mod` call; under NumPy the sums
    go into three split accumulators (one cache-blocked ``(dst, N)``
    sweep per source limb, mirroring the MMAU's column feed).
    """
    if poly.is_ntt:
        raise ValueError("BConv operates in the coefficient domain")
    if _obs_kernel._ENABLED:
        _obs_kernel.TALLY.bconv_calls += 1
        _obs_kernel.TALLY.bconv_planes += len(dst_base) * len(poly.base)
    table = _bconv_table(tuple(p.value for p in poly.base),
                         tuple(p.value for p in dst_base))
    # Part 1 (per-source ModMult in the BConvU): t_j = [a_j * qhat_j^-1]_{q_j}
    terms = mul_mod_shoup(poly.residues, table.qhat_inv,
                          table.qhat_inv_shoup, poly.moduli,
                          out=workspace_buffer("bconv.terms",
                                               poly.residues.shape))

    # Part 2 (the MMAU): out_i = sum_j t_j * [qhat_j]_{p_i} mod p_i.
    dst_moduli = base_modulus_vector(dst_base)
    if _active_native() is not None:
        # One dot_mod: source limb j is term j, its (N,) row repeats on
        # every destination row, and its weight is a cross column.
        out = dot_mod(terms, table.cross_terms, dst_moduli,
                      bound=table.bound)
        return RnsPolynomial(dst_base, out, is_ntt=False)
    if not table.lazy_ok:  # pragma: no cover - unreachable, < 2^62 moduli
        return _base_convert_reference(poly, dst_base)
    # One (dst, N) broadcast per source limb (the accumulators stay
    # cache-resident), summed exactly and Barrett-reduced once.
    shape = (len(dst_base), poly.n)
    if table.planes_ok and _LITTLE_ENDIAN:
        acc_hi, acc_lo = _mmau_accumulate_planes(terms, table.cross, shape)
    else:
        acc_hi, acc_lo = _mmau_accumulate_split(terms, table.cross, shape)
    out = barrett_reduce128(acc_hi, acc_lo, dst_moduli,
                            out=np.empty(shape, dtype=np.uint64))
    return RnsPolynomial(dst_base, out, is_ntt=False)


def _mmau_accumulate_planes(terms: np.ndarray, cross: np.ndarray,
                            shape: tuple[int, int]
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Lazy MMAU sums via four partial-product planes (the fast path).

    Each 64x64 product splits into 32x32 partial products; the planes
    ``p01``, ``p10`` and ``p11`` are summed directly (the `_bconv_table`
    gate guarantees each plane sum stays below 2**62), while ``p00`` is
    split into 32-bit halves.  One carry propagation at the end rebuilds
    the exact 128-bit ``(hi, lo)`` totals.
    """
    s00_lo = workspace_buffer("bconv.s00l", shape)
    s00_hi = workspace_buffer("bconv.s00h", shape)
    s01 = workspace_buffer("bconv.s01", shape)
    s10 = workspace_buffer("bconv.s10", shape)
    s11 = workspace_buffer("bconv.s11", shape)
    for buf in (s00_lo, s00_hi, s01, s10, s11):
        buf[...] = 0
    p = workspace_buffer("bconv.p", shape)
    split = workspace_buffer("bconv.split", shape)
    src = terms.shape[0]
    tv = terms.view(np.uint32)
    for j in range(src):
        a0 = tv[j, 0::2]
        a1 = tv[j, 1::2]
        b = cross[:, j]           # (dst, 1)
        b0 = b & _MASK32
        b1 = b >> _SHIFT32
        np.multiply(a0, b0, dtype=np.uint64, out=p)
        np.bitwise_and(p, _MASK32, out=split)
        np.add(s00_lo, split, out=s00_lo)
        np.right_shift(p, _SHIFT32, out=p)
        np.add(s00_hi, p, out=s00_hi)
        np.multiply(a0, b1, dtype=np.uint64, out=p)
        np.add(s01, p, out=s01)
        np.multiply(a1, b0, dtype=np.uint64, out=p)
        np.add(s10, p, out=s10)
        np.multiply(a1, b1, dtype=np.uint64, out=p)
        np.add(s11, p, out=s11)
    # total = s00_lo + (s00_hi + s01 + s10) * 2^32 + s11 * 2^64
    mid = np.add(s00_hi, s01, out=s00_hi)
    np.add(mid, s10, out=mid)
    carry = np.right_shift(s00_lo, _SHIFT32, out=split)
    np.add(carry, np.bitwise_and(mid, _MASK32, out=s01), out=carry)  # < 2^33
    lo = np.bitwise_and(s00_lo, _MASK32, out=s00_lo)
    np.bitwise_or(lo, np.left_shift(carry, _SHIFT32, out=s10), out=lo)
    hi = np.add(s11, np.right_shift(mid, _SHIFT32, out=mid), out=s11)
    np.add(hi, np.right_shift(carry, _SHIFT32, out=carry), out=hi)
    return hi, lo


def _mmau_accumulate_split(terms: np.ndarray, cross: np.ndarray,
                           shape: tuple[int, int]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Lazy MMAU sums via full 128-bit products (wide-modulus fallback).

    Forms the whole ``(dst, src, N)`` product tensor and reduces it with
    :func:`~repro.ckks.modmath.sum128`.  Rare path (>57-bit chains or
    big-endian hosts), so the tensor's memory footprint is acceptable.
    """
    tensor_shape = (shape[0], terms.shape[0], shape[1])
    hi, lo = mul128(terms[None, :, :], cross,
                    out_hi=workspace_buffer("bconv.hi", tensor_shape),
                    out_lo=workspace_buffer("bconv.lo", tensor_shape))
    return sum128(hi, lo, axis=1)


def _base_convert_reference(poly: RnsPolynomial,
                            dst_base: tuple[PrimeContext, ...]
                            ) -> RnsPolynomial:
    """Per-limb reference BConv (the seed implementation), kept for tests.

    Bit-identical to :func:`base_convert`: both compute the exact sum of
    Eq. 9 modulo each destination prime, one by per-term Barrett
    reduction, the other by lazy 128-bit accumulation.
    """
    if poly.is_ntt:
        raise ValueError("BConv operates in the coefficient domain")
    qhat_inv, qhat_inv_shoup, cross, *_ = _bconv_table(
        tuple(p.value for p in poly.base), tuple(p.value for p in dst_base))

    n = poly.n
    terms = np.empty_like(poly.residues)
    for j, prime in enumerate(poly.base):
        terms[j] = mul_mod_shoup(
            poly.residues[j],
            np.broadcast_to(qhat_inv[j, 0], (n,)),
            np.broadcast_to(qhat_inv_shoup[j, 0], (n,)),
            prime.modulus)

    out = np.zeros((len(dst_base), n), dtype=np.uint64)
    for i, dst_prime in enumerate(dst_base):
        acc = np.zeros(n, dtype=np.uint64)
        m = dst_prime.modulus
        for j in range(len(poly.base)):
            term = mul_mod(terms[j], np.broadcast_to(cross[i, j, 0], (n,)), m)
            acc = add_mod(acc, term, m)
        out[i] = acc
    return RnsPolynomial(dst_base, out, is_ntt=False)


def exact_residue_transfer(residue: np.ndarray, src: PrimeContext,
                           dst_base: tuple[PrimeContext, ...]) -> RnsPolynomial:
    """Exact transfer of one limb to other primes via centered lift.

    Used by rescaling (HRescale) where the source base is a single prime:
    lifting to the centered interval makes the conversion exact, unlike
    the approximate multi-prime BConv.
    """
    q = src.value
    half = q // 2
    signed = residue.astype(np.int64)
    signed = np.where(residue > half, signed - np.int64(q), signed)
    values = np.array([p.value for p in dst_base],
                      dtype=np.int64).reshape(-1, 1)
    out = np.mod(signed[None, :], values).astype(np.uint64)
    return RnsPolynomial(dst_base, out, is_ntt=False)


def crt_reconstruct(poly: RnsPolynomial) -> np.ndarray:
    """Reconstruct centered big-int coefficients via the CRT (testing aid)."""
    if poly.is_ntt:
        raise ValueError("reconstruct from the coefficient domain")
    values = [p.value for p in poly.base]
    product = math.prod(values)
    out = np.zeros(poly.n, dtype=object)
    for j, q in enumerate(values):
        qhat = product // q
        factor = (qhat * inv_mod(qhat, q)) % product
        row = poly.residues[j].astype(object)
        out = (out + row * factor) % product
    half = product // 2
    return np.where(out > half, out - product, out)
