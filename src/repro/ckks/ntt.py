"""Negacyclic Number Theoretic Transform over Z_q[X]/(X^N + 1).

This is the functional counterpart of the BTS NTTU (Section 5.1): the
accelerator decomposes the same transform into a 3D schedule across 2,048
processing elements; here the textbook iterative algorithm runs either
as one native call per transform or vectorized per stage with NumPy.

Forward transform: Cooley-Tukey butterflies, natural-order input,
bit-reversed output.  Inverse: Gentleman-Sande, bit-reversed input,
natural-order output.  Because forward/inverse orderings cancel and the
scheme only ever multiplies point-wise in the NTT domain, no explicit
bit-reversal permutation is needed (the standard Longa-Naehrig trick).
Twiddle factors merge the 2N-th root ``psi`` so the transform is natively
negacyclic.

Performance notes (batched engines)
-----------------------------------

The BTS NTTU processes every RNS limb with the same butterfly network,
one modulus per lane.  :class:`BatchedNttContext` is the software
analogue: it transforms a whole ``(num_limbs, n)`` residue matrix per
call.  The per-prime :class:`NttContext` is retained both as the builder
of the tables and as the scalar reference implementation every batched
route is tested bit-identical against: all compute the exact same
canonical residues in the same (bit-reversed) order, so outputs agree
bit for bit, not merely modulo q.  A ``(..., num_limbs, n)`` input
stacks several polynomials over the same base along leading axes; the
base's tables serve all of them, so a stack of ``r`` polynomials costs
one call and no ``r``-fold copy of the tables.

Under the native modmath backend a transform is **one C call**
(``nm_ntt_forward`` / ``nm_ntt_inverse``) running every stage of every
row: Harvey lazy butterflies with exact Shoup quotients, valid for any
modulus below ``2**62``.  The base's ``NttContext`` tables are stacked
into contiguous ``(limbs, n)`` arrays and their pointers cast once per
base (:class:`_NativeTables`); a call copies the input into a fresh
contiguous output and transforms it in place with the GIL released.

Under NumPy the engine is :class:`_StockhamPlan`, a radix-4 Stockham
auto-sort transform over ping-pong buffers, built the first time the
NumPy route needs it.  The residue matrix lives transposed per stage as
``(limbs, h, B)`` (``B`` transform blocks of ``h`` coefficients each in
the columns), so every butterfly reads contiguous row slabs and two
radix-2 stages fuse into one radix-4 pass whose intermediates stay in
scratch.  Twiddles come from precomputed per-stage *planes* (the
per-block twiddle pattern pre-tiled along the contiguous axis together
with the split halves of its Shoup companion), which keeps every NumPy
inner loop unit-stride.  The butterfly multiply uses a 3-multiply
approximate high-half (the ``a0*b0`` plane of the 128-bit product is
dropped, costing at most 2 on the Shoup quotient), so lazy residues stay
below ``4m`` and one conditional-subtraction chain normalizes the matrix
at the end.  Bases whose moduli are too wide for those lazy bounds (see
:func:`stockham_gate`; about 58.5 bits at ``N = 2^11``) get no plan and
run the per-prime oracle row by row.  No shipped parameter set builds
such a base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.ckks.modmath import (
    Modulus,
    ModulusVector,
    _active_native,
    add_mod,
    inv_mod,
    mul_mod_shoup,
    shoup_precompute,
    sub_mod,
    workspace_buffer,
)
from repro.ckks.primes import primitive_root_2n
from repro.obs import kernel as _obs_kernel


def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of ``range(n)`` (n must be a power of two)."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros_like(idx)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@lru_cache(maxsize=256)
def ntt_galois_permutation(n: int, galois_elt: int) -> np.ndarray:
    """Evaluation-point gather realizing ``X -> X^g`` in the NTT domain.

    The negacyclic NTT used here evaluates the polynomial at the odd
    powers of the 2N-th root ``psi``; output slot ``t`` (bit-reversed
    layout) holds ``a(psi^(2*brv(t)+1))``.  The automorphism
    ``phi_g: a(X) -> a(X^g)`` therefore only *relabels* evaluation
    points: ``phi_g(a)(psi^e) = a(psi^(e*g mod 2N))``, and since ``g``
    is odd the map ``e -> e*g`` permutes the odd exponents.  This
    returns the gather index array ``perm`` with

        NTT(phi_g(a)) == NTT(a)[..., perm]

    bit for bit — no sign flips (unlike the coefficient-domain
    permutation), because negacyclic wrap-around signs are already baked
    into the evaluation values.  This is how BTS applies automorphisms
    without leaving the evaluation domain (Section 4.1): the hardware's
    PE-PE NoC shuffle is this gather; here it is one NumPy take along
    the coefficient axis, shared by every RNS limb.

    The permutation depends only on ``(n, galois_elt)`` — not on the
    moduli — so one cached table serves every base, and it is identical
    for the batched engine and the per-prime oracle (both emit the same
    bit-reversed order).
    """
    if galois_elt % 2 == 0:
        raise ValueError("galois element must be odd")
    rev = bit_reverse_indices(n)
    exps = 2 * rev + 1                       # exponent held by each slot
    src_exps = (exps * galois_elt) % (2 * n)  # exponent phi_g needs there
    perm = rev[(src_exps - 1) // 2]
    perm.setflags(write=False)
    return perm


@dataclass(frozen=True)
class NttContext:
    """Precomputed twiddle tables for one ``(q, N)`` pair."""

    modulus: Modulus
    n: int
    psi: int
    psi_rev: np.ndarray
    psi_rev_shoup: np.ndarray
    psi_inv_rev: np.ndarray
    psi_inv_rev_shoup: np.ndarray
    n_inv: np.uint64
    n_inv_shoup: np.uint64

    @classmethod
    def create(cls, q: int, n: int, psi: int | None = None) -> "NttContext":
        """Build tables; ``psi`` may be supplied for reproducibility."""
        if n & (n - 1) != 0 or n < 2:
            raise ValueError(f"N must be a power of two >= 2, got {n}")
        modulus = Modulus(q)
        if psi is None:
            psi = primitive_root_2n(q, n)
        if pow(psi, n, q) != q - 1:
            raise ValueError(f"psi={psi} is not a primitive 2N-th root mod {q}")
        psi_inv = inv_mod(psi, q)
        rev = bit_reverse_indices(n)
        powers = np.empty(n, dtype=np.uint64)
        powers_inv = np.empty(n, dtype=np.uint64)
        acc = 1
        acc_inv = 1
        plain = np.empty(n, dtype=object)
        plain_inv = np.empty(n, dtype=object)
        for i in range(n):
            plain[i] = acc
            plain_inv[i] = acc_inv
            acc = (acc * psi) % q
            acc_inv = (acc_inv * psi_inv) % q
        powers[rev] = plain.astype(np.uint64)
        powers_inv[rev] = plain_inv.astype(np.uint64)
        n_inv = inv_mod(n, q)
        return cls(
            modulus=modulus,
            n=n,
            psi=psi,
            psi_rev=powers,
            psi_rev_shoup=shoup_precompute(powers, modulus),
            psi_inv_rev=powers_inv,
            psi_inv_rev_shoup=shoup_precompute(powers_inv, modulus),
            n_inv=np.uint64(n_inv),
            n_inv_shoup=shoup_precompute(n_inv, modulus)[0],
        )

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Negacyclic NTT; returns a new array in bit-reversed order."""
        if _obs_kernel._ENABLED:
            _obs_kernel.TALLY.ntt_forward += 1
        m = self.modulus
        n = self.n
        a = np.array(a, dtype=np.uint64, copy=True)
        if a.shape != (n,):
            raise ValueError(f"expected shape ({n},), got {a.shape}")
        blocks = 1
        half = n // 2
        while half >= 1:
            view = a.reshape(blocks, 2, half)
            s = self.psi_rev[blocks:2 * blocks].reshape(blocks, 1)
            s_sh = self.psi_rev_shoup[blocks:2 * blocks].reshape(blocks, 1)
            u = view[:, 0, :].copy()
            v = mul_mod_shoup(view[:, 1, :], s, s_sh, m)
            view[:, 0, :] = add_mod(u, v, m)
            view[:, 1, :] = sub_mod(u, v, m)
            blocks *= 2
            half //= 2
        return a

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT; input bit-reversed, output natural order."""
        if _obs_kernel._ENABLED:
            _obs_kernel.TALLY.ntt_inverse += 1
        m = self.modulus
        n = self.n
        a = np.array(a, dtype=np.uint64, copy=True)
        if a.shape != (n,):
            raise ValueError(f"expected shape ({n},), got {a.shape}")
        blocks = n // 2
        half = 1
        while blocks >= 1:
            view = a.reshape(blocks, 2, half)
            s = self.psi_inv_rev[blocks:2 * blocks].reshape(blocks, 1)
            s_sh = self.psi_inv_rev_shoup[blocks:2 * blocks].reshape(blocks, 1)
            u = view[:, 0, :].copy()
            v = view[:, 1, :]
            view[:, 0, :] = add_mod(u, v, m)
            view[:, 1, :] = mul_mod_shoup(sub_mod(u, v, m), s, s_sh, m)
            blocks //= 2
            half *= 2
        n_inv = np.broadcast_to(self.n_inv, a.shape)
        n_inv_shoup = np.broadcast_to(self.n_inv_shoup, a.shape)
        return mul_mod_shoup(a, n_inv, n_inv_shoup, m)


#: Minimum inner-axis length for tiled twiddle planes.  Patterns shorter
#: than this are repeated along the contiguous axis so NumPy inner loops
#: stay long and unit-stride instead of hitting stride-0 broadcast loops.
_PLANE_TILE = 512

_MASK32_U64 = np.uint64(0xFFFFFFFF)


def _shoup4(v: np.ndarray, w: np.ndarray, s_lo: np.ndarray,
            s_hi: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Approximate lazy Shoup multiply: ``v * w mod m`` in ``[0, 4m)``.

    ``s_lo`` / ``s_hi`` are the 32-bit halves of the Shoup constant
    ``floor(w * 2**64 / m)`` stored as ``uint64`` planes.  The quotient
    ``q ~= floor(v * s / 2**64)`` is built from the three high partial
    products only — the ``v0*s_lo`` plane and the mid-sum carry are
    dropped, which under-estimates the true quotient by at most 2 — so
    the wrapping remainder lands in ``[0, 4m)`` for *any* ``v < 2**64``.
    Three plain ``uint64`` multiplies replace the exact
    :func:`~repro.ckks.modmath.mulhi64` ladder, whose 32-bit-view
    upcasting costs ~3x a native 64-bit multiply per pass.  Only the
    NumPy route runs it: under the native backend the whole transform
    is one call into ``nm_ntt_forward`` / ``nm_ntt_inverse``.
    """
    sh = v.shape
    v0 = np.bitwise_and(v, _MASK32_U64, out=workspace_buffer("stk.v0", sh))
    v1 = np.right_shift(v, np.uint64(32), out=workspace_buffer("stk.v1", sh))
    p01 = np.multiply(v0, s_hi, out=workspace_buffer("stk.p01", sh))
    p10 = np.multiply(v1, s_lo, out=workspace_buffer("stk.p10", sh))
    q = np.multiply(v1, s_hi, out=workspace_buffer("stk.q", sh))
    np.right_shift(p01, np.uint64(32), out=p01)
    np.right_shift(p10, np.uint64(32), out=p10)
    np.add(q, p01, out=q)
    np.add(q, p10, out=q)
    r = np.multiply(v, w, out=out)
    np.multiply(q, m, out=q)
    np.subtract(r, q, out=r)
    return r


#: NumPy dispatches issued by one ``_shoup4`` call.
_SHOUP4_OPS = 12

#: ``_shoup4`` products lie in ``[0, _LAZY_BOUND * m)``.
_LAZY_BOUND = 4


def stockham_gate(n: int, max_modulus: int) -> bool:
    """True when the ``4m`` lazy bounds of the Stockham engine hold.

    Twiddle products from :func:`_shoup4` stay below ``4m`` and the
    butterflies add a ``4m`` offset, so forward residues grow
    additively by at most ``4m`` per radix-2 stage: the final bound
    ``(4 * log2(n) + 1) * m`` must fit a word.  The inverse needs
    ``8m < 2**64`` for its add branch.  On the NumPy route, bases
    outside the gate run the per-prime :class:`NttContext` oracle row by
    row; the native kernels hold for any modulus below ``2**62``.
    """
    k = n.bit_length() - 1
    return ((_LAZY_BOUND * k + 1) * max_modulus < (1 << 64)
            and 2 * _LAZY_BOUND * max_modulus < (1 << 64))


class _StockhamPlan:
    """Precomputed schedule + twiddle planes for one stacked base.

    The transform state lives transposed as ``(limbs, h, B)`` — ``B``
    transform blocks of ``h`` coefficients each along the columns — in a
    pair of ping-pong buffers.  Fused radix-4 stages quadruple ``B``
    (forward) or quarter it (inverse); a lone radix-2 stage absorbs odd
    ``log2(n)`` (first on the forward side, last on the inverse side, so
    both sides execute the oracle's stage sequence in order).  All
    butterfly reads and twiddle multiplies run over contiguous slabs;
    the auto-sort interleave appears only as strided *writes* (forward)
    or strided *gathers* (inverse).  Twiddle patterns are pre-tiled to
    :data:`_PLANE_TILE` so no inner loop sees a stride-0 operand.
    Only built for bases inside :func:`stockham_gate`.
    """

    def __init__(self, contexts: tuple["NttContext", ...],
                 moduli: ModulusVector) -> None:
        self.n = n = contexts[0].n
        self.k = k = n.bit_length() - 1
        self.num_limbs = L = len(contexts)
        self.lone = bool(k % 2)
        psi = np.stack([c.psi_rev for c in contexts])
        psi_sh = np.stack([c.psi_rev_shoup for c in contexts])
        ipsi = np.stack([c.psi_inv_rev for c in contexts])
        ipsi_sh = np.stack([c.psi_inv_rev_shoup for c in contexts])
        mods = moduli.u64.reshape(L, 1)

        # ----- shared modulus planes -------------------------------------
        self.tile_n = min(_PLANE_TILE, n)
        imax = max(_PLANE_TILE, n // 2)
        self.m_plane = np.ascontiguousarray(
            np.broadcast_to(mods, (L, imax)))
        self.m_lazy_plane = self.m_plane * np.uint64(_LAZY_BOUND)
        # forward normalization chain: bound (4k+1) m -> halving
        bound = _LAZY_BOUND * k + 1
        mult = 1 << max((bound - 1).bit_length() - 1, 0)
        self.fwd_chain = []
        while mult >= 1:
            self.fwd_chain.append(np.ascontiguousarray(
                self.m_plane[:, :self.tile_n] * np.uint64(mult)))
            mult //= 2
        self.inv_chain = [np.ascontiguousarray(
            self.m_plane[:, :self.tile_n] * np.uint64(2)),
            np.ascontiguousarray(self.m_plane[:, :self.tile_n])]

        # ----- forward stage tables --------------------------------------
        def plane(vals: np.ndarray, shoups: np.ndarray, reps: int):
            w = np.ascontiguousarray(np.tile(vals, (1, reps)))
            s = np.ascontiguousarray(np.tile(shoups, (1, reps)))
            return (w, np.bitwise_and(s, _MASK32_U64), s >> np.uint64(32))

        if self.lone:
            self.fwd_lone = plane(psi[:, 1:2], psi_sh[:, 1:2], self.tile_n)
        self.fwd_stages = []
        blocks = 2 if self.lone else 1
        while blocks < n:
            B = blocks
            h = n // B
            r1 = min(max(1, _PLANE_TILE // B), h // 2)
            r2 = min(max(1, _PLANE_TILE // B), h // 4)
            even = plane(psi[:, 2 * B:4 * B:2],
                         psi_sh[:, 2 * B:4 * B:2], r2)
            odd = plane(psi[:, 2 * B + 1:4 * B:2],
                        psi_sh[:, 2 * B + 1:4 * B:2], r2)
            # pre-stack the sub-block twiddles as (L, 2, 1, I2) planes
            tab2 = tuple(np.ascontiguousarray(
                np.stack([e, o], axis=1)[:, :, None, :])
                for e, o in zip(even, odd))
            self.fwd_stages.append((
                B, B * r1,
                plane(psi[:, B:2 * B], psi_sh[:, B:2 * B], r1),
                B * r2, tab2,
            ))
            blocks *= 4

        # ----- inverse stage tables --------------------------------------
        n_inv = np.array([[c.n_inv] for c in contexts], dtype=np.uint64)
        n_inv_sh = np.array([[c.n_inv_shoup] for c in contexts],
                            dtype=np.uint64)
        merged = np.array(
            [[(int(c.psi_inv_rev[1]) * int(c.n_inv)) % c.modulus.value]
             for c in contexts], dtype=np.uint64)
        merged_sh = shoup_precompute(merged, moduli)
        self.inv_stages = []
        C = n // 2
        while C >= (4 if self.lone else 2):
            h = n // (2 * C)
            rA = min(max(1, _PLANE_TILE // C), h) or 1
            C2 = C // 2
            rB = min(max(1, _PLANE_TILE // C2), 2 * h)
            final = (not self.lone) and C2 == 1
            if final:
                sB = plane(merged, merged_sh, rB)
            else:
                sB = plane(ipsi[:, C2:2 * C2], ipsi_sh[:, C2:2 * C2], rB)
            self.inv_stages.append((
                C,
                C * rA,
                plane(ipsi[:, C:2 * C], ipsi_sh[:, C:2 * C], rA),
                C2 * rB,
                sB,
                final,
            ))
            C //= 4
        if self.lone:
            self.inv_lone = plane(merged, merged_sh, self.tile_n)
        self.ninv_plane = plane(n_inv, n_inv_sh, self.tile_n)

        # ----- static pass tallies ---------------------------------------
        # (dispatches, full-matrix pass equivalents) per stage group; the
        # benchmark harness records these so pass-count regressions are
        # visible without instrumenting the hot loop.
        half = 0.5
        fwd = []
        if self.lone:
            fwd.append(("lone", _SHOUP4_OPS + 3,
                        (_SHOUP4_OPS + 3) * half))
        for B, _, _, _, _ in self.fwd_stages:
            fwd.append((f"radix4@B={B}", 2 * (_SHOUP4_OPS + 3),
                        2 * (_SHOUP4_OPS + 3) * half))
        fwd.append(("normalize", 2 * len(self.fwd_chain),
                    2.0 * len(self.fwd_chain)))
        inv = []
        for C, _, _, _, _, final in self.inv_stages:
            ops = 2 * (_SHOUP4_OPS + 7) + (_SHOUP4_OPS if final else 0)
            inv.append((f"radix4@C={C}", ops, ops * half))
        if self.lone:
            inv.append(("lone", 2 * _SHOUP4_OPS + 5,
                        (2 * _SHOUP4_OPS + 5) * half))
        inv.append(("normalize", 2 * len(self.inv_chain),
                    2.0 * len(self.inv_chain)))
        self.pass_counts = {
            "engine": "stockham-r4",
            "forward": _tally(fwd),
            "inverse": _tally(inv),
        }

    # ----- helpers -------------------------------------------------------

    def _buffers(self, a: np.ndarray, swaps: int
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Ping/pong pair arranged so the result lands in a fresh array."""
        fresh = np.empty(a.shape, dtype=np.uint64)
        if swaps % 2 == 0:
            np.copyto(fresh, a)
            return fresh, workspace_buffer("stk.pong", a.shape)
        ping = workspace_buffer("stk.pong", a.shape)
        np.copyto(ping, a)
        return ping, fresh

    def _mslice(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        return (self.m_plane[:, :length].reshape(self.num_limbs, 1, length),
                self.m_lazy_plane[:, :length].reshape(
                    self.num_limbs, 1, length))

    def _normalize(self, a: np.ndarray, chain: list[np.ndarray]
                   ) -> np.ndarray:
        t = self.tile_n
        x = a.reshape(*a.shape[:-1], self.n // t, t)
        scr = workspace_buffer("stk.corr", x.shape)
        for plane in chain:
            np.subtract(x, plane[:, None, :], out=scr)
            np.minimum(x, scr, out=x)
        return a

    # ----- transforms ----------------------------------------------------

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Radix-4 Stockham forward NTT of ``(..., num_limbs, n)`` limbs."""
        n = self.n
        a = np.asarray(a, dtype=np.uint64)
        L = a.shape[:-1]  # leading axes; the tables broadcast over them
        swaps = (1 if self.lone else 0) + len(self.fwd_stages)
        cur, nxt = self._buffers(a, swaps)
        if self.lone:
            w, s_lo, s_hi = self.fwd_lone
            h2 = n // 2
            tl = min(self.tile_n, h2)
            mI, m4I = self._mslice(tl)
            u = cur[..., :h2].reshape(*L, h2 // tl, tl)
            v = cur[..., h2:].reshape(*L, h2 // tl, tl)
            t = _shoup4(v, w[:, None, :tl], s_lo[:, None, :tl],
                        s_hi[:, None, :tl], mI,
                        workspace_buffer("stk.t1", v.shape))
            out = nxt.reshape(*L, h2, 2)
            np.add(u.reshape(*L, h2), t.reshape(*L, h2), out=out[..., 0])
            tmp = np.add(u, m4I, out=workspace_buffer("stk.tmp", u.shape))
            np.subtract(tmp.reshape(*L, h2), t.reshape(*L, h2),
                        out=out[..., 1])
            cur, nxt = nxt, cur
        for B, I1, (w1, s1lo, s1hi), I2, (w2, s2lo, s2hi) \
                in self.fwd_stages:
            h = n // B
            h4 = h // 4
            half = n // 2
            r1 = (*L, half // I1, I1)
            IN = cur.reshape(*L, h, B)
            u = IN[..., :h // 2, :].reshape(r1)
            v = IN[..., h // 2:, :].reshape(r1)
            mI, m4I = self._mslice(I1)
            Y = workspace_buffer("stk.mid", (*L, 4, h4 * B))
            t = _shoup4(v, w1[:, None, :], s1lo[:, None, :],
                        s1hi[:, None, :], mI,
                        workspace_buffer("stk.t1", r1))
            np.add(u, t, out=Y[..., 0:2, :].reshape(r1))
            tmp = np.add(u, m4I, out=workspace_buffer("stk.tmp", r1))
            np.subtract(tmp, t, out=Y[..., 2:4, :].reshape(r1))
            # sub-stage 2: multiplicands are the odd quarters y1, y3
            r2 = (*L, 2, (h4 * B) // I2, I2)
            yo = Y[..., 1::2, :].reshape(r2)
            ye = Y[..., 0::2, :].reshape(r2)
            mI2, m4I2 = self._mslice(I2)
            t2 = _shoup4(yo, w2, s2lo, s2hi, mI2[:, None, :, :],
                         workspace_buffer("stk.t2", r2))
            OUT = nxt.reshape(*L, h4, B, 4)
            q4 = (*L, 2, h4, B)
            zp = np.moveaxis(OUT[..., 0::2], -1, -3)
            zm = np.moveaxis(OUT[..., 1::2], -1, -3)
            np.add(ye.reshape(q4), t2.reshape(q4), out=zp)
            tmp = np.add(ye, m4I2[:, None, :, :],
                         out=workspace_buffer("stk.tmp", r2))
            np.subtract(tmp.reshape(q4), t2.reshape(q4), out=zm)
            cur, nxt = nxt, cur
        return self._normalize(cur, self.fwd_chain)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Radix-4 Stockham inverse NTT (bit-reversed in, natural out)."""
        n = self.n
        a = np.asarray(a, dtype=np.uint64)
        L = a.shape[:-1]  # leading axes; the tables broadcast over them
        swaps = (1 if self.lone else 0) + len(self.inv_stages)
        cur, nxt = self._buffers(a, swaps)
        for C, IA, (wA, sAlo, sAhi), IB, (wB, sBlo, sBhi), final \
                in self.inv_stages:
            h = n // (2 * C)
            C2 = C // 2
            IN = cur.reshape(*L, h, 2 * C)
            MID = workspace_buffer("stk.mid", (*L, 2 * h, C))
            self._gs_substage(IN, MID, C, IA, wA, sAlo, sAhi, scale=None)
            scale = self.ninv_plane if final else None
            self._gs_substage(MID, nxt.reshape(*L, 4 * h, C2), C2, IB,
                              wB, sBlo, sBhi, scale=scale)
            cur, nxt = nxt, cur
        if self.lone:
            h2 = n // 2
            IN = cur.reshape(*L, h2, 2)
            tl = min(self.tile_n, h2)
            rs = (*L, h2 // tl, tl)
            mI, m4I = self._mslice(tl)
            U = workspace_buffer("stk.u", rs)
            V = workspace_buffer("stk.v", rs)
            np.copyto(U.reshape(*L, h2), IN[..., 0])
            np.copyto(V.reshape(*L, h2), IN[..., 1])
            W = nxt[..., :h2].reshape(rs)
            np.add(U, V, out=W)
            scr = workspace_buffer("stk.cw", rs)
            np.subtract(W, m4I, out=scr)
            np.minimum(W, scr, out=W)
            wN, sNlo, sNhi = self.ninv_plane
            # in-place is safe: _shoup4 reads v once more only in r = v*w
            _shoup4(W, wN[:, None, :tl], sNlo[:, None, :tl],
                    sNhi[:, None, :tl], mI, W)
            np.add(U, m4I, out=U)
            np.subtract(U, V, out=U)
            wM, sMlo, sMhi = self.inv_lone
            _shoup4(U, wM[:, None, :tl], sMlo[:, None, :tl],
                    sMhi[:, None, :tl], mI, nxt[..., h2:].reshape(rs))
            cur, nxt = nxt, cur
        return self._normalize(cur, self.inv_chain)

    def _gs_substage(self, IN: np.ndarray, OUT: np.ndarray, C2: int,
                     I: int, w: np.ndarray, s_lo: np.ndarray,
                     s_hi: np.ndarray, scale) -> None:
        """One Gentleman-Sande stage: ``(.., h, 2*C2)`` -> ``(.., 2h, C2)``.

        Gathers the interleaved column pairs into contiguous scratch,
        writes the add branch (corrected once to stay below ``4m``) and
        the twiddled difference branch as contiguous row slabs.  When
        ``scale`` is given (the folded ``1/n`` of the final stage) the
        add branch is additionally Shoup-multiplied by it.
        """
        *L, h, _ = IN.shape
        rs = (*L, (h * C2) // I, I)
        mI, m4I = self._mslice(I)
        U = workspace_buffer("stk.u", rs)
        V = workspace_buffer("stk.v", rs)
        np.copyto(U.reshape(*L, h, C2), IN[..., 0::2])
        np.copyto(V.reshape(*L, h, C2), IN[..., 1::2])
        W = OUT[..., :h, :].reshape(rs)
        np.add(U, V, out=W)
        scr = workspace_buffer("stk.cw", rs)
        np.subtract(W, m4I, out=scr)
        np.minimum(W, scr, out=W)
        if scale is not None:
            wN, sNlo, sNhi = scale
            _shoup4(W, wN[:, None, :I], sNlo[:, None, :I],
                    sNhi[:, None, :I], mI, W)
        np.add(U, m4I, out=U)
        np.subtract(U, V, out=U)
        _shoup4(U, w[:, None, :], s_lo[:, None, :], s_hi[:, None, :],
                mI, OUT[..., h:, :].reshape(rs))


def _tally(stages: list[tuple[str, int, float]]) -> dict:
    return {
        "dispatches": sum(s[1] for s in stages),
        "matrix_passes": round(sum(s[2] for s in stages), 1),
        "per_stage": [{"stage": s[0], "dispatches": s[1],
                       "matrix_passes": s[2]} for s in stages],
    }


class _NativeTables:
    """One base's :class:`NttContext` tables, stacked for the C kernels.

    Contiguous ``(limbs, n)`` twiddle matrices plus per-limb ``n^-1`` and
    merged last-stage constants (``psi_inv_rev[1] * n^-1``), each with
    its Shoup companion.  The pointers are taken once here, so a
    transform costs one contiguous copy into a fresh output and one call.
    """

    def __init__(self, handle, contexts: tuple[NttContext, ...],
                 moduli: ModulusVector) -> None:
        self.handle = handle
        self.n = contexts[0].n
        self.limbs = len(contexts)
        merged = np.array(
            [[(int(c.psi_inv_rev[1]) * int(c.n_inv)) % c.modulus.value]
             for c in contexts], dtype=np.uint64)
        tables = (
            [c.psi_rev for c in contexts],
            [c.psi_rev_shoup for c in contexts],
            [c.psi_inv_rev for c in contexts],
            [c.psi_inv_rev_shoup for c in contexts],
            [c.n_inv for c in contexts],
            [c.n_inv_shoup for c in contexts],
            merged.ravel(),
            shoup_precompute(merged, moduli).ravel(),
            moduli.u64.ravel(),
        )
        # the arrays must outlive every call through the cast pointers
        self._arrays = [np.ascontiguousarray(np.stack(t), dtype=np.uint64)
                        for t in tables]
        psi, psi_sh, ipsi, ipsi_sh, ninv, ninv_sh, mg, mg_sh, mods = (
            handle.ptr(t) for t in self._arrays)
        self._forward = (psi, psi_sh, mods)
        self._inverse = (ipsi, ipsi_sh, ninv, ninv_sh, mg, mg_sh, mods)

    def _run(self, kernel, tables, a: np.ndarray) -> np.ndarray:
        out = np.array(a, dtype=np.uint64, order="C")  # fresh, contiguous
        kernel(out.size // self.n, self.limbs, self.n, self.handle.ptr(out),
               *tables)
        return out

    def forward(self, a: np.ndarray) -> np.ndarray:
        return self._run(self.handle.lib.nm_ntt_forward, self._forward, a)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        return self._run(self.handle.lib.nm_ntt_inverse, self._inverse, a)


@dataclass(frozen=True)
class BatchedNttContext:
    """One butterfly network running each stage across all limbs.

    ``forward`` / ``inverse`` transform a whole ``(..., num_limbs, n)``
    residue matrix per call — the software counterpart of the NTTU
    applying the same stage to every RNS lane simultaneously.  Under the
    native modmath backend that is one C call per transform, for any
    base.  Under NumPy, bases inside :func:`stockham_gate` run the
    radix-4 Stockham plan and wider bases (``plan is None``) run the
    per-prime contexts row by row.  Outputs are bit-identical on every
    route.
    """

    moduli: ModulusVector
    n: int
    contexts: tuple[NttContext, ...]

    @classmethod
    def from_contexts(cls, contexts: tuple[NttContext, ...]
                      ) -> "BatchedNttContext":
        if not contexts:
            raise ValueError("need at least one NttContext")
        n = contexts[0].n
        if any(c.n != n for c in contexts):
            raise ValueError("all limbs must share the same ring degree")
        moduli = ModulusVector([c.modulus for c in contexts])
        return cls(moduli=moduli, n=n, contexts=tuple(contexts))

    @cached_property
    def plan(self) -> "_StockhamPlan | None":
        """The NumPy route's Stockham schedule, built on first use.

        ``None`` when the moduli are too wide for its lazy bounds (see
        :func:`stockham_gate`).  The native route never reads it, so a
        native process does not pay for its twiddle planes.
        """
        if not stockham_gate(self.n, max(self.moduli.values)):
            return None
        return _StockhamPlan(self.contexts, self.moduli)

    @cached_property
    def _native(self) -> _NativeTables:
        return _NativeTables(_active_native(), self.contexts, self.moduli)

    @property
    def route(self) -> str:
        """Engine of the next transform: native, stockham or per-limb."""
        if _active_native() is not None:
            return "native"
        return "per-limb" if self.plan is None else "stockham"

    @property
    def num_limbs(self) -> int:
        return len(self.moduli)

    def _check_shape(self, a: np.ndarray) -> None:
        expected = (self.num_limbs, self.n)
        if a.shape[-2:] != expected:
            raise ValueError(
                f"expected shape (..., *{expected}), got {a.shape}")

    def _per_limb(self, a: np.ndarray, direction: str) -> np.ndarray:
        rows = a.reshape(-1, self.n)
        contexts = self.contexts * (len(rows) // self.num_limbs)
        return np.stack([getattr(c, direction)(row)
                         for c, row in zip(contexts, rows)]).reshape(a.shape)

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Batched negacyclic NTT of ``(..., num_limbs, n)`` residues.

        Leading axes stack several polynomials over this base; they
        share its tables, so no wider context is built for them.
        """
        self._check_shape(a)
        native = _active_native() is not None
        if not native and self.plan is None:
            return self._per_limb(a, "forward")
        if _obs_kernel._ENABLED:
            _obs_kernel.TALLY.ntt_forward += a.size // self.n
        if native:
            return self._native.forward(a)
        return self.plan.forward(a)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Batched inverse NTT of ``(..., num_limbs, n)`` residues."""
        self._check_shape(a)
        native = _active_native() is not None
        if not native and self.plan is None:
            return self._per_limb(a, "inverse")
        if _obs_kernel._ENABLED:
            _obs_kernel.TALLY.ntt_inverse += a.size // self.n
        if native:
            return self._native.inverse(a)
        return self.plan.inverse(a)


#: Cache of stacked-table contexts keyed by the exact (q, psi) chain + n.
_BATCHED_CACHE: dict[tuple, BatchedNttContext] = {}


def batched_ntt_context(contexts: tuple[NttContext, ...]
                        ) -> BatchedNttContext:
    """Cached :class:`BatchedNttContext` for a tuple of per-prime contexts.

    Keyed by the ``(q, psi)`` chain and ring degree, so two bases built
    from the same primes (e.g. a level-restricted base) share tables.
    """
    key = (tuple((c.modulus.value, c.psi) for c in contexts), contexts[0].n)
    cached = _BATCHED_CACHE.get(key)
    if cached is None:
        cached = BatchedNttContext.from_contexts(tuple(contexts))
        _BATCHED_CACHE[key] = cached
    return cached


def negacyclic_convolution_reference(a: np.ndarray, b: np.ndarray,
                                     q: int) -> np.ndarray:
    """O(N^2) schoolbook negacyclic product, for testing NTT correctness."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(int(x) for x in a):
        if ai == 0:
            continue
        for j, bj in enumerate(int(x) for x in b):
            k = i + j
            term = ai * bj
            if k >= n:
                out[k - n] = (out[k - n] - term) % q
            else:
                out[k] = (out[k] + term) % q
    return np.array(out, dtype=np.uint64)
