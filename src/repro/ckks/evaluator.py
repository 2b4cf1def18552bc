"""The CKKS evaluator: every primitive HE op of Section 2.3.

Sign convention: a ciphertext ``(b, a)`` decrypts as ``m = b - a*s``.
All ciphertexts are kept in the NTT domain between operations (as BTS
does, Section 4.1); only rescaling and base conversions drop to the
coefficient domain, mirroring the hardware's ``iNTT -> BConv -> NTT``
pattern (automorphisms gather evaluation points in place).

A real CMult/CAdd never transforms: the NTT of the constant polynomial
``round(v*scale)`` is that integer at every evaluation point, so CMult
multiplies each limb of both halves by its residue column and CAdd adds
the column into ``b`` (:meth:`~repro.ckks.encoder.Encoder.scalar_columns`).
Complex scalars encode a replicated message and take the PMult/PAdd
path.  HRescale runs one stacked inverse transform over both halves'
dropped limbs and one stacked forward transform over both exact
transfers, then subtracts and scales by ``q_level^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.encoder import Encoder
from repro.ckks.keys import EvaluationKey, SecretKey
from repro.ckks.keyswitch import key_switch
from repro.ckks.modmath import add_mod
from repro.ckks.params import RingContext
from repro.ckks.rns import (
    RnsPolynomial,
    StackedTransform,
    exact_residue_transfer,
)

#: Relative scale mismatch tolerated by additions.  Rescaling primes sit
#: within ~2^-25 of their nominal power of two at functional ring sizes,
#: and the drift compounds through deep evaluation trees (roughly
#: doubling per multiplicative level) - which is why bootstrapping
#: re-normalizes the scale exactly at EvalMod entry (see
#: ``Evaluator.multiply_scalar``'s ``target_scale``).  What remains stays
#: parts-in-1e4; tolerating it injects relative message error of the
#: same magnitude, far below the noise floor.
SCALE_RTOL = 1e-3


@dataclass(frozen=True)
class ReduceTerm:
    """One member of a fused rotate-reduce: ``sign * weight * galois(ct)``.

    ``amount`` is the slot-rotation amount (``0`` means the identity —
    the un-rotated ciphertext itself) and ``None`` means conjugation.
    ``weight`` is an optional plaintext factor: a slot vector
    (:class:`numpy.ndarray`) takes the PMult path, a scalar the CMult
    path; ``weight_scale`` pins its encoding scale (``None``: the
    level's top prime, the evaluator default).
    """

    amount: int | None
    sign: int = 1
    weight: object = None
    weight_scale: float | None = None


class Evaluator:
    """Homomorphic operations over one ring, with optional key material."""

    def __init__(self, ring: RingContext,
                 relin_key: EvaluationKey | None = None,
                 rotation_keys: dict[int, EvaluationKey] | None = None,
                 conjugation_key: EvaluationKey | None = None) -> None:
        self.ring = ring
        self.encoder = Encoder(ring)
        self.relin_key = relin_key
        self.rotation_keys = dict(rotation_keys or {})
        self.conjugation_key = conjugation_key

    # ----- level & scale management -------------------------------------------

    def drop_to_level(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Discard limbs above ``level`` (plaintext and scale unchanged)."""
        if level > ct.level:
            raise ValueError(f"cannot raise level {ct.level} -> {level}")
        if level == ct.level:
            return ct.clone()
        base = self.ring.base_q(level)
        return Ciphertext(ct.b.restrict(base), ct.a.restrict(base),
                          ct.scale, ct.n_slots)

    def align_pair(self, ct0: Ciphertext, ct1: Ciphertext
                   ) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to the lower of their two levels.

        Already-aligned inputs are returned as-is (no defensive clone:
        every evaluator op builds fresh polynomials, never mutates).
        """
        if ct0.level == ct1.level:
            return ct0, ct1
        level = min(ct0.level, ct1.level)
        return self.drop_to_level(ct0, level), self.drop_to_level(ct1, level)

    def _check_scales(self, s0: float, s1: float) -> None:
        if abs(s0 - s1) > SCALE_RTOL * max(s0, s1):
            raise ValueError(f"scale mismatch: {s0} vs {s1}")

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """HRescale: divide by the last prime and drop its limb.

        Both halves' last limbs share one inverse transform, and both
        exact transfers onto ``C_{level-1}`` share one forward transform.
        """
        if ct.level == 0:
            raise ValueError("cannot rescale below level 0")
        last = ct.b.base[-1]
        new_base = self.ring.base_q(ct.level - 1)
        cols, cols_shoup = self.ring.rescale_inv_scalar_columns(ct.level)
        last_limbs = StackedTransform.inverse(
            [RnsPolynomial((last,), poly.residues[-1:], True)
             for poly in (ct.b, ct.a)])
        transfers = StackedTransform.forward(
            [exact_residue_transfer(limb.residues[0], last, new_base)
             for limb in last_limbs])
        b, a = (RnsPolynomial(new_base, poly.residues[:-1], True)
                .sub(transfer).mul_scalar_columns(cols, cols_shoup)
                for poly, transfer in zip((ct.b, ct.a), transfers))
        return Ciphertext(b, a, ct.scale / float(last.value), ct.n_slots)

    # ----- additive ops ----------------------------------------------------------

    def add(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        ct0, ct1 = self.align_pair(ct0, ct1)
        self._check_scales(ct0.scale, ct1.scale)
        return Ciphertext(ct0.b.add(ct1.b), ct0.a.add(ct1.a),
                          ct0.scale, ct0.n_slots)

    def sub(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        ct0, ct1 = self.align_pair(ct0, ct1)
        self._check_scales(ct0.scale, ct1.scale)
        return Ciphertext(ct0.b.sub(ct1.b), ct0.a.sub(ct1.a),
                          ct0.scale, ct0.n_slots)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext(ct.b.neg(), ct.a.neg(), ct.scale, ct.n_slots)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PAdd/CAdd: add an encoded polynomial to the b component."""
        self._check_scales(ct.scale, pt.scale)
        poly = pt.poly
        if pt.level != ct.level:
            poly = poly.restrict(self.ring.base_q(ct.level))
        return Ciphertext(ct.b.add(poly), ct.a.clone(), ct.scale, ct.n_slots)

    def add_scalar(self, ct: Ciphertext, value: complex) -> Ciphertext:
        """CAdd: add one scalar (encoded at ``ct.scale``) to every slot."""
        base = self.ring.base_q(ct.level)
        columns = self.encoder.scalar_columns(value, ct.scale, base)
        if columns is None:
            return self.add_plain(
                ct, self.encoder.encode_scalar(value, ct.scale, base))
        b = add_mod(ct.b.residues, columns[0], ct.b.moduli,
                    out=np.empty_like(ct.b.residues))
        return Ciphertext(RnsPolynomial(base, b, True), ct.a.clone(),
                          ct.scale, ct.n_slots)

    # ----- multiplicative ops ------------------------------------------------------

    def multiply(self, ct0: Ciphertext, ct1: Ciphertext,
                 rescale: bool = True) -> Ciphertext:
        """HMult (Eq. 3/4): tensor product + key-switching of d2."""
        if self.relin_key is None:
            raise ValueError("relinearization key not available")
        square = ct0 is ct1
        ct0, ct1 = self.align_pair(ct0, ct1)
        d0 = ct0.b.mul(ct1.b)
        if square:  # d1 = 2ab: one ring product instead of two
            ab = ct0.a.mul(ct1.b)
            d1 = ab.add(ab)
        else:
            d1 = ct0.a.mul(ct1.b).add(ct1.a.mul(ct0.b))
        d2 = ct0.a.mul(ct1.a)
        ks_b, ks_a = key_switch(d2, self.relin_key, ct0.level, self.ring)
        out = Ciphertext(d0.add(ks_b), d1.add(ks_a),
                         ct0.scale * ct1.scale, ct0.n_slots)
        return self.rescale(out) if rescale else out

    def square(self, ct: Ciphertext, rescale: bool = True) -> Ciphertext:
        return self.multiply(ct, ct, rescale=rescale)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext,
                       rescale: bool = False) -> Ciphertext:
        """PMult: multiply by an encoded (unencrypted) polynomial."""
        poly = pt.poly
        if pt.level < ct.level:
            ct = self.drop_to_level(ct, pt.level)
        elif pt.level > ct.level:
            poly = poly.restrict(self.ring.base_q(ct.level))
        out = Ciphertext(ct.b.mul(poly), ct.a.mul(poly),
                         ct.scale * pt.scale, ct.n_slots)
        return self.rescale(out) if rescale else out

    def multiply_scalar(self, ct: Ciphertext, value: complex,
                        scale: float | None = None,
                        rescale: bool = False,
                        target_scale: float | None = None) -> Ciphertext:
        """CMult: multiply by one scalar encoded at ``scale``.

        A real scalar multiplies each limb by its residue column
        (:meth:`~repro.ckks.encoder.Encoder.scalar_columns`, no
        transform); a complex scalar encodes a full replicated message
        and takes :meth:`multiply_plain`.

        ``target_scale`` (requires ``rescale=True``) picks the encoding
        scale so the *output* scale is exactly the requested value:
        ``enc_scale = target_scale * q_top / ct.scale``.  This is the
        standard exact scale-renormalization trick - bootstrapping uses
        it at EvalMod entry, because any input scale drift would
        otherwise be amplified exponentially through the deep Chebyshev
        evaluation tree (it roughly doubles per multiplicative level).
        """
        if target_scale is not None:
            if not rescale:
                raise ValueError("target_scale requires rescale=True")
            q_top = float(self.ring.q_primes[ct.level].value)
            scale = target_scale * q_top / ct.scale
        elif scale is None:
            scale = float(self.ring.q_primes[ct.level].value)
        base = self.ring.base_q(ct.level)
        columns = self.encoder.scalar_columns(value, scale, base)
        if columns is None:
            out = self.multiply_plain(
                ct, self.encoder.encode_scalar(value, scale, base))
        else:
            out = Ciphertext(ct.b.mul_scalar_columns(*columns),
                             ct.a.mul_scalar_columns(*columns),
                             ct.scale * scale, ct.n_slots)
        if rescale:
            out = self.rescale(out)
        if target_scale is not None:
            out.scale = target_scale  # exact by construction
        return out

    def multiply_integer(self, ct: Ciphertext, value: int) -> Ciphertext:
        """Multiply by a small exact integer (no scale change, no rescale)."""
        return Ciphertext(ct.b.mul_int(value), ct.a.mul_int(value),
                          ct.scale, ct.n_slots)

    # ----- rotations ----------------------------------------------------------------

    def _apply_galois(self, ct: Ciphertext, galois_elt: int,
                      evk: EvaluationKey) -> Ciphertext:
        from repro.ckks.keyswitch import raise_decomposition

        raised = raise_decomposition(ct.a, ct.level, self.ring)
        return self._galois_from_raised(ct, raised, galois_elt, evk)

    def _galois_from_raised(self, ct: Ciphertext, raised,
                            galois_elt: int,
                            evk: EvaluationKey) -> Ciphertext:
        """Finish a galois op from NTT-domain raised slices of ``ct.a``.

        The BTS evaluation-domain path: the automorphism lands on the
        *raised* slices and on ``ct.b`` as a pure evaluation-point
        gather (no iNTT/NTT round-trip anywhere), then the evk inner
        product and ModDown finish the key-switch.  Every galois op —
        single HRot, HConj, and each member of a hoisted batch — funnels
        through this one path, which keeps hoisted batches
        *bit-identical* to sequential calls: the only difference is
        whether ``raised`` is shared or recomputed, and it is a
        deterministic function of ``ct.a``.
        """
        from repro.ckks.keyswitch import galois_raised, key_switch_raised

        rotated = galois_raised(raised, galois_elt)
        ks_b, ks_a = key_switch_raised(rotated, evk, ct.level, self.ring)
        b_rot = ct.b.galois(galois_elt)  # NTT-domain gather
        # (b', a') decrypts under s(X^g); fold the key-switch so the result
        # decrypts under s:  b_out - a_out*s = b' - (ks_b - ks_a*s) = m(X^g).
        return Ciphertext(b_rot.sub(ks_b), ks_a.neg(), ct.scale, ct.n_slots)

    def rotate(self, ct: Ciphertext, amount: int) -> Ciphertext:
        """HRot: cyclically shift message slots by ``amount``."""
        amount = amount % ct.n_slots
        if amount == 0:
            return ct.clone()
        if amount not in self.rotation_keys:
            raise ValueError(f"no rotation key for amount {amount}")
        galois_elt = pow(5, amount, 2 * self.ring.n)
        return self._apply_galois(ct, galois_elt,
                                  self.rotation_keys[amount])

    def galois_hoisted(self, ct: Ciphertext, amounts: list[int],
                       conjugate: bool = False
                       ) -> tuple[dict[int, Ciphertext],
                                  Ciphertext | None]:
        """Many galois ops on one ciphertext, sharing one decomposition.

        The hoisting optimization of [12] (also used by Lattigo),
        upgraded to the BTS evaluation-domain form: the *entire* raise —
        iNTT, every ModUp BConv, and the stacked forward transform —
        runs once, and each galois element only gathers the raised
        NTT-domain slices, multiplies with its own evk and mods down.
        Bit-identical to sequential :meth:`rotate` / :meth:`conjugate`
        calls.

        Returns ``(rotations, conjugated)`` where ``rotations`` maps
        each requested amount to its rotated ciphertext and
        ``conjugated`` is the HConj result (``None`` unless
        ``conjugate=True``).
        """
        from repro.ckks.keyswitch import raise_decomposition

        unique = sorted({a % ct.n_slots for a in amounts})
        out: dict[int, Ciphertext] = {}
        pending = []
        for amount in unique:
            if amount == 0:
                out[0] = ct.clone()
            elif amount not in self.rotation_keys:
                raise ValueError(f"no rotation key for amount {amount}")
            else:
                pending.append(amount)
        if conjugate and self.conjugation_key is None:
            raise ValueError("conjugation key not available")
        if not pending and not conjugate:
            return out, None
        jobs = [(pow(5, amount, 2 * self.ring.n),
                 self.rotation_keys[amount], amount)
                for amount in pending]
        if conjugate:
            jobs.append((2 * self.ring.n - 1, self.conjugation_key, None))
        raised = raise_decomposition(ct.a, ct.level, self.ring)
        conjugated: Ciphertext | None = None
        for galois_elt, evk, amount in jobs:
            result = self._galois_from_raised(ct, raised, galois_elt, evk)
            if amount is None:
                conjugated = result
            else:
                out[amount] = result
        return out, conjugated

    def rotate_hoisted(self, ct: Ciphertext, amounts: list[int]
                       ) -> dict[int, Ciphertext]:
        """Many rotations of one ciphertext, sharing a single raise.

        Thin wrapper over :meth:`galois_hoisted` (rotations only).
        Bit-identical to calling :meth:`rotate` per amount.
        """
        rotations, _ = self.galois_hoisted(ct, amounts)
        return rotations

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """HConj: complex-conjugate every slot (galois element 2N-1)."""
        if self.conjugation_key is None:
            raise ValueError("conjugation key not available")
        return self._apply_galois(ct, 2 * self.ring.n - 1,
                                  self.conjugation_key)

    # ----- fused rotate-reduce -------------------------------------------------

    def _reduce_galois_elt(self, amount: int | None
                           ) -> tuple[int, EvaluationKey]:
        """(galois element, evk) for one non-identity ReduceTerm."""
        if amount is None:
            if self.conjugation_key is None:
                raise ValueError("conjugation key not available")
            return 2 * self.ring.n - 1, self.conjugation_key
        evk = self.rotation_keys.get(amount)
        if evk is None:
            raise ValueError(f"no rotation key for amount {amount}")
        return pow(5, amount, 2 * self.ring.n), evk

    def rotate_reduce(self, ct: Ciphertext, terms: list[ReduceTerm],
                      mode: str = "single") -> Ciphertext:
        """``sum_i sign_i * weight_i * galois_i(ct)`` from one raise.

        The whole rotate-reduce tree shares a single NTT-domain raise of
        ``ct.a``; each non-identity term is an evaluation-point gather
        plus an evk inner product (:func:`~repro.ckks.keyswitch
        .key_switch_accumulate`).  What happens to the accumulators
        depends on ``mode``:

        * ``"stacked"`` — every member's ``(b, a)`` accumulator pair
          rides one :func:`~repro.ckks.keyswitch.mod_down_many`
          dispatch, members materialize fully, weights/signs/additions
          apply in ``C_level``.  **Bit-identical** to executing the tree
          as discrete rotate/weight/add ops (the ModDown count is
          unchanged — this mode fuses dispatches, not arithmetic).
        * ``"single"`` (default) — the double-hoisting trick of
          :meth:`~repro.ckks.linear_transform.LinearTransform.apply`
          generalized: weighted accumulation happens in the P-scaled
          extended base ``C_level + B`` and the whole tree pays **one**
          ModDown (one :func:`~repro.ckks.keyswitch.mod_down_pair`).
          Identity terms stay exact in ``C_level`` (no extension
          round-trip); only the key-switch halves share the fused
          ModDown, so the BConv approximation enters once per tree
          instead of once per member — noise-level rounding shifts
          exactly like the PR-4 double-hoisted BSGS, which is why this
          mode is tolerance-tested rather than bit-identity-tested.

        Every term's output scale must match (the planner guarantees
        this for fused trees); the result carries the first term's.
        """
        from repro.ckks.keyswitch import (
            galois_raised,
            key_switch_accumulate,
            mod_down_many,
            mod_down_pair,
            raise_decomposition,
        )

        if mode not in ("single", "stacked"):
            raise ValueError(f"unknown rotate_reduce mode {mode!r}")
        if not terms:
            raise ValueError("rotate_reduce needs at least one term")
        ring = self.ring
        level = ct.level
        galois_terms = [t for t in terms if t.amount != 0]
        raised = (raise_decomposition(ct.a, level, ring)
                  if galois_terms else None)

        if mode == "stacked":
            return self._rotate_reduce_stacked(ct, terms, raised)

        base_q = ring.base_q(level)
        base_qp = ring.base_qp(level)
        b_acc = a_acc = None          # exact accumulators over C_level
        ks_b_acc = ks_a_acc = None    # P-scaled accumulators, C_level + B
        out_scale = None

        def accumulate(acc, poly, sign):
            if sign < 0:
                poly = poly.neg()
            return poly if acc is None else acc.add(poly)

        for term in terms:
            scale = term.weight_scale
            if term.weight is not None and scale is None:
                scale = float(ring.q_primes[level].value)
            term_scale = ct.scale * (scale if term.weight is not None
                                     else 1.0)
            if out_scale is None:
                out_scale = term_scale
            elif abs(term_scale - out_scale) > SCALE_RTOL * out_scale:
                raise ValueError(
                    f"rotate_reduce term scales diverge: {term_scale:.6g}"
                    f" vs {out_scale:.6g}")
            weigh_q = weigh_qp = None
            if term.weight is not None:
                weigh_q, weigh_qp = self._weight_multipliers(
                    term.weight, scale, base_q, base_qp)
            if term.amount == 0:
                b_part, a_part = ct.b, ct.a
                if weigh_q is not None:
                    b_part, a_part = weigh_q(b_part), weigh_q(a_part)
                b_acc = accumulate(b_acc, b_part, term.sign)
                a_acc = accumulate(a_acc, a_part, term.sign)
                continue
            galois_elt, evk = self._reduce_galois_elt(term.amount)
            ks_b, ks_a = key_switch_accumulate(
                galois_raised(raised, galois_elt), evk, level, ring)
            b_rot = ct.b.galois(galois_elt)
            if weigh_q is not None:
                b_rot = weigh_q(b_rot)
                ks_b, ks_a = weigh_qp(ks_b), weigh_qp(ks_a)
            b_acc = accumulate(b_acc, b_rot, term.sign)
            ks_b_acc = accumulate(ks_b_acc, ks_b, term.sign)
            ks_a_acc = accumulate(ks_a_acc, ks_a, term.sign)
        if ks_b_acc is not None:
            ks_b_md, ks_a_md = mod_down_pair(ks_b_acc, ks_a_acc, level,
                                             ring)
            b_acc = ks_b_md.neg() if b_acc is None else b_acc.sub(ks_b_md)
            a_acc = ks_a_md.neg() if a_acc is None else a_acc.sub(ks_a_md)
        return Ciphertext(b_acc, a_acc, out_scale, ct.n_slots)

    def _weight_multipliers(self, weight, scale: float, base_q, base_qp):
        """``(times_q, times_qp)``: multiply by ``weight`` over each base.

        The q-prime rows of a ``C_level + B`` encoding are exactly the
        ``C_level`` encoding (same rounded integers), so one encoding
        serves both halves.  A real scalar is a residue column; a slot
        vector or complex scalar is an encoded polynomial.
        """
        if isinstance(weight, np.ndarray):
            weight_qp = self.encoder.encode(
                np.asarray(weight, dtype=np.complex128), scale,
                base=base_qp).poly
        else:
            weight = complex(weight)
            columns = self.encoder.scalar_columns(weight, scale, base_qp)
            if columns is not None:
                cols, shoup = columns
                rows = len(base_q)
                return (lambda poly: poly.mul_scalar_columns(
                            cols[:rows], shoup[:rows]),
                        lambda poly: poly.mul_scalar_columns(cols, shoup))
            weight_qp = self.encoder.encode_scalar(weight, scale,
                                                   base_qp).poly
        return weight_qp.restrict(base_q).mul, weight_qp.mul

    def _rotate_reduce_stacked(self, ct: Ciphertext,
                               terms: list[ReduceTerm],
                               raised) -> Ciphertext:
        """Bit-identical rotate-reduce: one stacked ModDown dispatch.

        Members materialize exactly as :meth:`_galois_from_raised`
        would produce them (all accumulator halves share one
        :func:`~repro.ckks.keyswitch.mod_down_many` call, which is
        bit-identical to per-member ModDowns), then weights, signs and
        additions run as the discrete ops — residue arithmetic is
        exactly associative, so any accumulation order matches the
        unfused tree bit for bit.
        """
        from repro.ckks.keyswitch import (
            galois_raised,
            key_switch_accumulate,
            mod_down_many,
        )

        ring = self.ring
        level = ct.level
        pending: list[RnsPolynomial] = []
        for term in terms:
            if term.amount == 0:
                continue
            galois_elt, evk = self._reduce_galois_elt(term.amount)
            acc_b, acc_a = key_switch_accumulate(
                galois_raised(raised, galois_elt), evk, level, ring)
            pending.extend((acc_b, acc_a))
        lowered = mod_down_many(pending, level, ring)
        acc: Ciphertext | None = None
        index = 0
        for term in terms:
            if term.amount == 0:
                member = ct
            else:
                galois_elt, _ = self._reduce_galois_elt(term.amount)
                ks_b, ks_a = lowered[index], lowered[index + 1]
                index += 2
                member = Ciphertext(ct.b.galois(galois_elt).sub(ks_b),
                                    ks_a.neg(), ct.scale, ct.n_slots)
            if term.weight is not None:
                if isinstance(term.weight, np.ndarray):
                    scale = term.weight_scale
                    if scale is None:
                        scale = float(ring.q_primes[level].value)
                    pt = self.encoder.encode(
                        np.asarray(term.weight, dtype=np.complex128),
                        scale, level=member.level)
                    member = self.multiply_plain(member, pt)
                else:
                    member = self.multiply_scalar(
                        member, term.weight, scale=term.weight_scale)
            if acc is None:
                acc = self.negate(member) if term.sign < 0 else member
            elif term.sign < 0:
                acc = self.sub(acc, member)
            else:
                acc = self.add(acc, member)
        return acc

    # ----- encryption / decryption (pk optional, sk for tests) ----------------------

    def decrypt(self, ct: Ciphertext, secret: SecretKey) -> Plaintext:
        s = secret.restricted(ct.b.base)
        m = ct.b.sub(ct.a.mul(s))
        return Plaintext(poly=m, scale=ct.scale)

    def decrypt_to_message(self, ct: Ciphertext, secret: SecretKey
                           ) -> np.ndarray:
        return self.encoder.decode(self.decrypt(ct, secret), ct.n_slots)
