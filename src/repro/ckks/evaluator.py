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

Galois ops name their automorphism by one amount convention: a slot
rotation (``0`` the identity) or ``None`` for conjugation.
:meth:`Evaluator.galois_hoisted` maps a list of such amounts to
``{amount: ct}`` over one shared raise of ``ct.a``;
:meth:`Evaluator.rotate` and :meth:`Evaluator.conjugate` are the
single-op forms it is bit-identical to.

The lazy key-switch accumulator (:meth:`Evaluator.lazy_galois`,
:meth:`Evaluator.lazy_sums`) takes the same amounts, keeps galois
images P-scaled over ``C_level + B`` and ModDowns each weighted sum
once; its two callers are :meth:`Evaluator.rotate_reduce` (one sum) and
the double-hoisted BSGS of
:class:`~repro.ckks.linear_transform.LinearTransform` (one sum per giant
step).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.encoder import Encoder
from repro.ckks.keys import EvaluationKey, SecretKey
from repro.ckks.keyswitch import (
    galois_raised,
    key_switch,
    key_switch_accumulate,
    key_switch_raised,
    mod_down_many,
    p_scaled_extension,
    raise_decomposition,
)
from repro.ckks.modmath import add_mod, dot_mod
from repro.ckks.params import RingContext
from repro.ckks.rns import (
    RnsPolynomial,
    StackedTransform,
    base_modulus_vector,
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

    def _galois_key(self, amount: int | None) -> tuple[int, EvaluationKey]:
        """(galois element, evk) of a rotation amount (``None``: HConj)."""
        if amount is None:
            if self.conjugation_key is None:
                raise ValueError("conjugation key not available")
            return 2 * self.ring.n - 1, self.conjugation_key
        evk = self.rotation_keys.get(amount)
        if evk is None:
            raise ValueError(f"no rotation key for amount {amount}")
        return pow(5, amount, 2 * self.ring.n), evk

    def _apply_galois(self, ct: Ciphertext, galois_elt: int,
                      evk: EvaluationKey) -> Ciphertext:
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
        return self._apply_galois(ct, *self._galois_key(amount))

    def galois_hoisted(self, ct: Ciphertext, amounts
                       ) -> dict[int | None, Ciphertext]:
        """Many galois ops on one ciphertext, sharing one decomposition.

        The hoisting optimization of [12] (also used by Lattigo),
        upgraded to the BTS evaluation-domain form: the *entire* raise —
        iNTT, every ModUp BConv, and the stacked forward transform —
        runs once, and each galois element only gathers the raised
        NTT-domain slices, multiplies with its own evk and mods down.

        Amounts follow :meth:`lazy_galois`'s convention: a slot
        rotation (reduced mod ``n_slots``; ``0`` is the identity) or
        ``None`` for conjugation.  Returns ``{amount: ct}``,
        bit-identical to :meth:`rotate` / :meth:`conjugate` /
        :meth:`~repro.ckks.cipher.Ciphertext.clone` per amount; no raise
        runs when every amount is ``0``.
        """
        out: dict[int | None, Ciphertext] = {}
        jobs = []
        for amount in dict.fromkeys(
                None if a is None else a % ct.n_slots for a in amounts):
            if amount == 0:
                out[0] = ct.clone()
            else:
                jobs.append((amount, *self._galois_key(amount)))
        if jobs:
            raised = raise_decomposition(ct.a, ct.level, self.ring)
            for amount, galois_elt, evk in jobs:
                out[amount] = self._galois_from_raised(ct, raised,
                                                       galois_elt, evk)
        return out

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """HConj: complex-conjugate every slot (galois element 2N-1)."""
        return self._apply_galois(ct, *self._galois_key(None))

    # ----- lazy key-switch accumulator --------------------------------------

    def lazy_galois(self, ct: Ciphertext, amounts) -> dict:
        """P-scaled galois images of ``ct`` over ``C_level + B``, no ModDown.

        Maps each amount (``0``: the identity, ``None``: conjugation) to
        a pair ``(P*phi(b) - ks_b, ks_a)`` — the key-switch accumulators
        of :func:`~repro.ckks.keyswitch.key_switch_accumulate` before
        ModDown — or ``(P*b, -P*a)`` for the identity.  Every pair
        stores ``(b, -a)`` of its image scaled by ``P``, so pairs mix
        linearly and :meth:`lazy_sums` lowers each sum once.  One
        NTT-domain raise of ``ct.a`` serves every galois amount, and
        none runs when all amounts are ``0``.
        """
        ring = self.ring
        level = ct.level
        unique = list(dict.fromkeys(amounts))
        keys = {amount: self._galois_key(amount)
                for amount in unique if amount != 0}
        raised = raise_decomposition(ct.a, level, ring) if keys else None
        pairs = {}
        for amount in unique:
            if amount == 0:
                # ModDown recovers P*x exactly: its special rows are zero.
                pairs[0] = (p_scaled_extension(ct.b, level, ring),
                            p_scaled_extension(ct.a, level, ring).neg())
                continue
            galois_elt, evk = keys[amount]
            ks_b, ks_a = key_switch_accumulate(
                galois_raised(raised, galois_elt), evk, level, ring)
            b_qp = p_scaled_extension(ct.b.galois(galois_elt), level, ring)
            pairs[amount] = (b_qp.sub(ks_b), ks_a)
        return pairs

    def lazy_sums(self, ct: Ciphertext, pairs: dict, groups,
                  scale: float) -> list[Ciphertext]:
        """One ciphertext per group: ``sum sign * weight * pairs[amount]``.

        Each group is a list of ``(amount, sign, weight)`` whose weight
        is residues over ``C_level + B``: an ``(L, N)`` plane, an
        ``(L, 1)`` column (a real scalar, from
        :meth:`~repro.ckks.encoder.Encoder.scalar_columns`) or ``None``.
        A group's weighted sum, both halves, is one
        :func:`~repro.ckks.modmath.dot_mod` call, and every group's two
        halves ride one :func:`~repro.ckks.keyswitch.mod_down_many`
        call — bit-identical to one ModDown pair per group — so the BConv
        rounding enters once per group rather than once per term.  The
        outputs carry ``scale`` (the caller's weighted scale).
        """
        base = self.ring.base_qp(ct.level)
        moduli = base_modulus_vector(base)
        ones = np.ones((len(base), 1), dtype=np.uint64)
        halves = []
        for group in groups:
            acc = dot_mod(
                [(pairs[amount][0].residues, pairs[amount][1].residues)
                 for amount, _, _ in group],
                [ones if weight is None else weight
                 for _, _, weight in group],
                moduli, negate=[sign < 0 for _, sign, _ in group])
            halves += (RnsPolynomial(base, acc[0], True),
                       RnsPolynomial(base, acc[1], True))
        lowered = mod_down_many(halves, ct.level, self.ring)
        return [Ciphertext(b, a.neg(), scale, ct.n_slots)
                for b, a in zip(lowered[::2], lowered[1::2])]

    def rotate_reduce(self, ct: Ciphertext,
                      terms: Sequence[ReduceTerm]) -> Ciphertext:
        """``sum_i sign_i * weight_i * galois_i(ct)`` with one ModDown pair.

        One group of the lazy accumulator (:meth:`lazy_galois`,
        :meth:`lazy_sums`): a single raise of ``ct.a``, weights applied
        over ``C_level + B``, and one ModDown for the whole tree.  The
        double-hoisted BSGS of
        :meth:`~repro.ckks.linear_transform.LinearTransform.apply` runs
        the same accumulator with one group per giant step.  Outputs
        differ from the unfused tree by the BConv rounding of a shared
        ModDown, so the tree is tolerance-tested, not bit-identical.

        Every term's output scale must match (the planner guarantees
        this for fused trees); the result carries the first term's.
        """
        if not terms:
            raise ValueError("rotate_reduce needs at least one term")
        level = ct.level
        base_qp = self.ring.base_qp(level)
        out_scale = None
        group = []
        for term in terms:
            scale = term.weight_scale
            if term.weight is not None and scale is None:
                scale = float(self.ring.q_primes[level].value)
            term_scale = ct.scale * (scale if term.weight is not None
                                     else 1.0)
            if out_scale is None:
                out_scale = term_scale
            elif abs(term_scale - out_scale) > SCALE_RTOL * out_scale:
                raise ValueError(
                    f"rotate_reduce term scales diverge: {term_scale:.6g}"
                    f" vs {out_scale:.6g}")
            weight = (None if term.weight is None else
                      self._weight_multiplier(term.weight, scale, base_qp))
            group.append((term.amount, term.sign, weight))
        pairs = self.lazy_galois(ct, [term.amount for term in terms])
        return self.lazy_sums(ct, pairs, [group], out_scale)[0]

    def _weight_multiplier(self, weight, scale: float,
                           base_qp) -> np.ndarray:
        """``weight`` encoded at ``scale`` over ``C_level + B``, as residues.

        A real scalar is an ``(L, 1)`` residue column; a slot vector or
        complex scalar is an encoded polynomial's ``(L, N)`` plane.
        """
        if isinstance(weight, np.ndarray):
            return self.encoder.encode(
                np.asarray(weight, dtype=np.complex128), scale,
                base=base_qp).poly.residues
        weight = complex(weight)
        columns = self.encoder.scalar_columns(weight, scale, base_qp)
        if columns is not None:
            return columns[0]
        return self.encoder.encode_scalar(weight, scale,
                                          base_qp).poly.residues

    # ----- encryption / decryption (pk optional, sk for tests) ----------------------

    def decrypt(self, ct: Ciphertext, secret: SecretKey) -> Plaintext:
        s = secret.restricted(ct.b.base)
        m = ct.b.sub(ct.a.mul(s))
        return Plaintext(poly=m, scale=ct.scale)

    def decrypt_to_message(self, ct: Ciphertext, secret: SecretKey
                           ) -> np.ndarray:
        return self.encoder.decode(self.decrypt(ct, secret), ct.n_slots)
