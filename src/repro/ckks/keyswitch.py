"""Generalized key-switching: ModUp, evk multiply-accumulate, ModDown.

This is the computational core that Fig. 3(a) of the paper diagrams: the
polynomial to switch (``d2`` for HMult, the rotated ``a`` for HRot) is cut
into ``beta`` decomposition slices; each slice is iNTT'd, base-converted
to the enlarged base C_ell + B (ModUp), NTT'd back, multiplied with the
matching evk slice and accumulated; the accumulator is finally divided by
P (ModDown), which performs the mirrored iNTT -> BConv -> NTT on the
special-prime part followed by the fused subtract-scale-add (SSA).

One body per stage: :func:`raise_decomposition` is the ModUp (every
slice's converted limbs share one
:class:`~repro.ckks.rns.StackedTransform` forward pass),
:func:`key_switch_accumulate` the evk inner product (one
:func:`~repro.ckks.modmath.dot_mod` call over every digit and both
halves), and
``_mod_down_stacked`` the ModDown tail (one stacked iNTT, one
coefficient-stacked BConv, one stacked NTT over any number of
polynomials).  :func:`mod_down_pair` (a key-switch accumulator's two
halves) and :func:`mod_down_many` (the lazy accumulator's sums) are
one-line entries to that tail.  :func:`mod_up` (per slice) and
:func:`mod_down` (per polynomial) are the unstacked oracles the
stacked stages are bit-identical to.

Hoisting (BTS Section 4.1): for galois ops (HRot/HConj) the full
:func:`raise_decomposition` — iNTT, every BConv, *and* the one stacked
forward transform — is rotation-independent, because the automorphism
acts on the raised NTT-domain slices as a pure evaluation-point gather
(:func:`galois_raised` / :meth:`~repro.ckks.rns.RnsPolynomial.galois`).
A rotation then costs one index gather + the evk inner product +
ModDown; no transform at all.  The gather is pinned bit for bit to the
coefficient-domain permutation oracle
(:meth:`~repro.ckks.rns.RnsPolynomial.galois_coeff`) by the
permutation-oracle test tier.

Double-hoisting: :func:`key_switch_accumulate` exposes the evk inner
product *without* the trailing ModDown, and :func:`p_scaled_extension`
lifts an un-switched polynomial into the same P-scaled form.  The
evaluator's lazy accumulator
(:meth:`~repro.ckks.evaluator.Evaluator.lazy_galois` /
:meth:`~repro.ckks.evaluator.Evaluator.lazy_sums`) keeps such pairs in
C_level + B, combines them linearly (plaintext multiplies, additions)
and lowers every sum through one :func:`mod_down_many` call.  Its two
callers are the double-hoisted BSGS of
:meth:`~repro.ckks.linear_transform.LinearTransform.apply` (one sum per
giant step) and :meth:`~repro.ckks.evaluator.Evaluator.rotate_reduce`
(one sum per fused tree).
"""

from __future__ import annotations

from functools import lru_cache

from repro.ckks.keys import EvaluationKey
from repro.ckks.modmath import dot_mod, mul_mod_shoup
from repro.ckks.params import PrimeContext, RingContext
from repro.ckks.rns import (
    RnsPolynomial,
    StackedTransform,
    base_convert,
    base_modulus_vector,
)
from repro.obs import kernel as _obs_kernel

import numpy as np


def mod_up(slice_poly: RnsPolynomial, level: int, ring: RingContext,
           slice_coeff: RnsPolynomial | None = None) -> RnsPolynomial:
    """Raise one decomposition slice to the working base C_level + B.

    ``slice_poly`` is NTT-domain over one of the decomposition blocks of
    :meth:`~repro.ckks.params.RingContext.mod_up_plan` (the block's own
    limbs are reused as-is; only the converted limbs pay the
    iNTT -> BConv -> NTT cost).  ``slice_coeff`` may supply the
    coefficient-domain form when the caller already has it.  This is the
    single-slice entry point; the production path is
    :func:`raise_decomposition`, which additionally shares one stacked
    forward transform across every slice of the decomposition.
    """
    slice_values = tuple(p.value for p in slice_poly.base)
    for slice_base, complement, own_rows, conv_rows \
            in ring.mod_up_plan(level):
        if tuple(p.value for p in slice_base) == slice_values:
            break
    else:
        # Not a standard decomposition block (tests raise ad-hoc
        # sub-bases): derive the layout directly.
        target_base = ring.base_qp(level)
        block_values = set(slice_values)
        complement = tuple(p for p in target_base
                           if p.value not in block_values)
        own_rows = [i for i, p in enumerate(target_base)
                    if p.value in block_values]
        conv_rows = [i for i, p in enumerate(target_base)
                     if p.value not in block_values]
    if slice_coeff is None:
        slice_coeff = slice_poly.from_ntt()
    converted = base_convert(slice_coeff, complement).to_ntt()
    return _assemble_raised(ring.base_qp(level), slice_poly, converted,
                            own_rows, conv_rows)


def _assemble_raised(target_base: tuple[PrimeContext, ...],
                     slice_poly: RnsPolynomial, converted: RnsPolynomial,
                     own_rows: list[int],
                     conv_rows: list[int]) -> RnsPolynomial:
    """Interleave a slice's own NTT limbs with its converted limbs."""
    residues = np.empty((len(target_base), slice_poly.n), dtype=np.uint64)
    residues[own_rows] = slice_poly.residues
    residues[conv_rows] = converted.residues
    return RnsPolynomial(target_base, residues, is_ntt=True)


def mod_down(poly: RnsPolynomial, level: int,
             ring: RingContext) -> RnsPolynomial:
    """Divide an NTT-domain polynomial over C_level + B by P.

    Computes ``(poly - BConv_B->C(poly mod P)) * P^-1`` limb-wise on the q
    part - the subtract / (1/P)-scale / add fusion the paper maps onto the
    MMAU (Section 5.2).  The ``P^-1 mod q_i`` scalar columns come
    pre-built from the ring context.
    """
    base_q = ring.base_q(level)
    if _obs_kernel._ENABLED:
        _obs_kernel.TALLY.moddown += 1
    # Row views, not copies: C_level occupies the leading rows of the
    # C_level + B matrix and B the trailing ones (from_ntt copies anyway).
    p_part = RnsPolynomial(ring.base_p, poly.residues[level + 1:], True)
    q_part = RnsPolynomial(base_q, poly.residues[:level + 1], True)
    correction = base_convert(p_part.from_ntt(), base_q).to_ntt()
    cols, cols_shoup = ring.p_inv_scalar_columns(level)
    return q_part.sub(correction).mul_scalar_columns(cols, cols_shoup)


def mod_down_pair(poly_b: RnsPolynomial, poly_a: RnsPolynomial, level: int,
                  ring: RingContext
                  ) -> tuple[RnsPolynomial, RnsPolynomial]:
    """ModDown both halves of a key-switch accumulator together.

    Bit-identical to ``(mod_down(b), mod_down(a))``; runs the one
    stacked ModDown tail (:func:`_mod_down_stacked`) over the pair.
    """
    return tuple(_mod_down_stacked([poly_b, poly_a], level, ring))


def mod_down_many(polys: list[RnsPolynomial], level: int,
                  ring: RingContext) -> list[RnsPolynomial]:
    """ModDown every polynomial of ``polys`` through one stacked tail.

    Bit-identical to calling :func:`mod_down` per polynomial — this is
    what lets the lazy accumulator lower every giant-step sum of a BSGS
    transform in one dispatch without perturbing a single output bit.
    """
    return _mod_down_stacked(polys, level, ring)


def _mod_down_stacked(polys: list[RnsPolynomial], level: int,
                      ring: RingContext) -> list[RnsPolynomial]:
    """The ModDown tail shared by :func:`mod_down_pair`/:func:`mod_down_many`.

    One stacked iNTT over every special-prime part, one BConv whose
    coefficient axis holds every polynomial side by side, one stacked
    NTT over all corrections, then the per-polynomial SSA.  The public
    names stay separate functions that never call each other, so a
    traced run counts one ModDown span per call.
    """
    if not polys:
        return []
    base_q = ring.base_q(level)
    base_p = ring.base_p
    if _obs_kernel._ENABLED:
        _obs_kernel.TALLY.moddown += len(polys)  # logical count, fused
    n = polys[0].n
    coeffs = StackedTransform.inverse(
        [RnsPolynomial(base_p, poly.residues[level + 1:], True)
         for poly in polys])
    # BConv is coefficient-wise: feed every polynomial as one matrix of
    # len(polys)*N columns, then split the converted parts back apart.
    stacked = RnsPolynomial(
        base_p, np.concatenate([c.residues for c in coeffs], axis=1),
        False)
    converted = base_convert(stacked, base_q)
    corrections = StackedTransform.forward(
        [RnsPolynomial(base_q, converted.residues[:, i * n:(i + 1) * n],
                       False)
         for i in range(len(polys))])
    cols, cols_shoup = ring.p_inv_scalar_columns(level)
    return [RnsPolynomial(base_q, poly.residues[:level + 1], True)
            .sub(corr).mul_scalar_columns(cols, cols_shoup)
            for poly, corr in zip(polys, corrections)]


def raise_decomposition(poly: RnsPolynomial, level: int,
                        ring: RingContext) -> list[RnsPolynomial]:
    """ModUp every decomposition slice of ``poly`` (NTT, base C_level).

    This is the expensive, rotation-independent half of key-switching;
    :func:`key_switch_raised` consumes the result.  Hoisting [12] computes
    it once and shares it across many rotations, because the automorphism
    commutes with the coefficient-wise ModUp.  All slices' converted
    limbs ride one stacked forward transform (the ModUp half of the
    transform-reuse trick; one batched iNTT is already shared on the way
    down).

    The result doubles as the *NTT-domain hoisted state*: because the
    automorphism is an evaluation-point gather on NTT-domain slices
    (:func:`galois_raised`), every rotation of a batch reuses these
    raised slices directly — forward transform included.
    """
    if not poly.is_ntt:
        raise ValueError("raise_decomposition expects an NTT polynomial")
    coeff = poly.from_ntt()  # one batched iNTT shared by every slice
    plan = ring.mod_up_plan(level)
    converted = [base_convert(coeff.restrict(slice_base), complement)
                 for slice_base, complement, _, _ in plan]
    converted_ntt = StackedTransform.forward(converted)
    target_base = ring.base_qp(level)
    return [
        _assemble_raised(target_base, poly.restrict(slice_base),
                         conv, own_rows, conv_rows)
        for (slice_base, _, own_rows, conv_rows), conv
        in zip(plan, converted_ntt)
    ]


def p_scaled_extension(poly: RnsPolynomial, level: int,
                       ring: RingContext) -> RnsPolynomial:
    """Embed a base-``C_level`` polynomial into ``C_level + B`` as ``P * poly``.

    The q-prime rows are Shoup-multiplied by the cached ``P mod q_i``
    columns; the special-prime rows are zero (``P = 0 mod p_j``).  The
    result lives in the same ``P``-scaled representation as a
    :func:`key_switch_accumulate` pair, so the two can be combined
    linearly before one shared ModDown.  The double-hoisting identity
    ``mod_down(P*x + acc) == x + mod_down(acc)`` holds exactly, because
    the special-prime rows of ``P*x`` are zero.
    """
    if not poly.is_ntt:
        raise ValueError("p_scaled_extension expects an NTT polynomial")
    target_base = ring.base_qp(level)
    cols, cols_shoup = ring.p_scalar_columns(level)
    residues = np.zeros((len(target_base), poly.n), dtype=np.uint64)
    mul_mod_shoup(poly.residues, cols, cols_shoup, poly.moduli,
                  out=residues[:level + 1])
    return RnsPolynomial(target_base, residues, is_ntt=True)


def galois_raised(raised: list[RnsPolynomial],
                  galois_elt: int) -> list[RnsPolynomial]:
    """Apply ``X -> X^galois_elt`` to pre-raised slices, NTT domain.

    The rotation-dependent half of an NTT-domain hoisted key-switch:
    every slice of a :func:`raise_decomposition` result is permuted by
    the cached evaluation-point gather — no transform, no sign
    corrections.  Feeding the output to :func:`key_switch_raised` is
    bit-identical to raising the coefficient-permuted polynomial from
    scratch, because the automorphism commutes with the coefficient-wise
    ModUp and the gather commutes with the forward NTT.
    """
    return [piece.galois(galois_elt) for piece in raised]


def key_switch_accumulate(raised: list[RnsPolynomial], evk: EvaluationKey,
                          level: int, ring: RingContext
                          ) -> tuple[RnsPolynomial, RnsPolynomial]:
    """The evk inner product of a key-switch, *without* ModDown.

    Returns the ``(b, a)`` accumulator pair over the extended working
    base C_level + B; it represents ``P`` times the key-switch
    contribution.  Callers either hand the pair straight to
    :func:`mod_down_pair` (what :func:`key_switch_raised` does) or — the
    double-hoisting trick — keep several such pairs in the extended
    base, combine them linearly (plaintext multiplies, additions), and
    ModDown once for the whole combination.

    The evk is read in place: one :func:`~repro.ckks.modmath.dot_mod`
    call sums every digit times its ``(2, L+1+k, N)`` slice into one
    ``(2, level+1+k, N)`` array, both halves at once.  Its row map reads
    the slice's leading ``level+1`` rows for ``C_level`` and its
    trailing ``k`` rows for ``B``.  Both backends run this one path and
    produce the same canonical residues.
    """
    if len(raised) > evk.dnum:
        raise ValueError("evk has fewer slices than the decomposition")
    working_base = ring.base_qp(level)
    acc = dot_mod([digit.residues for digit in raised],
                  evk.stacked[:len(raised)],
                  base_modulus_vector(working_base),
                  w_rows=_evk_rows(level + 1, ring.max_level + 1,
                                   len(ring.base_p)))
    return (RnsPolynomial(working_base, acc[0], True),
            RnsPolynomial(working_base, acc[1], True))


@lru_cache(maxsize=64)
def _evk_rows(rows: int, top: int, special: int) -> np.ndarray:
    """Full-base evk rows of ``C_level + B``: ``0..rows-1``, then B's."""
    return np.concatenate([np.arange(rows), top + np.arange(special)])


def key_switch_raised(raised: list[RnsPolynomial], evk: EvaluationKey,
                      level: int, ring: RingContext
                      ) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Finish key-switching from pre-raised slices (x evk, ModDown)."""
    acc_b, acc_a = key_switch_accumulate(raised, evk, level, ring)
    return mod_down_pair(acc_b, acc_a, level, ring)


def key_switch(poly: RnsPolynomial, evk: EvaluationKey, level: int,
               ring: RingContext) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Switch ``poly`` (NTT, base C_level) to the canonical key.

    Returns the ``(b, a)`` contribution pair over C_level; callers add it
    to the rest of the ciphertext (Eq. 4 / Eq. 6).
    """
    if not poly.is_ntt:
        raise ValueError("key_switch expects an NTT-domain polynomial")
    raised = raise_decomposition(poly, level, ring)
    return key_switch_raised(raised, evk, level, ring)
