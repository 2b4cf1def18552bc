"""Homomorphic linear transforms via baby-step/giant-step (BSGS).

Bootstrapping's CoeffToSlot and SlotToCoeff are (dense) n x n matrix-vector
products over the slot space.  Evaluating them homomorphically uses the
diagonal decomposition ``M z = sum_d diag_d(M) * rot_d(z)`` with the BSGS
grouping of [Halevi-Shoup / GAZELLE]: about ``2*sqrt(n)`` HRots and ``n``
PMults per matrix, consuming a single multiplicative level.  This is the
"long sequence of HRots with different r" that makes bootstrapping stream
dozens of distinct rotation evks (Section 3.3 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import Evaluator

_ZERO_TOL = 1e-12


def matrix_diagonals(matrix: np.ndarray) -> dict[int, np.ndarray]:
    """Generalized diagonals ``diag_d[j] = M[j, (j+d) mod n]`` (nonzero only)."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    out: dict[int, np.ndarray] = {}
    rows = np.arange(n)
    for d in range(n):
        diag = matrix[rows, (rows + d) % n]
        if np.max(np.abs(diag)) > _ZERO_TOL:
            out[d] = diag
    return out


def bsgs_split(n: int) -> int:
    """Baby-step count: the power of two nearest to sqrt(n) from above."""
    return 1 << math.ceil(math.log2(max(1.0, math.sqrt(n))))


def bsgs_rotations(diagonals: dict[int, np.ndarray] | int, n: int
                   ) -> set[int]:
    """Rotation amounts a BSGS evaluation of these diagonals will need."""
    g = bsgs_split(n)
    if isinstance(diagonals, int):
        present = set(range(diagonals))
    else:
        present = set(diagonals)
    amounts: set[int] = set()
    for d in present:
        baby = d % g
        giant = d - baby
        if baby:
            amounts.add(baby)
        if giant:
            amounts.add(giant % n)
    return {a for a in amounts if a % n != 0}


@dataclass
class LinearTransform:
    """A plaintext matrix ready for homomorphic application.

    Encoded diagonal plaintexts are cached per ``(diagonal, giant,
    base, scale)`` — CoeffToSlot/SlotToCoeff apply the same matrices at
    the same level on every bootstrap invocation, so steady-state
    applications skip the encode (FFT + RNS spread + forward NTT) for
    every diagonal.
    """

    diagonals: dict[int, np.ndarray]
    n_slots: int
    _encoded: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "LinearTransform":
        return cls(matrix_diagonals(matrix), matrix.shape[0])

    def required_rotations(self) -> set[int]:
        return bsgs_rotations(self.diagonals, self.n_slots)

    #: Distinct (base, scale) generations the diagonal cache retains.
    #: CoeffToSlot/SlotToCoeff apply at one fixed level (two generations
    #: cover the eager Q and double-hoisted QP bases); a caller sweeping
    #: levels evicts the oldest generation instead of growing unboundedly.
    _CACHE_GENERATIONS = 4

    def _encoded_diagonal(self, evaluator: Evaluator, d: int, giant: int,
                          base, scale: float):
        """Cached encode of ``roll(diag_d, giant)`` over ``base``."""
        gen_key = (tuple(p.value for p in base), scale)
        generation = self._encoded.get(gen_key)
        if generation is None:
            if len(self._encoded) >= self._CACHE_GENERATIONS:
                self._encoded.pop(next(iter(self._encoded)))
            generation = self._encoded[gen_key] = {}
        cached = generation.get((d, giant))
        if cached is None:
            vec = np.roll(self.diagonals[d], giant)
            cached = evaluator.encoder.encode(vec, scale, base=base)
            generation[(d, giant)] = cached
        return cached

    def apply(self, evaluator: Evaluator, ct: Ciphertext,
              double_hoist: bool = True) -> Ciphertext:
        """Homomorphic ``M z`` (one level consumed; output rescaled).

        ``double_hoist=True`` (default) runs the Lattigo-style
        double-hoisted BSGS on the evaluator's lazy key-switch
        accumulator, the same one
        :meth:`~repro.ckks.evaluator.Evaluator.rotate_reduce` uses: the
        baby rotations share one NTT-domain raise of ``ct.a`` and stay
        P-scaled in ``C_level + B``, each giant group accumulates its
        plaintext-weighted baby terms there, and every group's sum
        lowers through one stacked ModDown.  The BConv rounding thus
        enters once per group instead of once per baby.
        ``double_hoist=False`` is the eager reference (one ModDown per
        baby, PMults in ``C_level``); the two agree to well below the
        noise floor.
        """
        n = self.n_slots
        if ct.n_slots != n:
            raise ValueError(
                f"transform is {n}-slot but ciphertext has {ct.n_slots}")
        g = bsgs_split(n)
        baby_needed = sorted({d % g for d in self.diagonals})

        # Giant steps: group diagonals by their giant offset.
        groups: dict[int, list[int]] = {}
        for d in self.diagonals:
            groups.setdefault(d - d % g, []).append(d)

        level = ct.level
        pmult_scale = float(evaluator.ring.q_primes[level].value)
        if double_hoist:
            return self._apply_double_hoisted(
                evaluator, ct, g, baby_needed, groups, level, pmult_scale)

        # Eager reference path: baby steps fully key-switched (one
        # shared raise, but one ModDown per baby), then PMult in C_level.
        babies = evaluator.galois_hoisted(ct, baby_needed)
        acc: Ciphertext | None = None
        for giant in sorted(groups):
            inner: Ciphertext | None = None
            for d in groups[giant]:
                # Pre-rotate the plaintext diagonal so one giant HRot at the
                # end covers the whole group: rot_{giant}(x * rot_b(z)) ==
                # diag_d * rot_d(z) when x = roll(diag_d, giant).
                pt = self._encoded_diagonal(
                    evaluator, d, giant, evaluator.ring.base_q(level),
                    pmult_scale)
                term = evaluator.multiply_plain(babies[d % g], pt)
                inner = term if inner is None else evaluator.add(inner, term)
            assert inner is not None
            if giant % n:
                inner = evaluator.rotate(inner, giant % n)
            acc = inner if acc is None else evaluator.add(acc, inner)
        if acc is None:
            raise ValueError("transform has no nonzero diagonals")
        return evaluator.rescale(acc)

    def _apply_double_hoisted(self, evaluator: Evaluator, ct: Ciphertext,
                              g: int, baby_needed: list[int],
                              groups: dict[int, list[int]], level: int,
                              pmult_scale: float) -> Ciphertext:
        """Double-hoisted BSGS body (see :meth:`apply`).

        The baby rotations are the evaluator's lazy pairs
        (:meth:`~repro.ckks.evaluator.Evaluator.lazy_galois`), shared by
        every giant group; each group weights them by its pre-rotated
        diagonals (encoded over ``C_level + B``) and all group sums
        lower in one :meth:`~repro.ckks.evaluator.Evaluator.lazy_sums`.
        """
        if not groups:
            raise ValueError("transform has no nonzero diagonals")
        base_qp = evaluator.ring.base_qp(level)
        giants = sorted(groups)
        weighted = [
            [(d % g, 1, self._encoded_diagonal(
                evaluator, d, giant, base_qp, pmult_scale).poly.residues)
             for d in groups[giant]]
            for giant in giants]
        pairs = evaluator.lazy_galois(ct, baby_needed)
        inners = evaluator.lazy_sums(ct, pairs, weighted,
                                     ct.scale * pmult_scale)
        acc: Ciphertext | None = None
        for giant, inner in zip(giants, inners):
            if giant % self.n_slots:
                inner = evaluator.rotate(inner, giant % self.n_slots)
            acc = inner if acc is None else evaluator.add(acc, inner)
        return evaluator.rescale(acc)


def apply_matrix_pair(evaluator: Evaluator, ct: Ciphertext,
                      left: LinearTransform, conj: LinearTransform
                      ) -> Ciphertext:
    """Evaluate ``A z + B conj(z)`` (the shape of CoeffToSlot/SlotToCoeff)."""
    ct_conj = evaluator.conjugate(ct)
    return evaluator.add(left.apply(evaluator, ct),
                         conj.apply(evaluator, ct_conj))
