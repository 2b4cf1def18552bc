"""CKKS bootstrapping: ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff.

This is the operation that makes the scheme *fully* homomorphic
(Section 2.4): a level-0 ciphertext is reinterpreted modulo the full
chain Q_L, which changes the underlying plaintext to ``m + q0 * I(X)``
for a small integer polynomial I; the pipeline below then removes the
``q0 * I`` term homomorphically:

1. **ModRaise** - exact RNS lift of the q0 residues to all L+1 primes.
2. **SubSum** (sparse packing only) - log2(N / 2n) rotations project the
   raised polynomial onto the order-2n subring.
3. **CoeffToSlot** - one BSGS linear transform moves the polynomial's
   coefficients into slots as ``w = c_low + i c_high`` so modular
   reduction can act slot-wise.
4. **EvalMod** - split ``w`` into real and imaginary parts, evaluate the
   scaled sine of :mod:`repro.ckks.sine`, and recombine.  With sparse
   packing and room to spare (``2n <= N/2``) the two parts share one
   2n-slot ciphertext ``[Re w; Im w]`` and the sine runs *once*
   (Bossuat et al., Eurocrypt 2021): CtS writes ``[w; 0]``, the split
   rotates ``Im w`` into the upper half, and StC reads the halves back as
   ``Re w + i Im w``.  Full packing has no free slots, so it evaluates the
   sine on each part and recombines with ``x -> i*x`` (a free negacyclic
   monomial shift by N/2).
5. **SlotToCoeff** - the inverse transform, with the final
   ``q0 / (2*pi*Delta)`` amplitude correction folded into the matrix
   constants so it costs no extra level.

The linear-transform matrices come straight from the canonical-embedding
algebra in :mod:`repro.ckks.encoder`; see ``_build_transforms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.linear_transform import (
    LinearTransform,
    bsgs_rotations,
    matrix_diagonals,
)
from repro.ckks.params import RingContext
from repro.ckks.rns import RnsPolynomial, exact_residue_transfer
from repro.ckks.sine import SineConfig, SineEvaluator


@dataclass(frozen=True)
class BootstrapConfig:
    """Shape of a bootstrapping instance."""

    n_slots: int                 #: packed slots (N/2 = full packing)
    sine: SineConfig = field(default_factory=SineConfig)

    def levels_consumed(self) -> int:
        """L_boot: CtS (1) + normalize (1) + sine + StC (1)."""
        return 3 + self.sine.depth


def _eval_mod_width(n: int, n_slots: int) -> int:
    """Slots EvalMod runs on: 2n when both halves of w fit, else n."""
    return 2 * n_slots if 2 * n_slots <= n // 2 else n_slots


def _embedding_matrix(sub_degree: int, n_slots: int) -> np.ndarray:
    """U with z = U c for the order-``sub_degree`` subring (n x 2n)."""
    m = sub_degree
    zeta = np.exp(1j * np.pi / m)
    e = np.empty(n_slots, dtype=np.int64)
    val = 1
    for j in range(n_slots):
        e[j] = val
        val = (val * 5) % (2 * m)
    k = np.arange(m)
    return zeta ** (e[:, None] * k[None, :])


class Bootstrapper:
    """Bootstraps ciphertexts for one ring / slot configuration.

    Parameters
    ----------
    evaluator:
        Must carry the relinearization key, the conjugation key and every
        rotation key in :meth:`required_rotations`.
    config:
        Packing and sine-approximation shape.
    """

    def __init__(self, evaluator: Evaluator, config: BootstrapConfig) -> None:
        self.evaluator = evaluator
        self.ring = evaluator.ring
        self.config = config
        n = self.ring.n
        if config.n_slots < 1 or config.n_slots > n // 2 \
                or config.n_slots & (config.n_slots - 1):
            raise ValueError("n_slots must be a power of two <= N/2")
        if config.levels_consumed() >= self.ring.max_level:
            raise ValueError(
                f"bootstrapping needs {config.levels_consumed()} levels but "
                f"L={self.ring.max_level}")
        #: Slot count of the CtS output / StC input ciphertext; EvalMod
        #: runs once on ``[Re w; Im w]`` when it is ``2 * n_slots``.
        self.width = _eval_mod_width(n, config.n_slots)
        self.packed = self.width != config.n_slots

    # ----- static requirements --------------------------------------------------

    @staticmethod
    def required_rotations(n: int, n_slots: int) -> set[int]:
        """Every rotation amount bootstrapping will ask keys for.

        CtS has ``n_slots`` diagonals and StC ``width`` diagonals, both
        applied at ``width`` slots.  The packed split's rotation by
        ``n_slots`` is the first SubSum step.
        """
        width = _eval_mod_width(n, n_slots)
        amounts = (bsgs_rotations(n_slots, width)
                   | bsgs_rotations(width, width))
        replicas = (n // 2) // n_slots
        step = n_slots
        while step * 2 <= replicas * n_slots:
            amounts.add(step)
            step *= 2
        return amounts

    def generate_keys(self, keygen: KeyGenerator,
                      extra_rotations=()) -> None:
        """Populate the evaluator with every key bootstrapping needs.

        ``extra_rotations`` lets the caller fold an application's own
        rotation amounts (BSGS plans, runtime programs) into the same
        union, so amounts shared between bootstrapping and the app are
        keyed exactly once.
        """
        ev = self.evaluator
        if ev.relin_key is None:
            ev.relin_key = keygen.gen_relinearization_key()
        if ev.conjugation_key is None:
            ev.conjugation_key = keygen.gen_conjugation_key()
        amounts = self.required_rotations(self.ring.n, self.config.n_slots)
        keygen.ensure_rotation_keys(ev, amounts | set(extra_rotations))

    # ----- transform construction -------------------------------------------------

    @cached_property
    def _transforms(self) -> tuple[LinearTransform, LinearTransform]:
        """CtS and StC matrices as BSGS diagonals.

        With U the subring embedding (z = U c) and the packing
        ``w = c_low + i c_high``, the algebra collapses to *single*
        matrices: because ``zeta^(e_j * n) = i`` and ``e_j = 1 (mod 4)``,
        the conjugate-part matrices ``S conj(U)^H`` and
        ``(U_L + i U_R)/2`` vanish identically, leaving

            CtS:  w_l = (2/M) * sum_j conj(zeta^(e_j * l)) * z_j
            StC:  z_j = sum_l zeta^(e_j * l) * w_l.

        The CtS matrix also absorbs 1/replicas (undoing SubSum's
        amplification); the StC matrix absorbs q0/(2*pi*Delta), the sine
        amplitude correction, so neither costs an extra level.

        Packed (``width = 2n``): CtS keeps its n diagonals, each encoded
        2n wide with a zero upper half.  The input repeats with period n,
        so ``rot(z, d + n) == rot(z, d)`` and the output is ``[w; 0]``.
        The zeros belong here, encoded at the ~2^40 ``q_level`` scale: a
        half-mask CMult at the ~2^23 normalize scale rounds 2n
        coefficients there and costs about 0.14 bits.  StC is the 2n x 2n matrix ``[U, iU]`` tiled
        over both row halves: it reads ``[re; im]`` and writes
        ``U (re + i im)`` with period n.
        """
        n_slots = self.config.n_slots
        m = 2 * n_slots
        u_left = _embedding_matrix(m, n_slots)[:, :n_slots]
        replicas = (self.ring.n // 2) // n_slots
        cts_mat = (2.0 / m / replicas) * u_left.conj().T
        q0 = float(self.ring.q_primes[0].value)
        delta = 2.0 ** self.ring.params.scale_bits
        amplitude = q0 / (2.0 * np.pi * delta)
        stc_mat = u_left * amplitude
        if not self.packed:
            return (LinearTransform.from_matrix(cts_mat),
                    LinearTransform.from_matrix(stc_mat))
        zeros = np.zeros(n_slots)
        cts = LinearTransform(
            {d: np.concatenate([diag, zeros])
             for d, diag in matrix_diagonals(cts_mat).items()},
            self.width)
        stc = LinearTransform.from_matrix(
            np.tile(np.hstack([stc_mat, 1j * stc_mat]), (2, 1)))
        return cts, stc

    # ----- pipeline stages -----------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Lift a level-0 ciphertext to the full chain (plaintext gains q0*I)."""
        ev = self.evaluator
        low = ev.drop_to_level(ct, 0).from_ntt()
        q0 = self.ring.q_primes[0]
        full_base = self.ring.base_q(self.ring.max_level)

        def raise_poly(poly: RnsPolynomial) -> RnsPolynomial:
            return exact_residue_transfer(poly.residues[0], q0,
                                          full_base).to_ntt()

        return Ciphertext(raise_poly(low.b), raise_poly(low.a),
                          ct.scale, ct.n_slots)

    def sub_sum(self, ct: Ciphertext) -> Ciphertext:
        """Project onto the packing subring (amplifies by #replicas)."""
        ev = self.evaluator
        replicas = (self.ring.n // 2) // self.config.n_slots
        step = self.config.n_slots
        result = ct
        for _ in range(int(math.log2(replicas))):
            rotated = self._rotate_galois_power(result, step)
            result = ev.add(result, rotated)
            step *= 2
        return result

    def _rotate_galois_power(self, ct: Ciphertext, amount: int) -> Ciphertext:
        """HRot by an amount that may exceed n_slots (SubSum steps)."""
        ev = self.evaluator
        if amount not in ev.rotation_keys:
            raise ValueError(f"no rotation key for amount {amount}")
        galois_elt = pow(5, amount, 2 * self.ring.n)
        return ev._apply_galois(ct, galois_elt, ev.rotation_keys[amount])

    def coeff_to_slot(self, ct: Ciphertext) -> Ciphertext:
        """Coefficients -> slots: ``w = c_low + i c_high``.

        Takes an ``n_slots`` ciphertext and returns a ``width``-slot one:
        ``[w; 0]`` when packed, ``w`` otherwise.
        """
        cts, _ = self._transforms
        return cts.apply(self.evaluator, Ciphertext(
            ct.b, ct.a, ct.scale, self.width))

    def _mul_by_i(self, ct: Ciphertext) -> Ciphertext:
        """Multiply every slot by i: the monomial shift c(X) -> c(X)*X^(N/2).

        Runs entirely in the NTT domain: the monomial evaluates to
        ``+/-psi^(N/2)`` at every evaluation point (split by the
        bit-reversed layout's halves), so the shift is two broadcast
        Shoup multiplies with the cached
        :meth:`~repro.ckks.params.RingContext.i_monomial_columns` —
        bit-identical to the old iNTT -> negacyclic roll -> NTT route,
        without the transform round-trip.
        """
        half = self.ring.n // 2

        def shift(poly: RnsPolynomial) -> RnsPolynomial:
            from repro.ckks.modmath import mul_mod_shoup

            if not poly.is_ntt:
                raise ValueError("_mul_by_i expects NTT-domain halves")
            r_cols, r_shoup, nr_cols, nr_shoup = \
                self.ring.i_monomial_columns(poly.base)
            out = np.empty_like(poly.residues)
            moduli = poly.moduli
            mul_mod_shoup(poly.residues[:, :half], r_cols, r_shoup,
                          moduli, out=out[:, :half])
            mul_mod_shoup(poly.residues[:, half:], nr_cols, nr_shoup,
                          moduli, out=out[:, half:])
            return RnsPolynomial(poly.base, out, is_ntt=True)

        return Ciphertext(shift(ct.b), shift(ct.a), ct.scale, ct.n_slots)

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Slot-wise approximate reduction mod q0 of the CtS output.

        Packed, the input is ``[w; 0]`` and the output ``[Re w'; Im w']``
        (one sine evaluation); otherwise ``w`` in, ``w'`` out (two).
        """
        ev = self.evaluator
        sine_cfg = self.config.sine
        q0 = float(self.ring.q_primes[0].value)
        # Split into real and imaginary parts.
        ct_conj = ev.conjugate(ct)
        two_real = ev.add(ct, ct_conj)
        two_imag = self._mul_by_i(ev.sub(ct_conj, ct))  # i * (-2i * imag)

        # Normalize: u = value * Delta/(q0 * K); the extra 1/2 folds away
        # the doubling from the conjugate sum.  The multiply also snaps
        # the tracked scale to exactly 2^scale_bits: any residual drift
        # would double per level through the Chebyshev tree below.
        norm = ct.scale / (q0 * sine_cfg.k_range) / 2.0
        nominal = 2.0 ** self.ring.params.scale_bits
        sine = SineEvaluator(sine_cfg)

        def reduce(part: Ciphertext) -> Ciphertext:
            u_ct = ev.multiply_scalar(part, norm, rescale=True,
                                      target_scale=nominal)
            return sine.evaluate(ev, u_ct)

        if self.packed:
            # [2 Re w; 0] + [0; 2 Im w]: the rotation by n is the first
            # SubSum key.
            return reduce(ev.add(
                two_real, ev.rotate(two_imag, self.config.n_slots)))
        return ev.add(reduce(two_real), self._mul_by_i(reduce(two_imag)))

    def slot_to_coeff(self, ct: Ciphertext) -> Ciphertext:
        """Slots -> coefficients (amplitude correction already folded in).

        Takes the ``width``-slot EvalMod output and returns an
        ``n_slots`` ciphertext (packed, StC's output repeats with
        period n, so relabelling it is exact).
        """
        _, stc = self._transforms
        out = stc.apply(self.evaluator, ct)
        out.n_slots = self.config.n_slots
        return out

    # ----- full pipeline ---------------------------------------------------------------

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh ``ct`` to a high level (Section 2.4's bootstrapping op)."""
        if ct.n_slots != self.config.n_slots:
            raise ValueError(
                f"bootstrapper is configured for {self.config.n_slots} slots")
        raised = self.mod_raise(ct)
        if self.config.n_slots < self.ring.n // 2:
            raised = self.sub_sum(raised)
        slotted = self.coeff_to_slot(raised)
        reduced = self.eval_mod(slotted)
        refreshed = self.slot_to_coeff(reduced)
        # The StC amplitude correction was built with the nominal scale
        # 2^scale_bits; fold the input ciphertext's actual (drifted) scale
        # into the tracked scale so the refreshed values are exact.
        refreshed.scale *= ct.scale / (2.0 ** self.ring.params.scale_bits)
        return refreshed
