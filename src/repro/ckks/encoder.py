"""CKKS encoding: complex message slots <-> ring polynomial coefficients.

A message of up to N/2 complex numbers is packed by evaluating the
plaintext polynomial at the primitive 2N-th roots of unity indexed by
powers of five (Section 2.2); rotation by HRot is then a cyclic shift of
slots because X -> X^(5^r) permutes those evaluation points.

Implementation: with zeta = exp(i*pi/N) and e_j = 5^j mod 2N,

    slot_j = m(zeta^(e_j)) = sum_k c_k zeta^(e_j k).

Substituting d_k = c_k * zeta^k turns this into a plain length-N DFT with
the positive-sign convention, so NumPy's FFT does the heavy lifting; the
5^j indexing becomes a gather/scatter on the DFT output.  Sparse packing
(n_slots < N/2) encodes in the order-2n subring and spreads coefficients
with stride N/(2*n_slots), which replicates the message across the full
slot space - the behaviour bootstrapping's sparse variant relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.ckks.cipher import Plaintext
from repro.ckks.modmath import scalar_columns
from repro.ckks.params import PrimeContext, RingContext
from repro.ckks.rns import RnsPolynomial


@lru_cache(maxsize=32)
def _embedding_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(zeta^k for k<N, slot index map, inverse map) for ring degree ``n``.

    ``slot_positions[j]`` is the DFT bin holding slot j, i.e.
    ``(5^j - 1)/2 mod N`` for j in [0, N/2); the conjugate slots live at
    the bins of ``-5^j mod 2N``.
    """
    zeta = np.exp(1j * np.pi / n)
    zeta_powers = zeta ** np.arange(n)
    half = n // 2
    e = 1
    slot_positions = np.empty(half, dtype=np.int64)
    conj_positions = np.empty(half, dtype=np.int64)
    for j in range(half):
        slot_positions[j] = (e - 1) // 2
        conj_positions[j] = (2 * n - e - 1) // 2
        e = (e * 5) % (2 * n)
    return zeta_powers, slot_positions, conj_positions


def embed_to_slots(coeffs: np.ndarray) -> np.ndarray:
    """Evaluate real coefficient vector at the N/2 canonical slot points."""
    n = len(coeffs)
    zeta_powers, slot_positions, _ = _embedding_tables(n)
    d = coeffs.astype(np.complex128) * zeta_powers
    full = np.fft.ifft(d) * n  # sum_k d_k exp(+2 pi i m k / N)
    return full[slot_positions]


def slots_to_coeffs(slots: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`embed_to_slots`: slots -> real coefficients."""
    zeta_powers, slot_positions, conj_positions = _embedding_tables(n)
    full = np.zeros(n, dtype=np.complex128)
    full[slot_positions] = slots
    full[conj_positions] = np.conj(slots)
    d = np.fft.fft(full) / n
    return (d * np.conj(zeta_powers)).real


@dataclass
class Encoder:
    """Encode/decode messages against a functional :class:`RingContext`."""

    ring: RingContext

    def encode(self, message: np.ndarray, scale: float,
               level: int | None = None,
               base: tuple[PrimeContext, ...] | None = None) -> Plaintext:
        """Encode ``message`` (length n_slots <= N/2, power of two).

        Messages shorter than N/2 use sparse packing: coefficients occupy
        every ``N/(2*n_slots)``-th position, replicating the message over
        the full slot space.
        """
        n = self.ring.n
        message = np.asarray(message, dtype=np.complex128)
        n_slots = len(message)
        if n_slots < 1 or n_slots > n // 2 or n_slots & (n_slots - 1):
            raise ValueError(
                f"n_slots must be a power of two in [1, {n // 2}]")
        if base is None:
            base = self.ring.base_q(self.ring.max_level if level is None
                                    else level)
        sub_degree = 2 * n_slots
        sub_coeffs = slots_to_coeffs(message, sub_degree)
        scaled = np.rint(sub_coeffs * scale)
        if np.max(np.abs(scaled)) >= 2 ** 62:
            coeff_ints = np.array([int(x) for x in scaled], dtype=object)
        else:
            coeff_ints = scaled.astype(np.int64)
        gap = n // sub_degree
        spread = np.zeros(n, dtype=coeff_ints.dtype)
        spread[::gap] = coeff_ints
        poly = RnsPolynomial.from_signed_coeffs(spread, base).to_ntt()
        return Plaintext(poly=poly, scale=scale)

    def decode(self, plaintext: Plaintext, n_slots: int | None = None
               ) -> np.ndarray:
        """Decode a plaintext back to ``n_slots`` complex values."""
        from repro.ckks.rns import crt_reconstruct

        n = self.ring.n
        n_slots = n // 2 if n_slots is None else n_slots
        poly = plaintext.poly.from_ntt()
        coeffs_big = crt_reconstruct(poly)
        coeffs = np.array([float(c) for c in coeffs_big]) / plaintext.scale
        slots = embed_to_slots(coeffs)
        return slots[:n_slots]

    def scalar_columns(self, value: complex, scale: float,
                       base: tuple[PrimeContext, ...]
                       ) -> tuple[np.ndarray, np.ndarray] | None:
        """``round(value*scale) mod q_i`` as an ``(L, 1)`` column + Shoup.

        The constant polynomial ``round(value*scale)`` evaluates to that
        same integer at every NTT point, so the column *is* its
        evaluation-domain encoding: a real CMult/CAdd is one broadcast
        pass per limb with no transform.  Returns ``None`` for a complex
        ``value``, which needs the generic :meth:`encode`.
        """
        real = _real_part(value)
        if real is None:
            return None
        rounded = int(np.rint(real * scale))
        return scalar_columns(tuple(rounded % p.value for p in base),
                              tuple(p.value for p in base))

    def encode_scalar(self, value: complex, scale: float,
                      base: tuple[PrimeContext, ...]) -> Plaintext:
        """Encode one scalar replicated across all slots (NTT domain).

        A real scalar encodes as the constant polynomial
        ``round(value*scale)``, built by broadcasting
        :meth:`scalar_columns` over the evaluation points.  A complex
        scalar has no constant-polynomial encoding, so it takes the
        generic :meth:`encode` of a replicated message.
        """
        columns = self.scalar_columns(value, scale, base)
        if columns is None:
            message = np.full(self.ring.n // 2, value, dtype=np.complex128)
            return self.encode(message, scale, base=base)
        residues = np.broadcast_to(columns[0],
                                   (len(base), self.ring.n)).copy()
        return Plaintext(poly=RnsPolynomial(base, residues, is_ntt=True),
                         scale=scale)


def _real_part(value: complex) -> float | None:
    """``value`` as a float if it is real, else ``None``."""
    if isinstance(value, complex):
        return float(value.real) if abs(value.imag) < 1e-300 else None
    return float(value)
