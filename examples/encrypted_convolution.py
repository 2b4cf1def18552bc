"""Encrypted image convolution: the ResNet-20 building block, functionally.

The paper's headline application is encrypted CNN inference; the core
primitive is a convolution computed with rotations and plaintext
multiplies on a channel-packed ciphertext ([50]'s method, Section 6.2).
This example runs a real 3x3 convolution over an encrypted 8x8 image on
the functional library and verifies it against NumPy.

Usage:  python examples/encrypted_convolution.py
"""

from __future__ import annotations

import numpy as np

from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CkksParams, RingContext

SIZE = 8            # 8x8 image, row-major packed into 64 slots
KERNEL = np.array([[0.0625, 0.125, 0.0625],
                   [0.125, 0.25, 0.125],
                   [0.0625, 0.125, 0.0625]])   # Gaussian blur
SCALE = 2.0 ** 40


def reference_convolution(image: np.ndarray) -> np.ndarray:
    """Plain convolution with the packing's boundary semantics.

    Slot rotations cycle the *flattened* row-major buffer, so a kernel
    offset (dy, dx) wraps across row ends exactly like a 1D roll by
    ``dy*SIZE + dx`` - the same behaviour real channel-packed CNNs mask
    away with plaintext multiplies; the reference mirrors it.
    """
    flat = image.reshape(-1)
    out = np.zeros_like(flat)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out += KERNEL[dy + 1, dx + 1] * np.roll(
                flat, -(dy * SIZE + dx))
    return out.reshape(image.shape)


def main() -> None:
    params = CkksParams.functional(n=1 << 9, l=6, dnum=2)
    ring = RingContext(params)
    keygen = KeyGenerator(ring, seed=31)
    encoder = Encoder(ring)
    # kernel offsets map to slot rotations dy*SIZE + dx (mod 64)
    offsets = sorted({(dy * SIZE + dx) % (SIZE * SIZE)
                      for dy in (-1, 0, 1) for dx in (-1, 0, 1)} - {0})
    evaluator = Evaluator(
        ring,
        relin_key=keygen.gen_relinearization_key(),
        rotation_keys={r: keygen.gen_rotation_key(r) for r in offsets})

    rng = np.random.default_rng(12)
    image = rng.uniform(0, 1, size=(SIZE, SIZE))
    flat = image.reshape(-1)
    ct = keygen.encrypt_symmetric(
        encoder.encode(flat + 0j, SCALE).poly, SCALE, SIZE * SIZE)
    print(f"encrypted an {SIZE}x{SIZE} image into one ciphertext "
          f"({SIZE * SIZE} slots), 9 kernel offsets -> "
          f"{len(offsets)} rotation keys")

    # One hoisted ModUp shared by all eight nonzero kernel offsets.
    rotated = evaluator.galois_hoisted(ct, offsets + [0])
    acc = None
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            amount = (dy * SIZE + dx) % (SIZE * SIZE)
            weight = float(KERNEL[dy + 1, dx + 1])
            term = evaluator.multiply_scalar(rotated[amount], weight,
                                             rescale=False)
            acc = term if acc is None else evaluator.add(acc, term)
    result = evaluator.rescale(acc)

    got = evaluator.decrypt_to_message(result,
                                       keygen.secret).real.reshape(
        SIZE, SIZE)
    want = reference_convolution(image)
    err = float(np.max(np.abs(got - want)))
    print(f"encrypted convolution done at level {result.level}, "
          f"max error {err:.2e}")
    print("input row 0 :", np.round(image[0], 3))
    print("blurred row0:", np.round(got[0], 3))
    assert err < 1e-6
    print("matches the plaintext convolution")


if __name__ == "__main__":
    main()
