"""Regenerate the frozen golden vectors (``golden_small.json`` and
``golden_bootstrap.json``).

Run from the repository root after an *intentional* numerics change::

    PYTHONPATH=src python tests/ckks/golden/make_golden.py

Both cases are fully deterministic: prime generation is a fixed search,
the key generator and samplers run from a seeded
``np.random.default_rng``, and every kernel is exact integer
arithmetic.  The small pipeline is encode -> encrypt -> HMult ->
rescale -> decrypt at N=64.  The bootstrap case runs at the fhebench
``bootstrap`` ring (N=2^9, L=14, dnum=3, 32 slots): one input through
every public stage, plus one double-hoisted
``LinearTransform.apply`` and one ``rotate_reduce`` whose terms carry a
negated sign, real-scalar (column) weights and plane weights.
``tests/ckks/test_golden_vectors.py`` replays both and compares the
SHA-256 of every intermediate residue matrix, so a kernel rewrite that
silently shifts any bit of the numerics fails loudly.  Do NOT regenerate to make a red test green
unless you can explain exactly why the numerics were meant to change
(see tests/README.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_small.json"
BOOT_GOLDEN_PATH = (Path(__file__).resolve().parent
                    / "golden_bootstrap.json")

PARAMS = dict(n=1 << 6, l=7, dnum=2, scale_bits=40, q0_bits=45,
              p_bits=45, h=8)
KEY_SEED = 2024
MESSAGE_SEED = 11
SCALE = 2.0 ** 40
N_SLOTS = 16


def _digest(poly) -> str:
    """SHA-256 over the residue matrix bytes + base + domain flag."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(poly.residues).tobytes())
    h.update(repr([p.value for p in poly.base]).encode())
    h.update(b"ntt" if poly.is_ntt else b"coeff")
    return h.hexdigest()


def build_pipeline() -> dict:
    from repro.ckks.encoder import Encoder
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.params import CkksParams, RingContext

    params = CkksParams.functional(**PARAMS)
    ring = RingContext(params)
    kg = KeyGenerator(ring, seed=KEY_SEED)
    ev = Evaluator(ring, relin_key=kg.gen_relinearization_key())
    enc = Encoder(ring)

    rng = np.random.default_rng(MESSAGE_SEED)
    z0 = rng.normal(size=N_SLOTS) + 1j * rng.normal(size=N_SLOTS)
    z1 = rng.normal(size=N_SLOTS) + 1j * rng.normal(size=N_SLOTS)

    pt0 = enc.encode(z0, SCALE)
    pt1 = enc.encode(z1, SCALE)
    ct0 = kg.encrypt_symmetric(pt0.poly, SCALE, N_SLOTS)
    ct1 = kg.encrypt_symmetric(pt1.poly, SCALE, N_SLOTS)
    raw = ev.multiply(ct0, ct1, rescale=False)
    prod = ev.rescale(raw)
    decrypted = ev.decrypt(prod, kg.secret)
    message = ev.decrypt_to_message(prod, kg.secret)

    stages = {
        "encode.pt0": _digest(pt0.poly),
        "encode.pt1": _digest(pt1.poly),
        "encrypt.ct0.b": _digest(ct0.b),
        "encrypt.ct0.a": _digest(ct0.a),
        "encrypt.ct1.b": _digest(ct1.b),
        "encrypt.ct1.a": _digest(ct1.a),
        "hmult.raw.b": _digest(raw.b),
        "hmult.raw.a": _digest(raw.a),
        "rescale.b": _digest(prod.b),
        "rescale.a": _digest(prod.a),
        "decrypt.pt": _digest(decrypted.poly),
    }
    return {
        "schema": "ckks_golden/v1",
        "params": PARAMS,
        "key_seed": KEY_SEED,
        "message_seed": MESSAGE_SEED,
        "scale_log2": 40,
        "n_slots": N_SLOTS,
        "prime_chain": [p.value for p in ring.base_qp(ring.max_level)],
        "stages": stages,
        "expected_product": {
            "real": [float(x) for x in (z0 * z1).real],
            "imag": [float(x) for x in (z0 * z1).imag],
        },
        "decrypted_message": {
            "real": [float(x) for x in message.real],
            "imag": [float(x) for x in message.imag],
        },
    }


#: The fhebench ``bootstrap`` ring and sine (fhebench/workloads.py).
BOOT_PARAMS = dict(n=1 << 9, l=14, dnum=3, scale_bits=40, q0_bits=52,
                   p_bits=52, h=32)
BOOT_SLOTS = 32
BOOT_KEY_SEED = 1
BOOT_MESSAGE_SEED = 5
#: Level of the standalone transform and rotate-reduce: below the top,
#: so the evk's special-prime rows are not adjacent to ``C_level``.
BOOT_PROBE_LEVEL = 7
#: Diagonals of the standalone transform (64 slots): giants 0, 8, 16
#: and 56, babies 0, 1, 5, 6 and 7, all keyed by the bootstrapper.
BOOT_LT_DIAGONALS = (0, 1, 5, 9, 22, 63)


def _ct_digests(prefix: str, ct) -> dict[str, str]:
    return {f"{prefix}.b": _digest(ct.b), f"{prefix}.a": _digest(ct.a)}


def build_bootstrap() -> dict:
    from repro.ckks.bootstrap import BootstrapConfig, Bootstrapper
    from repro.ckks.cipher import Ciphertext
    from repro.ckks.encoder import Encoder
    from repro.ckks.evaluator import Evaluator, ReduceTerm
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.linear_transform import LinearTransform
    from repro.ckks.params import CkksParams, RingContext
    from repro.ckks.sine import SineConfig

    ring = RingContext(CkksParams.functional(**BOOT_PARAMS))
    kg = KeyGenerator(ring, seed=BOOT_KEY_SEED)
    ev = Evaluator(ring)
    boot = Bootstrapper(ev, BootstrapConfig(
        n_slots=BOOT_SLOTS,
        sine=SineConfig(k_range=12, degree=63, double_angles=2)))
    boot.generate_keys(kg)
    scale = 2.0 ** BOOT_PARAMS["scale_bits"]
    rng = np.random.default_rng(BOOT_MESSAGE_SEED)
    z = rng.uniform(-0.4, 0.4, BOOT_SLOTS) + 0j
    fresh = kg.encrypt_symmetric(Encoder(ring).encode(z, scale).poly,
                                 scale, BOOT_SLOTS)

    stages = {}
    raised = boot.mod_raise(ev.drop_to_level(fresh, 0))
    stages.update(_ct_digests("mod_raise", raised))
    summed = boot.sub_sum(raised)
    stages.update(_ct_digests("sub_sum", summed))
    slotted = boot.coeff_to_slot(summed)
    stages.update(_ct_digests("coeff_to_slot", slotted))
    reduced = boot.eval_mod(slotted)
    stages.update(_ct_digests("eval_mod", reduced))
    refreshed = boot.slot_to_coeff(reduced)
    stages.update(_ct_digests("slot_to_coeff", refreshed))

    low = ev.drop_to_level(fresh, BOOT_PROBE_LEVEL)
    width = 2 * BOOT_SLOTS
    lt = LinearTransform(
        {d: rng.normal(size=width) + 1j * rng.normal(size=width)
         for d in BOOT_LT_DIAGONALS}, width)
    applied = lt.apply(ev, Ciphertext(low.b, low.a, low.scale, width),
                       double_hoist=True)
    stages.update(_ct_digests("linear_transform", applied))
    reduced_tree = ev.rotate_reduce(low, [
        ReduceTerm(1, 1, 0.75),
        ReduceTerm(5, -1, rng.uniform(-1, 1, BOOT_SLOTS)),
        ReduceTerm(0, 1, 1.5j),
        ReduceTerm(None, -1, -0.5),
        ReduceTerm(16, -1, 2.0),
    ])
    stages.update(_ct_digests("rotate_reduce", reduced_tree))
    message = ev.decrypt_to_message(refreshed, kg.secret)
    return {
        "schema": "ckks_golden_bootstrap/v1",
        "params": BOOT_PARAMS,
        "n_slots": BOOT_SLOTS,
        "key_seed": BOOT_KEY_SEED,
        "message_seed": BOOT_MESSAGE_SEED,
        "probe_level": BOOT_PROBE_LEVEL,
        "prime_chain": [p.value for p in ring.base_qp(ring.max_level)],
        "stages": stages,
        "max_refresh_error": float(np.max(np.abs(message - z))),
    }


def main() -> None:
    for path, build in ((GOLDEN_PATH, build_pipeline),
                        (BOOT_GOLDEN_PATH, build_bootstrap)):
        path.write_text(json.dumps(build(), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
