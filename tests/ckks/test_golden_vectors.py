"""Replay the frozen golden vectors (see tests/ckks/golden/).

Every intermediate of a fixed-seed encode -> encrypt -> HMult ->
rescale -> decrypt pipeline must hash to exactly the checked-in value,
and so must the output of every public bootstrap stage, one
double-hoisted transform and one rotate-reduce at the fhebench
bootstrap ring.
A kernel rewrite that changes any output bit anywhere along the chain —
NTT, BConv, modular arithmetic, sampling — fails here even if the
decrypted message still looks numerically fine.  Regeneration is a
deliberate act: ``PYTHONPATH=src python tests/ckks/golden/make_golden.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "golden_small.json"
BOOT_GOLDEN_PATH = GOLDEN_DIR / "golden_bootstrap.json"


def _make_golden():
    import sys
    sys.path.insert(0, str(GOLDEN_DIR))
    try:
        import make_golden
    finally:
        sys.path.pop(0)
    return make_golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def replayed(golden):
    return _make_golden().build_pipeline()


def _drifted(golden: dict, replayed: dict) -> list[str]:
    return [name for name, digest in golden["stages"].items()
            if replayed["stages"].get(name) != digest]


class TestGoldenVectors:
    def test_prime_chain_is_stable(self, golden, replayed):
        assert replayed["prime_chain"] == golden["prime_chain"]

    def test_every_stage_hash_matches(self, golden, replayed):
        mismatched = _drifted(golden, replayed)
        assert not mismatched, (
            f"golden-vector drift at stages {mismatched}: a kernel "
            "change shifted the numerics; if intentional, regenerate "
            "via tests/ckks/golden/make_golden.py and explain why in "
            "the commit message")

    def test_no_stage_disappeared(self, golden, replayed):
        assert set(replayed["stages"]) == set(golden["stages"])

    def test_decrypted_message_matches_frozen_values(self, golden,
                                                     replayed):
        for key in ("real", "imag"):
            assert np.array_equal(
                np.array(replayed["decrypted_message"][key]),
                np.array(golden["decrypted_message"][key]))

    def test_pipeline_is_numerically_sound(self, golden):
        """The frozen ciphertext really decrypts to z0 * z1."""
        got = (np.array(golden["decrypted_message"]["real"])
               + 1j * np.array(golden["decrypted_message"]["imag"]))
        want = (np.array(golden["expected_product"]["real"])
                + 1j * np.array(golden["expected_product"]["imag"]))
        assert np.max(np.abs(got - want)) < 1e-4


class TestBootstrapGolden:
    """Bootstrap stages, a double-hoisted transform and a lazy sum.

    Runs under whichever modmath backend is active, so the CI matrix
    checks both against the same frozen hashes.
    """

    @pytest.fixture(scope="class")
    def boot_golden(self):
        return json.loads(BOOT_GOLDEN_PATH.read_text())

    @pytest.fixture(scope="class")
    def boot_replayed(self):
        return _make_golden().build_bootstrap()

    def test_prime_chain_is_stable(self, boot_golden, boot_replayed):
        assert boot_replayed["prime_chain"] == boot_golden["prime_chain"]

    def test_every_stage_hash_matches(self, boot_golden, boot_replayed):
        mismatched = _drifted(boot_golden, boot_replayed)
        assert not mismatched, (
            f"bootstrap golden drift at {mismatched}; if intentional, "
            "regenerate via tests/ckks/golden/make_golden.py and explain "
            "why in the commit message")

    def test_every_stage_is_covered(self, boot_golden, boot_replayed):
        assert set(boot_replayed["stages"]) == set(boot_golden["stages"])
        prefixes = {name.split(".")[0] for name in boot_golden["stages"]}
        assert prefixes == {"mod_raise", "sub_sum", "coeff_to_slot",
                            "eval_mod", "slot_to_coeff",
                            "linear_transform", "rotate_reduce"}

    def test_frozen_bootstrap_refreshes(self, boot_golden):
        """The frozen pipeline is a working bootstrap, not just bytes."""
        assert boot_golden["max_refresh_error"] < 0.1
