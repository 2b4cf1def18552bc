"""Shared fixtures: small functional rings (session-scoped, reused)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.ckks.cipher import Plaintext
from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.ntt import NttContext
from repro.ckks.params import CkksParams, RingContext
from repro.ckks.primes import is_prime, ntt_friendly_primes
from repro.ckks.rns import RnsPolynomial


@pytest.fixture(scope="session")
def small_params() -> CkksParams:
    """Tiny ring for fast unit tests (N=256)."""
    return CkksParams.functional(n=1 << 8, l=6, dnum=2, scale_bits=40,
                                 q0_bits=50, p_bits=50, h=16)


@pytest.fixture(scope="session")
def small_ring(small_params) -> RingContext:
    return RingContext(small_params)


@pytest.fixture(scope="session")
def small_keys(small_ring) -> KeyGenerator:
    return KeyGenerator(small_ring, seed=1234)


@pytest.fixture(scope="session")
def small_evaluator(small_ring, small_keys) -> Evaluator:
    return Evaluator(
        small_ring,
        relin_key=small_keys.gen_relinearization_key(),
        rotation_keys={r: small_keys.gen_rotation_key(r)
                       for r in (1, 2, 3, 4, 8, 16)},
        conjugation_key=small_keys.gen_conjugation_key(),
    )


@pytest.fixture(scope="session")
def small_encoder(small_ring) -> Encoder:
    return Encoder(small_ring)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@pytest.fixture(params=["numpy", "native"])
def each_backend(request) -> str:
    """Run the test once per modmath backend (skips native if unbuilt).

    Forces the backend via :func:`repro.ckks.modmath.set_backend` —
    which overrides ``REPRO_MODMATH_BACKEND`` — so a single pytest run
    exercises both dispatch paths regardless of the environment.
    """
    from repro.ckks import modmath

    name = request.param
    if name not in modmath.available_backends():
        pytest.skip(f"{name} modmath backend unavailable")
    modmath.set_backend(name)
    try:
        yield name
    finally:
        modmath.set_backend(None)


def encrypt_message(keys: KeyGenerator, encoder: Encoder,
                    message: np.ndarray, scale: float = 2.0 ** 40):
    """Helper: symmetric encryption of a complex message vector."""
    pt = encoder.encode(message, scale)
    return keys.encrypt_symmetric(pt.poly, scale, len(message))


def evk_resident_bytes(evk) -> int:
    """Bytes an evaluation key holds, after checking they are its slices.

    Walks every attribute of ``evk`` (containers recursively, and the
    residue matrix of each :class:`RnsPolynomial`; a polynomial's base
    is shared ring state, not key memory) and asserts that each array
    found is one of ``evk.stacked`` or a view of one.  A cache of
    level-restricted copies or Shoup tables would fail here.
    """
    stacked = {id(pair): pair for pair in evk.stacked}
    assert all(pair.flags.owndata for pair in stacked.values())
    todo, seen = [vars(evk)], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            assert id(obj) in stacked or id(obj.base) in stacked, \
                f"evk holds an array outside its slices: {obj.shape}"
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, RnsPolynomial):
            todo.append(obj.residues)
    return sum(pair.nbytes for pair in stacked.values())


@pytest.fixture(scope="session")
def paper_instances() -> tuple[CkksParams, ...]:
    return CkksParams.paper_instances()


def constant_plaintext_oracle(ring: RingContext, value: float, scale: float,
                              base) -> Plaintext:
    """``round(value*scale)`` as a constant polynomial, forward-transformed.

    The coefficient-domain route a real scalar encoding used to take: the
    residue-column encodings of ``Encoder.scalar_columns`` (CMult, CAdd,
    ``encode_scalar``, rotate-reduce weights) must match it byte for
    byte.  Rounded values of magnitude ``>= 2**62`` take the object-dtype
    (big-int) spread, as the original route did.
    """
    rounded = np.rint(value * scale)
    if abs(rounded) >= 2 ** 62:
        spread = np.zeros(ring.n, dtype=object)
        spread[0] = int(rounded)
    else:
        spread = np.zeros(ring.n, dtype=np.int64)
        spread[0] = np.int64(rounded)
    poly = RnsPolynomial.from_signed_coeffs(spread, base).to_ntt()
    return Plaintext(poly=poly, scale=scale)


#: Real scalars for the constant-encoding oracle tier: zero, negatives,
#: fractions, and magnitudes whose rounded encoding reaches ``2**62``
#: at a ``2**40`` scale (the object-dtype spread).
real_scalars = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=2.0 ** 22, max_value=2.0 ** 30).flatmap(
        lambda v: st.sampled_from([v, -v])),
    st.sampled_from([0.0, -0.0, -1.0, 0.5, -2.0 ** 22, 2.0 ** 23 + 0.5]),
)


def _smallest_ntt_prime(n: int) -> int:
    """The smallest prime ``= 1 (mod 2n)`` (7 bits, 97, at ``n = 16``)."""
    q = 2 * n + 1
    while not is_prime(q):
        q += 2 * n
    return q


def ntt_limbs(n: int, wide: bool) -> tuple[NttContext, ...]:
    """59-62-bit limbs plus the smallest NTT prime, or Stockham-sized ones.

    ``wide`` bases sit past the Stockham gate (their NumPy route is the
    per-limb oracle); the others are inside it and get a plan.
    """
    if wide:
        primes = (ntt_friendly_primes(59, 1, n) + ntt_friendly_primes(61, 2, n)
                  + [_smallest_ntt_prime(n)])
    else:
        primes = ntt_friendly_primes(50, 2, n) + [_smallest_ntt_prime(n)]
    return tuple(NttContext.create(q, n) for q in primes)


def ntt_residues(ctxs, rng, lead=()) -> np.ndarray:
    """Random canonical residues of shape ``(*lead, limbs, n)``."""
    n = ctxs[0].n
    return np.stack([rng.integers(0, c.modulus.value, size=(*lead, n),
                                  dtype=np.uint64) for c in ctxs], axis=-2)


def ntt_oracle(ctxs, a, direction) -> np.ndarray:
    """Row-by-row per-prime transform of a ``(..., limbs, n)`` stack."""
    rows = a.reshape(-1, ctxs[0].n)
    return np.stack([getattr(ctxs[i % len(ctxs)], direction)(row)
                     for i, row in enumerate(rows)]).reshape(a.shape)
