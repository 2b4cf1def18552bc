"""Versioned, deterministic binary wire format for CKKS material.

Everything a client ships to the serving layer — ciphertexts,
plaintexts, public keys, evaluation/galois keys, and the parameter set
itself — serializes to one self-describing blob:

::

    offset  size  field
    0       4     magic            b"BTSW"
    4       2     version          <H  (currently 1)
    6       2     kind             <H  (ObjectKind)
    8       8     total_len        <Q  (entire blob, header..crc)
    16      16    params digest    CkksParams.digest_bytes
    32      ...   body             kind-specific (below)
    -4      4     crc32            <I  over header + body

Polynomials are the recurring body element::

    <B is_ntt> <H num_q_limbs> <H num_p_limbs> <I n>
    residues: num_limbs x n little-endian uint64 limb planes, row-major
    (limb index fastest-varying along N — exactly the Fig. 4 RNS
    residue-matrix layout the kernels compute on, so serialization is a
    single contiguous copy)

and identify their base *structurally*: the ring's prime chain is a
deterministic function of :class:`~repro.ckks.params.CkksParams` (the
prime search walks a fixed sequence), so ``(num_q_limbs, num_p_limbs)``
plus the params digest pins the exact moduli without shipping them.
Every numeric field is fixed-width little-endian and scales serialize by
exact float64 bit pattern, so serialization is bit-deterministic:
``serialize(deserialize(blob)) == blob``.

Validation on load is strict and loud (:class:`WireError`): magic /
version / kind checks, a total-length check (truncation and trailing
garbage), a CRC-32 over the whole payload, the params-digest
compatibility check against the receiving ring, per-limb residue range
checks, and NTT-domain flags (key material must arrive in the
evaluation domain — the keyswitch kernels assume it).  A
mismatched-params ciphertext therefore fails at the boundary instead of
decoding into garbage that decrypts to noise three layers later.
"""

from __future__ import annotations

import math
import struct
import zlib
from enum import IntEnum

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.keys import EvaluationKey, PublicKey
from repro.ckks.params import CkksParams, PrimeContext, RingContext
from repro.ckks.rns import RnsPolynomial
from repro.obs import metrics as _obs_metrics

#: Gated boundary instruments (no-ops until ``repro.obs.enable()``):
#: blob and byte counts per object kind and direction, the traffic-rate
#: view of the serving boundary.
_WIRE_BLOBS = _obs_metrics.default_registry().counter(
    "fhe_wire_blobs_total", "wire blobs crossing the serving boundary",
    ("kind", "direction"))
_WIRE_BYTES = _obs_metrics.default_registry().counter(
    "fhe_wire_bytes_total", "wire bytes crossing the serving boundary",
    ("direction",))

MAGIC = b"BTSW"
VERSION = 1
_HEADER = struct.Struct("<4sHHQ16s")
_CRC = struct.Struct("<I")
_POLY_HEAD = struct.Struct("<BHHI")
_PARAMS_BODY = struct.Struct("<IHHHHHId")


class WireError(ValueError):
    """A blob failed validation (truncated, corrupted, or incompatible)."""


class ObjectKind(IntEnum):
    """What a wire blob contains (header ``kind`` field)."""

    PARAMS = 1
    PLAINTEXT = 2
    CIPHERTEXT = 3
    PUBLIC_KEY = 4
    EVALUATION_KEY = 5
    GALOIS_KEYS = 6


#: The wire counters bound per (kind, direction) once, so an enabled
#: blob costs two locked adds rather than two label-key builds.
_WIRE_COUNTS = {
    (kind, direction): (
        _WIRE_BLOBS.bind(kind=kind.name, direction=direction),
        _WIRE_BYTES.bind(direction=direction))
    for kind in ObjectKind for direction in ("serialize", "deserialize")}


# ----- low-level framing ------------------------------------------------------

def _frame(kind: ObjectKind, digest: bytes, body: bytes) -> bytes:
    total = _HEADER.size + len(body) + _CRC.size
    head = _HEADER.pack(MAGIC, VERSION, kind, total, digest)
    if _obs_metrics._ENABLED:
        count_blob, count_bytes = _WIRE_COUNTS[kind, "serialize"]
        count_blob()
        count_bytes(total)
    return head + body + _CRC.pack(zlib.crc32(head + body))


class _Reader:
    """Bounds-checked cursor over a blob body; truncation raises."""

    def __init__(self, blob: bytes, start: int, stop: int) -> None:
        self.blob = blob
        self.off = start
        self.stop = stop

    def take(self, nbytes: int, what: str) -> bytes:
        end = self.off + nbytes
        if end > self.stop:
            raise WireError(f"truncated blob: {what} needs {nbytes} bytes, "
                            f"{self.stop - self.off} left")
        out = self.blob[self.off:end]
        self.off = end
        return out

    def unpack(self, fmt: struct.Struct, what: str) -> tuple:
        return fmt.unpack(self.take(fmt.size, what))

    def done(self, what: str) -> None:
        if self.off != self.stop:
            raise WireError(f"{what}: {self.stop - self.off} unconsumed "
                            "body bytes")


def _check_scale(scale: float, what: str) -> float:
    """Reject non-finite / non-positive scales at the boundary.

    A NaN scale is particularly insidious: every downstream guard is an
    ``abs(a - b) > tol`` comparison, which NaN makes vacuously false, so
    the job would run to completion and return garbage.
    """
    if not math.isfinite(scale) or scale <= 0.0:
        raise WireError(f"{what}: invalid scale {scale!r}")
    return scale


def _open(blob: bytes, expect_kind: ObjectKind,
          digest: bytes | None) -> _Reader:
    """Validate framing and return a reader positioned at the body."""
    if not blob:
        raise WireError(f"empty blob (expected a {expect_kind.name} "
                        "wire blob)")
    if len(blob) < _HEADER.size + _CRC.size:
        raise WireError(f"truncated blob: {len(blob)} bytes is shorter "
                        "than the fixed header")
    magic, version, kind, total, blob_digest = _HEADER.unpack(
        blob[:_HEADER.size])
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} (not a BTS wire blob)")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version} "
                        f"(this build speaks {VERSION})")
    if total != len(blob):
        raise WireError(f"length mismatch: header says {total} bytes, "
                        f"got {len(blob)} (truncated or overlong)")
    (crc,) = _CRC.unpack(blob[-_CRC.size:])
    if crc != zlib.crc32(blob[:-_CRC.size]):
        raise WireError("CRC mismatch: blob corrupted in transit")
    try:
        kind = ObjectKind(kind)
    except ValueError as exc:
        raise WireError(f"unknown object kind {kind}") from exc
    if kind is not expect_kind:
        raise WireError(f"expected a {expect_kind.name} blob, "
                        f"got {kind.name}")
    if digest is not None and blob_digest != digest:
        raise WireError(
            f"params digest mismatch: blob was produced under "
            f"{blob_digest.hex()}, this ring is {digest.hex()} — "
            "incompatible parameter sets")
    if _obs_metrics._ENABLED:
        count_blob, count_bytes = _WIRE_COUNTS[kind, "deserialize"]
        count_blob()
        count_bytes(len(blob))
    return _Reader(blob, _HEADER.size, len(blob) - _CRC.size)


def peek_kind(blob: bytes) -> ObjectKind:
    """The object kind of a blob (framing-validated, body untouched)."""
    if not blob:
        raise WireError("empty blob (not a BTS wire blob)")
    if len(blob) < _HEADER.size:
        raise WireError("truncated blob: no full header")
    magic, version, kind, _total, _digest = _HEADER.unpack(
        blob[:_HEADER.size])
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} (not a BTS wire blob)")
    try:
        return ObjectKind(kind)
    except ValueError as exc:
        raise WireError(f"unknown object kind {kind}") from exc


# ----- polynomials ------------------------------------------------------------

def _poly_bytes(poly: RnsPolynomial) -> bytes:
    num_p = sum(1 for p in poly.base if p.kind == "p")
    num_q = poly.num_limbs - num_p
    head = _POLY_HEAD.pack(int(poly.is_ntt), num_q, num_p, poly.n)
    residues = np.ascontiguousarray(poly.residues,
                                    dtype=np.dtype("<u8"))
    return head + residues.tobytes()


def _read_poly(reader: _Reader, ring: RingContext,
               what: str) -> RnsPolynomial:
    is_ntt, num_q, num_p, n = reader.unpack(_POLY_HEAD, f"{what} header")
    if is_ntt not in (0, 1):
        raise WireError(f"{what}: invalid domain flag {is_ntt}")
    if n != ring.n:
        raise WireError(f"{what}: ring degree {n} != ring's {ring.n}")
    if not 1 <= num_q <= ring.max_level + 1:
        raise WireError(f"{what}: {num_q} q-limbs outside "
                        f"[1, {ring.max_level + 1}]")
    if num_p not in (0, len(ring.base_p)):
        raise WireError(f"{what}: {num_p} p-limbs (must be 0 or "
                        f"{len(ring.base_p)})")
    base: tuple[PrimeContext, ...] = ring.base_q(num_q - 1)
    if num_p:
        base = base + ring.base_p
    raw = reader.take(len(base) * n * 8, f"{what} residues")
    residues = np.frombuffer(raw, dtype=np.dtype("<u8")) \
        .reshape(len(base), n).astype(np.uint64)
    moduli = np.array([p.value for p in base], dtype=np.uint64)
    if np.any(residues >= moduli[:, None]):
        raise WireError(f"{what}: residue out of range for its modulus")
    return RnsPolynomial(base, residues, bool(is_ntt))


# ----- parameters -------------------------------------------------------------

def serialize_params(params: CkksParams) -> bytes:
    """Pack a parameter set (self-describing: digest of itself)."""
    name = params.name.encode()
    body = _PARAMS_BODY.pack(params.n, params.l, params.dnum,
                             params.scale_bits, params.q0_bits,
                             params.p_bits, params.h, params.sigma)
    body += struct.pack("<H", len(name)) + name
    return _frame(ObjectKind.PARAMS, params.digest_bytes, body)


def deserialize_params(blob: bytes) -> CkksParams:
    reader = _open(blob, ObjectKind.PARAMS, digest=None)
    n, l, dnum, scale_bits, q0_bits, p_bits, h, sigma = reader.unpack(
        _PARAMS_BODY, "params fields")
    (name_len,) = struct.unpack("<H", reader.take(2, "params name length"))
    name = reader.take(name_len, "params name").decode()
    reader.done("params")
    try:
        params = CkksParams(n=n, l=l, dnum=dnum, scale_bits=scale_bits,
                            q0_bits=q0_bits, p_bits=p_bits, h=h,
                            sigma=sigma, name=name)
    except ValueError as exc:
        raise WireError(f"invalid parameter set: {exc}") from exc
    header_digest = _HEADER.unpack(blob[:_HEADER.size])[4]
    if params.digest_bytes != header_digest:
        raise WireError("params digest does not match the decoded fields")
    return params


# ----- ciphertexts and plaintexts --------------------------------------------

def serialize_ciphertext(ct: Ciphertext, params: CkksParams) -> bytes:
    body = struct.pack("<dI", ct.scale, ct.n_slots) \
        + _poly_bytes(ct.b) + _poly_bytes(ct.a)
    return _frame(ObjectKind.CIPHERTEXT, params.digest_bytes, body)


def deserialize_ciphertext(blob: bytes, ring: RingContext) -> Ciphertext:
    reader = _open(blob, ObjectKind.CIPHERTEXT,
                   ring.params.digest_bytes)
    scale, n_slots = struct.unpack(
        "<dI", reader.take(12, "ciphertext scale/slots"))
    _check_scale(scale, "ciphertext")
    if not n_slots or n_slots > ring.params.slots_max \
            or n_slots & (n_slots - 1):
        raise WireError(f"ciphertext n_slots {n_slots} invalid for N={ring.n}")
    b = _read_poly(reader, ring, "ciphertext b")
    a = _read_poly(reader, ring, "ciphertext a")
    reader.done("ciphertext")
    if b.base != a.base or b.is_ntt != a.is_ntt:
        raise WireError("ciphertext components disagree on base or domain")
    return Ciphertext(b=b, a=a, scale=scale, n_slots=n_slots)


def serialize_plaintext(pt: Plaintext, params: CkksParams) -> bytes:
    body = struct.pack("<d", pt.scale) + _poly_bytes(pt.poly)
    return _frame(ObjectKind.PLAINTEXT, params.digest_bytes, body)


def deserialize_plaintext(blob: bytes, ring: RingContext) -> Plaintext:
    reader = _open(blob, ObjectKind.PLAINTEXT, ring.params.digest_bytes)
    (scale,) = struct.unpack("<d", reader.take(8, "plaintext scale"))
    _check_scale(scale, "plaintext")
    poly = _read_poly(reader, ring, "plaintext poly")
    reader.done("plaintext")
    return Plaintext(poly=poly, scale=scale)


# ----- key material -----------------------------------------------------------

def serialize_public_key(pk: PublicKey, params: CkksParams) -> bytes:
    body = _poly_bytes(pk.b) + _poly_bytes(pk.a)
    return _frame(ObjectKind.PUBLIC_KEY, params.digest_bytes, body)


def deserialize_public_key(blob: bytes, ring: RingContext) -> PublicKey:
    reader = _open(blob, ObjectKind.PUBLIC_KEY, ring.params.digest_bytes)
    b = _read_poly(reader, ring, "public key b")
    a = _read_poly(reader, ring, "public key a")
    reader.done("public key")
    if not (b.is_ntt and a.is_ntt):
        raise WireError("public key must be in the NTT domain")
    return PublicKey(b=b, a=a)


def _evk_body(evk: EvaluationKey) -> bytes:
    parts = [struct.pack("<H", len(evk.slices))]
    for b, a in evk.slices:
        parts.append(_poly_bytes(b))
        parts.append(_poly_bytes(a))
    return b"".join(parts)


def _read_evk(reader: _Reader, ring: RingContext,
              what: str) -> EvaluationKey:
    (num_slices,) = struct.unpack(
        "<H", reader.take(2, f"{what} slice count"))
    if not num_slices:
        raise WireError(f"{what}: zero decomposition slices")
    full = ring.base_qp(ring.max_level)
    slices = []
    for j in range(num_slices):
        b = _read_poly(reader, ring, f"{what} slice {j} b")
        a = _read_poly(reader, ring, f"{what} slice {j} a")
        if b.base != full or a.base != full:
            raise WireError(f"{what}: slice {j} not on the full C_L + B "
                            "base")
        if not (b.is_ntt and a.is_ntt):
            raise WireError(f"{what}: slice {j} must be in the NTT domain "
                            "(the key-switch kernels assume it)")
        slices.append((b, a))
    return EvaluationKey(slices=tuple(slices))


def serialize_evaluation_key(evk: EvaluationKey,
                             params: CkksParams) -> bytes:
    return _frame(ObjectKind.EVALUATION_KEY, params.digest_bytes,
                  _evk_body(evk))


def deserialize_evaluation_key(blob: bytes,
                               ring: RingContext) -> EvaluationKey:
    reader = _open(blob, ObjectKind.EVALUATION_KEY,
                   ring.params.digest_bytes)
    evk = _read_evk(reader, ring, "evaluation key")
    reader.done("evaluation key")
    return evk


def serialize_galois_keys(rotation_keys: dict[int, EvaluationKey],
                          params: CkksParams,
                          conjugation_key: EvaluationKey | None = None
                          ) -> bytes:
    """Bundle a rotation-key dict (plus optional conjugation key).

    Amounts are written sorted so the encoding is deterministic
    regardless of dict insertion order.
    """
    parts = [struct.pack("<BI", int(conjugation_key is not None),
                         len(rotation_keys))]
    if conjugation_key is not None:
        parts.append(_evk_body(conjugation_key))
    for amount in sorted(rotation_keys):
        parts.append(struct.pack("<q", amount))
        parts.append(_evk_body(rotation_keys[amount]))
    return _frame(ObjectKind.GALOIS_KEYS, params.digest_bytes,
                  b"".join(parts))


def deserialize_galois_keys(blob: bytes, ring: RingContext
                            ) -> tuple[dict[int, EvaluationKey],
                                       EvaluationKey | None]:
    reader = _open(blob, ObjectKind.GALOIS_KEYS, ring.params.digest_bytes)
    has_conj, count = struct.unpack(
        "<BI", reader.take(5, "galois bundle header"))
    conj = _read_evk(reader, ring, "conjugation key") if has_conj else None
    keys: dict[int, EvaluationKey] = {}
    for i in range(count):
        (amount,) = struct.unpack(
            "<q", reader.take(8, f"galois entry {i} amount"))
        if amount in keys:
            raise WireError(f"duplicate galois amount {amount}")
        keys[amount] = _read_evk(reader, ring, f"rotation key {amount}")
    reader.done("galois keys")
    return keys, conj


# ----- generic dispatch -------------------------------------------------------

def serialize(obj, params: CkksParams) -> bytes:
    """Type-dispatching serializer for every wire-capable object."""
    if isinstance(obj, Ciphertext):
        return serialize_ciphertext(obj, params)
    if isinstance(obj, Plaintext):
        return serialize_plaintext(obj, params)
    if isinstance(obj, PublicKey):
        return serialize_public_key(obj, params)
    if isinstance(obj, EvaluationKey):
        return serialize_evaluation_key(obj, params)
    if isinstance(obj, CkksParams):
        return serialize_params(obj)
    raise TypeError(f"no wire encoding for {type(obj).__name__}")


def deserialize(blob: bytes, ring: RingContext):
    """Decode any wire blob against ``ring`` (kind from the header)."""
    kind = peek_kind(blob)
    if kind is ObjectKind.PARAMS:
        return deserialize_params(blob)
    if kind is ObjectKind.PLAINTEXT:
        return deserialize_plaintext(blob, ring)
    if kind is ObjectKind.CIPHERTEXT:
        return deserialize_ciphertext(blob, ring)
    if kind is ObjectKind.PUBLIC_KEY:
        return deserialize_public_key(blob, ring)
    if kind is ObjectKind.EVALUATION_KEY:
        return deserialize_evaluation_key(blob, ring)
    return deserialize_galois_keys(blob, ring)
