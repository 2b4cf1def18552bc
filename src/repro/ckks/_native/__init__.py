"""Build/load machinery for the native modmath backend.

The backend is a plain shared library (no ``Python.h``, no NumPy C API)
compiled from ``modmath_native.c`` and loaded through :mod:`cffi` in ABI
mode.  Keeping the ABI this small is what makes the fallback story
honest: when a compiler or cffi is missing, the platform lacks
``unsigned __int128``, or the build products are stale, :func:`load`
returns ``None`` and :mod:`repro.ckks.modmath` keeps running on the
pure-NumPy path that doubles as the bit-identity oracle.

The kernel set (ABI 6) holds only kernels with a production caller:
the strided element-wise primitives behind :mod:`repro.ckks.modmath`
(``nm_mul_mod``, ``nm_mul_mod_shoup``), the modular dot product over a
term axis ``nm_dot_mod`` behind :func:`~repro.ckks.modmath.dot_mod`
(the evk inner product, the BSGS diagonal sums and BConv), and the
whole-transform batched NTTs ``nm_ntt_forward`` / ``nm_ntt_inverse``
that :class:`~repro.ckks.ntt.BatchedNttContext` calls once per
transform.  ``mulhi64``, ``mul128``,
``barrett_reduce128`` and ``mul_mod_shoup_lazy`` have no native entry:
their NumPy forms are the oracle, and the C kernels above do that
arithmetic inside their own loops.

Backend selection is owned by :mod:`repro.ckks.modmath` (the
``REPRO_MODMATH_BACKEND`` env var / :func:`~repro.ckks.modmath.set_backend`);
this module answers "can a working library be produced, and hand me its
handle".  It also owns the crossing: :meth:`_Handle.ptr`,
:meth:`_Handle.call_strided` and :meth:`_Handle.call_dot` are the only
code that turns NumPy arrays into C pointers, dims and strides.

Build products are content-addressed: the shared object's filename
embeds a hash of the C source plus the ABI version, so editing the
kernels invalidates stale objects automatically, and several virtualenvs
or containers can share one cache directory without trampling each
other.  The object is placed next to the source when the package
directory is writable, else under ``~/.cache/repro-native``.  Build
explicitly with::

    python -m repro.ckks._native.build          # or: python setup.py build_native
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

#: Must match NM_ABI_VERSION in modmath_native.c; bump both when the
#: kernel set or any signature changes.
ABI_VERSION = 6

#: Must match NM_MAX_NDIM: the strided kernels refuse deeper shapes.
MAX_NDIM = 8

_SRC = Path(__file__).with_name("modmath_native.c")

#: cffi ABI declarations for every exported kernel (mirrors the C file).
CDEF = """
int64_t nm_abi_version(void);
int64_t nm_selftest(void);
void nm_mul_mod(int64_t ndim, const int64_t *dims,
                char *out, const int64_t *so,
                const char *a, const int64_t *sa,
                const char *b, const int64_t *sb,
                const char *m, const int64_t *sm,
                const char *mu, const int64_t *smu);
void nm_mul_mod_shoup(int64_t ndim, const int64_t *dims,
                      char *out, const int64_t *so,
                      const char *a, const int64_t *sa,
                      const char *w, const int64_t *sw,
                      const char *ws, const int64_t *sws,
                      const char *m, const int64_t *sm);
void nm_dot_mod(int64_t halves, int64_t rows, int64_t n, int64_t terms,
                int64_t fold, const int64_t *meta, const int64_t *wmap,
                char *out, const uint64_t *mods);
void nm_ntt_forward(int64_t rows, int64_t limbs, int64_t n, uint64_t *a,
                    const uint64_t *psi, const uint64_t *psi_shoup,
                    const uint64_t *mods);
void nm_ntt_inverse(int64_t rows, int64_t limbs, int64_t n, uint64_t *a,
                    const uint64_t *ipsi, const uint64_t *ipsi_shoup,
                    const uint64_t *n_inv, const uint64_t *n_inv_shoup,
                    const uint64_t *merged, const uint64_t *merged_shoup,
                    const uint64_t *mods);
"""


class NativeBuildError(RuntimeError):
    """The shared library could not be built or failed its self-test."""


def _source_tag() -> str:
    digest = hashlib.sha256(
        _SRC.read_bytes() + f"|abi{ABI_VERSION}".encode()).hexdigest()
    return digest[:12]


def so_filename() -> str:
    """Content-addressed library name for this source + platform."""
    plat = sysconfig.get_platform().replace("-", "_").replace(".", "_")
    return f"_modmath_native-{_source_tag()}-{plat}.so"


def _candidate_dirs() -> list[Path]:
    cache = os.environ.get("REPRO_NATIVE_CACHE")
    dirs = [_SRC.parent]
    if cache:
        dirs.insert(0, Path(cache))
    dirs.append(Path.home() / ".cache" / "repro-native")
    return dirs


def find_library() -> Path | None:
    """An already-built, current shared object — or ``None``."""
    name = so_filename()
    for d in _candidate_dirs():
        p = d / name
        if p.is_file():
            return p
    return None


def _compiler() -> str | None:
    import shutil

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def build(verbose: bool = False) -> Path:
    """Compile ``modmath_native.c``; returns the shared-object path.

    Raises :class:`NativeBuildError` when no compiler is available or
    compilation fails.  Safe to call concurrently: the object is built
    in a temp file and moved into place atomically.
    """
    cc = _compiler()
    if cc is None:
        raise NativeBuildError("no C compiler found (set CC?)")
    name = so_filename()
    last_err: Exception | None = None
    for d in _candidate_dirs():
        target = d / name
        if target.is_file():
            return target
        try:
            d.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(d))
            os.close(fd)
            cmd = [cc, "-O3", "-shared", "-fPIC", "-std=c11",
                   "-o", tmp, str(_SRC)]
            if verbose:
                print("+", " ".join(cmd), file=sys.stderr)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
            if proc.returncode != 0:
                os.unlink(tmp)
                raise NativeBuildError(
                    f"{cc} failed ({proc.returncode}):\n{proc.stderr}")
            os.replace(tmp, target)
            return target
        except NativeBuildError:
            raise
        except OSError as exc:  # unwritable dir: try the next candidate
            last_err = exc
            continue
    raise NativeBuildError(f"no writable build directory: {last_err}")


_lock = threading.Lock()
_lib = None
_lib_error: str | None = None
_loaded = False


def load(build_if_missing: bool = True):
    """The cffi library handle, or ``None`` when unavailable.

    The first call does the work (locate or build, dlopen, ABI +
    self-test probe); later calls return the cached handle.  Every
    failure mode is recorded in :func:`load_error` instead of raised, so
    callers can decide whether "unavailable" is an error (forced native
    backend) or just means NumPy (auto mode).
    """
    global _lib, _lib_error, _loaded
    if _loaded:
        return _lib
    with _lock:
        if _loaded:
            return _lib
        _lib, _lib_error = _load_impl(build_if_missing)
        _loaded = True
    return _lib


def load_error() -> str | None:
    """Why :func:`load` returned ``None`` (or ``None`` when it didn't)."""
    return _lib_error


def _load_impl(build_if_missing: bool):
    try:
        import cffi
    except ImportError:
        return None, "cffi is not installed"
    path = find_library()
    if path is None:
        if not build_if_missing:
            return None, "shared library not built"
        try:
            path = build()
        except NativeBuildError as exc:
            return None, str(exc)
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    try:
        lib = ffi.dlopen(str(path))
    except OSError as exc:
        return None, f"dlopen failed: {exc}"
    try:
        if lib.nm_abi_version() != ABI_VERSION:
            return None, (f"ABI mismatch: {lib.nm_abi_version()} != "
                          f"{ABI_VERSION}")
        rc = lib.nm_selftest()
    except Exception as exc:  # pragma: no cover - defensive
        return None, f"probe crashed: {exc}"
    if rc != 0:
        return None, f"self-test failed (code {rc})"
    return _Handle(ffi, lib), None


class _Handle:
    """The loaded library, and the one path from NumPy arrays into it."""

    __slots__ = ("ffi", "lib")

    def __init__(self, ffi, lib) -> None:
        self.ffi = ffi
        self.lib = lib

    def ptr(self, arr: np.ndarray, ctype: str = "uint64_t *"):
        """``arr``'s first element as a ``ctype`` pointer, without a copy.

        The pointer does not own the memory: the caller keeps ``arr``
        alive for as long as C may use it, and passes a C-contiguous
        ``uint64`` array to a kernel that reads a flat matrix.
        """
        return self.ffi.cast(ctype, arr.__array_interface__["data"][0])

    def call_strided(self, kernel: str, out: np.ndarray,
                     operands) -> None:
        """Run the element-wise ``kernel`` over ``out``'s shape.

        Each operand crosses as a pointer plus its byte strides broadcast
        to that shape (0 on an axis it lacks or holds at size 1), so any
        NumPy view works without a copy; dims and all strides share one
        buffer.  A 0-d ``out`` is one element.  A size mismatch raises
        before C could read past an operand.
        """
        shape = out.shape or (1,)
        ndim = len(shape)
        if ndim > MAX_NDIM:
            raise ValueError(f"{kernel}: {ndim} dims > {MAX_NDIM}")
        # scalars become 0-d arrays, held here until the call returns
        arrays = [out, *map(np.asarray, operands)]
        words = list(shape)
        for arr in arrays:
            lead = ndim - arr.ndim
            if lead < 0 or any(size not in (dim, 1)
                               for size, dim in zip(arr.shape, shape[lead:])):
                raise ValueError(f"{kernel}: cannot broadcast {arr.shape} "
                                 f"to {shape}")
            words += [0] * lead + [stride if size > 1 else 0 for size, stride
                                   in zip(arr.shape, arr.strides)]
        packed = self.ffi.new("int64_t[]", words)
        args = [ndim, packed]
        for i, arr in enumerate(arrays, start=1):
            args += [self.ptr(arr, "char *"), packed + i * ndim]
        getattr(self.lib, kernel)(*args)

    def call_dot(self, out: np.ndarray, xs, ws, negate, w_rows: np.ndarray,
                 fold: int, mods: np.ndarray) -> None:
        """Fill ``out`` with ``nm_dot_mod`` (see ``modmath.dot_mod``).

        ``out`` is ``(rows, n)`` or ``(halves, rows, n)``, and each term
        group crosses as pointer tables, never as a stacked copy: per
        (half, term) the operand's base address, and per term its row
        and coefficient byte strides.  A group is an array whose axis 0
        is the term axis, or a sequence with one operand per term: an
        array broadcast to ``out`` or a tuple of one array per half.
        The caller has checked every shape; ``w_rows`` (int64, one entry
        per row) maps output rows to weight rows, and ``mods`` holds
        each row's modulus and two-word Barrett constant as a
        contiguous ``(3, rows)`` array.
        """
        shape = (1,) * (3 - out.ndim) + out.shape
        x_addr, x_row, x_col = _term_tables(xs, shape[0])
        w_addr, w_row, w_col = _term_tables(ws, shape[0])
        meta = self.ffi.new("int64_t[]", (
            x_addr + w_addr + x_row + w_row + x_col + w_col
            + [int(bool(neg)) for neg in negate]
            + _strides3(out.shape, out.strides)))
        # contiguous arrays: a buffer view is the cheapest pointer
        buf = self.ffi.from_buffer
        self.lib.nm_dot_mod(*shape, len(negate), fold, meta,
                            buf("int64_t[]", w_rows), buf("char[]", out),
                            buf("uint64_t[]", mods))


def _strides3(shape, strides) -> list[int]:
    """Byte strides over (halves, rows, n): 0 on a missing or size-1 axis."""
    return [0] * (3 - len(shape)) + [stride if size != 1 else 0
                                     for size, stride in zip(shape, strides)]


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _term_tables(group, halves: int):
    """Addresses (half-major), row strides and coefficient strides."""
    if isinstance(group, np.ndarray):  # axis 0 is the term axis
        base, step = _address(group), group.strides[0]
        half, row, col = _strides3(group.shape[1:], group.strides[1:])
        terms = range(len(group))
        return ([base + h * half + t * step for h in range(halves)
                 for t in terms], [row] * len(group), [col] * len(group))
    addr = [[0] * len(group) for _ in range(halves)]
    rows, cols = [], []
    for t, op in enumerate(group):
        if isinstance(op, tuple):  # one array per half
            _, row, col = _strides3(op[0].shape, op[0].strides)
            for h, arr in enumerate(op):
                addr[h][t] = _address(arr)
        else:
            half, row, col = _strides3(op.shape, op.strides)
            base = _address(op)
            for h in range(halves):
                addr[h][t] = base + h * half
        rows.append(row)
        cols.append(col)
    return [a for per_half in addr for a in per_half], rows, cols


def reset_for_tests() -> None:
    """Drop the cached handle so tests can exercise reload paths."""
    global _lib, _lib_error, _loaded
    with _lock:
        _lib = None
        _lib_error = None
        _loaded = False
