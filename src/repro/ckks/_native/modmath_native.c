/* Native 64-bit modular-arithmetic kernels for repro.ckks.modmath.
 *
 * This is the software MMAU datapath of the repo compiled down to what
 * the hardware actually is: a 64x64 -> 128-bit multiplier feeding a
 * Barrett/Shoup reduction, one fused pass per kernel instead of the
 * ~10-30 NumPy ufunc dispatches the pure-Python 32-bit-limb ladder
 * pays.  Every kernel is *exact* and bit-identical to the NumPy
 * reference in repro/ckks/modmath.py: outputs are canonical residues,
 * so both backends agree bit for bit, not merely modulo q.
 *
 * Kernel set (ABI 5): only kernels with a production caller.  The
 * element-wise primitives mul_mod, mul_mod_shoup and mul_mod_add (the
 * evk inner product), the fused BConv accumulate-reduce (bconv) and
 * the whole negacyclic NTTs over a residue matrix (ntt_forward,
 * ntt_inverse: every stage of every row in one call).  The 128-bit
 * helpers nm_mulhi and nm_barrett128 are static: bconv, the Shoup
 * multiplies and the self-test use them, nothing calls them from
 * Python.
 *
 * Iteration model of the element-wise primitives: the Python wrapper
 * broadcasts every operand to the output shape (broadcast axes become
 * stride 0) and passes per-operand byte strides.  Kernels walk an
 * odometer over the outer dimensions and run a strided inner loop over
 * the last axis, so arbitrary NumPy views (column constants, tiled
 * planes, transposed slabs) work without copies.  ndim is capped at
 * NM_MAX_NDIM.  bconv and the NTTs take C-contiguous matrices instead.
 *
 * Build: any C compiler with unsigned __int128 (gcc/clang on 64-bit
 * targets).  No Python.h, no NumPy headers — the library is loaded via
 * cffi in ABI mode (see repro/ckks/_native/__init__.py).
 */

#include <stdint.h>
#include <stddef.h>

typedef uint64_t u64;
typedef int64_t i64;
typedef unsigned __int128 u128;

#define NM_MAX_NDIM 8

/* ABI version stamp: the loader refuses a stale shared object whose
 * kernel set no longer matches the cdef it was compiled against. */
#define NM_ABI_VERSION 5

i64 nm_abi_version(void) { return NM_ABI_VERSION; }

static inline u64 nm_mulhi(u64 a, u64 b) {
    return (u64)(((u128)a * b) >> 64);
}

/* Odometer bookkeeping shared by every strided kernel: advance the
 * outer indices (all dims but the last); returns 0 when iteration is
 * exhausted.  Offsets are recomputed per outer step — outer trip
 * counts are tiny next to the inner loop. */
static inline int nm_step(i64 ndim, const i64 *dims, i64 *idx) {
    i64 d = ndim - 2;
    for (; d >= 0; d--) {
        if (++idx[d] < dims[d]) return 1;
        idx[d] = 0;
    }
    return 0;
}

static inline const char *nm_off(const char *base, const i64 *strides,
                                 const i64 *idx, i64 ndim) {
    i64 d;
    for (d = 0; d < ndim - 1; d++) base += idx[d] * strides[d];
    return base;
}

#define NM_RD(p, stride, c) (*(const u64 *)((const char *)(p) + (c) * (stride)))
#define NM_WR(p, stride, c) (*(u64 *)((char *)(p) + (c) * (stride)))

/* ----- single-word Barrett mul_mod ----------------------------------- *
 * Canonical a, b < m; k = bit_length(m); mu = floor(2^2k / m).
 * Same estimate as the NumPy path (t = floor(x / 2^(k-1)),
 * q_hat = floor(t*mu / 2^(k+1)), remainder < 3m, two corrections);
 * both are exact, so outputs agree bit for bit.                         */

static inline u64 nm_barrett_word(u128 x, u64 m, u64 mu, int k) {
    u64 t = (u64)(x >> (k - 1));
    u64 q = (u64)(((u128)t * mu) >> (k + 1));
    u64 r = (u64)x - q * m;
    if (r >= m) r -= m;
    if (r >= m) r -= m;
    return r;
}

static inline int nm_bits(u64 m) {
    return 64 - __builtin_clzll(m);
}

void nm_mul_mod(i64 ndim, const i64 *dims,
                char *out, const i64 *so,
                const char *a, const i64 *sa,
                const char *b, const i64 *sb,
                const char *m, const i64 *sm,
                const char *mu, const i64 *smu) {
    i64 idx[NM_MAX_NDIM] = {0};
    const i64 inner = dims[ndim - 1];
    const i64 oi = so[ndim - 1], ai = sa[ndim - 1], bi = sb[ndim - 1];
    const i64 mi = sm[ndim - 1], mui = smu[ndim - 1];
    do {
        char *po = (char *)nm_off(out, so, idx, ndim);
        const char *pa = nm_off(a, sa, idx, ndim);
        const char *pb = nm_off(b, sb, idx, ndim);
        const char *pm = nm_off(m, sm, idx, ndim);
        const char *pmu = nm_off(mu, smu, idx, ndim);
        if (mi == 0 && mui == 0) {
            /* one modulus per row: hoist the constants */
            const u64 mv = NM_RD(pm, 0, 0), muv = NM_RD(pmu, 0, 0);
            const int k = nm_bits(mv);
            for (i64 c = 0; c < inner; c++) {
                u128 x = (u128)NM_RD(pa, ai, c) * NM_RD(pb, bi, c);
                NM_WR(po, oi, c) = nm_barrett_word(x, mv, muv, k);
            }
        } else {
            for (i64 c = 0; c < inner; c++) {
                const u64 mv = NM_RD(pm, mi, c);
                u128 x = (u128)NM_RD(pa, ai, c) * NM_RD(pb, bi, c);
                NM_WR(po, oi, c) = nm_barrett_word(
                    x, mv, NM_RD(pmu, mui, c), nm_bits(mv));
            }
        }
    } while (nm_step(ndim, dims, idx));
}

/* ----- two-word Barrett reduction of a 128-bit value ------------------ *
 * mu = floor(2^128 / m) as (mu_hi, mu_lo).  q_hat = floor(x*mu / 2^128)
 * computed exactly; remainder < 3m, two corrections.  Canonical output,
 * identical to both NumPy routes of barrett_reduce128 (generic and
 * lazy128 fold); nm_bconv reduces its accumulated sums with it.        */

static inline u64 nm_barrett128(u64 hi, u64 lo, u64 m, u64 mu_hi,
                                u64 mu_lo) {
    u128 h1 = (u128)hi * mu_lo;
    u128 h2 = (u128)lo * mu_hi;
    u64 h3 = nm_mulhi(lo, mu_lo);
    u128 s = (u128)(u64)h1 + (u64)h2 + h3;
    u64 q = hi * mu_hi + (u64)(h1 >> 64) + (u64)(h2 >> 64)
        + (u64)(s >> 64);
    u64 r = lo - q * m;
    if (r >= m) r -= m;
    if (r >= m) r -= m;
    return r;
}

/* ----- Shoup multiply: canonical (a * w) mod m ------------------------ */

void nm_mul_mod_shoup(i64 ndim, const i64 *dims,
                      char *out, const i64 *so,
                      const char *a, const i64 *sa,
                      const char *w, const i64 *sw,
                      const char *ws, const i64 *sws,
                      const char *m, const i64 *sm) {
    i64 idx[NM_MAX_NDIM] = {0};
    const i64 inner = dims[ndim - 1];
    const i64 oi = so[ndim - 1], ai = sa[ndim - 1];
    const i64 wi = sw[ndim - 1], wsi = sws[ndim - 1], mi = sm[ndim - 1];
    do {
        char *po = (char *)nm_off(out, so, idx, ndim);
        const char *pa = nm_off(a, sa, idx, ndim);
        const char *pw = nm_off(w, sw, idx, ndim);
        const char *pws = nm_off(ws, sws, idx, ndim);
        const char *pm = nm_off(m, sm, idx, ndim);
        for (i64 c = 0; c < inner; c++) {
            const u64 av = NM_RD(pa, ai, c);
            const u64 mv = NM_RD(pm, mi, c);
            u64 q = nm_mulhi(av, NM_RD(pws, wsi, c));
            u64 r = av * NM_RD(pw, wi, c) - q * mv;
            if (r >= mv) r -= mv;
            NM_WR(po, oi, c) = r;
        }
    } while (nm_step(ndim, dims, idx));
}

/* ----- fused multiply-accumulate: out = (acc + a*b mod m) mod m ------- *
 * The evk inner-product step of key switching: one pass instead of a
 * mul_mod pass plus an add_mod pass.  acc must be canonical; output is
 * canonical and bit-identical to add_mod(acc, mul_mod(a, b, m), m).    */

void nm_mul_mod_add(i64 ndim, const i64 *dims,
                    char *out, const i64 *so,
                    const char *acc, const i64 *sacc,
                    const char *a, const i64 *sa,
                    const char *b, const i64 *sb,
                    const char *m, const i64 *sm,
                    const char *mu, const i64 *smu) {
    i64 idx[NM_MAX_NDIM] = {0};
    const i64 inner = dims[ndim - 1];
    const i64 oi = so[ndim - 1], acci = sacc[ndim - 1];
    const i64 ai = sa[ndim - 1], bi = sb[ndim - 1];
    const i64 mi = sm[ndim - 1], mui = smu[ndim - 1];
    do {
        char *po = (char *)nm_off(out, so, idx, ndim);
        const char *pacc = nm_off(acc, sacc, idx, ndim);
        const char *pa = nm_off(a, sa, idx, ndim);
        const char *pb = nm_off(b, sb, idx, ndim);
        const char *pm = nm_off(m, sm, idx, ndim);
        const char *pmu = nm_off(mu, smu, idx, ndim);
        const u64 mv0 = NM_RD(pm, 0, 0), muv0 = NM_RD(pmu, 0, 0);
        const int k0 = nm_bits(mv0);
        const int hoist = (mi == 0 && mui == 0);
        for (i64 c = 0; c < inner; c++) {
            const u64 mv = hoist ? mv0 : NM_RD(pm, mi, c);
            const u64 muv = hoist ? muv0 : NM_RD(pmu, mui, c);
            const int k = hoist ? k0 : nm_bits(mv);
            u128 x = (u128)NM_RD(pa, ai, c) * NM_RD(pb, bi, c);
            u64 r = nm_barrett_word(x, mv, muv, k);
            u64 s = NM_RD(pacc, acci, c) + r;
            if (s >= mv) s -= mv;
            NM_WR(po, oi, c) = s;
        }
    } while (nm_step(ndim, dims, idx));
}

/* ----- fused BConv multiply-accumulate-reduce ------------------------- *
 * The MMAU proper (Eq. 9 part 2): for each destination limb i and
 * coefficient c, the exact 128-bit sum over source limbs j of
 * terms[j][c] * cross[i][j], Barrett-reduced once at the end.  The
 * caller guarantees the true total stays below 2^128 (the `lazy_ok`
 * gate of rns._bconv_table), so the wrapping u128 accumulation is
 * exact.  All arrays are C-contiguous: terms (src, n), cross
 * (dst, src), out (dst, n); m/mu_hi/mu_lo are per-destination words.
 * Bit-identical to _mmau_accumulate_* + barrett_reduce128.             */

void nm_bconv(i64 dst, i64 src, i64 n,
              u64 *out, const u64 *terms, const u64 *cross,
              const u64 *m, const u64 *mu_hi, const u64 *mu_lo) {
    for (i64 i = 0; i < dst; i++) {
        const u64 *cr = cross + i * src;
        const u64 mv = m[i], mh = mu_hi[i], ml = mu_lo[i];
        u64 *row = out + i * n;
        for (i64 c = 0; c < n; c++) {
            u128 acc = 0;
            for (i64 j = 0; j < src; j++)
                acc += (u128)terms[j * n + c] * cr[j];
            row[c] = nm_barrett128((u64)(acc >> 64), (u64)acc,
                                   mv, mh, ml);
        }
    }
}

/* ----- whole negacyclic NTTs over a residue matrix -------------------- *
 * a is a C-contiguous (rows, n) matrix transformed in place; row r uses
 * limb r % limbs, so a (..., limbs, n) stack of polynomials over one
 * base is one call.  The twiddle tables are the per-prime NttContext
 * tables stacked as C-contiguous (limbs, n) matrices: psi^brv(i) and its
 * Shoup constant floor(w * 2^64 / m).  Every butterfly multiply uses the
 * exact Shoup quotient (one 64x64 high half), so w*y - q*m lands in
 * [0, 2m) for any y < 2^64.  Both directions follow Harvey's lazy
 * butterflies and need only m < 2^62 (4m fits a word), which Modulus
 * already enforces.  Outputs are canonical, hence bit-identical to the
 * per-prime oracle and to the NumPy Stockham engine.  No scratch is
 * shared between calls, so concurrent calls on distinct outputs are
 * safe with the GIL released.                                          */

static inline u64 nm_shoup_lazy(u64 y, u64 w, u64 ws, u64 m) {
    return y * w - nm_mulhi(y, ws) * m;          /* in [0, 2m) */
}

/* Cooley-Tukey, natural order in, bit-reversed out.  Inputs below 4m,
 * operands stay below 4m through every stage, one final reduction.    */
void nm_ntt_forward(i64 rows, i64 limbs, i64 n, u64 *a,
                    const u64 *psi, const u64 *psi_shoup, const u64 *mods) {
    for (i64 r = 0; r < rows; r++) {
        const i64 l = r % limbs;
        const u64 m = mods[l], m2 = 2 * m;
        const u64 *w = psi + l * n, *ws = psi_shoup + l * n;
        u64 *x = a + r * n;
        for (i64 blocks = 1, t = n / 2; blocks < n; blocks *= 2, t /= 2) {
            for (i64 i = 0; i < blocks; i++) {
                const u64 wi = w[blocks + i], wsi = ws[blocks + i];
                u64 *lo = x + 2 * i * t, *hi = lo + t;
                for (i64 j = 0; j < t; j++) {
                    u64 u = lo[j];
                    if (u >= m2) u -= m2;
                    const u64 v = nm_shoup_lazy(hi[j], wi, wsi, m);
                    lo[j] = u + v;
                    hi[j] = u - v + m2;
                }
            }
        }
        for (i64 j = 0; j < n; j++) {
            u64 u = x[j];
            if (u >= m2) u -= m2;
            if (u >= m) u -= m;
            x[j] = u;
        }
    }
}

/* Gentleman-Sande, bit-reversed in, natural order out.  Inputs below 2m,
 * operands stay below 2m; the last stage folds in n^-1 (n_inv on the
 * sum branch, merged = psi_inv_rev[1] * n_inv on the difference branch)
 * and reduces to canonical form.                                       */
void nm_ntt_inverse(i64 rows, i64 limbs, i64 n, u64 *a,
                    const u64 *ipsi, const u64 *ipsi_shoup,
                    const u64 *n_inv, const u64 *n_inv_shoup,
                    const u64 *merged, const u64 *merged_shoup,
                    const u64 *mods) {
    const i64 h = n / 2;
    for (i64 r = 0; r < rows; r++) {
        const i64 l = r % limbs;
        const u64 m = mods[l], m2 = 2 * m;
        const u64 *w = ipsi + l * n, *ws = ipsi_shoup + l * n;
        u64 *x = a + r * n;
        for (i64 blocks = h, t = 1; blocks > 1; blocks /= 2, t *= 2) {
            for (i64 i = 0; i < blocks; i++) {
                const u64 wi = w[blocks + i], wsi = ws[blocks + i];
                u64 *lo = x + 2 * i * t, *hi = lo + t;
                for (i64 j = 0; j < t; j++) {
                    const u64 u = lo[j], v = hi[j];
                    u64 s = u + v;
                    if (s >= m2) s -= m2;
                    lo[j] = s;
                    hi[j] = nm_shoup_lazy(u - v + m2, wi, wsi, m);
                }
            }
        }
        const u64 ni = n_inv[l], nis = n_inv_shoup[l];
        const u64 mg = merged[l], mgs = merged_shoup[l];
        for (i64 j = 0; j < h; j++) {
            const u64 u = x[j], v = x[j + h];
            u64 s = nm_shoup_lazy(u + v, ni, nis, m);
            u64 d = nm_shoup_lazy(u - v + m2, mg, mgs, m);
            x[j] = s >= m ? s - m : s;
            x[j + h] = d >= m ? d - m : d;
        }
    }
}

/* ----- load-time sanity probe ----------------------------------------- *
 * Returns 0 when a handful of known-answer checks pass; the loader
 * discards the library otherwise (e.g. a miscompiled __int128).        */

i64 nm_selftest(void) {
    const u64 m = ((u64)1 << 61) + 15;          /* 62-bit-class prime */
    const u64 a = m - 2, b = m - 3;
    /* mulhi against the identity (m-2)(m-3) = m^2 - 5m + 6 */
    u128 p = (u128)a * b;
    if (nm_mulhi(a, b) != (u64)(p >> 64)) return 1;
    /* Barrett word vs the slow u128 modulo */
    const int k = nm_bits(m);
    const u64 mu = (u64)((((u128)1) << (2 * k)) / m);
    if (nm_barrett_word(p, m, mu, k) != (u64)(p % m)) return 2;
    /* two-word Barrett on the same product */
    u128 muw = (u128)0 - 1;                      /* 2^128 - 1 */
    u64 mu_hi = (u64)((muw / m) >> 64), mu_lo = (u64)(muw / m);
    /* floor((2^128 - 1) / m) == floor(2^128 / m) unless m | 2^128 —
     * impossible for odd m > 1. */
    if (nm_barrett128((u64)(p >> 64), (u64)p, m, mu_hi, mu_lo)
        != (u64)(p % m)) return 3;
    return 0;
}
