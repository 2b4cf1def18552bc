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
 * Kernel set (ABI 6): only kernels with a production caller: mul_mod
 * and mul_mod_shoup (element-wise), dot_mod (the modular dot product
 * behind the evk inner product, the BSGS diagonal sums and BConv) and
 * ntt_forward/ntt_inverse (every stage of every row in one call).  The
 * static 128-bit helpers nm_mulhi and nm_barrett128 have no Python entry.
 *
 * Element-wise primitives: the Python wrapper broadcasts every operand
 * to the output shape (broadcast axes become stride 0) and passes byte
 * strides; kernels walk an odometer over the outer dims and a strided
 * inner loop over the last, so any NumPy view works without copies
 * (ndim <= NM_MAX_NDIM).  dot_mod takes operand tables, the NTTs rows.
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

#define NM_ABI_VERSION 6     /* the loader refuses a stale kernel set */

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
        for (i64 c = 0; c < inner; c++) {
            const u64 mv = NM_RD(pm, mi, c);
            u128 x = (u128)NM_RD(pa, ai, c) * NM_RD(pb, bi, c);
            NM_WR(po, oi, c) = nm_barrett_word(x, mv, NM_RD(pmu, mui, c),
                                               nm_bits(mv));
        }
    } while (nm_step(ndim, dims, idx));
}

/* ----- two-word Barrett reduction of a 128-bit value ------------------ *
 * mu = floor(2^128 / m) as (mu_hi, mu_lo).  q_hat = floor(x*mu / 2^128)
 * computed exactly; remainder < 3m, two corrections.  Canonical output,
 * identical to both NumPy routes of barrett_reduce128 (generic and
 * lazy128 fold); nm_dot_mod reduces its accumulated sums with it.     */

static inline u64 nm_barrett128(u128 x, u64 m, u64 mu_hi, u64 mu_lo) {
    const u64 hi = (u64)(x >> 64), lo = (u64)x;
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

/* ----- modular dot product over a term axis: the MMAU ---------------- *
 * out[h][r][c] = sum_t (-1)^neg[t] x[h][t][r][c] * w[h][t][wmap[r]][c]
 * mod m[r] (Eq. 9 part 2 and the evk inner product are both this sum).
 * meta holds i64 words: the base address of x, then of w, per (half,
 * term); per term the row byte strides (x, w), then the coefficient
 * byte strides (x, w); a sign flag per term; out's three byte strides.
 * Stride 0 repeats a row or makes a column.  mods rows: m, mu_hi, mu_lo.
 * Per coefficient block, runs of up to NM_DOT_CHUNK same-sign terms add
 * in registers to exact u128 sums, positive and negative apart; a sum
 * is Barrett-folded below m before it passes fold terms (the caller
 * sets fold * (max operand)^2 < 2^128, fold > NM_DOT_CHUNK).  One
 * Barrett per sign and output: canonical, bit-identical to reducing
 * term by term.  No scratch is shared between calls (GIL released).    */

#define NM_DOT_BLOCK 128
#define NM_DOT_CHUNK 6
#define NM_P(j) ((u128)NM_RD(p[2 * (j)], st[2 * (j)], c0 + c) \
                 * NM_RD(p[2 * (j) + 1], st[2 * (j) + 1], c0 + c))
#define NM_COL(j) ((u128)((const u64 *)p[2 * (j)])[c0 + c] * wv[j])
#define NM_SUM(sum) for (i64 c = 0; c < len; c++) \
        a[c] = (fresh ? 0 : a[c]) + (sum)
#define NM_RUNS(P) switch (k) {      /* one pass over a, k products each */ \
    case 6: NM_SUM(P(0) + P(1) + P(2) + P(3) + P(4) + P(5)); break;      \
    case 5: NM_SUM(P(0) + P(1) + P(2) + P(3) + P(4)); break;             \
    case 4: NM_SUM(P(0) + P(1) + P(2) + P(3)); break;                    \
    case 3: NM_SUM(P(0) + P(1) + P(2)); break;                           \
    case 2: NM_SUM(P(0) + P(1)); break;                                  \
    default: NM_SUM(P(0)); }

void nm_dot_mod(i64 halves, i64 rows, i64 n, i64 terms, i64 fold,
                const i64 *meta, const i64 *wmap, char *out,
                const u64 *mods) {
    const i64 *xa = meta, *wa = xa + halves * terms;
    const i64 *xr = wa + halves * terms, *wr = xr + terms;
    const i64 *xc = wr + terms, *wc = xc + terms;
    const i64 *neg = wc + terms, *so = neg + terms;
    u128 acc[2][NM_DOT_BLOCK];
    for (i64 h = 0; h < halves; h++)
    for (i64 r = 0; r < rows; r++) {
        const u64 mv = mods[r], mh = mods[rows + r], ml = mods[2 * rows + r];
        for (i64 c0 = 0; c0 < n; c0 += NM_DOT_BLOCK) {
            const i64 len = n - c0 < NM_DOT_BLOCK ? n - c0 : NM_DOT_BLOCK;
            i64 count[2] = {0, 0};
            for (i64 t = 0; t < terms; ) {
                const int s = neg[t] != 0;
                const char *p[2 * NM_DOT_CHUNK];
                i64 st[2 * NM_DOT_CHUNK], k = 0;
                for (; k < NM_DOT_CHUNK && t < terms && (neg[t] != 0) == s;
                     k++, t++) {
                    st[2 * k] = xc[t], st[2 * k + 1] = wc[t];
                    p[2 * k] = (const char *)xa[h * terms + t] + r * xr[t];
                    p[2 * k + 1] = (const char *)wa[h * terms + t]
                        + wmap[r] * wr[t];
                }
                if (count[s] + k > fold) {     /* fold the sum below m */
                    for (i64 c = 0; c < len; c++)
                        acc[s][c] = nm_barrett128(acc[s][c], mv, mh, ml);
                    count[s] = 1;
                }
                const int fresh = count[s] == 0;
                u128 *a = acc[s];
                u64 wv[NM_DOT_CHUNK] = {0};
                int col = 1;            /* contiguous x, column w: BConv */
                for (i64 j = 0; j < k; j++) {
                    col &= st[2 * j] == 8 && st[2 * j + 1] == 0;
                    wv[j] = *(const u64 *)p[2 * j + 1];
                }
                count[s] += k;
                if (col) { NM_RUNS(NM_COL) } else { NM_RUNS(NM_P) }
            }
            char *po = out + h * so[0] + r * so[1] + c0 * so[2];
            for (i64 c = 0; c < len; c++) {
                u64 v = count[0] ? nm_barrett128(acc[0][c], mv, mh, ml) : 0;
                if (count[1]) {
                    const u64 d = nm_barrett128(acc[1][c], mv, mh, ml);
                    v = v >= d ? v - d : v + (mv - d);
                }
                NM_WR(po, so[2], c) = v;
            }
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
    u128 muw = (u128)0 - 1;          /* 2^128 - 1: same floor, m odd */
    u64 mu_hi = (u64)((muw / m) >> 64), mu_lo = (u64)(muw / m);
    if (nm_barrett128(p, m, mu_hi, mu_lo) != (u64)(p % m)) return 3;
    return 0;
}
