/* The compiled kernels of camopt, loaded through ctypes by camopt.native,
   whose build() compiles this file with native.OPT and native.FLAGS. FLAGS
   define H (the field's hidden width), DK (its attention width) and FLUSH
   (the fit step's logit-gradient flush threshold) and turn FP contraction
   off. */

#include <math.h>
#include <stdint.h>

/* Keys per register tile of the scores: a tile's sums stay in registers
   across all H channels. */
#define TILE 64

/* The scores s[q, m] = sum_h relu(at[h, m] + b[q, h]) * z[q, h] of one
   element type real, summed in real over the channels in order and stored
   as double: name##_tile holds the sums of keys [0, n) of one tile, n <=
   TILE, and name runs the tiles of every query. at is a transposed, (H,
   nm), so the inner loop runs over contiguous keys. The relu is a select,
   which the compiler turns into a vector max; it leaves +0 where the
   product with the 0/1 mask left -0, a sign no sum here can carry. A full
   tile passes the constant TILE, which lets the compiler keep its sums in
   registers. */
#define SCORES(name, real)                                                          \
static inline void name##_tile(const real *restrict at, long nm,                   \
                               const real *restrict b, const real *restrict z,     \
                               double *restrict s, long n)                         \
{                                                                                   \
    real acc[TILE] = {0};                                                           \
    for (long h = 0; h < H; h++) {                                                  \
        const real bh = b[h], zh = z[h];                                            \
        const real *restrict col = at + h * nm;                                     \
        for (long i = 0; i < n; i++) {                                              \
            const real pre = col[i] + bh;                                           \
            acc[i] += (pre > 0 ? pre : 0) * zh;                                     \
        }                                                                           \
    }                                                                               \
    for (long i = 0; i < n; i++)                                                    \
        s[i] = acc[i];                                                              \
}                                                                                   \
                                                                                    \
void name(const real *restrict at, const real *restrict b, const real *restrict z, \
          double *restrict s, long nq, long nm)                                     \
{                                                                                   \
    for (long q = 0; q < nq; q++) {                                                 \
        const real *restrict bq = b + q * H, *restrict zq = z + q * H;              \
        long m = 0;                                                                 \
        for (; m + TILE <= nm; m += TILE)                                           \
            name##_tile(at + m, nm, bq, zq, s + q * nm + m, TILE);                  \
        if (m < nm)                                                                 \
            name##_tile(at + m, nm, bq, zq, s + q * nm + m, nm - m);                \
    }                                                                               \
}

/* The field fit's two slab passes. Their arithmetic is float32 and the
   sums run in one fixed sequential order: the scores over channels; gz and
   gb over keys, ga over queries. The row chain between the passes is
   float64, so the scores go out widened to double (exact) and the logit
   gradients come in as double and are rounded to float32 here. */
SCORES(fit_scores, float)

/* HV vectors of FL float lanes hold a row of the H channels, and a
   comparison of two gives a lane mask of FL ints, all ones where it holds.
   FL is the width of the target's widest float vector: 16 with AVX-512, 8
   with AVX, 4 otherwise (SSE2, NEON). gcc splits a vector wider than the
   target's into far slower code: 16 lanes at -march=haswell took 2.8 ms a
   128 x 256 pass, 8 lanes 0.27 ms. Each lane sums its own channel, so the
   width leaves the bits as they are. aligned(4): the rows start at any
   float. */
#if defined(__AVX512F__)
#define FL 16
#elif defined(__AVX__)
#define FL 8
#else
#define FL 4
#endif
#if H % FL
#error "H must be a multiple of the float lanes"
#endif
#define HV (H / FL)
typedef float f32v __attribute__((vector_size(FL * sizeof(float)), aligned(4)));
typedef int32_t maskv __attribute__((vector_size(FL * sizeof(int32_t)), aligned(4)));

/* x where the mask is set, +0 elsewhere. */
static inline f32v masked(f32v x, maskv on)
{
    return (f32v)((maskv)x & on);
}

/* A logit gradient rounded to float32, or +0 where |g| < FLUSH (as a
   float32 denormal it would slow every product it enters). */
static inline float flushed(double g)
{
    return fabs(g) < FLUSH ? 0.0f : (float)g;
}

/* With w[q, m] the flushed logit gradient g[q, m] and t[q, m, h] = w[q, m]
   * z[q, h] where a[m, h] + b[q, h] > 0 and +0 elsewhere: gz[q] = sum_m
   w[q, m] * relu(a[m] + b[q]), gb[q] = sum_m t[q, m] and ga[m] = sum_q t[q,
   m], each summed in float32 and stored as double. ga32 (nm, H) is the
   float32 scratch ga sums in. The relu mask is a lane mask ANDed into the
   products, so the loops have no branches. Each sum starts at +0, which no
   float32 add of +-0 turns into -0, so the +0 the mask leaves adds exactly
   what the product with a 0/1 mask did. Two rows share each walk over the
   keys, so a key's a and ga32 rows are loaded and stored once a pair; ga
   adds the first row's term before the second's, the order over the rows.
   An odd last row pairs with itself at weight 0, whose terms add +-0. */
void fit_grads(const float *restrict a, const float *restrict b,
               const float *restrict z, const double *restrict g,
               float *restrict ga32, double *restrict ga, double *restrict gb,
               double *restrict gz, long nq, long nm)
{
    for (long i = 0; i < nm * H; i++)
        ga32[i] = 0.0f;
    for (long q = 0; q < nq; q += 2) {
        const long r = q + 1 < nq ? q + 1 : q;
        const f32v *bq = (const f32v *)(b + q * H), *zq = (const f32v *)(z + q * H);
        const f32v *br = (const f32v *)(b + r * H), *zr = (const f32v *)(z + r * H);
        const double *restrict gq = g + q * nm, *restrict gr = g + r * nm;
        f32v sbq[HV] = {{0.0f}}, szq[HV] = {{0.0f}}, sbr[HV] = {{0.0f}}, szr[HV] = {{0.0f}};
        for (long m = 0; m < nm; m++) {
            const float wq = flushed(gq[m]), wr = r > q ? flushed(gr[m]) : 0.0f;
            const f32v *am = (const f32v *)(a + m * H);
            f32v *gam = (f32v *)(ga32 + m * H);
            for (int v = 0; v < HV; v++) {
                const f32v pq = am[v] + bq[v], pr = am[v] + br[v];
                const maskv onq = pq > 0.0f, onr = pr > 0.0f;
                const f32v tq = masked(wq * zq[v], onq), tr = masked(wr * zr[v], onr);
                szq[v] += masked(wq * pq, onq);
                szr[v] += masked(wr * pr, onr);
                sbq[v] += tq;
                sbr[v] += tr;
                gam[v] = (gam[v] + tq) + tr;
            }
        }
        for (int v = 0; v < HV; v++)
            for (int j = 0; j < FL; j++) {
                gb[q * H + v * FL + j] = sbq[v][j];
                gz[q * H + v * FL + j] = szq[v][j];
                if (r > q) {
                    gb[r * H + v * FL + j] = sbr[v][j];
                    gz[r * H + v * FL + j] = szr[v][j];
                }
            }
    }
    for (long i = 0; i < nm * H; i++)
        ga[i] = ga32[i];
}

/* The whole fit step around the slab passes, in two calls: fit_forward
   encodes the weights and writes the scores, each row less its maximum,
   into s; the caller exponentiates s in place in numpy, whose vector exp
   is six times faster than glibc's scalar one (libmvec's vector exp, which
   gcc calls only where it vectorizes, would give other bits at -O0);
   fit_backward turns them into the gradients of the six weights. Every
   float64 sum starts from 0.0 and runs over its inner index in order: a
   matrix product's element over the product's inner index, a row's sum
   over its keys. Names follow field._encode and the numpy fit step in
   tests/fit_step_reference.py. */
struct fit {
    long nq, nm;                        /* batch rows, keys */
    const double *weight[6];            /* W1 (6, H), b1, W2 (H, H), b2, WQ (H, DK), WK */
    const double *basis, *v, *dv, *sup; /* keys' encoder inputs (nm, 6) and attributes
                                           (nm, 3), dv (3, nm) = v.T * 2 / (3 nq), sup (3) */
    const double *pos, *nrm, *target;   /* the batch's rows, (nq, 3) each */
    double *s;                          /* (nq, nm) the scores less their row maxima, their
                                           exponentials, then the logit gradients */
    double *grad[6];                    /* the weights' gradients, shaped as weight */
    double *work;                       /* fit_work(nq, nm) doubles of scratch */
};

/* The scratch arrays of a step, carved from fit.work, each starting a
   multiple of 8 doubles into it. Float32: the keys' a (nm, H) and its transpose at, the batch's
   b and z (nq, H), fit_grads' ga32. Float64: the query encoder's h, enc and
   qrow (nq, H), folded (H, DK) and its transpose, the slab passes' ga, gb
   and gz, the weight chain's gradients of qrow, folded, enc and the
   encoder's pre-activation, three transposed weights, tmp, an (H, H) or
   (6, H) term of a sum, and the row chain's transposed blocks et and gt. */
#define ROWS 8

struct parts {
    float *a, *at, *b, *z, *ga32;
    double *h, *enc, *qrow, *fold, *foldt, *ga, *gb, *gz;
    double *gq, *gf, *ge, *gp, *w2t, *wqt, *wkt, *tmp, *et, *gt;
};

static double *take(double *work, long *used, long n)
{
    double *p = work ? work + *used : 0;
    *used += (n + 7) / 8 * 8;
    return p;
}

#define TAKE32(n) ((float *)take(work, &used, ((n) + 1) / 2))

static long carve(double *work, long nq, long nm, struct parts *p)
{
    long used = 0;
    p->a = TAKE32(nm * H);
    p->at = TAKE32(nm * H);
    p->b = TAKE32(nq * H);
    p->z = TAKE32(nq * H);
    p->ga32 = TAKE32(nm * H);
    p->h = take(work, &used, nq * H);
    p->enc = take(work, &used, nq * H);
    p->qrow = take(work, &used, nq * DK);
    p->fold = take(work, &used, H * DK);
    p->foldt = take(work, &used, H * DK);
    p->ga = take(work, &used, nm * H);
    p->gb = take(work, &used, nq * H);
    p->gz = take(work, &used, nq * H);
    p->gq = take(work, &used, nq * DK);
    p->gf = take(work, &used, H * DK);
    p->ge = take(work, &used, nq * H);
    p->gp = take(work, &used, nq * H);
    p->w2t = take(work, &used, H * H);
    p->wqt = take(work, &used, H * DK);
    p->wkt = take(work, &used, H * DK);
    p->tmp = take(work, &used, H * (H > 6 ? H : 6));
    p->et = take(work, &used, nm * ROWS);
    p->gt = take(work, &used, nm * ROWS);
    return used;
}

/* The doubles of scratch a step of nq rows over nm keys needs. */
long fit_work(long nq, long nm)
{
    struct parts p;
    return carve(0, nq, nm, &p);
}

/* out (n, c) = x @ y, out[i, j] = sum_k x(i, k) * y[k, j] over k in [0,
   nk) in order, with x(i, k) = x[i * xi + k * xk] (so x or its transpose)
   and y (nk, c) in C order; the loops run across the columns j. */
static inline void mm(const double *restrict x, long xi, long xk, const double *restrict y,
                      double *restrict out, long n, long nk, long c)
{
    for (long i = 0; i < n; i++) {
        double *restrict o = out + i * c;
        for (long j = 0; j < c; j++)
            o[j] = 0.0;
        for (long k = 0; k < nk; k++) {
            const double xv = x[i * xi + k * xk];
            const double *restrict yk = y + k * c;
            for (long j = 0; j < c; j++)
                o[j] += xv * yk[j];
        }
    }
}

/* out (c, r) = x.T for x (r, c). */
static void transpose(const double *restrict x, double *restrict out, long r, long c)
{
    for (long i = 0; i < r; i++)
        for (long j = 0; j < c; j++)
            out[j * r + i] = x[i * c + j];
}

/* out[j] = sum of x[:, j] over the n rows in order, (n, c) x. */
static void column_sums(const double *restrict x, double *restrict out, long n, long c)
{
    for (long j = 0; j < c; j++)
        out[j] = 0.0;
    for (long i = 0; i < n; i++)
        for (long j = 0; j < c; j++)
            out[j] += x[i * c + j];
}

/* The largest of s[0, n), n > 0, over LANES running maxima, which the
   compiler keeps in one vector: a maximum does not depend on the order. */
#define LANES 8
static double row_max(const double *restrict s, long n)
{
    double lane[LANES], top = s[0];
    for (int j = 0; j < LANES; j++)
        lane[j] = top;
    long m = 0;
    for (; m + LANES <= n; m += LANES)
        for (int j = 0; j < LANES; j++)
            lane[j] = s[m + j] > lane[j] ? s[m + j] : lane[j];
    for (; m < n; m++)
        top = s[m] > top ? s[m] : top;
    for (int j = 0; j < LANES; j++)
        top = lane[j] > top ? lane[j] : top;
    return top;
}

/* The encode (field._encode and field._offsets), the casts to float32 and
   fit_scores; then each row of s less its maximum. */
void fit_forward(const struct fit *f)
{
    const long nq = f->nq, nm = f->nm;
    const double *w1 = f->weight[0], *b1 = f->weight[1], *w2 = f->weight[2];
    const double *b2 = f->weight[3], *wq = f->weight[4], *wk = f->weight[5];
    const double inv_sqrt_dk = 1.0 / sqrt((double)DK);
    struct parts p;
    carve(f->work, nq, nm, &p);

    /* A = basis @ W1 + b1, through ga; B and Z go through gb and gz,
       which fit_backward writes later */
    mm(f->basis, 6, 1, w1, p.ga, nm, 6, H);
    for (long m = 0; m < nm; m++)
        for (long j = 0; j < H; j++) {
            const float a = (float)(p.ga[m * H + j] + b1[j]);
            p.a[m * H + j] = a;
            p.at[j * nm + m] = a;
        }
    /* B = (pos @ W1[0:3]) * -1 */
    mm(f->pos, 3, 1, w1, p.gb, nq, 3, H);
    for (long i = 0; i < nq * H; i++)
        p.b[i] = (float)(p.gb[i] * -1.0);
    /* h = relu(q_in @ W1 + b1): the q_in rows [0, 0, 0, normal] reach
       W1's normal rows alone */
    mm(f->nrm, 3, 1, w1 + 3 * H, p.h, nq, 3, H);
    for (long q = 0; q < nq; q++)
        for (long j = 0; j < H; j++) {
            const double pre = p.h[q * H + j] + b1[j];
            p.h[q * H + j] = pre > 0.0 ? pre : 0.0;
        }
    mm(p.h, H, 1, w2, p.enc, nq, H, H);
    for (long q = 0; q < nq; q++)
        for (long j = 0; j < H; j++)
            p.enc[q * H + j] += b2[j];
    mm(p.enc, H, 1, wq, p.qrow, nq, H, DK);
    mm(w2, H, 1, wk, p.fold, H, H, DK);
    for (long i = 0; i < H * DK; i++)
        p.fold[i] *= inv_sqrt_dk;
    transpose(p.fold, p.foldt, H, DK);
    /* Z = qrow @ folded.T */
    mm(p.qrow, DK, 1, p.foldt, p.gz, nq, DK, H);
    for (long i = 0; i < nq * H; i++)
        p.z[i] = (float)p.gz[i];

    fit_scores(p.at, p.b, p.z, f->s, nq, nm);
    for (long q = 0; q < nq; q++) {
        double *restrict s = f->s + q * nm;
        const double top = row_max(s, nm);
        for (long m = 0; m < nm; m++)
            s[m] -= top;
    }
}

/* ROWS doubles, a value of each row of a block: the compiler runs their
   lane-wise arithmetic in vector registers. aligned(8): the scratch is
   aligned to no more. */
typedef double rowv __attribute__((vector_size(ROWS * sizeof(double)), aligned(8)));

/* The row chain (logit_grads of tests/fit_step_reference.py) of the
   n <= ROWS rows from q0, from their exponentiated scores in s: the
   softmax att, raw = att @ v, the clamp of raw to [0, sup], the error
   where the clamp passes it, its logit gradient err @ dv and the softmax
   backward att * (g - sum(g * att)), written over the block's rows of s.
   The block runs transposed, a rowv per key in p's et and gt, so each of
   its sums over the keys runs as ROWS independent chains in one vector,
   where one row at a time would wait on each add; the lanes past n rows
   hold 1 and pass no error. A full block passes the constant ROWS. */
static inline void row_chain(const struct fit *f, const struct parts *p, long q0, long n)
{
    const long nm = f->nm;
    const double *restrict v = f->v, *restrict dv = f->dv;
    double *restrict s = f->s + q0 * nm;
    rowv *restrict et = (rowv *)p->et, *restrict gt = (rowv *)p->gt;
    rowv sum = {0.0}, raw[3] = {{0.0}}, err[3], dot = {0.0};
    for (long m = 0; m < nm; m++) {
        for (long r = 0; r < n; r++)
            et[m][r] = s[r * nm + m];
        for (long r = n; r < ROWS; r++)
            et[m][r] = 1.0;
    }
    for (long m = 0; m < nm; m++)
        sum += et[m];
    for (long m = 0; m < nm; m++) {
        const rowv att = et[m] / sum;
        et[m] = att;
        for (int c = 0; c < 3; c++)
            raw[c] += att * v[m * 3 + c];
    }
    for (int c = 0; c < 3; c++)
        for (long r = 0; r < ROWS; r++) {
            const double up = raw[c][r] > 0.0 ? raw[c][r] : 0.0;
            const double out = up < f->sup[c] ? up : f->sup[c];
            err[c][r] = r < n ? (out - f->target[(q0 + r) * 3 + c]) * (double)(out == raw[c][r])
                              : 0.0;
        }
    for (long m = 0; m < nm; m++) {
        const rowv ge = ((0.0 + err[0] * dv[m]) + err[1] * dv[nm + m]) + err[2] * dv[2 * nm + m];
        gt[m] = ge;
        dot += ge * et[m];
    }
    for (long m = 0; m < nm; m++) {
        const rowv gm = (gt[m] - dot) * et[m];
        for (long r = 0; r < n; r++)
            s[r * nm + m] = gm[r];
    }
}

/* The row chain in blocks of ROWS rows, fit_grads, and the float64 weight
   chain (fit_gradients of tests/fit_step_reference.py) into grad. */
void fit_backward(const struct fit *f)
{
    const long nq = f->nq, nm = f->nm;
    const double *w2 = f->weight[2], *wq = f->weight[4], *wk = f->weight[5];
    double *g_w1 = f->grad[0], *g_b1 = f->grad[1], *g_w2 = f->grad[2];
    double *g_b2 = f->grad[3], *g_wq = f->grad[4], *g_wk = f->grad[5];
    const double inv_sqrt_dk = 1.0 / sqrt((double)DK);
    struct parts p;
    carve(f->work, nq, nm, &p);

    long q0 = 0;
    for (; q0 + ROWS <= nq; q0 += ROWS)
        row_chain(f, &p, q0, ROWS);
    if (q0 < nq)
        row_chain(f, &p, q0, nq - q0);
    fit_grads(p.a, p.b, p.z, f->s, p.ga32, p.ga, p.gb, p.gz, nq, nm);

    /* Z = qrow @ folded.T, folded = (W2 @ WK) / sqrt(dk), qrow = enc @ WQ,
       enc = relu(q_in @ W1 + b1) @ W2 + b2 */
    transpose(wq, p.wqt, H, DK);
    transpose(w2, p.w2t, H, H);
    transpose(wk, p.wkt, H, DK);
    mm(p.gz, H, 1, p.fold, p.gq, nq, H, DK);                  /* g_qrow = gZ @ folded */
    mm(p.gz, 1, H, p.qrow, p.gf, H, nq, DK);                  /* g_fold = gZ.T @ qrow / sqrt(dk) */
    for (long i = 0; i < H * DK; i++)
        p.gf[i] *= inv_sqrt_dk;
    mm(p.gq, DK, 1, p.wqt, p.ge, nq, DK, H);                  /* g_enc = g_qrow @ WQ.T */
    mm(p.ge, H, 1, p.w2t, p.gp, nq, H, H);                    /* g_pre = g_enc @ W2.T * live */
    for (long i = 0; i < nq * H; i++)
        p.gp[i] *= (double)(p.h[i] > 0.0);

    /* g_W1 = basis.T @ gA, plus on the normal rows q_in.T @ g_pre; B =
       -pos @ W1[:3] takes pos.T @ gB from the position rows */
    mm(f->basis, 1, 6, p.ga, g_w1, 6, nm, H);
    mm(f->pos, 1, 3, p.gb, p.tmp, 3, nq, H);
    mm(f->nrm, 1, 3, p.gp, p.tmp + 3 * H, 3, nq, H);
    for (long i = 0; i < 3 * H; i++) {
        g_w1[i] -= p.tmp[i];
        g_w1[3 * H + i] += p.tmp[3 * H + i];
    }
    column_sums(p.ga, g_b1, nm, H);                            /* g_b1 = sum gA + sum g_pre */
    column_sums(p.gp, p.tmp, nq, H);
    for (long j = 0; j < H; j++)
        g_b1[j] += p.tmp[j];
    mm(p.h, 1, H, p.ge, g_w2, H, nq, H);                      /* g_W2 = h.T @ g_enc */
    mm(p.gf, DK, 1, p.wkt, p.tmp, H, DK, H);                   /*        + g_fold @ WK.T */
    for (long i = 0; i < H * H; i++)
        g_w2[i] += p.tmp[i];
    column_sums(p.ge, g_b2, nq, H);                            /* g_b2 = sum g_enc */
    mm(p.enc, 1, H, p.gq, g_wq, H, nq, DK);                   /* g_WQ = enc.T @ g_qrow */
    mm(w2, 1, H, p.gf, g_wk, H, H, DK);                       /* g_WK = W2.T @ g_fold */
}

/* The float64 attention scores of the field's queries and placement loss,
   and their gradient with respect to b. The scores sum over the channels in
   order; the b gradient over the keys in order. */
SCORES(attend_scores, double)

/* gb[q, h] = (sum_m g[q, m] * on[q, m, h]) * z[q, h], on the relu mask of
   a[m, h] + b[q, h], applied as a product with 0/1 so the loops have no
   branches; the H sums of a query stay in registers across its keys. */
void attend_b_grad(const double *restrict a, const double *restrict b,
                   const double *restrict z, const double *restrict g,
                   double *restrict gb, long nq, long nm)
{
    for (long q = 0; q < nq; q++) {
        const double *restrict bq = b + q * H;
        double acc[H] = {0.0};
        for (long m = 0; m < nm; m++) {
            const double gqm = g[q * nm + m];
            const double *restrict am = a + m * H;
            for (long h = 0; h < H; h++) {
                const double on = am[h] + bq[h] > 0.0;
                acc[h] += gqm * on;
            }
        }
        for (long h = 0; h < H; h++)
            gb[q * H + h] = acc[h] * z[q * H + h];
    }
}

/* The occupied-cell box: its 0/1 cells in C order, their strides and the
   top cell along each axis. */
struct box {
    const unsigned char *occupied;
    double top[3];
    int64_t stride[3];
};

/* A cell coordinate clipped into the box: max(v, 0), then min(., top). */
static double clip(double v, double top)
{
    return v > 0.0 ? (v < top ? v : top) : 0.0;
}

/* The hit test, the one place a visited cell is judged: it blocks the ray
   when it is occupied and is not the target's own cell. */
static int hits(const struct box *box, int64_t cell, int64_t own)
{
    return box->occupied[cell] && cell != own;
}

/* Whether the ray start + t * ray, t in [t_in, t_out], passes through a
   blocking cell: the entry cell, then along each moving axis in turn the
   cell each plane crossing enters, and for a crossing that also lies on a
   plane of a moving other axis the cell below that plane too. Each step is
   the numpy traversal's expression (tests/traversal_reference.py). */
static int ray_blocked(const struct box *box, const double *start,
                       const double *ray, double t_in, double t_out, int64_t own)
{
    double first[3], last[3];
    for (int a = 0; a < 3; a++) {
        first[a] = clip(floor(start[a] + t_in * ray[a]), box->top[a]);
        last[a] = clip(floor(start[a] + t_out * ray[a]), box->top[a]);
    }
    int64_t cell = 0;
    for (int a = 0; a < 3; a++)
        cell += (int64_t)first[a] * box->stride[a];
    if (hits(box, cell, own))
        return 1;
    for (int a = 0; a < 3; a++) {
        if (ray[a] == 0.0)
            continue;
        const double step = ray[a] > 0.0 ? 1.0 : -1.0;
        const int64_t count = (int64_t)((last[a] - first[a]) * step);
        const int b = a == 2 ? 0 : a + 1, c = a == 0 ? 2 : a - 1;
        for (int64_t k = 1; k <= count; k++) {
            const double entered = first[a] + (double)k * step;
            const double plane = entered + (step < 0.0 ? 1.0 : 0.0);
            const double t = (plane - start[a]) / ray[a];
            const double pb = t * ray[b] + start[b], pc = t * ray[c] + start[c];
            const double fb = floor(pb), fc = floor(pc);
            const int64_t base = (int64_t)entered * box->stride[a];
            const int64_t upper = base + (int64_t)clip(fb, box->top[b]) * box->stride[b]
                                  + (int64_t)clip(fc, box->top[c]) * box->stride[c];
            if (hits(box, upper, own))
                return 1;
            const int on_b = pb == fb && ray[b] != 0.0, on_c = pc == fc && ray[c] != 0.0;
            if (on_b || on_c) {
                const int64_t lower = base + (int64_t)clip(fb - on_b, box->top[b]) * box->stride[b]
                                      + (int64_t)clip(fc - on_c, box->top[c]) * box->stride[c];
                if (lower != upper && hits(box, lower, own))
                    return 1;
            }
        }
    }
    return 0;
}

/* blocked[i] = 1 where the segment from the eye to the center of voxel
   rows[i] passes through an occupied cell other than that voxel's own. Each
   ray is clipped to the box by the slab test first. Returns 0, or i + 1 for
   the first row i outside [0, m), where it stops. */
long cell_blocked(const unsigned char *occupied, const int64_t *lo, const int64_t *shape,
                  const double *origin, double res, const double *centers,
                  const int64_t *keys, long m, double ex, double ey, double ez,
                  const int64_t *rows, long n, unsigned char *blocked)
{
    struct box box = {occupied, {0.0}, {shape[1] * shape[2], shape[2], 1}};
    const double eye[3] = {ex, ey, ez};
    double start[3], ext[3];
    int inside[3];
    for (int a = 0; a < 3; a++) {
        start[a] = (eye[a] - origin[a]) / res - (double)lo[a];
        ext[a] = (double)shape[a];
        box.top[a] = ext[a] - 1.0;
        const double cell = floor(start[a]);
        inside[a] = cell >= 0.0 && cell < ext[a];
    }
    for (long i = 0; i < n; i++) {
        const int64_t row = rows[i];
        if (row < 0 || row >= m)
            return i + 1;
        double ray[3], t_in = -INFINITY, t_out = INFINITY;
        int enters = 1;
        for (int a = 0; a < 3; a++) {
            ray[a] = (centers[3 * row + a] - eye[a]) / res;
            if (ray[a] != 0.0) {
                const double t_lo = -start[a] / ray[a], t_hi = (ext[a] - start[a]) / ray[a];
                const double near = t_lo < t_hi ? t_lo : t_hi, far = t_lo < t_hi ? t_hi : t_lo;
                t_in = near > t_in ? near : t_in;
                t_out = far < t_out ? far : t_out;
            } else {
                enters &= inside[a];
            }
        }
        t_in = t_in > 0.0 ? t_in : 0.0;
        t_out = t_out < 1.0 ? t_out : 1.0;
        const int64_t *key = keys + 3 * row;
        const int64_t own = (key[0] - lo[0]) * box.stride[0] + (key[1] - lo[1]) * box.stride[1]
                            + (key[2] - lo[2]) * box.stride[2];
        blocked[i] = enters && t_in < t_out && ray_blocked(&box, start, ray, t_in, t_out, own);
    }
    return 0;
}
