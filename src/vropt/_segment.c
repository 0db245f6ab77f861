/* Segments of vropt.optim.run: the passes between two events (inner
   steps, and the snapshots at the current iterate), with the arithmetic
   of the Python estimators and of the model's full gradient operation for
   operation.

   Bit identity with the Python path rests on three things.  Every dot
   product goes through the ddot numpy's own `a @ b` calls (vr_set_ddot),
   as 0.0 + ddot, which is what numpy returns.  exp is libm's, as for
   math.exp.  And the file is compiled with -ffp-contract=off, so no
   multiply-add is fused.  Draws are exact integer arithmetic (SplitMix64
   and the rejection of Rng.below). */

#include <math.h>
#include <stdint.h>

#include "_segment.h"

typedef double (*ddot64_t)(int64_t, const double *, int64_t,
                           const double *, int64_t);
typedef double (*ddot32_t)(int32_t, const double *, int32_t,
                           const double *, int32_t);
static void *ddot_fn;
static int ddot_int64;

void vr_set_ddot(void *fn, int int64_args)
{
    ddot_fn = fn;
    ddot_int64 = int64_args;
}

double vr_dot(int64_t n, const double *a, const double *b)
{
    if (ddot_int64)
        return 0.0 + ((ddot64_t)ddot_fn)(n, a, 1, b, 1);
    return 0.0 + ((ddot32_t)ddot_fn)((int32_t)n, a, 1, b, 1);
}

/* ---- sampling.Rng: output k is mix64(start + k gamma) ---- */

static uint64_t next_u64(uint64_t *r)
{
    uint64_t z = r[0] + ++r[2] * r[1];
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static int64_t below(uint64_t *r, int64_t n)
{
    uint64_t un = (uint64_t)n, rem, x;
    if (n == 1) {
        r[2]++;
        return 0;
    }
    rem = (0 - un) % un;                /* 2^64 mod n; 0: nothing rejected */
    do
        x = next_u64(r);
    while (rem && x >= 0 - rem);
    return (int64_t)(x % un);
}

/* draw_uniform_index, or ImportanceTable.draw when there is a table */
static int64_t draw_index(vr_seg *s)
{
    int64_t k = below(s->idx_rng, s->n);
    double q;
    if (!s->accept || (q = s->accept[k]) >= 1.0)
        return k;
    return (double)(next_u64(s->idx_rng) >> 11) * (1.0 / 9007199254740992.0)
        < q ? k : s->alias[k];
}

void vr_below_block(uint64_t *rng, int64_t n, int64_t size, int64_t *out)
{
    for (int64_t k = 0; k < size; k++)
        out[k] = below(rng, n);
}

void vr_table_block(vr_seg *s, int64_t size, int64_t *out)
{
    for (int64_t k = 0; k < size; k++)
        out[k] = draw_index(s);
}

/* ---- model._MarginModel.component_gradient ---- */

/* -b sigma(-b <a_i, x>), with x gathered on row i's support into xs */
static double coef(const vr_seg *s, int64_t i, int64_t nnz,
                   const double *val, const double *xs)
{
    double b = s->labels[i], z = b * vr_dot(nnz, val, xs), sig;
    if (z >= 0.0) {
        double e = exp(-z);
        sig = e / (1.0 + e);
    } else {
        sig = 1.0 / (1.0 + exp(z));
    }
    return -b * sig;
}

/* the regularizer's gradient at one coordinate x_j, as the model's
   _reg_gradient computes it */
static double reg_grad(const vr_seg *s, double x)
{
    double den;
    if (s->reg == 0)
        return s->reg_c * x;
    den = 1.0 + x * x;
    return s->reg_c * (2.0 * x) / (den * den);
}

/* g = grad f_i(x) */
static void dense_grad(const vr_seg *s, int64_t i, const double *x,
                       double *g, double *xs)
{
    const vr_csr *a = s->a;
    int64_t lo = a->indptr[i], nnz = a->indptr[i + 1] - lo, d = a->d, j, k;
    const int64_t *idx = a->indices + lo;
    const double *val = a->values + lo;
    for (k = 0; k < nnz; k++)
        xs[k] = x[idx[k]];
    double c = coef(s, i, nnz, val, xs);
    for (j = 0; j < d; j++)
        g[j] = reg_grad(s, x[j]);
    for (k = 0; k < nnz; k++)
        g[idx[k]] += c * val[k];
}

/* g = grad F(x), as model._MarginModel.full_gradient: the data term of
   _oracle.c plus the regularizer's, or for n = 1 the one component */
static void full_grad(const vr_seg *s, const double *x, double *g)
{
    int64_t d = s->a->d, j;
    if (s->n == 1) {
        dense_grad(s, 0, x, g, s->work + 2 * d);
        return;
    }
    vr_data_grad(s->a, s->labels, 1, x, s->work, g);
    for (j = 0; j < d; j++)
        g[j] += reg_grad(s, x[j]);
}

/* ---- optim._Dense steps: kind 0 plain, 1 anchored, 2 recursive ---- */

static void dense_step(vr_seg *s, int64_t i)
{
    int64_t d = s->a->d, j;
    double *g1 = s->work, *g0 = g1 + d, *xs = g0 + d, eta = s->eta;
    double *cur = s->cur, *prev = s->prev, *v = s->v;
    dense_grad(s, i, cur, g1, xs);
    if (s->kind == 0) {
        for (j = 0; j < d; j++)
            cur[j] = cur[j] - eta * g1[j];
        return;
    }
    dense_grad(s, i, prev, g0, xs);
    if (s->kind == 1) {
        for (j = 0; j < d; j++)
            cur[j] = cur[j] - eta * ((g1[j] - g0[j]) + v[j]);
        return;
    }
    for (j = 0; j < d; j++) {
        double diff = g1[j] - g0[j];
        v[j] = s->weights ? diff / s->weights[i] + v[j] : diff + v[j];
        prev[j] = cur[j];
        cur[j] = cur[j] - eta * v[j];
    }
}

/* ---- the logs and the snapshot pass ---- */

static int full(const vr_log *l)
{
    return l->buf && l->size == l->cap;
}

static void put_index(vr_log *l, int64_t k)
{
    if (l->buf)
        ((int64_t *)l->buf)[l->size++] = k;
}

static void put_coin(vr_log *l, uint8_t b)
{
    if (l->buf)
        ((uint8_t *)l->buf)[l->size++] = b;
}

static void put_row(vr_log *l, int64_t d, const double *x)
{
    if (l->buf) {
        double *row = (double *)l->buf + l->size++ * d;
        for (int64_t j = 0; j < d; j++)
            row[j] = x[j];
    }
}

/* 0 when the kernel may take the due snapshot at cur, else the event that
   hands it to Python: a snapshot elsewhere than cur, a full snapshot log,
   or, where the snapshot steps (all but the anchored estimator), a trace
   threshold or the IFO budget that its n IFOs reach */
static int snapshot_event(const vr_seg *s)
{
    int64_t next = s->count + s->n;
    if (!s->snap_in)
        return VR_SNAPSHOT;
    if (full(&s->snap_log) || full(&s->snap_v_log) || full(&s->snap_x_log))
        return VR_FULL;
    if (s->kind != 1 && s->rec_next >= 0 && next >= s->rec_next)
        return VR_RECORD;
    if (s->kind != 1 && s->ifo_cap >= 0 && next >= s->ifo_cap)
        return VR_BUDGET;
    return 0;
}

/* the snapshot at x = cur, as optim.run's: v = grad F(x) for n IFOs, the
   logs, the stop test; then prev = x and, but for the anchored estimator,
   cur = x - eta v.  1 when ||v||^2 met stop_sq (nothing moved) */
static int snapshot(vr_seg *s)
{
    int64_t d = s->a->d, j;
    double *x = s->cur, *v = s->v;
    full_grad(s, x, v);
    s->count += s->n;
    put_index(&s->snap_log, s->updates);
    put_row(&s->snap_v_log, d, v);
    put_row(&s->snap_x_log, d, x);
    if (vr_dot(d, v, v) <= s->stop_sq)
        return 1;
    s->inner = 0;
    for (j = 0; j < d; j++) {
        s->prev[j] = x[j];
        if (s->kind != 1)
            x[j] = x[j] - s->eta * v[j];
    }
    return 0;
}

/* ---- the loop of optim.run over passes ---- */

int vr_segment(vr_seg *s)
{
    int64_t cost = s->kind == 0 ? 1 : 2, d = s->a->d, i;
    for (;;) {
        int64_t next = s->count + cost;
        uint64_t sctr = s->snap_rng[2];
        int due, why;
        double nx;
        if (s->updates == s->u_cap)
            return VR_HORIZON;
        if (s->rec_next >= 0 && next >= s->rec_next)
            return VR_RECORD;
        if (s->ifo_cap >= 0 && next >= s->ifo_cap)
            return VR_BUDGET;
        if (s->updates + 1 == s->a_at)
            return VR_KEEP;
        if (s->pass_k >= 0 && s->count / s->n != s->pass_k)
            return VR_ETA;
        if (full(&s->idx_log) || full(&s->it_log) || full(&s->coin_log))
            return VR_FULL;
        due = s->coin_m ? below(s->snap_rng, s->coin_m) == 0
                        : s->inner == s->period;
        if (due && (why = snapshot_event(s))) {
            s->snap_rng[2] = sctr;      /* Python draws the coin again */
            return why;
        }
        if (s->coin_m)
            put_coin(&s->coin_log, (uint8_t)due);
        if (due) {
            if (snapshot(s))
                return VR_TARGET;
            if (s->kind == 1)
                continue;               /* the anchor moved; x did not */
        } else {
            i = draw_index(s);
            put_index(&s->idx_log, i);
            dense_step(s, i);
            s->count = next;
            s->inner++;
        }
        s->updates++;
        nx = vr_dot(d, s->cur, s->cur);
        if (!isfinite(nx) || nx > s->diverge_sq)
            return VR_DIVERGED;
        put_row(&s->it_log, d, s->cur);
    }
}
