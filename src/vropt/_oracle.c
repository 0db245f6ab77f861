/* The products and the sigmoid of vropt.model's full and bulk oracles, on
   A's CSR rows, with the arithmetic of the scipy code they replace (the
   model's fallback and reference), so that every oracle gives the same
   bits on both paths.

   A X: scipy's csr_matvec and csr_matvecs sum row i term by term, in the
   row's order, starting from 0.0; so does vr_csr_dot.
   A^T C: scipy multiplies by a transposed copy of A, whose row j holds
   column j's entries in the order of A's rows.  Scattering A's rows in
   order into a zeroed output gives every column the same additions in the
   same order, so no transposed copy is needed.
   With k vectors at once (X of shape (d, k), C of shape (n, k), both
   row-major) the innermost loop runs across the k vectors, never across a
   sum, so vectorising it changes no rounding; k = 1 keeps its own plain
   loop.
   expit is 1 / (1 + exp(-t)) with libm's exp, as scipy.special.expit.
   The file is compiled with -ffp-contract=off: no multiply-add is fused. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_segment.h"

#define LANES 4

/* y += v x over k entries, in blocks of LANES, which -O2 vectorises */
static void axpy(int64_t k, double v, const double *restrict x,
                 double *restrict y)
{
    int64_t c = 0;
    for (; c + LANES <= k; c += LANES)
        for (int q = 0; q < LANES; q++)
            y[c + q] += v * x[c + q];
    for (; c < k; c++)
        y[c] += v * x[c];
}

void vr_csr_dot(const vr_csr *a, int64_t k, const double *restrict x,
                double *restrict y)
{
    const int64_t *ptr = a->indptr, *col = a->indices;
    const double *val = a->values;
    if (k == 1) {
        for (int64_t i = 0; i < a->n; i++) {
            double sum = 0.0;
            for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
                sum += val[p] * x[col[p]];
            y[i] = sum;
        }
        return;
    }
    memset(y, 0, (size_t)(a->n * k) * sizeof(double));
    for (int64_t i = 0; i < a->n; i++) {
        double *yi = y + i * k;
        for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
            axpy(k, val[p], x + col[p] * k, yi);
    }
}

void vr_csr_tdot(const vr_csr *a, int64_t k, const double *restrict x,
                 double *restrict y)
{
    const int64_t *ptr = a->indptr, *col = a->indices;
    const double *val = a->values;
    memset(y, 0, (size_t)(a->d * k) * sizeof(double));
    if (k == 1) {
        for (int64_t i = 0; i < a->n; i++) {
            const double xi = x[i];
            for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
                y[col[p]] += val[p] * xi;
        }
        return;
    }
    for (int64_t i = 0; i < a->n; i++) {
        const double *xi = x + i * k;
        for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
            axpy(k, val[p], xi, y + col[p] * k);
    }
}

void vr_expit(int64_t size, const double *t, double *out)
{
    for (int64_t j = 0; j < size; j++)
        out[j] = 1.0 / (1.0 + exp(-t[j]));
}
