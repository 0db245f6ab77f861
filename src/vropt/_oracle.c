/* vropt.model's full and bulk oracles on A's CSR rows, with the arithmetic
   of the scipy code they replace (the model's fallback and reference), so
   that every oracle gives the same bits on both paths: A x for the
   objective (vr_csr_dot), expit for the component batch (vr_expit) and the
   gradients' data term A^T c in one call (vr_data_grad).

   A x: scipy's csr_matvec sums row i term by term, in the row's order,
   starting from 0.0; so do vr_csr_dot and vr_data_grad.
   A^T c: scipy multiplies by a transposed copy of A, whose row j holds
   column j's entries in the order of A's rows.  Scattering A's rows in
   order into a zeroed output gives every column the same additions in the
   same order, so no transposed copy is needed.
   With k iterates at once (X and G of shape (d, k), row-major; scipy's
   csr_matvecs and the transposed copy's product with a matrix) the
   innermost loop runs across the k iterates, never across a sum, so
   vectorising it changes no rounding.
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

void vr_csr_dot(const vr_csr *a, const double *restrict x,
                double *restrict y)
{
    const int64_t *ptr = a->indptr, *col = a->indices;
    const double *val = a->values;
    for (int64_t i = 0; i < a->n; i++) {
        double sum = 0.0;
        for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
            sum += val[p] * x[col[p]];
        y[i] = sum;
    }
}

void vr_expit(int64_t size, const double *t, double *out)
{
    for (int64_t j = 0; j < size; j++)
        out[j] = 1.0 / (1.0 + exp(-t[j]));
}

/* ((-b) expit(-z)) / n for the margin z = b s of a row whose sum is s */
static double coef(double b, double s, double n)
{
    const double t = -(b * s);
    return (-b * (1.0 / (1.0 + exp(-t)))) / n;
}

/* G = A^T C with C = ((-b) expit(-Z)) / n and Z = b (A X), the data term of
   the logistic gradient at each of X's k columns (X and G: d by k,
   row-major), with the operations and order of the composition it
   replaces (and vropt.model's scipy fallback keeps): scipy's A X, numpy's
   b Z, -Z, expit, -b e and / n, then the transposed copy's product.  Row
   i's k sums become its k coefficients in work (k doubles), which are
   scattered into G before row i + 1 is read.  The rows are taken in order,
   so every sum of A X and of A^T C has the same additions in the same
   order as in scipy, and no n by k array of margins is ever held.  k = 1
   keeps its own plain loop: the general loop gives the same bits, but
   adds each row's sum up in the work buffer.  On
   the rcv1-shaped sarah-sparse benchmark (traced, 4 alternating pairs,
   2-vCPU VM) full_gradient took 4.6-5.0 ms with this loop against
   9.3-12.2 ms without it. */
void vr_data_grad(const vr_csr *a, const double *b, int64_t k,
                  const double *restrict x, double *restrict work,
                  double *restrict g)
{
    const int64_t *ptr = a->indptr, *col = a->indices;
    const double *val = a->values;
    const double n = (double)a->n;
    memset(g, 0, (size_t)(a->d * k) * sizeof(double));
    if (k == 1) {
        for (int64_t i = 0; i < a->n; i++) {
            double sum = 0.0;
            for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
                sum += val[p] * x[col[p]];
            const double c = coef(b[i], sum, n);
            for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
                g[col[p]] += val[p] * c;
        }
        return;
    }
    for (int64_t i = 0; i < a->n; i++) {
        memset(work, 0, (size_t)k * sizeof(double));
        for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
            axpy(k, val[p], x + col[p] * k, work);
        for (int64_t j = 0; j < k; j++)
            work[j] = coef(b[i], work[j], n);
        for (int64_t p = ptr[i]; p < ptr[i + 1]; p++)
            axpy(k, val[p], work, g + col[p] * k);
    }
}
