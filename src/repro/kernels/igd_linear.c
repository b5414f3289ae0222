/*
 * Sequential exact-IGD kernels for the linear tasks (logistic regression,
 * SVM, squared error), over dense or CSR rows with float64 or float32
 * features.
 *
 * Each kernel is a transcription of the Python row loop in
 * repro/tasks/{logistic_regression,svm,least_squares}.py that performs the
 * same IEEE-754 operations in the same order, so the trained model is
 * bit-for-bit the one the Python loop produces:
 *
 *   - w . x is numpy's own dot: the BLAS ddot numpy calls (installed at load
 *     time through repro_set_ddot), added to 0.0 exactly as numpy's
 *     DOUBLE_dot does; a length-1 dot is numpy's scalar product instead.
 *   - exp is libm's, the function math.exp calls.
 *   - the library is built with -ffp-contract=off, so no multiply-add is
 *     fused.
 *   - float32 features are widened to float64 before any arithmetic, as
 *     numpy does when it mixes them with the float64 model.
 *
 * The caller (repro/kernels/__init__.py) validates every size, dtype, stride
 * and CSR index before it passes a pointer here.
 */

#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { LOSS_LOGISTIC = 0, LOSS_HINGE = 1, LOSS_SQUARED = 2 };

typedef double (*ddot64_fn)(int64_t, const double *, int64_t, const double *, int64_t);
typedef double (*ddot32_fn)(int32_t, const double *, int32_t, const double *, int32_t);

static void *ddot_ptr = NULL;
static int ddot_ilp64 = 0;

/* Install the BLAS ddot numpy calls; ilp64 selects 64-bit BLAS integers. */
int repro_set_ddot(void *fn, int ilp64)
{
    ddot_ptr = fn;
    ddot_ilp64 = ilp64;
    return fn != NULL;
}

/* numpy hands BLAS at most this many elements per ddot call. */
#define NPY_CBLAS_CHUNK (INT_MAX / 2 + 1)

/* np.dot of two contiguous float64 vectors of length n >= 1. */
static double np_dot(int64_t n, const double *a, const double *b)
{
    if (n == 1) {
        return a[0] * b[0];
    }
    double sum = 0.0;
    while (n > 0) {
        int64_t chunk = n < NPY_CBLAS_CHUNK ? n : NPY_CBLAS_CHUNK;
        if (ddot_ilp64) {
            sum += ((ddot64_fn)ddot_ptr)(chunk, a, 1, b, 1);
        } else {
            sum += ((ddot32_fn)ddot_ptr)((int32_t)chunk, a, 1, b, 1);
        }
        a += chunk;
        b += chunk;
        n -= chunk;
    }
    return sum;
}

/* repro.tasks.logistic_regression.sigmoid */
static double sigmoid(double value)
{
    if (value >= 0) {
        return 1.0 / (1.0 + exp(-value));
    }
    double exp_value = exp(value);
    return exp_value / (1.0 + exp_value);
}

/*
 * The scale of the row added to w after a step on a row with decision value
 * wx; returns 0 when the step adds nothing (an SVM row outside the margin).
 */
static int step_scale(int loss, double wx, double label, double alpha, double *scale)
{
    switch (loss) {
    case LOSS_LOGISTIC:
        *scale = alpha * label * sigmoid(-wx * label);
        return 1;
    case LOSS_HINGE:
        if (1.0 - wx * label > 0.0) {
            *scale = alpha * label;
            return 1;
        }
        return 0;
    default: /* LOSS_SQUARED */
        *scale = -(alpha * (wx - label));
        return 1;
    }
}

/* L1Proximal.apply_to_array: np.sign(w) * np.maximum(np.abs(w) - t, 0.0). */
static void l1_proximal(double *w, int64_t d, double threshold)
{
    for (int64_t j = 0; j < d; j++) {
        double a = w[j];
        double sign = a > 0 ? 1.0 : (a < 0 ? -1.0 : (a == 0 ? 0.0 : a));
        double shrunk = fabs(a) - threshold;
        if (shrunk < 0.0) { /* np.maximum keeps a NaN */
            shrunk = 0.0;
        }
        w[j] = sign * shrunk;
    }
}

/*
 * Dense rows: X is n x d, row-major, float64 (x_f32 == 0) or float32.
 * Returns 0, or -1 when the float32 row buffer cannot be allocated, in which
 * case w is untouched.
 */
int repro_igd_dense(int loss, int64_t n, int64_t d, const void *X, int x_f32,
                    const double *y, const double *alphas, double *w,
                    int l1, double mu)
{
    double *row = NULL;
    if (x_f32 && n > 0) {
        row = malloc((size_t)d * sizeof(double));
        if (row == NULL) {
            return -1;
        }
    }
    for (int64_t i = 0; i < n; i++) {
        const double *x;
        if (x_f32) {
            const float *xf = (const float *)X + i * d;
            for (int64_t j = 0; j < d; j++) {
                row[j] = (double)xf[j];
            }
            x = row;
        } else {
            x = (const double *)X + i * d;
        }
        double scale;
        if (step_scale(loss, np_dot(d, w, x), y[i], alphas[i], &scale)) {
            for (int64_t j = 0; j < d; j++) {
                w[j] = w[j] + scale * x[j];
            }
        }
        if (l1) {
            l1_proximal(w, d, alphas[i] * mu);
        }
    }
    free(row);
    return 0;
}

/*
 * CSR rows: row i holds indices/data[indptr[i] .. indptr[i+1]), data float64
 * (data_f32 == 0) or float32.  Like numpy's w[idx] += s * x, the update
 * adds to the values gathered before the row's first write, so a repeated
 * index keeps its last write.  Returns 0, or -1 (w untouched) when the row
 * buffers cannot be allocated.
 */
int repro_igd_csr(int loss, int64_t n, int64_t d, const int64_t *indptr,
                  const int64_t *indices, const void *data, int data_f32,
                  const double *y, const double *alphas, double *w,
                  int l1, double mu)
{
    int64_t widest = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t count = indptr[i + 1] - indptr[i];
        widest = count > widest ? count : widest;
    }
    double *gathered = NULL, *row = NULL;
    if (widest > 0) {
        gathered = malloc((size_t)widest * sizeof(double));
        row = malloc((size_t)widest * sizeof(double));
        if (gathered == NULL || row == NULL) {
            free(gathered);
            free(row);
            return -1;
        }
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t lo = indptr[i], count = indptr[i + 1] - lo;
        const int64_t *idx = indices + lo;
        const double *x;
        if (data_f32) {
            const float *xf = (const float *)data + lo;
            for (int64_t k = 0; k < count; k++) {
                row[k] = (double)xf[k];
            }
            x = row;
        } else {
            x = (const double *)data + lo;
        }
        for (int64_t k = 0; k < count; k++) {
            gathered[k] = w[idx[k]];
        }
        double wx = count > 0 ? np_dot(count, gathered, x) : 0.0;
        double scale;
        if (step_scale(loss, wx, y[i], alphas[i], &scale)) {
            for (int64_t k = 0; k < count; k++) {
                w[idx[k]] = gathered[k] + scale * x[k];
            }
        }
        if (l1) {
            l1_proximal(w, d, alphas[i] * mu);
        }
    }
    free(gathered);
    free(row);
    return 0;
}
