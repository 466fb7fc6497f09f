/* Native kernels of the surrogate's train step: the Adam update and one
 * batch's forward and backward pass.
 *
 * Both give the same bits as their numpy references (dado.adam.adam_numpy and
 * dado.surrogate._loss_and_grads) when built without FMA contraction and
 * without fast-math: each element goes through the same IEEE double
 * operations in the same order, and every matrix product is handed to the
 * very OpenBLAS routine numpy's matmul would pick for it, with the same
 * arguments.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* One Adam step over a flat parameter vector, in place:
 *
 *   m     = m * beta1 + grad * (1 - beta1)
 *   v     = v * beta2 + (grad * grad) * (1 - beta2)
 *   theta = theta - m / (sqrt(v * inv_bc2) + eps) * step_size
 *
 * The scalars are computed by the caller.
 */
void dado_adam_step(double *restrict theta, const double *restrict grad,
                    double *restrict m, double *restrict v, size_t n,
                    double beta1, double one_minus_beta1,
                    double beta2, double one_minus_beta2,
                    double eps, double inv_bc2, double step_size)
{
    for (size_t i = 0; i < n; ++i) {
        const double g = grad[i];
        const double mi = m[i] * beta1 + g * one_minus_beta1;
        const double vi = v[i] * beta2 + (g * g) * one_minus_beta2;
        m[i] = mi;
        v[i] = vi;
        theta[i] -= mi / (sqrt(vi * inv_bc2) + eps) * step_size;
    }
}

/* numpy's OpenBLAS (64-bit integers, `scipy_` prefix), set by dado_set_blas. */
enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };
typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double,
                         const double *, int64_t, const double *, int64_t,
                         double, double *, int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *,
                         int64_t, const double *, int64_t, double, double *,
                         int64_t);
typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *,
                          int64_t);
static dgemm_fn dgemm;
static dgemv_fn dgemv;
static ddot_fn ddot;

void dado_set_blas(void *gemm, void *gemv, void *dot)
{
    dgemm = (dgemm_fn)gemm;
    dgemv = (dgemv_fn)gemv;
    ddot = (ddot_fn)dot;
}

/* numpy's is_blasable2d(s1, s2, d1, d2), with strides counted in elements;
 * it does not read d1. */
static int blasable(int64_t s1, int64_t s2, int64_t d2)
{
    return s2 == 1 && s1 >= d2;
}

/* numpy's gemv: y = A x for an m x n A with strides (s_m, s_n). */
static void gemv(const double *a, int64_t s_m, int64_t s_n, const double *x,
                 int64_t incx, double *y, int64_t incy, int64_t m, int64_t n)
{
    if (blasable(s_m, s_n, n))
        dgemv(COL_MAJOR, TRANS, n, m, 1.0, a, s_m, x, incx, 0.0, y, incy);
    else
        dgemv(ROW_MAJOR, TRANS, n, m, 1.0, a, s_n, x, incx, 0.0, y, incy);
}

/* c = a @ b for an m x n a and an n x p b, strides in elements, dispatched as
 * numpy's matmul dispatches a 2-D product of float64 arrays. */
static void matmul(int64_t m, int64_t n, int64_t p,
                   const double *a, int64_t a_m, int64_t a_n,
                   const double *b, int64_t b_n, int64_t b_p,
                   double *c, int64_t c_m, int64_t c_p)
{
    const int a_ok = blasable(a_m, a_n, n) || blasable(a_n, a_m, m);
    const int b_ok = blasable(b_n, b_p, p) || blasable(b_p, b_n, n);
    if (m == 1 && p == 1) {
        double sum = 0.;
        sum += ddot(n, a, a_n, b, b_n);
        *c = sum;
        return;
    }
    if (m == 1 || n == 1 || p == 1) {
        /* An inner dimension of 1 falls through to numpy's own loop. */
        if (n > 1 && m == 1 && b_ok && blasable(a_n, 1, 1)) {
            gemv(b, b_p, b_n, a, a_n, c, c_p, p, n);
            return;
        }
        if (n > 1 && p == 1 && a_ok && blasable(b_n, 1, 1)) {
            gemv(a, a_m, a_n, b, b_n, c, c_m, m, n);
            return;
        }
    } else if (a_ok && b_ok && blasable(c_m, c_p, p)) {
        const int ta = blasable(a_m, a_n, n) ? NO_TRANS : TRANS;
        const int tb = blasable(b_n, b_p, p) ? NO_TRANS : TRANS;
        dgemm(ROW_MAJOR, ta, tb, m, p, n, 1.0, a, ta == NO_TRANS ? a_m : a_n,
              b, tb == NO_TRANS ? b_n : b_p, 0.0, c, c_m);
        return;
    }
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < p; ++j) {
            double *out = c + i * c_m + j * c_p;
            *out = 0;
            for (int64_t k = 0; k < n; ++k)
                *out += a[i * a_m + k * a_n] * b[k * b_n + j * b_p];
        }
}

/* numpy's pairwise summation of n contiguous doubles. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; ++j)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; ++j)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* np.add.reduce(g, axis=0) of a C-contiguous rows x width g: a single column
 * is summed pairwise, wider ones row by row, both starting from 0. */
static void column_sums(const double *g, int64_t rows, int64_t width, double *out)
{
    if (width == 1) {
        out[0] = 0.0;
        out[0] += pairwise_sum(g, rows);
        return;
    }
    for (int64_t j = 0; j < width; ++j)
        out[j] = 0.0;
    for (int64_t i = 0; i < rows; ++i)
        for (int64_t j = 0; j < width; ++j)
            out[j] += g[i * width + j];
}

/* Gradients of the MSE of rows [start, stop) of x against t, written into
 * grad, which is laid out like theta: W0, b0, W1, b1, ... with each W of
 * shape (fan_out, fan_in). dims holds the layers + 1 widths from input to
 * output; masks holds every row's inverted-dropout masks, each batch's
 * rows x dims[1] first, then rows x dims[2] and so on, or is NULL. work holds
 * at least (stop - start) * (2 * (sum of hidden widths) + output width)
 * doubles: each hidden layer's pre-activation z and activation a, then the
 * output. */
void dado_fwd_bwd(const int64_t *dims, int64_t layers, double slope,
                  const double *theta, double *grad, double *work,
                  const double *x, const double *t, const double *masks,
                  int64_t start, int64_t stop)
{
    const int64_t rows = stop - start, out = dims[layers];
    int64_t width = 0;
    for (int64_t k = 1; k < layers; ++k)
        width += dims[k];
    x += start * dims[0];
    t += start * out;
    const double *mask = masks ? masks + start * width : NULL;

    /* Forward: z = h @ W.T; z += b; a = leaky ReLU of z; a *= mask. */
    const double *h = x, *w = theta;
    double *z = work;
    for (int64_t k = 0; k < layers; ++k) {
        const int64_t fan_in = dims[k], fan_out = dims[k + 1];
        const double *b = w + fan_out * fan_in;
        matmul(rows, fan_in, fan_out, h, fan_in, 1, w, 1, fan_in, z, fan_out, 1);
        for (int64_t i = 0; i < rows; ++i)
            for (int64_t j = 0; j < fan_out; ++j)
                z[i * fan_out + j] += b[j];
        w = b + fan_out;
        if (k == layers - 1)
            break;
        double *a = z + rows * fan_out;
        for (int64_t e = 0; e < rows * fan_out; ++e) {
            const double s = slope * z[e];
            a[e] = (z[e] >= s || isnan(z[e])) ? z[e] : s;
        }
        if (mask) {
            for (int64_t e = 0; e < rows * fan_out; ++e)
                a[e] *= mask[e];
            mask += rows * fan_out;
        }
        h = a;
        z = a + rows * fan_out;
    }

    /* Backward, from g = (y - t) * (2 / size) held in the output's place. The
     * gradient that flows into a layer overwrites that layer's input a, once
     * the layer's weight gradient has used it. */
    double *g = z;
    const double scale = 2.0 / (double)(rows * out);
    for (int64_t e = 0; e < rows * out; ++e)
        g[e] = (g[e] - t[e]) * scale;
    for (int64_t k = layers - 1; k >= 0; --k) {
        const int64_t fan_in = dims[k], fan_out = dims[k + 1];
        w -= fan_out * (fan_in + 1);
        double *gw = grad + (w - theta);
        if (k < layers - 1) {
            if (masks) {
                mask -= rows * fan_out;
                for (int64_t e = 0; e < rows * fan_out; ++e)
                    g[e] *= mask[e];
            }
            z -= 2 * rows * fan_out;
            for (int64_t e = 0; e < rows * fan_out; ++e)
                g[e] = z[e] > 0.0 ? g[e] : slope * g[e];
        }
        const double *h_in = k == 0 ? x : z - rows * fan_in;
        matmul(fan_out, rows, fan_in, g, 1, fan_out, h_in, fan_in, 1, gw, fan_in, 1);
        column_sums(g, rows, fan_out, gw + fan_out * fan_in);
        if (k > 0) {
            double *g_in = z - rows * fan_in;
            matmul(rows, fan_out, fan_in, g, fan_out, 1, w, fan_in, 1, g_in, fan_in, 1);
            g = g_in;
        }
    }
}
