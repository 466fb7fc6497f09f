/* Native kernels of the surrogate's train step: the Adam update and one
 * batch's forward and backward pass.
 *
 * Both give the same bits as their numpy references (dado.adam.adam_numpy and
 * dado.surrogate._loss_and_grads) when built without FMA contraction and
 * without fast-math: each element goes through the same IEEE double
 * operations in the same order, and every matrix product and single-column
 * sum runs numpy's own float64 loop with the arguments numpy would give it.
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

/* numpy's float64 inner loops of np.matmul and np.add, set by dado_set_loops.
 * numpy calls both with NULL data, and so does this file. */
typedef void (*loop_fn)(char **args, const int64_t *dimensions, const int64_t *steps,
                        void *data);
static loop_fn matmul_loop, add_loop;

void dado_set_loops(loop_fn matmul, loop_fn add)
{
    matmul_loop = matmul;
    add_loop = add;
}

/* c = a @ b for an m x n a and an n x p b, strides in elements, as np.matmul
 * runs a 2-D product: one call of its loop, with the strides in bytes. */
static void matmul(int64_t m, int64_t n, int64_t p,
                   const double *a, int64_t a_m, int64_t a_n,
                   const double *b, int64_t b_n, int64_t b_p,
                   double *c, int64_t c_m, int64_t c_p)
{
    const int64_t s = sizeof(double);
    char *args[] = {(char *)a, (char *)b, (char *)c};
    const int64_t dimensions[] = {1, m, n, p};
    const int64_t steps[] = {0, 0, 0, a_m * s, a_n * s, b_n * s, b_p * s, c_m * s, c_p * s};
    matmul_loop(args, dimensions, steps, NULL);
}

/* np.add.reduce(g, axis=0) of a C-contiguous rows x width g, from 0: a single
 * column through numpy's add loop in reduce form, wider ones row by row. */
static void column_sums(const double *g, int64_t rows, int64_t width, double *out)
{
    for (int64_t j = 0; j < width; ++j)
        out[j] = 0.0;
    if (width == 1) {
        char *args[] = {(char *)out, (char *)g, (char *)out};
        const int64_t steps[] = {0, sizeof(double), 0};
        add_loop(args, &rows, steps, NULL);
        return;
    }
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
