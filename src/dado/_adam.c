/* One Adam step over a flat parameter vector, in place.
 *
 * Each element goes through the same IEEE double operations, in the same
 * order, as dado.adam.adam_numpy, so a build without FMA contraction and
 * without fast-math gives the same bits as numpy:
 *
 *   m     = m * beta1 + grad * (1 - beta1)
 *   v     = v * beta2 + (grad * grad) * (1 - beta2)
 *   theta = theta - m / (sqrt(v * inv_bc2) + eps) * step_size
 *
 * The scalars are computed by the caller.
 */

#include <math.h>
#include <stddef.h>

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
