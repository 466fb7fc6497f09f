/* Native kernels: the surrogate's train step (the Adam update and one batch's
 * forward and backward pass), the pool CSV writer's float formatter and the
 * pool CSV reader.
 *
 * The train step gives the same bits as its numpy references
 * (dado.native.adam_numpy and dado.surrogate._loss_and_grads) when built without
 * FMA contraction and without fast-math: each element goes through the same
 * IEEE double operations in the same order, and every matrix product and
 * single-column sum runs numpy's own float64 loop with the arguments numpy
 * would give it. The formatter writes each double as Python's repr does; the
 * reader reads the decimals the formatter writes to the double float() gives.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* numpy's float64 inner loops of np.matmul and np.add, set by dado_init.
 * numpy calls both with NULL data, and so does this file. */
typedef void (*loop_fn)(char **args, const int64_t *dimensions, const int64_t *steps,
                        void *data);
static loop_fn matmul_loop, add_loop;

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


/* Ryu's 125-bit multipliers (Ulf Adams, "Ryu: fast float-to-string
 * conversion", PLDI 2018), shared by the formatter and the reader (Ryu's s2d),
 * as (low, high) 64-bit words, set by
 * dado_init: pow5_inv[q] = floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1 and
 * pow5[i] = the top 125 bits of 5^i. */
#define POW5_INV_COUNT 342
#define POW5_COUNT 326
static uint64_t pow5_inv[POW5_INV_COUNT][2], pow5[POW5_COUNT][2];

/* Sets numpy's two loops and copies in Ryu's tables; called once, first of all. */
void dado_init(loop_fn matmul, loop_fn add, const uint64_t *inv, const uint64_t *pos)
{
    matmul_loop = matmul;
    add_loop = add;
    memcpy(pow5_inv, inv, sizeof pow5_inv);
    memcpy(pow5, pos, sizeof pow5);
}

/* bitlen(5^e), which is 1 for e = 0; for 0 <= e <= 3528. */
static int32_t pow5bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2^e)) for 0 <= e <= 1650, floor(log10(5^e)) for 0 <= e <= 2620. */
static uint32_t log10_pow2(int32_t e) { return ((uint32_t)e * 78913) >> 18; }
static uint32_t log10_pow5(int32_t e) { return ((uint32_t)e * 732923) >> 20; }

static int multiple_of_pow5(uint64_t value, uint32_t p)
{
    uint32_t count = 0;
    for (; value % 5 == 0; value /= 5)
        ++count;
    return count >= p;
}

static int multiple_of_pow2(uint64_t value, uint32_t p)
{
    return (value & ((1ull << p) - 1)) == 0;
}

/* (m * mul) >> j for a 125-bit mul; j is at least 64. */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const unsigned __int128 low = (unsigned __int128)m * mul[0];
    const unsigned __int128 high = (unsigned __int128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest decimal digits * 10^*exponent that read back as the finite,
 * non-zero double with these IEEE fields, the closest to it when several are
 * shortest: Ryu's d2d. */
static uint64_t shortest(uint64_t ieee_mantissa, uint32_t ieee_exponent, int32_t *exponent)
{
    /* The value is mv * 2^e2, and the numbers that read back as it run from
     * (mv - 1 - mm_shift) * 2^e2 to (mv + 2) * 2^e2, the ends included when
     * the mantissa is even (reading rounds half to even). mm_shift is 0 at a
     * power of two, where the spacing below halves. */
    const int32_t e2 = (ieee_exponent ? (int32_t)ieee_exponent : 1) - 1023 - 52 - 2;
    const uint64_t m2 = ieee_exponent ? (1ull << 52) | ieee_mantissa : ieee_mantissa;
    const int accept_bounds = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = ieee_mantissa != 0 || ieee_exponent <= 1;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + (int32_t)q + 125 + pow5bits((int32_t)q) - 1;
        e10 = (int32_t)q;
        vr = mul_shift(mv, pow5_inv[q], j);
        vp = mul_shift(mv + 2, pow5_inv[q], j);
        vm = mul_shift(mv - 1 - mm_shift, pow5_inv[q], j);
        if (q <= 21) {
            /* Only one of mv, mv + 2 and mv - 1 - mm_shift can be a multiple of 5. */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - (pow5bits(i) - 125);
        e10 = (int32_t)q + e2;
        vr = mul_shift(mv, pow5[i], j);
        vp = mul_shift(mv + 2, pow5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, pow5[i], j);
        if (q <= 1) {
            /* mv has at least two trailing zero bits, mv + 2 one, and
             * mv - 1 - mm_shift one when mm_shift is 1. */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* Drop digits while the interval still holds a shorter number. */
    int32_t removed = 0;
    if (!vm_trailing_zeros && !vr_trailing_zeros) {
        /* Ryu's common case: no trailing zeros to track, so the last digit
         * dropped alone decides the rounding. Two digits go at once first. */
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed = 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            ++removed;
        }
        *exponent = e10 + removed;
        return vr + (vr == vm || round_up);
    }
    uint32_t last_removed = 0;
    while (vp / 10 > vm / 10) {
        vm_trailing_zeros &= vm % 10 == 0;
        vr_trailing_zeros &= last_removed == 0;
        last_removed = (uint32_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        ++removed;
    }
    if (vm_trailing_zeros) {
        while (vm % 10 == 0) {
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            ++removed;
        }
    }
    if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
        last_removed = 4; /* exactly half-way: round to even */
    *exponent = e10 + removed;
    return vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5);
}

static char *put(char *p, const char *text, size_t n)
{
    memcpy(p, text, n);
    return p + n;
}

/* "00" to "99", two characters each. */
static const char digit_pairs[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Write the decimal digits of 0 < v < 10^17 so that they end just before
 * `end`, two at a time from digit_pairs in 32-bit arithmetic, and return
 * where they start. */
static char *put_digits(char *end, uint64_t v)
{
    if (v >= 100000000) {
        const uint64_t high = v / 100000000;
        uint32_t low = (uint32_t)(v - high * 100000000);
        for (int i = 0; i < 4; ++i, low /= 100)
            memcpy(end -= 2, digit_pairs + 2 * (low % 100), 2);
        v = high;
    }
    uint32_t w = (uint32_t)v;
    for (; w >= 100; w /= 100)
        memcpy(end -= 2, digit_pairs + 2 * (w % 100), 2);
    if (w >= 10) {
        end -= 2;
        memcpy(end, digit_pairs + 2 * w, 2);
    } else {
        *--end = (char)('0' + w);
    }
    return end;
}

/* Write x as repr(x) writes it, and return the end. Positional notation when
 * -4 < decpt <= 16, where the value is 0.DIGITS * 10^decpt, with ".0" after an
 * integral value; otherwise D.DDDe+XX, with at least two exponent digits. At
 * most 24 bytes. The digits and zeros go out in copies of a fixed 16 or 17
 * bytes, which may write up to 16 bytes past the end. */
static char *format_double(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t ieee_exponent = (uint32_t)(bits >> 52) & 0x7ff;
    if (ieee_exponent == 0x7ff && mantissa)
        return put(p, "nan", 3);
    if (bits >> 63)
        *p++ = '-';
    if (ieee_exponent == 0x7ff)
        return put(p, "inf", 3);
    if (ieee_exponent == 0 && mantissa == 0)
        return put(p, "0.0", 3);

    int32_t exponent;
    /* The digits end at text + 20; every fixed-size copy from them stays in text. */
    char text[40];
    const char *d = put_digits(text + 20, shortest(mantissa, ieee_exponent, &exponent));
    const int n = (int)(text + 20 - d);
    const int32_t decpt = exponent + n;

    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            memcpy(p, "0.000000", 8);
            p += 2 - decpt;
            memcpy(p, d, 17);
            return p + n;
        }
        memcpy(p, d, 16);
        if (decpt < n) {
            p += decpt;
            *p++ = '.';
            memcpy(p, d + decpt, 16);
            return p + n - decpt;
        }
        p += n;
        memcpy(p, "0000000000000000", 16);
        p += decpt - n;
        return put(p, ".0", 2);
    }
    p[0] = d[0];
    p[1] = '.';
    memcpy(p + 2, d + 1, 16);
    p += n > 1 ? n + 1 : 1;
    int32_t e = decpt - 1;
    p = put(p, e < 0 ? "e-" : "e+", 2);
    e = e < 0 ? -e : e;
    if (e >= 100) {
        *p++ = (char)('0' + e / 100);
        e %= 100;
    }
    return put(p, digit_pairs + 2 * e, 2);
}

/* Write rows x cols doubles of the row-major table as CSV text into out:
 * each row as ",".join(map(repr, row)) + "\r\n". out holds at least
 * rows * (cols * 25 + 1) + 16 bytes (dado.native.FORMAT_SLACK): the text takes
 * at most the first term, and a cell's fixed-size copies may write 16 bytes
 * past its end. Returns the number of bytes of text. */
int64_t dado_format_rows(char *out, int64_t cols, const double *table, int64_t rows)
{
    char *p = out;
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
            p = format_double(table[i * cols + j], p);
            *p++ = ',';
        }
        p[-1] = '\r'; /* in place of the row's last comma */
        *p++ = '\n';
    }
    return p - out;
}


static int32_t floor_log2(uint64_t value) { return 63 - __builtin_clzll(value); }

/* The double nearest to m10 * 10^e10, ties to even, for m10 < 10^17 with
 * `digits` significant digits, negated when `negative`: Ryu's s2d. */
static double to_double(uint64_t m10, int32_t digits, int32_t e10, int negative)
{
    uint64_t bits = (uint64_t)negative << 63;
    if (m10 == 0 || digits + e10 <= -324) {
        double zero;
        memcpy(&zero, &bits, sizeof zero);
        return zero;
    }
    if (digits + e10 >= 310)
        return negative ? -INFINITY : INFINITY;

    /* m2 * 2^e2 is m10 * 10^e10 to at least 54 bits, rounded down;
     * trailing_zeros says whether it is exact. */
    int32_t e2;
    uint64_t m2;
    int trailing_zeros;
    if (e10 >= 0) {
        e2 = floor_log2(m10) + e10 + pow5bits(e10) - 1 - 53;
        m2 = mul_shift(m10, pow5[e10], e2 - e10 - pow5bits(e10) + 125);
        trailing_zeros = e2 < e10 || (e2 - e10 < 64 && multiple_of_pow2(m10, (uint32_t)(e2 - e10)));
    } else {
        e2 = floor_log2(m10) + e10 - pow5bits(-e10) - 53;
        m2 = mul_shift(m10, pow5_inv[-e10], e2 - e10 + pow5bits(-e10) - 1 + 125);
        trailing_zeros = multiple_of_pow5(m10, (uint32_t)-e10);
    }

    /* The biased exponent, 0 for a subnormal, and the bits of m2 below the
     * mantissa, which decide the rounding. */
    const int32_t biased = e2 + 1023 + floor_log2(m2);
    uint64_t exponent = biased > 0 ? (uint64_t)biased : 0;
    if (exponent > 0x7fe)
        return negative ? -INFINITY : INFINITY;
    const int32_t shift = (exponent ? (int32_t)exponent : 1) - e2 - 1023 - 52;
    trailing_zeros &= (m2 & ((1ull << (shift - 1)) - 1)) == 0;
    const int round_up = ((m2 >> (shift - 1)) & 1) && (!trailing_zeros || ((m2 >> shift) & 1));
    const uint64_t mantissa = ((m2 >> shift) + round_up) & ((1ull << 52) - 1);
    if (mantissa == 0 && round_up)
        ++exponent; /* the carry out of the mantissa, subnormals included; past 0x7fe, inf */
    bits |= exponent << 52 | mantissa;
    double x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* Append the digits at p to *m10 and count the significant ones in *digits;
 * returns the first byte that is not a digit, or end. */
static const char *read_digits(const char *p, const char *end, uint64_t *m10, int32_t *digits)
{
    for (; p < end && *p >= '0' && *p <= '9'; ++p) {
        *m10 = 10 * *m10 + (uint64_t)(*p - '0'); /* wraps only past 19 digits, refused below */
        *digits += *m10 != 0;
    }
    return p;
}

/* Read one cell -?D[.D][e(+|-)E] from [p, end), where the Ds hold at most 17
 * significant digits and E one to three digits, into *x. Returns the end of
 * the cell, or NULL when the text does not start so. */
static const char *parse_cell(const char *p, const char *end, double *x)
{
    const int negative = p < end && *p == '-';
    p += negative;
    uint64_t m10 = 0;
    int32_t digits = 0, e10 = 0;
    const char *start = p;
    p = read_digits(p, end, &m10, &digits);
    if (p == start)
        return NULL;
    if (p < end && *p == '.') {
        start = ++p;
        p = read_digits(p, end, &m10, &digits);
        if (p == start)
            return NULL;
        e10 = -(int32_t)(p - start);
    }
    if (digits > 17)
        return NULL;
    if (p < end && *p == 'e') {
        if (++p == end || (*p != '+' && *p != '-'))
            return NULL;
        const int minus = *p++ == '-';
        int32_t e = 0;
        for (start = p; p < end && p - start < 3 && *p >= '0' && *p <= '9'; ++p)
            e = 10 * e + (*p - '0');
        if (p == start)
            return NULL;
        e10 += minus ? -e : e;
    }
    *x = to_double(m10, digits, e10, negative);
    return p;
}

/* Read the CSV text [text, text + length): rows of cols cells as parse_cell
 * reads them, separated by ',' and each ended by "\n", "\r\n" or the end of
 * the text. The first capacity rows are stored in the row-major table; later
 * rows are only counted. Returns the number of rows, or -1 when the text is
 * not of that form: whitespace, '+', a blank line, nan, an 18th significant
 * digit and so on. Reads nothing at or past text + length. */
int64_t dado_parse_rows(const char *text, int64_t length, int64_t cols, double *table,
                        int64_t capacity)
{
    const char *p = text, *const end = text + length;
    int64_t rows = 0;
    double discarded;
    for (; p < end; ++rows) {
        for (int64_t j = 0; j < cols; ++j) {
            if (j > 0 && (p == end || *p++ != ','))
                return -1;
            p = parse_cell(p, end, rows < capacity ? table + rows * cols + j : &discarded);
            if (p == NULL)
                return -1;
        }
        if (p < end && *p == '\r')
            ++p;
        if (p < end && *p == '\n')
            ++p;
        else if (p < end || p[-1] == '\r')
            return -1;
    }
    return rows;
}
