/* Set-up kernels of vropt.data and vropt.model: a LIBSVM block reader and
   the rows' squared norms.

   vr_read_block reads a strict subset of the text vropt.data._parse_block
   reads, and declines (returns 0) on anything else, leaving the block to
   that reference, which also names the errors.  It accepts:
     - lines ended by '\n' (the last one may end with the block);
     - on each line, tokens separated by runs of ' ': a label, then
       idx:val features;
     - indices of 1-18 plain digits, rising from 1 within the line;
     - labels and values of the form [+-]?digits[.digits][(e|E)[+-]digits]
       that read as finite doubles without ERANGE.
   A line of spaces only is blank and makes no row, as in the reference.

   A number is read exactly in one of two ways when its significant digits
   (leading zeros do not count), taken as an integer m, are at most 19, so
   that m < 10^19 < 2^64, and its power of ten e is within [-22, 22].  When
   m <= 2^53, m and 10^|e| are doubles, and one correctly rounded
   multiplication or division gives the correctly rounded value (Clinger's
   fast path).  Otherwise, when e <= 19 and the compiler has a 128-bit
   integer, m 10^e is the exact 128-bit product, or the quotient of m
   shifted to the top of 128 bits by 10^-e with the remainder as a sticky
   bit, and is rounded to 53 bits half to even (exact wide-integer
   arithmetic, as in the Eisel-Lemire path, with a division in place of
   its tables of powers of five).  Other numbers go to strtod, which in
   glibc rounds correctly too, and the reader declines unless strtod
   stopped exactly at the end of the token: a locale whose decimal point
   is not '.' makes it stop early, so the reader never reads a number
   differently from float(). */

#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "_segment.h"

#define MAX_INDEX_DIGITS 18     /* 10^18 - 1 fits an int64_t */
#define EXACT_MANTISSA 9007199254740992ULL      /* 2^53 */

static const double pow10_exact[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const u128 pow10_wide[23] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
    10000000000000000000ULL, (u128)10000000000000000000ULL * 10,
    (u128)10000000000000000000ULL * 100,
    (u128)10000000000000000000ULL * 1000};

static int bit_length(u128 x)
{
    uint64_t hi = (uint64_t)(x >> 64), lo = (uint64_t)x;
    return hi ? 128 - __builtin_clzll(hi) : lo ? 64 - __builtin_clzll(lo) : 0;
}

/* m 10^scale for 0 < m < 10^19 and scale in [-22, 19], correctly rounded:
   the exact product, or the quotient of m shifted to the top of 128 bits
   (at least 2^127 / 10^22 > 2^53, so 54 bits or more) with the remainder
   as a sticky bit, rounded to 53 bits half to even. */
static double exact_scaled(uint64_t m, int64_t scale)
{
    u128 x = m, q, rest, half;
    int shift = 0, sticky = 0, cut;

    if (scale >= 0) {
        x *= pow10_wide[scale];
    } else {
        shift = 128 - bit_length(x);
        x <<= shift;
        q = x / pow10_wide[-scale];
        sticky = q * pow10_wide[-scale] != x;   /* a remainder */
        x = q;
    }
    cut = bit_length(x) - 53;
    if (cut > 0) {
        rest = x & (((u128)1 << cut) - 1);
        half = (u128)1 << (cut - 1);
        x >>= cut;
        if (rest > half || (rest == half && (sticky || (x & 1))))
            x++;                        /* 2^53 still converts exactly */
        shift -= cut;
    }
    return ldexp((double)(uint64_t)x, -shift);
}
#endif

/* The number that starts at p, in *value; returns its end, or NULL when
   the text there is no number of the grammar or does not read exactly. */
static const char *number(const char *p, const char *end, double *value)
{
    const char *start = p;
    uint64_t m = 0;
    /* sig: digits from the first nonzero one on, counted apart from m,
       which wraps (to 0, too) past 19 of them */
    int64_t digits = 0, sig = 0, frac = 0, exp = 0, exp_digits = 0, scale;
    int negative = 0, exp_negative = 0;

    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    for (; p < end && is_digit(*p); p++, digits++) {
        m = m * 10 + (uint64_t)(*p - '0');
        sig += sig || *p != '0';
    }
    if (!digits)
        return NULL;
    if (p < end && *p == '.') {
        for (p++; p < end && is_digit(*p); p++, frac++) {
            m = m * 10 + (uint64_t)(*p - '0');
            sig += sig || *p != '0';
        }
        if (!frac)
            return NULL;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            exp_negative = *p++ == '-';
        for (; p < end && is_digit(*p); p++, exp_digits++)
            if (exp_digits < 5)                 /* used only if <= 4 digits */
                exp = exp * 10 + (*p - '0');
        if (!exp_digits)
            return NULL;
    }
    scale = (exp_negative ? -exp : exp) - frac;
    if (sig <= 19 && exp_digits <= 4 && m <= EXACT_MANTISSA
        && scale >= -22 && scale <= 22) {
        double v = (double)m;
        v = scale < 0 ? v / pow10_exact[-scale] : v * pow10_exact[scale];
        *value = negative ? -v : v;
        return p;
    }
#ifdef __SIZEOF_INT128__
    if (sig <= 19 && exp_digits <= 4 && scale >= -22 && scale <= 19) {
        double v = exact_scaled(m, scale);
        *value = negative ? -v : v;
        return p;
    }
#endif
    {
        /* strtod must see the token's end: past the block there may be no
           byte that stops it, so a token there is copied first */
        char copy[64], *stop;
        const char *text = start;
        size_t len = (size_t)(p - start);
        double v;
        if (p == end) {
            if (len >= sizeof copy)
                return NULL;
            memcpy(copy, start, len);
            copy[len] = '\0';
            text = copy;
        }
        errno = 0;
        v = strtod(text, &stop);
        if (stop != text + len || errno == ERANGE || !isfinite(v))
            return NULL;
        *value = v;
        return p;
    }
}

int vr_read_wide(void)
{
#ifdef __SIZEOF_INT128__
    return 1;
#else
    return 0;
#endif
}

int vr_read_block(const char *p, int64_t size, vr_block *b)
{
    const char *end = p + size, *q;
    int64_t rows = 0, nnz = 0, breaks = 0;

    while (p < end) {
        int64_t prev = 0, first = nnz;
        double label;
        if (*p == ' ') {
            p++;
            continue;
        }
        if (*p == '\n') {
            breaks++;
            p++;
            continue;
        }
        if (rows == b->max_rows || !(q = number(p, end, &label)))
            return 0;
        for (p = q; p < end && *p != '\n';) {
            int64_t k = 0;
            double v;
            if (*p != ' ')
                return 0;               /* no separator after a token */
            while (p < end && *p == ' ')
                p++;
            if (p == end || *p == '\n')
                break;
            for (q = p; p < end && is_digit(*p) && p - q < MAX_INDEX_DIGITS;
                 p++)
                k = k * 10 + (*p - '0');
            if (p == q || p == end || *p != ':' || k <= prev)
                return 0;
            prev = k;
            if (!(q = number(p + 1, end, &v)))
                return 0;
            p = q;
            if (v != 0.0) {             /* explicit zeros are dropped */
                if (nnz == b->max_nnz)
                    return 0;
                b->indices[nnz] = k - 1;
                b->values[nnz++] = v;
            }
        }
        b->labels[rows] = label;
        b->counts[rows++] = nnz - first;
    }
    b->rows = rows;
    b->nnz = nnz;
    b->breaks = breaks;
    return 1;
}

void vr_row_sq_norms(int64_t n, const int64_t *indptr, const double *values,
                     double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = vr_dot(indptr[i + 1] - indptr[i], values + indptr[i],
                        values + indptr[i]);
}
