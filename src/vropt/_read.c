/* Set-up kernels of vropt.data and vropt.model: a LIBSVM block reader, the
   count that sizes its output arrays, and the rows' squared norms.

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

   A number's two digit runs are read eight digits at a time where eight
   remain before the block's end: eight bytes are loaded as one word, tested
   for digits in one step and turned into their value with three
   multiplications (SWAR, as in Lemire's fast_float); the last few digits go
   one by one.  Its significant digits (leading zeros do not count), taken
   as an integer m, are read exactly by the reader when there are at most 19
   of them, so that m < 10^19 < 2^64, and its power of ten q is within
   [-22, 22].  When m <= 2^53, m and 10^|q| are doubles, and one correctly
   rounded multiplication or division gives the correctly rounded value
   (Clinger's fast path).  Otherwise, when q <= 19 and the compiler has a
   128-bit integer, the Eisel-Lemire step multiplies m by a truncated 64-bit
   10^q and rounds the top of the product, unless the product is too close
   to a rounding boundary for the truncation to be ruled out or is an exact
   half-way case; then strtod reads m 10^q written as "<m>e<q>", a text
   without a decimal point.  Other numbers go to strtod as their token
   reads, and the reader declines unless strtod stopped exactly at the end
   of the token: a locale whose decimal point is not '.' makes it stop
   early.  glibc's strtod rounds correctly too, so the reader never reads
   a number differently from float(). */

#include <errno.h>
#include <inttypes.h>
#include <math.h>
#include <stdio.h>
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

/* The digit run at p, read into m, which wraps modulo 2^64 as m = 10 m + d
   does, and counted in *sig from its first nonzero digit on: leading zeros
   are skipped while *sig is 0.  Returns the run's end; reads nothing at or
   past end. */
static const char *digit_run(const char *p, const char *end, uint64_t *m,
                             int64_t *sig)
{
    const uint64_t ones = 0x0101010101010101ULL, pairs = 0x000000FF000000FFULL;
    uint64_t w;

    if (!*sig)
        while (p < end && *p == '0')
            p++;
    for (; end - p >= 8; p += 8, *sig += 8) {
        memcpy(&w, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        w = __builtin_bswap64(w);       /* the first digit in the low byte */
#endif
        if (((w + 0x46 * ones) | (w - 0x30 * ones)) & 0x80 * ones)
            break;                      /* a byte that is no digit */
        w -= 0x30 * ones;
        w = w * 10 + (w >> 8);          /* 10 d0 + d1, 10 d2 + d3, ... */
        w = ((w & pairs) * (100 + (1000000ULL << 32))
             + (w >> 16 & pairs) * (1 + (10000ULL << 32))) >> 32;
        *m = *m * 100000000 + (uint32_t)w;
    }
    for (; p < end && is_digit(*p); p++, (*sig)++)
        *m = *m * 10 + (uint64_t)(*p - '0');
    return p;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* 10^q = pow10_high[q + 22] 2^(floor(q log2 10) - 63), rounded down (exact
   for q >= 0), for q in [-22, 19]; made with Python's exact integers by
     [(5**q << 64) >> (5**q).bit_length() if q >= 0
      else (1 << 63 + (5**-q).bit_length()) // 5**-q for q in range(-22, 20)]
   These are the high halves of the normalised 128-bit powers of the
   Eisel-Lemire tables: the step declines wherever the low halves could
   change the result. */
static const uint64_t pow10_high[42] = {
    0xf1c90080baf72cb1, 0x971da05074da7bee, 0xbce5086492111aea,
    0xec1e4a7db69561a5, 0x9392ee8e921d5d07, 0xb877aa3236a4b449,
    0xe69594bec44de15b, 0x901d7cf73ab0acd9, 0xb424dc35095cd80f,
    0xe12e13424bb40e13, 0x8cbccc096f5088cb, 0xafebff0bcb24aafe,
    0xdbe6fecebdedd5be, 0x89705f4136b4a597, 0xabcc77118461cefc,
    0xd6bf94d5e57a42bc, 0x8637bd05af6c69b5, 0xa7c5ac471b478423,
    0xd1b71758e219652b, 0x83126e978d4fdf3b, 0xa3d70a3d70a3d70a,
    0xcccccccccccccccc, 0x8000000000000000, 0xa000000000000000,
    0xc800000000000000, 0xfa00000000000000, 0x9c40000000000000,
    0xc350000000000000, 0xf424000000000000, 0x9896800000000000,
    0xbebc200000000000, 0xee6b280000000000, 0x9502f90000000000,
    0xba43b74000000000, 0xe8d4a51000000000, 0x9184e72a00000000,
    0xb5e620f480000000, 0xe35fa931a0000000, 0x8e1bc9bf04000000,
    0xb1a2bc2ec5000000, 0xde0b6b3a76400000, 0x8ac7230489e80000};

/* m 10^q for 2^53 < m < 10^19 and q in [-22, 19], correctly rounded into
   *value by the Eisel-Lemire step; returns 0 where it cannot tell the
   rounding.  m shifted to the top of 64 bits times the row is a 128-bit p
   that equals the value times a power of two for q >= 0 and, for q < 0,
   falls short of it by less than 2^64, one unit of p's high half.  p's top
   54 bits are the result's 53 and the rounding bit.  The step declines
   when the bits under them in p's high half are all ones (the shortfall
   may carry into the rounding bit; the wider product would tell) or when
   they and the low half are all zeros under a rounding bit of 1 (an exact
   half-way case, which goes to even). */
static int eisel_lemire(uint64_t m, int64_t q, double *value)
{
    int lz = __builtin_clzll(m);
    u128 p = (u128)(m << lz) * pow10_high[q + 22];
    uint64_t hi = (uint64_t)(p >> 64), lo = (uint64_t)p;
    int shift = (int)(hi >> 63) + 9;
    uint64_t mask = ((uint64_t)1 << shift) - 1, top = hi >> shift, two;

    if ((hi & mask) == mask || (!(hi & mask) && !lo && (top & 1)))
        return 0;
    top = (top + (top & 1)) >> 1;       /* 2^53 still converts exactly */
    /* the bits of 2^(shift + 2 - lz + floor(q log2 10)), a normal double
       here; (217706 q) >> 16 = floor(q log2 10) for q in [-22, 19] */
    two = (uint64_t)(1025 + shift - lz + ((217706 * q) >> 16)) << 52;
    memcpy(value, &two, sizeof two);
    *value *= (double)top;
    return 1;
}
#endif

/* The number that starts at p, in *value; returns its end, or NULL when
   the text there is no number of the grammar or does not read exactly. */
static const char *number(const char *p, const char *end, double *value)
{
    const char *start = p, *q;
    uint64_t m = 0;
    /* sig: digits from the first nonzero one on, counted apart from m,
       which wraps (to 0, too) past 19 of them */
    int64_t sig = 0, frac = 0, exp = 0, exp_digits = 0, scale;
    int negative = 0, exp_negative = 0;

    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    if ((q = digit_run(p, end, &m, &sig)) == p)
        return NULL;
    p = q;
    if (p < end && *p == '.') {
        q = digit_run(++p, end, &m, &sig);
        if (q == p)
            return NULL;
        frac = q - p;
        p = q;
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
    /* kept: Eisel-Lemire declines exact decimals at negative powers (0.5) */
    if (sig <= 19 && exp_digits <= 4 && m <= EXACT_MANTISSA
        && scale >= -22 && scale <= 22) {
        double v = (double)m;
        v = scale < 0 ? v / pow10_exact[-scale] : v * pow10_exact[scale];
        *value = negative ? -v : v;
        return p;
    }
#ifdef __SIZEOF_INT128__
    if (sig <= 19 && exp_digits <= 4 && scale >= -22 && scale <= 19) {
        double v;
        if (!eisel_lemire(m, scale, &v)) {
            /* no decimal point in it, so no LC_NUMERIC changes its reading */
            char text[32];
            snprintf(text, sizeof text, "%" PRIu64 "e%" PRId64, m, scale);
            v = strtod(text, NULL);
        }
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

/* The room b needs for text[0:size]: one nonzero per ':', and one row per
   byte below 0x1f plus one for a last line without a line end.  Those bytes
   hold the seven line ends of vr_read_block and _parse_block ('\n', '\r',
   '\x0b', '\x0c', '\x1c'-'\x1e'), so blocks cut just after a '\n' make no
   more rows, whichever reader reads each.  Tabs, NULs and the other control
   bytes over-size the arrays by rows never written: one compare per byte
   costs little more than the '\n' test, seven compares half as much again.
   Both counts go in one pass of 16-byte chunks into 16 one-byte lanes,
   flushed every 255 chunks before one can wrap (gcc vectorises it at -O2);
   the last bytes go one by one, so nothing at or past text + size is read. */
void vr_size_block(const char *text, int64_t size, vr_block *b)
{
    const unsigned char *p = (const unsigned char *)text;
    int64_t ends = 0, colons = 0, chunks = size / 16;

    while (chunks) {
        int64_t run = chunks < 255 ? chunks : 255;
        uint8_t nl[16] = {0}, co[16] = {0};
        for (chunks -= run; run; run--, p += 16)
            for (int k = 0; k < 16; k++) {
                nl[k] += p[k] < 0x1f;
                co[k] += p[k] == ':';
            }
        for (int k = 0; k < 16; k++) {
            ends += nl[k];
            colons += co[k];
        }
    }
    for (; p < (const unsigned char *)text + size; p++) {
        ends += *p < 0x1f;
        colons += *p == ':';
    }
    b->max_rows = ends + 1;
    b->max_nnz = colons;
}

int vr_read_block(const char *p, int64_t size, vr_block *b)
{
    const char *end = p + size, *q;
    int64_t rows = 0, nnz = 0, breaks = 0;

    while (p < end) {
        int64_t prev = 0, first = nnz;
        double label;
        if (*p == ' ' || *p == '\n') {
            breaks += *p++ == '\n';
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
