/* Declarations of the compiled kernel (_segment.c: inner segments, _read.c:
   set-up, _oracle.c: the model's full and bulk oracles), read both by the
   C compiler and by cffi (so: no preprocessor lines but integer defines). */

/* why vr_segment stopped; every reason but VR_HORIZON, VR_FULL, VR_DIVERGED
   and VR_TARGET leaves the next pass, undrawn, to the Python loop.  A
   snapshot at the current iterate (snap_in: L2S's coin, SVRG's period) is
   the kernel's own pass; the other snapshots (SARAH, SARAH-LI and D2S
   restart at x_a, L2S-SC steps back and counts its snapshots) end the
   segment with VR_SNAPSHOT */
#define VR_HORIZON 0    /* updates reached u_cap */
#define VR_RECORD 2     /* the next update reaches a trace threshold */
#define VR_BUDGET 3     /* ... or the IFO budget */
#define VR_KEEP 4       /* ... or is the restart point x_a */
#define VR_ETA 5        /* the pass index count / n moved on (SGD step size) */
#define VR_SNAPSHOT 6   /* the next pass is a snapshot Python takes */
#define VR_FULL 7       /* a log is full */
#define VR_DIVERGED 8   /* ||x_updates||^2 is not finite or above diverge_sq */
#define VR_TARGET 9     /* a snapshot taken here met stop_sq: cur is its
                           point, v its gradient */

/* A's CSR rows, read by the model's products (_oracle.c) and segments */
typedef struct {
    int64_t n, d;
    const int64_t *indptr, *indices;
    const double *values;
} vr_csr;

/* an array the kernel appends entries to (int64_t, uint8_t or rows of d
   doubles): size of cap used; buf NULL where the run keeps no such log */
typedef struct {
    void *buf;
    int64_t size, cap;
} vr_log;

typedef struct {
    /* model: A, labels and regularizer (0: lam x, 1: the bounded
       nonconvex penalty with alpha = reg_c) */
    int64_t n;                          /* a->n, the index draws' range */
    const vr_csr *a;
    const double *labels;
    int reg;
    double reg_c;
    /* estimator: 0 plain (cur), 1 anchored (cur, prev = anchor, v = mu),
       2 recursion (cur, prev, v) */
    int kind;
    double eta;
    double *cur, *prev, *v;
    const double *weights, *accept;     /* D2S: n p_i and the alias table */
    const int64_t *alias;
    double *work;                       /* 2 d + (longest row) doubles */
    /* index and snapshot streams: start, gamma, counter */
    uint64_t idx_rng[3], snap_rng[3];
    /* loop position, advanced in place */
    int64_t updates, inner, count;
    /* events; -1 (0 for coin_m) where the run has none */
    int64_t coin_m, period, u_cap, rec_next, ifo_cap, a_at, pass_k;
    double diverge_sq;
    /* snapshots: 1 where they are taken here, at cur (see VR_TARGET for
       stop_sq, NaN where the run has no target) */
    int snap_in;
    double stop_sq;
    /* logs: the index of each step, the iterate of each update, the coin
       of each pass (L2S family), and each snapshot's iteration, gradient
       and point */
    vr_log idx_log, it_log, coin_log, snap_log, snap_v_log, snap_x_log;
} vr_seg;

int vr_segment(vr_seg *s);
void vr_set_ddot(void *fn, int int64_args);
double vr_dot(int64_t n, const double *a, const double *b);
void vr_below_block(uint64_t *rng, int64_t n, int64_t size, int64_t *out);
void vr_table_block(vr_seg *s, int64_t size, int64_t *out);

/* a LIBSVM text block read by vr_read_block (see _read.c) */
typedef struct {
    int64_t max_rows, max_nnz;          /* room in the arrays below */
    double *labels;                     /* per row */
    int64_t *counts;                    /* nonzeros per row */
    int64_t *indices;                   /* per nonzero, 0-based */
    double *values;
    int64_t rows, nnz, breaks;          /* filled in when the block is read */
} vr_block;

void vr_size_block(const char *text, int64_t size, vr_block *b);
int vr_read_block(const char *text, int64_t size, vr_block *b);
/* 1 when the reader has its Eisel-Lemire step (a compiler with __int128) */
int vr_read_wide(void);
void vr_row_sq_norms(int64_t n, const int64_t *indptr, const double *values,
                     double *out);

/* y = A x for one vector x (d values, y: n) */
void vr_csr_dot(const vr_csr *a, const double *x, double *y);
void vr_expit(int64_t size, const double *t, double *out);
/* g = A^T c for c = ((-b) expit(-b (A x))) / n (x, g: d by k; work: k
   doubles), in one pass over A's rows */
void vr_data_grad(const vr_csr *a, const double *b, int64_t k,
                  const double *x, double *work, double *g);
