/*
 * Compiled enumeration kernels.
 *
 * Returns the same results as `_pure`'s scans: `init` reads the same tables
 * dict, the walks are the same explicit-stack depth-first searches in value
 * order, and `scan_level` and its three views (`scan_cylinders`,
 * `scan_nested`, `containment_scan`) return the same result dicts; `_pure`'s
 * generators are inlined.  Every check here compares endpoint values, where
 * a comparison costs nanoseconds, without the shortcuts `_pure.scan_level`
 * takes to skip them.  `init` refuses what `_pure`'s rule walk raises on: a
 * rule row with digits whose matrix has a determinant other than (-1)^b for
 * b digits.  The rule walk's one limit is `_pure`'s tree level bound B,
 * `levels_per_digit` (at most 3) levels per digit past the root: a walk that
 * expands no node at level B holds at most B + 2 nodes, within STACK at
 * every word length up to MAX_WORD.  Matrices and endpoint components are
 * int64, the cross products of `moebius_cmp` are __int128, and its one sign
 * test is exact integer arithmetic.
 *
 * Headroom.  A word of L digits has the matrix [[p_L, p_{L-1}], [q_L,
 * q_{L-1}]], whose entries are continuants of its digits.  Continuants grow
 * with every digit, so each entry is at most K_L, the continuant of L fours
 * (K_0 = 1, K_1 = 4, K_L = 4 K_{L-1} + K_{L-2}).  A tail (p + q sqrt(D))/r
 * has the image (a p + b r, a q, c p + d r, c q).  With T the largest
 * |p| + |r| over all tails, |nA|, |dA| <= K_L T.  Every tail has |q| <= 1
 * (the package's all have q = 1, and `init` refuses others), so
 * |nB|, |dB| <= K_L, and that is what keeps x in range:
 *     |x| <= 2 (K_L T)^2 + 2 K_L^2 D,    |y| <= 4 K_L^2 T.
 * `in_headroom` requires |x| < 2^127 and |y| D < 2^128, so x, y and the
 * product |y| D of the sign test all fit.  A bound on K_L T alone does not
 * do this: with |q| up to T, |x| can reach 2 (D + 1) (K_L T)^2, about
 * 2^127.7 at K_L T = 2^56.
 *
 * The rule walk does not fold digits: a child's matrix is its parent's times
 * its rule row's extension matrix E, read as given (`segments.RULE_TABLE`),
 * so the bound on node matrices is not automatic.  `init` refuses a row whose
 * E is negative anywhere or exceeds, entry by entry, the matrix of b fours,
 * F_b = [[K_b, K_{b-1}], [K_{b-1}, K_{b-2}]] (K_{-1} = 0, K_{-2} = 1), where
 * b is the row's digit count.  The root's matrix, a fold of digits 1 to 4,
 * is at most the all-fours matrix of its length, and a product of
 * nonnegative matrices is monotone in each factor, so by induction every
 * node matrix is nonnegative and at most F_{plen} F_b = F_{plen+b}, the
 * all-fours matrix of its prefix length.  So the K_L bound above holds for
 * every leaf, whose prefix has at most L digits, and no term of a product
 * overflows when the product's entry fits, since the terms are nonnegative
 * and at most their sum.  A rule-tree node's prefix can run MAX_EXT
 * digits past the last definite length below the word, L - 1, before the
 * walk refuses it, so node matrices also need K_{L-1+MAX_EXT} < 2^63.
 * MAX_LEN_SAFE is the largest L that meets both; for the package's tables
 * (T = 54135, D = 26565) it is 22.  `scan_level` forms no other product:
 * its endpoints are `cylinder_ends` of L-digit frames and of their
 * (L-1)-digit parents and `leaf_ends` of rule-tree nodes, and every
 * comparison is a `moebius_cmp` of two of them, so the one walk needs the
 * same bound as separate scans of each check would.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef __int128 i128;
typedef unsigned __int128 u128;

#define NSTATES 5           /* automaton states */
#define NSIGMA 6            /* cylinder tails */
#define NTYPES 9            /* segment types, numbered from 1 */
#define MAX_EXT 6           /* digits in a root, rule step or type extension */
#define MAX_WORD 40         /* digits per word; MAX_LEN_SAFE stays below */
#define STACK (4 * MAX_WORD)
_Static_assert(STACK >= 3 * MAX_WORD + 2, "a rule walk to level B holds B + 2 nodes");
#define TAIL_MAX ((i64)1 << 31)
#define DISC_MAX ((i64)1 << 31)
#define MAX_VIOLATIONS 20

typedef struct {
    i64 m[4];       /* prefix matrix */
    int state;      /* automaton state after the prefix */
    int pos;        /* digits in the prefix */
    i64 digit;      /* its last digit */
} Frame;

static i64 DISC;
static i64 TRANS[NSTATES][4];
static i64 SIGMA[NSIGMA][3];
static i64 POST_PAIR[NSTATES][2];
static i64 TYPE_TAILS[NTYPES + 1][2][3];
static i64 CHILD_TYPE[NTYPES + 1][2];
static i64 CHILD_EXT[NTYPES + 1][2][MAX_EXT];
static int CHILD_EXT_LEN[NTYPES + 1][2];
static i64 CHILD_M[NTYPES + 1][2][4];
static i64 EXT[NTYPES + 1][MAX_EXT];
static int EXT_LEN[NTYPES + 1];
static i64 ROOT[MAX_EXT];
static i64 LEVELS_PER_DIGIT;    /* tree levels the rule walk may descend per digit */
static const i64 FOURS[MAX_EXT] = {4, 4, 4, 4, 4, 4};
static Frame ROOT_FRAME;
static int MAX_LEN_SAFE = -1;   /* -1 until `init` succeeds */


/* ---- the exact sign test ---- */

static u128 uabs(i128 v)
{
    return v < 0 ? -(u128)v : (u128)v;
}

/* The 256-bit product a*b as four 64-bit limbs, least significant first. */
static void mul_256(u128 a, u128 b, u64 out[4])
{
    u128 a0 = (u64)a, a1 = a >> 64, b0 = (u64)b, b1 = b >> 64;
    u128 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    u128 mid = (p00 >> 64) + (u64)p01 + (u64)p10;
    u128 high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);

    out[0] = (u64)p00;
    out[1] = (u64)mid;
    out[2] = (u64)high;
    out[3] = (u64)(high >> 64);
}

/* Exact sign of x + y*sqrt(disc), given |y| * disc < 2^128. */
static int sign_pair(i128 x, i128 y, i64 disc)
{
    u64 lhs[4], rhs[4];

    if (y == 0)
        return (x > 0) - (x < 0);
    if (x == 0)
        return y > 0 ? 1 : -1;
    if ((x > 0) == (y > 0))
        return x > 0 ? 1 : -1;
    /* opposite signs: compare x^2 against y^2 * disc */
    mul_256(uabs(x), uabs(x), lhs);
    mul_256(uabs(y) * (u128)disc, uabs(y), rhs);
    for (int i = 3; i >= 0; i--) {
        if (lhs[i] != rhs[i]) {
            int sign = lhs[i] > rhs[i] ? 1 : -1;
            return x > 0 ? sign : -sign;
        }
    }
    return 0;
}

/* Order of two Moebius-form values (denominator values positive). */
static int moebius_cmp(const i64 *e1, const i64 *e2, i64 disc)
{
    i128 x = (i128)e1[0] * e2[2] - (i128)e2[0] * e1[2]
        + ((i128)e1[1] * e2[3] - (i128)e2[1] * e1[3]) * disc;
    i128 y = (i128)e1[0] * e2[3] + (i128)e1[1] * e2[2]
        - (i128)e2[0] * e1[3] - (i128)e2[1] * e1[2];

    return sign_pair(x, y, disc);
}

/* Whether components with |nA|, |dA| <= a and |nB|, |dB| <= b keep
   `moebius_cmp` in range: 2 (a^2 + b^2 disc) < 2^127 and 4 a b disc < 2^128. */
static int in_headroom(u128 a, u128 b, u128 disc)
{
    const u128 lim = (u128)1 << 126;

    if (a >= (u128)1 << 62 || b >= (u128)1 << 62)
        return 0;
    return b * b < (lim - a * a) / disc && a * b < lim / disc;
}

/* The image of the tail t = (p + q*sqrt(D))/r under the matrix m. */
static void moebius_image(const i64 *m, const i64 *t, i64 *out)
{
    out[0] = m[0] * t[0] + m[1] * t[2];
    out[1] = m[0] * t[1];
    out[2] = m[2] * t[0] + m[3] * t[2];
    out[3] = m[2] * t[1];
}

/* m times [[d, 1], [1, 0]] for each of the n digits. */
static void fold(i64 *m, const i64 *digits, int n)
{
    for (int i = 0; i < n; i++) {
        i64 d = digits[i], a = m[0], c = m[2];
        m[0] = a * d + m[1];
        m[1] = a;
        m[2] = c * d + m[3];
        m[3] = c;
    }
}


/* ---- the cylinder walk ---- */

typedef struct {
    int length;
    int top;
    i64 word[MAX_WORD];     /* the word of the frame popped last */
    Frame stack[STACK];
} Walk;

/* The admissible one-digit extensions of f, in ascending cylinder order. */
static int children(const Frame *f, Frame *kids)
{
    int n = 0;

    for (i64 k = 0; k < 4; k++) {
        i64 d = f->pos & 1 ? 4 - k : k + 1;
        int next = (int)TRANS[f->state][d - 1];
        if (next >= 0) {
            Frame *c = &kids[n++];
            memcpy(c->m, f->m, sizeof f->m);
            fold(c->m, &d, 1);
            c->state = next;
            c->pos = f->pos + 1;
            c->digit = d;
        }
    }
    return n;
}

/* Start a walk over the admissible words of `length` digits; there are
   none below the root prefix. */
static void frames_start(Walk *w, int length)
{
    w->length = length;
    w->top = 0;
    memcpy(w->word, ROOT, ROOT_FRAME.pos * sizeof *ROOT);
    if (length >= ROOT_FRAME.pos)
        w->stack[w->top++] = ROOT_FRAME;
}

/* The next frame of the walk's length, in ascending cylinder order; its
   word is then in w->word.  Returns 0 when the walk is done. */
static int frames_next(Walk *w, Frame *out)
{
    Frame kids[4];

    while (w->top > 0) {
        Frame f = w->stack[--w->top];
        if (f.pos > ROOT_FRAME.pos)
            w->word[f.pos - 1] = f.digit;
        if (f.pos == w->length) {
            *out = f;
            return 1;
        }
        /* children are pushed in descending order so that they pop ascending */
        for (int n = children(&f, kids); n > 0; n--)
            w->stack[w->top++] = kids[n - 1];
    }
    return 0;
}

/* The endpoints of f's cylinder: the images of its end state's tail pair,
   whose order an odd-length prefix reverses. */
static void cylinder_ends(const Frame *f, i64 *lo, i64 *hi)
{
    const i64 *pair = POST_PAIR[f->state];
    int odd = f->pos & 1;

    moebius_image(f->m, SIGMA[pair[odd]], lo);
    moebius_image(f->m, SIGMA[pair[!odd]], hi);
}


/* ---- the rule-tree walk ---- */

typedef struct {
    i64 m[4];           /* prefix matrix */
    int type;
    int plen;           /* digits in the prefix */
    int level;
    const i64 *ext;     /* the rule step's digits, which end the prefix */
    int ext_len;
} Node;

typedef struct {
    int word_len;
    int bound;                      /* the tree level past which no node is walked */
    int top;
    i64 word[MAX_WORD + MAX_EXT];   /* the prefix of the node popped last,
                                       then the leaf's word */
    PyObject *error;                /* why the walk stopped early, or NULL */
    Node stack[STACK];
} RuleWalk;

static void rules_start(RuleWalk *w, int word_len)
{
    Node *root = &w->stack[0];

    w->word_len = word_len;
    w->bound = word_len > ROOT_FRAME.pos
        ? (int)LEVELS_PER_DIGIT * (word_len - ROOT_FRAME.pos) : 0;
    w->top = 1;
    w->error = NULL;
    memcpy(root->m, ROOT_FRAME.m, sizeof root->m);
    root->type = 1;
    root->plen = root->ext_len = ROOT_FRAME.pos;
    root->level = 0;
    root->ext = ROOT;
}

static PyObject *word_tuple(const i64 *word, int n)
{
    PyObject *t = PyTuple_New(n);

    for (int i = 0; t != NULL && i < n; i++) {
        PyObject *d = PyLong_FromLongLong(word[i]);
        if (d == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, d);
    }
    return t;
}

/* The next node whose definite word reaches the walk's word length, in
   ascending value order, with its word in w->word.  Returns 1, or 0 when the
   walk is done.  When a node's definite word skips that length, or a node
   at the level bound is no leaf, returns -1 with the message of the
   AssertionError that `_pure._rule_leaves` raises in w->error; -1 with
   w->error NULL means an exception is set. */
static int rules_next(RuleWalk *w, Node *out)
{
    while (w->top > 0) {
        Node n = w->stack[--w->top];
        int definite = n.plen + EXT_LEN[n.type];
        memcpy(&w->word[n.plen - n.ext_len], n.ext, n.ext_len * sizeof *n.ext);
        if (definite == w->word_len) {
            memcpy(&w->word[n.plen], EXT[n.type], EXT_LEN[n.type] * sizeof *EXT[0]);
            *out = n;
            return 1;
        }
        if (definite > w->word_len) {  /* rule steps add at most one definite digit */
            PyObject *prefix = word_tuple(w->word, n.plen);
            if (prefix != NULL)
                w->error = PyUnicode_FromFormat("definite length skipped %d at %R",
                                                w->word_len, prefix);
            Py_XDECREF(prefix);
            return -1;
        }
        if (n.level >= w->bound) {
            w->error = PyUnicode_FromFormat("rule tree has no leaf by level %d", w->bound);
            return -1;
        }
        /* children in descending value order, so that they pop ascending: an
           even-length prefix reverses the rule order */
        for (int k = 0; k < 2; k++) {
            int j = n.plen & 1 ? k : 1 - k;
            Node *c = &w->stack[w->top++];
            const i64 *e = CHILD_M[n.type][j];
            c->ext = CHILD_EXT[n.type][j];
            c->ext_len = CHILD_EXT_LEN[n.type][j];
            if (c->ext_len == 0) {  /* an empty extension keeps the matrix */
                memcpy(c->m, n.m, sizeof n.m);
            } else {
                c->m[0] = n.m[0] * e[0] + n.m[1] * e[2];
                c->m[1] = n.m[0] * e[1] + n.m[1] * e[3];
                c->m[2] = n.m[2] * e[0] + n.m[3] * e[2];
                c->m[3] = n.m[2] * e[1] + n.m[3] * e[3];
            }
            c->type = (int)CHILD_TYPE[n.type][j];
            c->plen = n.plen + c->ext_len;
            c->level = n.level + 1;
        }
    }
    return 0;
}

/* The leaf's endpoints: its type's tail pair, reversed by an odd prefix. */
static void leaf_ends(const Node *n, i64 *lo, i64 *hi)
{
    int odd = n->plen & 1;

    moebius_image(n->m, TYPE_TAILS[n->type][odd], lo);
    moebius_image(n->m, TYPE_TAILS[n->type][!odd], hi);
}


/* ---- the scans ---- */

/* Append `item` (a new reference, or NULL on error) to `list`. */
static int append(PyObject *list, PyObject *item)
{
    int r = item == NULL ? -1 : PyList_Append(list, item);

    Py_XDECREF(item);
    return r;
}

/* The word length argument of a scan: an int within the safe bound. */
static int scan_length(PyObject *arg, int *length)
{
    if (MAX_LEN_SAFE < 0) {
        PyErr_SetString(PyExc_RuntimeError, "kernel tables not initialized");
        return -1;
    }
    if (!PyArg_Parse(arg, "i", length))
        return -1;
    if (*length > MAX_LEN_SAFE) {
        PyErr_Format(PyExc_ValueError, "length %d beyond compiled-kernel bound %d",
                     *length, MAX_LEN_SAFE);
        return -1;
    }
    return 0;
}

/* A violation of `kind` at a word, as a tuple (kind, word). */
static PyObject *violation(const char *kind, const i64 *word, int n)
{
    return Py_BuildValue("(sN)", kind, word_tuple(word, n));
}

/* One walk over the cylinders of `length` digits, parent frame by parent
   frame, with `_pure.scan_level`'s four checks on the one stream: degenerate
   and overlapping cylinders, cylinders outside their parent and childless
   parents, and the rule-tree leaves in lockstep.  Each parent's and each
   child's endpoints are formed once, by `cylinder_ends`, for every check
   that reads them. */
static PyObject *scan_level(PyObject *self, PyObject *arg)
{
    Walk w;
    RuleWalk rules;
    Frame parent, kids[4];
    Node leaf;
    i64 plo[4], phi[4], lo[4], hi[4], prev_hi[4], leaf_lo[4], leaf_hi[4];
    long long count = 0, nested_count = 0, childless = 0, leaves = 0;
    long long unpaired = -1;    /* once the rule walk stops: the first cylinder
                                   past its leaves */
    int length, has_parent, max_level = 0, r;
    PyObject *disjoint = NULL, *nested = NULL, *rule = NULL;

    if (scan_length(arg, &length) < 0)
        return NULL;
    rules_start(&rules, length);
    if ((disjoint = PyList_New(0)) == NULL || (nested = PyList_New(0)) == NULL
            || (rule = PyList_New(0)) == NULL)
        goto fail;
    /* up to the root prefix there is no parent level: each frame is a cylinder */
    has_parent = length > ROOT_FRAME.pos;
    frames_start(&w, has_parent ? length - 1 : length);
    while (frames_next(&w, &parent)) {
        int n = 1;
        if (!has_parent) {
            kids[0] = parent;
        } else if ((n = children(&parent, kids)) == 0) {
            childless++;
            continue;
        } else {
            nested_count += n;
            cylinder_ends(&parent, plo, phi);
        }
        for (int i = 0; i < n; i++) {
            if (has_parent)
                w.word[length - 1] = kids[i].digit;
            cylinder_ends(&kids[i], lo, hi);
            if (moebius_cmp(lo, hi, DISC) >= 0
                    && append(disjoint, violation("degenerate", w.word, length)) < 0)
                goto fail;
            if (count > 0 && moebius_cmp(prev_hi, lo, DISC) >= 0
                    && PyList_GET_SIZE(disjoint) < MAX_VIOLATIONS
                    && append(disjoint, violation("overlap", w.word, length)) < 0)
                goto fail;
            if (has_parent
                    && (moebius_cmp(plo, lo, DISC) > 0 || moebius_cmp(hi, phi, DISC) > 0)
                    && PyList_GET_SIZE(nested) < MAX_VIOLATIONS
                    && append(nested, violation("outside-parent", w.word, length)) < 0)
                goto fail;
            if (unpaired < 0) {
                if ((r = rules_next(&rules, &leaf)) < 0 && rules.error == NULL)
                    goto fail;
                if (r <= 0) {
                    unpaired = count;
                } else {
                    leaves++;
                    if (leaf.level > max_level)
                        max_level = leaf.level;
                    if (memcmp(rules.word, w.word, length * sizeof *w.word) != 0) {
                        if (append(rule, Py_BuildValue("(sNN)", "word-mismatch",
                                                       word_tuple(rules.word, length),
                                                       word_tuple(w.word, length))) < 0)
                            goto fail;
                        unpaired = count + 1;
                    } else {
                        leaf_ends(&leaf, leaf_lo, leaf_hi);
                        if ((moebius_cmp(leaf_lo, lo, DISC) != 0
                                    || moebius_cmp(leaf_hi, hi, DISC) != 0)
                                && PyList_GET_SIZE(rule) < MAX_VIOLATIONS
                                && append(rule, violation("endpoint-mismatch",
                                                          w.word, length)) < 0)
                            goto fail;
                    }
                }
            }
            memcpy(prev_hi, hi, sizeof hi);
            count++;
        }
    }
    if (unpaired < 0) {  /* every cylinder had its leaf; a further leaf is extra */
        if ((r = rules_next(&rules, &leaf)) < 0 && rules.error == NULL)
            goto fail;
        if (r > 0) {
            leaves++;
            if (leaf.level > max_level)
                max_level = leaf.level;
            if (append(rule, violation("engine-extra", rules.word, length)) < 0)
                goto fail;
        }
    } else if (unpaired < count && append(rule, Py_BuildValue("(s)", "oracle-extra")) < 0) {
        goto fail;
    }
    if (rules.error == NULL) {
        Py_INCREF(Py_None);
        rules.error = Py_None;
    }
    return Py_BuildValue("{s:{s:i,s:L,s:N},s:{s:i,s:L,s:N,s:L},"
                         "s:{s:i,s:L,s:N,s:i,s:i},s:N}",
                         "cylinders", "length", length, "count", count, "violations", disjoint,
                         "nested", "length", length, "count", nested_count,
                         "violations", nested, "childless_parents", childless,
                         "containment", "word_len", length, "count", leaves,
                         "violations", rule, "max_stop_level", max_level,
                         "level_bound", rules.bound, "rule_error", rules.error);
fail:
    Py_XDECREF(disjoint);
    Py_XDECREF(nested);
    Py_XDECREF(rule);
    Py_XDECREF(rules.error);
    return NULL;
}

/* `scan_level`'s result under `key`: the views below keep the names and the
   results of the three scans it replaces. */
static PyObject *level_result(PyObject *arg, const char *key)
{
    PyObject *level = scan_level(NULL, arg), *out;

    if (level == NULL)
        return NULL;
    out = PyDict_GetItemString(level, key);
    Py_INCREF(out);
    Py_DECREF(level);
    return out;
}

static PyObject *scan_cylinders(PyObject *self, PyObject *arg)
{
    return level_result(arg, "cylinders");
}

static PyObject *scan_nested(PyObject *self, PyObject *arg)
{
    return level_result(arg, "nested");
}

/* Raises the rule walk's AssertionError, as `_pure.containment_scan` does. */
static PyObject *containment_scan(PyObject *self, PyObject *arg)
{
    PyObject *level = scan_level(NULL, arg), *error, *out = NULL;

    if (level == NULL)
        return NULL;
    error = PyDict_GetItemString(level, "rule_error");
    if (error != Py_None) {
        PyErr_SetObject(PyExc_AssertionError, error);
    } else {
        out = PyDict_GetItemString(level, "containment");
        Py_INCREF(out);
    }
    Py_DECREF(level);
    return out;
}


/* ---- tables ---- */

/* Append the ints of o, an int or nested sequences of ints, to out[*n] up
   to out[max - 1].  Each must lie in [lo, hi]; ValueError otherwise, also
   when one exceeds int64. */
static int flatten(PyObject *o, i64 lo, i64 hi, i64 *out, int *n, int max)
{
    PyObject *fast;
    int r = 0;

    if (PyLong_Check(o)) {
        long long v = PyLong_AsLongLong(o);
        if (v == -1 && PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_SetString(PyExc_ValueError, "kernel value does not fit in int64");
            return -1;
        }
        if (v < lo || v > hi) {
            PyErr_Format(PyExc_ValueError, "kernel value %lld is outside [%lld, %lld]",
                         v, (long long)lo, (long long)hi);
            return -1;
        }
        if (*n == max) {
            PyErr_Format(PyExc_ValueError, "kernel table entry has over %d values", max);
            return -1;
        }
        out[(*n)++] = v;
        return 0;
    }
    if (Py_EnterRecursiveCall(" reading kernel tables"))
        return -1;
    fast = PySequence_Fast(o, "kernel tables hold ints and sequences of them");
    for (Py_ssize_t i = 0; fast != NULL && r == 0 && i < PySequence_Fast_GET_SIZE(fast); i++)
        r = flatten(PySequence_Fast_GET_ITEM(fast, i), lo, hi, out, n, max);
    Py_LeaveRecursiveCall();
    if (fast == NULL)
        return -1;
    Py_DECREF(fast);
    return r;
}

/* o[key]; consumes the reference to o, which may be NULL after an error. */
static PyObject *item(PyObject *o, long key)
{
    PyObject *k = o == NULL ? NULL : PyLong_FromLong(key);
    PyObject *r = k == NULL ? NULL : PyObject_GetItem(o, k);

    Py_XDECREF(k);
    Py_XDECREF(o);
    return r;
}

/* The min to max ints of o into out, each in [lo, hi]; returns how many,
   or -1 with an exception set.  Consumes the reference to o, as `item`. */
static int read_entry(PyObject *o, i64 lo, i64 hi, i64 *out, int min, int max)
{
    int n = 0;

    if (o == NULL || flatten(o, lo, hi, out, &n, max) < 0) {
        n = -1;
    } else if (n < min) {
        PyErr_Format(PyExc_ValueError, "kernel table entry has %d values, under %d", n, min);
        n = -1;
    }
    Py_XDECREF(o);
    return n;
}

/* The largest word length within the headroom (see the top of this file),
   for tails with |p| + |r| <= tail. */
static int safe_length(i64 tail)
{
    u128 k[MAX_WORD + MAX_EXT] = {1, 4};
    int len = 0;

    for (int i = 2; i < MAX_WORD + MAX_EXT; i++)
        k[i] = 4 * k[i - 1] + k[i - 2];
    while (len + 1 < MAX_WORD && k[len + MAX_EXT] < (u128)1 << 63
           && in_headroom(k[len + 1] * tail, k[len + 1], DISC))
        len++;
    return len;
}

static PyObject *init(PyObject *self, PyObject *tables)
{
    i64 tail = 0, state = 0;
    int root_len;

#define TABLE(name) PyMapping_GetItemString(tables, name)
    MAX_LEN_SAFE = -1;
    if (read_entry(TABLE("disc"), 2, DISC_MAX, &DISC, 1, 1) < 0
            || read_entry(TABLE("transitions"), -1, NSTATES - 1, &TRANS[0][0],
                          4 * NSTATES, 4 * NSTATES) < 0
            || read_entry(TABLE("sigma"), -TAIL_MAX, TAIL_MAX, &SIGMA[0][0],
                          3 * NSIGMA, 3 * NSIGMA) < 0
            || read_entry(TABLE("state_post_pair"), 0, NSIGMA - 1, &POST_PAIR[0][0],
                          2 * NSTATES, 2 * NSTATES) < 0
            || (root_len = read_entry(TABLE("root_prefix"), 1, 4, ROOT, 0, MAX_EXT)) < 0
            || read_entry(TABLE("levels_per_digit"), 0, 3, &LEVELS_PER_DIGIT, 1, 1) < 0)
        return NULL;
    for (long t = 1; t <= NTYPES; t++) {
        if (read_entry(item(TABLE("tail_triples"), t), -TAIL_MAX, TAIL_MAX,
                       &TYPE_TAILS[t][0][0], 6, 6) < 0
                || (EXT_LEN[t] = read_entry(item(TABLE("type_ext_digits"), t), 1, 4,
                                            EXT[t], 0, MAX_EXT)) < 0)
            return NULL;
        /* rule_table[t] is a pair of rows (child type, extension digits,
           extension matrix, extension parity); the parity is the digit
           count's, which the walk reads off the prefix length */
        for (int j = 0; j < 2; j++) {
            i64 *e = CHILD_M[t][j], bound[4] = {1, 0, 0, 1};
            if (read_entry(item(item(item(TABLE("rule_table"), t), j), 0), 1, NTYPES,
                           &CHILD_TYPE[t][j], 1, 1) < 0
                    || (CHILD_EXT_LEN[t][j] = read_entry(
                            item(item(item(TABLE("rule_table"), t), j), 1), 1, 4,
                            CHILD_EXT[t][j], 0, MAX_EXT)) < 0
                    || read_entry(item(item(item(TABLE("rule_table"), t), j), 2), 0, INT64_MAX,
                                  e, 4, 4) < 0)
                return NULL;
            /* the headroom bound (see the top of this file) */
            fold(bound, FOURS, CHILD_EXT_LEN[t][j]);
            if (e[0] > bound[0] || e[1] > bound[1] || e[2] > bound[2] || e[3] > bound[3]) {
                PyErr_Format(PyExc_ValueError, "type %ld rule %d: extension matrix "
                             "above the matrix of %d fours", t, j + 1, CHILD_EXT_LEN[t][j]);
                return NULL;
            }
            /* a singular E would make every leaf below it one degenerate
               image, equal to any value under `moebius_cmp`; an empty
               extension's E is never read */
            if (CHILD_EXT_LEN[t][j] > 0
                    && e[0] * e[3] - e[1] * e[2] != (CHILD_EXT_LEN[t][j] & 1 ? -1 : 1)) {
                PyErr_Format(PyExc_ValueError, "type %ld rule %d: extension matrix "
                             "determinant is not (-1)^%d", t, j + 1, CHILD_EXT_LEN[t][j]);
                return NULL;
            }
        }
    }
#undef TABLE

    for (int i = 0; i < NSIGMA + 2 * NTYPES; i++) {
        int k = i - NSIGMA;
        const i64 *tl = k < 0 ? SIGMA[i] : TYPE_TAILS[1 + k / 2][k % 2];
        if (llabs(tl[1]) > 1) {
            PyErr_SetString(PyExc_ValueError, "kernel tails need |q| <= 1");
            return NULL;
        }
        if (llabs(tl[0]) + llabs(tl[2]) > tail)
            tail = llabs(tl[0]) + llabs(tl[2]);
    }
    for (int i = 0; i < root_len && state >= 0; i++)
        state = TRANS[state][ROOT[i] - 1];
    if (state < 0) {
        PyErr_SetString(PyExc_ValueError, "the root prefix is not admissible");
        return NULL;
    }
    ROOT_FRAME = (Frame){{1, 0, 0, 1}, (int)state, root_len, 0};
    fold(ROOT_FRAME.m, ROOT, root_len);
    MAX_LEN_SAFE = safe_length(tail);
    Py_RETURN_NONE;
}

static PyObject *max_len(PyObject *self, PyObject *unused)
{
    return PyLong_FromLong(MAX_LEN_SAFE);
}

static PyObject *py_moebius_cmp(PyObject *self, PyObject *args)
{
    PyObject *o1, *o2, *d;
    i64 e[8], disc;
    u128 a = 0, b = 0;
    int n1 = 0, n2 = 4, nd = 0;

    if (!PyArg_ParseTuple(args, "OOO:moebius_cmp", &o1, &o2, &d)
            || flatten(o1, INT64_MIN, INT64_MAX, e, &n1, 4) < 0
            || flatten(o2, INT64_MIN, INT64_MAX, e, &n2, 8) < 0
            || flatten(d, 2, DISC_MAX, &disc, &nd, 1) < 0)
        return NULL;
    if (n1 != 4 || n2 != 8)
        return PyErr_Format(PyExc_ValueError, "Moebius values are (nA, nB, dA, dB)");
    for (int i = 0; i < 8; i += 2) {
        a = uabs(e[i]) > a ? uabs(e[i]) : a;
        b = uabs(e[i + 1]) > b ? uabs(e[i + 1]) : b;
    }
    if (!in_headroom(a, b, disc))
        return PyErr_Format(PyExc_ValueError, "components outside the 128-bit headroom");
    return PyLong_FromLong(moebius_cmp(e, e + 4, disc));
}

static PyMethodDef methods[] = {
    {"init", init, METH_O, "Load the shared integer tables and derive the safe length bound."},
    {"max_len", max_len, METH_NOARGS, "The largest word length the kernel scans exactly."},
    {"moebius_cmp", py_moebius_cmp, METH_VARARGS,
     "Order of two Moebius-form values (denominator values positive)."},
    {"scan_level", scan_level, METH_O,
     "One walk over a cylinder level: disjointness, nestedness and the rule-tree leaves."},
    {"scan_cylinders", scan_cylinders, METH_O,
     "One cylinder level's count, degenerate and overlapping cylinders."},
    {"scan_nested", scan_nested, METH_O,
     "The cylinders outside their parents and the childless parents."},
    {"containment_scan", containment_scan, METH_O,
     "Subdivision-tree leaves against the cylinder stream, in lockstep."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_fast", "Compiled enumeration kernels; see `_pure`.", -1, methods,
};

PyMODINIT_FUNC PyInit__fast(void)
{
    return PyModule_Create(&module);
}
