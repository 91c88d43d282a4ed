/* Compiled search kernels: C ports of locdim._pure.

   The same six kernels on uint64_t masks, each the same algorithm as its
   _pure twin and returning the same values: max_clique the clique number,
   min_hitting_set a minimum hitting set as a mask, lex_min_hitting_set the
   lexicographically smallest one, canonical_bits the least upper-triangle
   bit string, is_canonical whether given bits are that string, and
   induced_embedding the first induced copy or None. The docstrings in
   _pure.py describe the searches; the comments here cover what the port
   changes. One step differs in method: _pure finds the
   inclusion-minimal constraints with a containment index, and this file
   with a pairwise subset scan. Both keep the same constraints in the same
   (size, value) order, so the searches that follow are identical. Vertex
   counts and universes never exceed 62, so a mask fits one word; every
   fixed-size array is guarded by the range check that raises ValueError.
   locdim.kernels picks a backend at import time.

   setup.py builds this file as locdim._speedups when a C compiler exists.
   By hand:
       gcc -O3 -shared -fPIC -I<python include> _speedups.c \
           -o _speedups<EXT_SUFFIX>
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MASK_CAP 64   /* mask arrays; vertex counts up to 62 */
#define CANON_CAP 12  /* canonical labeling; n up to 11, 55 triangle bits */

#define BIT(v) ((uint64_t)1 << (v))

/* Bit-parallel count, inlined: without -mpopcnt, __builtin_popcountll is a
   library call, and the hitting-set search counts every constraint of every
   child it sorts. */
static int
popcount(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

static int
lowest(uint64_t x)
{
    return __builtin_ctzll(x);
}

/* Stores the first n entries of seq (every entry when n < 0) in out, which
   has room for cap masks. Returns the count stored, or -1 with an
   exception set. Entries must be ints in 0..2**64-1. */
static Py_ssize_t
read_masks(PyObject *seq, Py_ssize_t n, uint64_t *out, Py_ssize_t cap)
{
    PyObject *fast = PySequence_Fast(seq, "masks must be a sequence of ints");
    if (fast == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    if (n < 0)
        n = len;
    if (len < n || n > cap) {
        PyErr_Format(PyExc_IndexError,
                     "expected %zd masks (room for %zd), got %zd", n, cap,
                     len);
        Py_DECREF(fast);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (out[i] == (uint64_t)-1 && PyErr_Occurred()) {
            if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
                PyErr_Clear();
                PyErr_SetString(PyExc_ValueError,
                                "masks must be ints in 0..2**64-1");
            }
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    return n;
}

/* ------------------------------------------------------------ max clique */

static int
clique_expand(const uint64_t *adj, int size, uint64_t cand, int best)
{
    int order[MASK_CAP], bound[MASK_CAP], count = 0, color = 0;
    if (cand == 0)
        return size > best ? size : best;
    for (uint64_t rest = cand; rest;) {
        color++;
        for (uint64_t avail = rest; avail;) {
            int v = lowest(avail);
            order[count] = v;
            bound[count++] = color;
            avail &= ~(adj[v] | BIT(v));
            rest &= ~BIT(v);
        }
    }
    for (int i = count - 1; i >= 0; i--) {
        if (size + bound[i] <= best)
            return best;
        int v = order[i];
        best = clique_expand(adj, size + 1, cand & adj[v], best);
        cand &= ~BIT(v);
    }
    return best;
}

static PyObject *
max_clique(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"n", "adj", NULL};
    int n;
    PyObject *adj_seq;
    uint64_t adj[MASK_CAP];
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO:max_clique", names,
                                     &n, &adj_seq))
        return NULL;
    if (n > 62)
        return PyErr_Format(PyExc_ValueError,
                            "vertex count must be at most 62, got %d", n);
    if (n <= 0)
        return PyLong_FromLong(0);
    if (read_masks(adj_seq, n, adj, MASK_CAP) < 0)
        return NULL;
    return PyLong_FromLong(clique_expand(adj, 0, BIT(n) - 1, 0));
}

/* ----------------------------------------------------------- hitting set */

/* Stable counting sort of cons[0..k) by size, through scratch. */
static void
sort_by_size(uint64_t *cons, int k, uint64_t *scratch)
{
    int start[MASK_CAP + 1] = {0}, top = 0;
    for (int i = 0; i < k; i++) {
        int s = popcount(cons[i]);
        start[s + 1]++;
        if (s > top)
            top = s;
    }
    for (int s = 1; s <= top; s++)
        start[s] += start[s - 1];
    for (int i = 0; i < k; i++)
        scratch[start[popcount(cons[i])]++] = cons[i];
    memcpy(cons, scratch, (size_t)k * sizeof *cons);
}

/* _pure._pack_bound on the parts of cons[0..k) within allowed. */
static int
pack_bound(const uint64_t *cons, int k, uint64_t allowed)
{
    uint64_t used = 0;
    int lb = 0;
    for (int i = 0; i < k; i++) {
        uint64_t c = cons[i] & allowed;
        if ((c & used) == 0) {
            used |= c;
            lb++;
        }
    }
    return lb;
}

/* The parts within allowed of the constraints of cons[0..k) that v does
   not hit, in order, into out; returns their count. */
static int
unhit(const uint64_t *cons, int k, int v, uint64_t allowed, uint64_t *out)
{
    int nk = 0;
    for (int i = 0; i < k; i++)
        if (!((cons[i] >> v) & 1))
            out[nk++] = cons[i] & allowed;
    return nk;
}

struct hitting {
    int floor;          /* the search stops once best reaches it */
    int best;           /* size of the smallest hitting set found so far */
    uint64_t best_set;  /* that hitting set */
    uint64_t *scratch;  /* room for every constraint, for sort_by_size */
};

/* _pure._least, with best, its set and floor in h; picked holds the chosen
   elements, and a node with nothing left to hit always improves on best.
   Each level reads its constraint array rem[0..k), in size order and
   within allowed, and builds its children's arrays right after it, at
   rem + k. A sibling v tried while chosen + 3 >= best gets no child: the
   node ANDs allowed with the constraints v misses and takes v alone when
   it misses none, or v and the lowest common element, which is what the
   child would return. So only nodes with chosen <= best - 4 build
   children, no child is built at level greedy - 2 or deeper, and the
   k * greedy arena of hs_solve holds every array with room to spare. */
static void
hs_search(struct hitting *h, int chosen, uint64_t picked, uint64_t *rem,
          int k, uint64_t allowed)
{
    if (k == 0) {
        h->best = chosen;
        h->best_set = picked;
        return;
    }
    /* no parent builds a child with chosen + 2 >= best, and the root does
       not improve on a greedy cover of 2 */
    if (h->best <= h->floor || chosen + 2 >= h->best)
        return;
    if (chosen + pack_bound(rem, k, allowed) >= h->best)
        return;
    uint64_t *child = rem + k;
    for (uint64_t bits = rem[0];;) {
        int v = lowest(bits);
        if (chosen + 3 < h->best) {
            int nk = unhit(rem, k, v, allowed, child);
            sort_by_size(child, nk, h->scratch);
            hs_search(h, chosen + 1, picked | BIT(v), child, nk, allowed);
        } else {
            uint64_t common = allowed;
            for (int i = 0; i < k && common; i++)
                if (!((rem[i] >> v) & 1))
                    common &= rem[i];
            if (common & BIT(v)) {
                /* v misses nothing */
                h->best = chosen + 1;
                h->best_set = picked | BIT(v);
            } else if (common && chosen + 3 == h->best) {
                h->best = chosen + 2;
                h->best_set = picked | BIT(v) | (common & -common);
            }
        }
        bits &= bits - 1;
        if (h->best <= h->floor || bits == 0)
            return;
        /* the later siblings exclude v */
        allowed &= ~BIT(v);
        if (chosen + pack_bound(rem, k, allowed) >= h->best)
            return;
    }
}

/* Greedy most-hits-first cover of cons[0..k), ties to the smaller element;
   work has room for k masks. Returns its picks, the first upper bound. */
static uint64_t
greedy_cover(const uint64_t *cons, int k, uint64_t *work)
{
    uint64_t picks = 0;
    memcpy(work, cons, (size_t)k * sizeof *cons);
    while (k) {
        int counts[MASK_CAP] = {0}, pick = 0;
        for (int i = 0; i < k; i++)
            for (uint64_t bits = work[i]; bits; bits &= bits - 1)
                counts[lowest(bits)]++;
        for (int v = 1; v < MASK_CAP; v++)
            if (counts[v] > counts[pick])
                pick = v;
        picks |= BIT(pick);
        k = unhit(work, k, pick, ~(uint64_t)0, work);
    }
    return picks;
}

/* The value search of _pure on the minimal constraints cons[0..k) in size
   order, from the greedy cover down to the floor; returns the best set. */
static PyObject *
hs_solve(const uint64_t *cons, int k, int lower_bound, uint64_t *scratch)
{
    uint64_t picks = greedy_cover(cons, k, scratch);
    int greedy = popcount(picks);
    struct hitting h = {.floor = lower_bound, .best = greedy,
                        .best_set = picks, .scratch = scratch};
    int pack = pack_bound(cons, k, ~(uint64_t)0);
    if (h.floor < pack)
        h.floor = pack;
    if (h.best > h.floor) {
        /* one array per level; no child is built at level greedy - 2 or
           deeper */
        uint64_t *work = PyMem_Malloc((size_t)k * greedy * sizeof *work);
        if (work == NULL)
            return PyErr_NoMemory();
        memcpy(work, cons, (size_t)k * sizeof *cons);
        hs_search(&h, 0, 0, work, k, ~(uint64_t)0);
        PyMem_Free(work);
    }
    return PyLong_FromUnsignedLongLong(h.best_set);
}

static int
compare_masks(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* Sorts cons[0..k) by value and drops duplicates; returns the distinct
   count. */
static int
sort_distinct(uint64_t *cons, int k)
{
    if (k == 0)
        return 0;
    qsort(cons, (size_t)k, sizeof *cons, compare_masks);
    int kept = 1;
    for (int i = 1; i < k; i++)
        if (cons[i] != cons[kept - 1])
            cons[kept++] = cons[i];
    return kept;
}

/* The constraints of both hitting-set kernels, range-checked as _pure._system
   does: a new array with room for `room` masks per constraint plus one, its
   first entries the distinct constraints in ascending order. Returns their
   count, with *out the array (PyMem_Free it), or -1 with an exception set
   and nothing to free. */
static int
read_system(int universe, PyObject *seq, int room, uint64_t **out)
{
    if (universe < 0 || universe > 62) {
        PyErr_Format(PyExc_ValueError, "universe size must be in 0..62, got %d",
                     universe);
        return -1;
    }
    PyObject *fast = PySequence_Fast(seq, "constraints must be iterable");
    if (fast == NULL)
        return -1;
    Py_ssize_t total = PySequence_Fast_GET_SIZE(fast);
    if (total > INT_MAX / MASK_CAP) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "too many constraints: %zd", total);
        return -1;
    }
    uint64_t *cons = PyMem_Malloc((size_t)(room * total + 1) * sizeof *cons);
    if (cons == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    int k = (int)read_masks(fast, -1, cons, total);
    Py_DECREF(fast);
    if (k < 0)
        goto fail;
    k = sort_distinct(cons, k);
    if (k && cons[0] == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "unsatisfiable constraint system: empty constraint");
        goto fail;
    }
    if (k && cons[k - 1] >> universe) {
        PyErr_SetString(PyExc_ValueError,
                        "constraint mentions an element outside the universe");
        goto fail;
    }
    *out = cons;
    return k;
fail:
    PyMem_Free(cons);
    return -1;
}

static PyObject *
min_hitting_set(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"universe", "constraints", "lower_bound", NULL};
    int universe, lower_bound = 0;
    PyObject *seq;
    uint64_t *cons;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iO|i:min_hitting_set",
                                     names, &universe, &seq, &lower_bound))
        return NULL;
    /* the constraints, then scratch room for as many */
    int k = read_system(universe, seq, 2, &cons);
    if (k < 0)
        return NULL;
    PyObject *result;
    if (k == 0) {
        result = PyLong_FromLong(0);
    } else {
        /* (size, value) order; keep a constraint when no kept one is a
           subset */
        sort_by_size(cons, k, cons + k);
        int kept = 0;
        for (int i = 0; i < k; i++) {
            int j = 0;
            while (j < kept && (cons[j] & ~cons[i]))
                j++;
            if (j == kept)
                cons[kept++] = cons[i];
        }
        result = hs_solve(cons, kept, lower_bound, cons + k);
    }
    PyMem_Free(cons);
    return result;
}

/* _pure._probe on the k > 0 distinct constraints at sys: a hitting set
   within allowed of at most budget >= 1 elements, or 0 when there is none.
   sys has room for k masks per element of budget, plus k more: hs_search
   builds no child at level budget - 1 or deeper, and sort_by_size's
   scratch follows the arrays. The k constraints stay, in size order. */
static uint64_t
probe(uint64_t *sys, int k, uint64_t allowed, int budget)
{
    if (budget == 1) {
        uint64_t common = allowed;
        for (int i = 0; i < k && common; i++)
            common &= sys[i];
        return common & -common;
    }
    uint64_t *scratch = sys + (size_t)k * budget;
    sort_by_size(sys, k, scratch);
    /* best starts one above the budget with no set behind it, so the
       search keeps a set only within the budget */
    struct hitting h = {.floor = budget, .best = budget + 1, .best_set = 0,
                        .scratch = scratch};
    hs_search(&h, 0, 0, sys, k, allowed);
    return h.best <= budget ? h.best_set : 0;
}

static PyObject *
lex_min_hitting_set(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"universe", "constraints", "found", NULL};
    int universe;
    PyObject *seq, *found_obj;
    uint64_t *rem, *sys = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOO:lex_min_hitting_set",
                                     names, &universe, &seq, &found_obj))
        return NULL;
    int k = read_system(universe, seq, 1, &rem);
    if (k < 0)
        return NULL;
    uint64_t found = PyLong_AsUnsignedLongLong(found_obj);
    if (found == (uint64_t)-1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_Clear();
            found = ~(uint64_t)0;
        } else {
            goto fail;
        }
    }
    if (found >> universe) {
        PyErr_SetString(PyExc_ValueError,
                        "found must be a mask within the universe");
        goto fail;
    }
    for (int i = 0; i < k; i++)
        if (!(rem[i] & found)) {
            PyErr_SetString(PyExc_ValueError, "found must hit every constraint");
            goto fail;
        }
    /* the restricted system, and room for its probe at any budget below
       found's size */
    int budget = popcount(found) - 1;
    sys = PyMem_Malloc(((size_t)k * (budget + 1) + 1) * sizeof *sys);
    if (sys == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    uint64_t witness = 0;
    for (int v = 0; v < universe && k; v++) {
        uint64_t above = (BIT(universe) - 1) & ~(BIT(v + 1) - 1);
        int nk = unhit(rem, k, v, above, sys);
        if (!((found >> v) & 1) && nk) {
            if (budget <= 0)
                continue;
            nk = sort_distinct(sys, nk);
            uint64_t rest = probe(sys, nk, above, budget);
            if (!rest)
                continue;
            found = witness | BIT(v) | rest;
        }
        witness |= BIT(v);
        budget--;
        k = nk;
        memcpy(rem, sys, (size_t)k * sizeof *rem);
    }
    PyMem_Free(rem);
    PyMem_Free(sys);
    return PyLong_FromUnsignedLongLong(witness);
fail:
    PyMem_Free(rem);
    PyMem_Free(sys);
    return NULL;
}

/* ---------------------------------------------------- canonical labeling */

#define BLOCK_CAP 64  /* maximal independent sets of 11 vertices: at most
                         2 * 3**3 = 54 (Moon and Moser, 1965) */

struct cell {
    uint64_t col;   /* adjacency column against the placed vertices */
    uint64_t mask;  /* the unplaced vertices with that column */
};

struct open_cell {
    uint64_t mask;  /* vertices of consecutive positions, in an order
                       not fixed yet */
    int size;
};

struct labeling {
    int n;
    const uint64_t *adj;
    uint64_t twins[CANON_CAP];
    int order[CANON_CAP];   /* degree ascending, ties by index */
    int shifts[CANON_CAP];  /* bits after the prefix of columns 0..t */
    int target;             /* is_canonical: stop at a prefix below best */
    int have_best;
    uint64_t best;
};

struct blocks {
    uint64_t non[CANON_CAP];  /* non-neighbors among the vertices lowest
                                 in their true-twin class */
    int largest;
    int count;
    uint64_t sets[BLOCK_CAP];
};

/* expand of _pure._blocks: Bron-Kerbosch on the complement, pivoting on
   the lowest vertex of cand | done. */
static void
blocks_expand(struct blocks *b, uint64_t chosen, int size, uint64_t cand,
              uint64_t done)
{
    if (!cand) {
        if (!done && size >= b->largest) {
            if (size > b->largest) {
                b->largest = size;
                b->count = 0;
            }
            b->sets[b->count++] = chosen;
        }
        return;
    }
    uint64_t branch = cand & ~b->non[lowest(cand | done)];
    while (branch && size + popcount(cand) >= b->largest) {
        int v = lowest(branch);
        blocks_expand(b, chosen | BIT(v), size + 1, cand & b->non[v],
                      done & b->non[v]);
        branch &= ~BIT(v);
        cand &= ~BIT(v);
        done |= BIT(v);
    }
}

/* settle of _pure._least_string: 1 ends a target search that found a
   smaller string, 0 cuts the branch, -1 goes on. */
static int
settle(struct labeling *s, int t, uint64_t prefix)
{
    if (t == s->n - 1) {
        if (!s->have_best || prefix < s->best) {
            s->best = prefix;
            s->have_best = 1;
            return s->target;
        }
        return 0;
    }
    if (s->have_best) {
        uint64_t bound = s->best >> s->shifts[t];
        if (prefix > bound)
            return 0;
        if (s->target && prefix < bound) {
            s->best = prefix << s->shifts[t];
            return 1;
        }
    }
    return -1;
}

/* rec of _pure._least_string. cells holds ncells cells in ascending column
   order; at most one per unplaced vertex, so CANON_CAP bounds a split. */
static int
least_string_rec(struct labeling *s, int t, uint64_t prefix,
                 const struct cell *cells, int ncells)
{
    uint64_t tied = cells[0].mask;
    prefix = (prefix << t) | cells[0].col;
    int done = settle(s, t, prefix);
    if (done >= 0)
        return done;
    uint64_t taken = 0;
    struct cell split[CANON_CAP];
    for (int i = 0; i < s->n; i++) {
        int v = s->order[i];
        if (!((tied >> v) & 1) || (s->twins[v] & taken))
            continue;
        taken |= BIT(v);
        uint64_t row = s->adj[v], off = ~(row | BIT(v));
        int nsplit = 0;
        for (int j = 0; j < ncells; j++) {
            uint64_t part = cells[j].mask & off;
            if (part)
                split[nsplit++] = (struct cell){cells[j].col << 1, part};
            part = cells[j].mask & row;
            if (part)
                split[nsplit++] = (struct cell){(cells[j].col << 1) | 1, part};
        }
        if (least_string_rec(s, t + 1, prefix, split, nsplit))
            return 1;
    }
    return 0;
}

/* defer of _pure._least_string. cells holds the ncells cells of positions
   0..t-1, so at most t of them; rest holds the unplaced vertices. */
static int
defer_rec(struct labeling *s, int t, uint64_t prefix,
          const struct open_cell *cells, int ncells, uint64_t rest)
{
    if (ncells == t) {
        /* every cell is one vertex: key the unplaced vertices by their
           whole column, one position at a time */
        struct cell keyed[CANON_CAP], split[CANON_CAP];
        int nkeyed = 1;
        keyed[0] = (struct cell){0, rest};
        for (int j = 0; j < ncells; j++) {
            uint64_t row = s->adj[lowest(cells[j].mask)];
            int nsplit = 0;
            for (int k = 0; k < nkeyed; k++) {
                uint64_t off = keyed[k].mask & ~row, on = keyed[k].mask & row;
                if (off)
                    split[nsplit++] = (struct cell){keyed[k].col << 1, off};
                if (on)
                    split[nsplit++] = (struct cell){(keyed[k].col << 1) | 1,
                                                    on};
            }
            memcpy(keyed, split, nsplit * sizeof *keyed);
            nkeyed = nsplit;
        }
        return least_string_rec(s, t, prefix, keyed, nkeyed);
    }
    uint64_t min_col = 0, tied = 0;
    for (uint64_t left = rest; left; left &= left - 1) {
        int z = lowest(left);
        uint64_t row = s->adj[z], col = 0;
        for (int j = 0; j < ncells; j++)
            col = (col << cells[j].size)
                  | (BIT(popcount(row & cells[j].mask)) - 1);
        if (!tied || col < min_col) {
            min_col = col;
            tied = BIT(z);
        } else if (col == min_col) {
            tied |= BIT(z);
        }
    }
    prefix = (prefix << t) | min_col;
    int done = settle(s, t, prefix);
    if (done >= 0)
        return done;
    uint64_t taken = 0;
    struct open_cell split[CANON_CAP];
    for (int i = 0; i < s->n; i++) {
        int v = s->order[i];
        if (!((tied >> v) & 1) || (s->twins[v] & taken))
            continue;
        taken |= BIT(v);
        uint64_t row = s->adj[v];
        int nsplit = 0;
        for (int j = 0; j < ncells; j++) {
            uint64_t mask = cells[j].mask, part = mask & row;
            if (part && part != mask) {
                int count = popcount(part);
                split[nsplit++] = (struct open_cell){mask ^ part,
                                                     cells[j].size - count};
                split[nsplit++] = (struct open_cell){part, count};
            } else {
                split[nsplit++] = cells[j];
            }
        }
        split[nsplit++] = (struct open_cell){BIT(v), 1};
        if (defer_rec(s, t + 1, prefix, split, nsplit, rest & ~BIT(v)))
            return 1;
    }
    return 0;
}

/* _pure._least_string: the least string when target is 0, otherwise own or
   a value below it as soon as a prefix falls below own's. n <= 11.

   Zero prefix: the least string's columns 0..alpha-1 are all zero, whatever
   the order of the set placed there, and a labeling whose first alpha
   vertices are not independent has a 1 there, so it is larger. So the
   search branches on which maximum independent set fills positions
   0..alpha-1 (the blocks), one per true-twin swap: swapping true twins is
   an automorphism, and a false-twin class lies wholly inside or outside a
   maximal independent set. The set's inner order stays open in cells until
   the vertices placed after it fix it (defer_rec), then the plain DFS
   (least_string_rec) takes over. A target with a 1 in columns 0..alpha-1
   fails at the first prefix, which is below 2^alpha where own's is not. */
static uint64_t
least_string(int n, const uint64_t *adj, int target, uint64_t own)
{
    if (n <= 1)
        return 0;
    struct labeling s = {.n = n, .adj = adj, .target = target,
                         .have_best = target, .best = own};
    int m = n * (n - 1) / 2;
    for (int t = 0; t < n; t++)
        s.shifts[t] = m - t * (t + 1) / 2;
    for (int u = 0; u < n; u++)
        for (int v = u + 1; v < n; v++)
            if ((adj[u] & ~BIT(v)) == (adj[v] & ~BIT(u))) {
                s.twins[u] |= BIT(v);
                s.twins[v] |= BIT(u);
            }
    struct blocks b = {.largest = 0, .count = 0};
    uint64_t low = 0;
    for (int v = 0; v < n; v++)
        if (!(adj[v] & s.twins[v] & (BIT(v) - 1)))
            low |= BIT(v);
    for (int v = 0; v < n; v++)
        b.non[v] = low & ~adj[v] & ~BIT(v);
    blocks_expand(&b, 0, 0, low, 0);
    int alpha = b.largest;
    if (alpha == n)  /* no edges: every labeling gives 0 */
        return 0;
    for (int i = 0; i < n; i++) {
        int v = i, j = i;
        for (; j > 0 && popcount(adj[s.order[j - 1]]) > popcount(adj[v]); j--)
            s.order[j] = s.order[j - 1];
        s.order[j] = v;
    }
    for (int i = 0; i < b.count; i++) {
        struct open_cell root = {b.sets[i], alpha};
        if (defer_rec(&s, alpha, 0, &root, 1, (BIT(n) - 1) & ~b.sets[i]))
            break;
    }
    return s.best;
}

/* Parses (n, adj, *rest) for the labeling kernels into adj[CANON_CAP]. */
static int
labeling_args(PyObject *args, PyObject *kwargs, const char *format,
              char **names, const char *name, int *n, uint64_t *adj,
              PyObject **own)
{
    PyObject *seq;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, format, names, n, &seq,
                                     own))
        return -1;
    if (*n > CANON_CAP - 1) {
        PyErr_Format(PyExc_ValueError, "%s supports n <= %d, got %d", name,
                     CANON_CAP - 1, *n);
        return -1;
    }
    if (*n > 1 && read_masks(seq, *n, adj, CANON_CAP) < 0)
        return -1;
    return 0;
}

static PyObject *
canonical_bits(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"n", "adj", NULL};
    int n;
    uint64_t adj[CANON_CAP];
    if (labeling_args(args, kwargs, "iO:canonical_bits", names,
                      "canonical_bits", &n, adj, NULL) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(least_string(n, adj, 0, 0));
}

static PyObject *
is_canonical(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"n", "adj", "own", NULL};
    int n;
    uint64_t adj[CANON_CAP];
    PyObject *own_obj;
    if (labeling_args(args, kwargs, "iOO:is_canonical", names,
                      "is_canonical", &n, adj, &own_obj) < 0)
        return NULL;
    uint64_t own = PyLong_AsUnsignedLongLong(own_obj);
    if (own == (uint64_t)-1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return NULL;
        /* negative or wider than any string: no labeling gives it */
        PyErr_Clear();
        Py_RETURN_FALSE;
    }
    return PyBool_FromLong(least_string(n, adj, 1, own) == own);
}

/* ----------------------------------------------------- induced embedding */

struct embedding {
    int pat_n;
    const uint64_t *host_adj;
    const uint64_t *pat_adj;
    int order[MASK_CAP];   /* pattern vertices by degree descending */
    int assign[MASK_CAP];  /* pattern vertex -> host vertex */
};

/* rec of _pure.induced_embedding: masks[j] holds the candidates of position
   pos + j, for every position from pos on. */
static int
embed_rec(struct embedding *e, int pos, const uint64_t *masks)
{
    if (pos == e->pat_n)
        return 1;
    int p = e->order[pos], later = e->pat_n - pos - 1;
    uint64_t link = e->pat_adj[p], narrowed[MASK_CAP];
    for (uint64_t cand = masks[0]; cand; cand &= cand - 1) {
        int h = lowest(cand), j = 0;
        uint64_t row = e->host_adj[h], off = ~row & ~BIT(h);
        for (; j < later; j++) {
            int q = e->order[pos + 1 + j];
            narrowed[j] = masks[j + 1] & (((link >> q) & 1) ? row : off);
            if (narrowed[j] == 0)
                break;
        }
        if (j == later && embed_rec(e, pos + 1, narrowed)) {
            e->assign[p] = h;
            return 1;
        }
    }
    return 0;
}

static PyObject *
induced_embedding(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"host_n", "host_adj", "pat_n", "pat_adj", NULL};
    int host_n, pat_n;
    PyObject *host_seq, *pat_seq;
    uint64_t host_adj[MASK_CAP], pat_adj[MASK_CAP], start[MASK_CAP];
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOiO:induced_embedding",
                                     names, &host_n, &host_seq, &pat_n,
                                     &pat_seq))
        return NULL;
    if (host_n > 62)
        return PyErr_Format(PyExc_ValueError,
                            "vertex count must be at most 62, got %d", host_n);
    if (pat_n < 0)
        return PyErr_Format(PyExc_ValueError,
                            "pattern vertex count must be non-negative, "
                            "got %d", pat_n);
    if (pat_n == 0)
        return PyTuple_New(0);
    if (pat_n > host_n)
        Py_RETURN_NONE;
    if (read_masks(host_seq, host_n, host_adj, MASK_CAP) < 0
        || read_masks(pat_seq, pat_n, pat_adj, MASK_CAP) < 0)
        return NULL;
    struct embedding e = {.pat_n = pat_n, .host_adj = host_adj,
                          .pat_adj = pat_adj};
    for (int i = 0; i < pat_n; i++) {
        int p = i, j = i, deg = popcount(pat_adj[p]);
        for (; j > 0 && popcount(pat_adj[e.order[j - 1]]) < deg; j--)
            e.order[j] = e.order[j - 1];
        e.order[j] = p;
    }
    for (int i = 0; i < pat_n; i++) {
        int deg = popcount(pat_adj[e.order[i]]);
        start[i] = 0;
        for (int h = 0; h < host_n; h++)
            if (popcount(host_adj[h]) >= deg)
                start[i] |= BIT(h);
    }
    if (!embed_rec(&e, 0, start))
        Py_RETURN_NONE;
    PyObject *mapping = PyTuple_New(pat_n);
    if (mapping == NULL)
        return NULL;
    for (int p = 0; p < pat_n; p++) {
        PyObject *h = PyLong_FromLong(e.assign[p]);
        if (h == NULL) {
            Py_DECREF(mapping);
            return NULL;
        }
        PyTuple_SET_ITEM(mapping, p, h);
    }
    return mapping;
}

/* ---------------------------------------------------------------- module */

#define KERNEL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, \
     METH_VARARGS | METH_KEYWORDS, doc}

static PyMethodDef methods[] = {
    KERNEL(max_clique,
           "max_clique(n, adj) -> size\n\n"
           "Exact clique number: the size of a largest clique, 0 when\n"
           "n <= 0."),
    KERNEL(min_hitting_set,
           "min_hitting_set(universe, constraints, lower_bound=0)"
           " -> mask\n\n"
           "A minimum hitting set as a mask, its popcount the minimum size;\n"
           "lower_bound must be valid for the instance; solves pass none."),
    KERNEL(lex_min_hitting_set,
           "lex_min_hitting_set(universe, constraints, found) -> mask\n\n"
           "The lexicographically smallest minimum hitting set, given\n"
           "found, some minimum hitting set of the constraints."),
    KERNEL(canonical_bits,
           "canonical_bits(n, adj) -> int\n\n"
           "Minimum upper-triangle bit string over all relabelings, n <= 11."),
    KERNEL(is_canonical,
           "is_canonical(n, adj, own) -> bool\n\n"
           "canonical_bits(n, adj) == own, with the early exit."),
    KERNEL(induced_embedding,
           "induced_embedding(host_n, host_adj, pat_n, pat_adj)"
           " -> tuple or None\n\n"
           "First induced copy of the pattern in the host in the documented\n"
           "order: pattern vertices by degree descending, hosts ascending."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled search kernels; C ports of locdim._pure.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
