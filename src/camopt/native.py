"""The compiled kernels: one C source, built by the system compiler at first
use and loaded through ctypes.

The source holds three kernels: the field fit's float32 slab passes
(`fit_scores`, `fit_grads`), which read and write float64 at the side of
the fit's float64 row chain; the float64 attention scores of the field's
queries and placement loss and their gradient with respect to the query
offsets (`attend_scores`, `attend_b_grad`); and the exact occupied-cell
traversal behind visibility (`cell_blocked`). The first call that needs
a kernel (a visibility traversal, a field fit or a field query) compiles
the whole source once per process into a temporary directory, loads it
and deletes the directory (`load`). Nothing is built at import and
nothing is cached on disk. Where there is no `cc` on PATH, or the build or
the load fails, `load` returns None and every caller runs its numpy path.

FP contraction is off and every kernel sums in one fixed sequential order,
so the results do not depend on the optimization flags: the traversal's
masks equal the numpy traversal's; the fit's slab passes equal a
full-tensor numpy evaluation in the kernel's summation order, and their
float32-float64 conversions are the numpy step's casts; the attention
scores and their gradient equal a float64 numpy evaluation in the kernel's
order (over the channels for the scores, over the keys for the gradient),
which differs from the order of the numpy helpers the callers run without
the library (autodiff.scores_forward, scores_b_grad) in the last bits.
"""

import ctypes
import os
import shutil
import tempfile
import threading
import weakref
from typing import Optional

import numpy as np

HIDDEN = 32          # the observation field's hidden width, compiled into the field's kernels
FLUSH = 1e-30        # fit-step logit gradients below this in magnitude are dropped

SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Keys per register tile of the scores: a tile's sums stay in registers
   across all H channels. */
#define TILE 64

/* The scores s[q, m] = sum_h relu(at[h, m] + b[q, h]) * z[q, h] of one
   element type real, summed in real over the channels in order and stored
   as double: name##_tile holds the sums of keys [0, n) of one tile, n <=
   TILE, and name runs the tiles of every query. at is a transposed, (H,
   nm), so the inner loop runs over contiguous keys. The relu is a product
   with the 0/1 mask, which keeps the loops free of branches so the compiler
   vectorizes them; it differs from max(pre, 0) only in the sign of a zero,
   which no sum here can carry. A full tile passes the constant TILE, which
   lets the compiler keep its sums in registers. */
#define SCORES(name, real)                                                          \
static inline void name##_tile(const real *restrict at, long nm,                   \
                               const real *restrict b, const real *restrict z,     \
                               double *restrict s, long n)                         \
{                                                                                   \
    real acc[TILE] = {0};                                                           \
    for (long h = 0; h < H; h++) {                                                  \
        const real bh = b[h], zh = z[h];                                            \
        const real *restrict col = at + h * nm;                                     \
        for (long i = 0; i < n; i++) {                                              \
            const real pre = col[i] + bh, on = pre > 0;                             \
            acc[i] += pre * on * zh;                                                \
        }                                                                           \
    }                                                                               \
    for (long i = 0; i < n; i++)                                                    \
        s[i] = acc[i];                                                              \
}                                                                                   \
                                                                                    \
void name(const real *restrict at, const real *restrict b, const real *restrict z, \
          double *restrict s, long nq, long nm)                                     \
{                                                                                   \
    for (long q = 0; q < nq; q++) {                                                 \
        const real *restrict bq = b + q * H, *restrict zq = z + q * H;              \
        long m = 0;                                                                 \
        for (; m + TILE <= nm; m += TILE)                                           \
            name##_tile(at + m, nm, bq, zq, s + q * nm + m, TILE);                  \
        if (m < nm)                                                                 \
            name##_tile(at + m, nm, bq, zq, s + q * nm + m, nm - m);                \
    }                                                                               \
}

/* The field fit's two slab passes. Their arithmetic is float32 and the
   sums run in one fixed sequential order: the scores over channels; gz and
   gb over keys, ga over queries. The row chain between the passes is
   float64, so the scores go out widened to double (exact) and the logit
   gradients come in as double and are rounded to float32 here. */
SCORES(fit_scores, float)

/* With w[q, m] the logit gradient g[q, m] rounded to float32, or +0 where
   |g| < FLUSH (as a float32 denormal it would slow every product it
   enters), and t[q, m, h] = w[q, m] * (z[q, h] * on[q, m, h]), on the relu
   mask of a[m, h] + b[q, h]: gz[q] = sum_m w[q, m] * relu(a[m] + b[q]),
   gb[q] = sum_m t[q, m] and ga[m] = sum_q t[q, m], each summed in float32
   and stored as double. ga32 (nm, H) is the float32 scratch ga sums in. */
void fit_grads(const float *restrict a, const float *restrict b,
               const float *restrict z, const double *restrict g,
               float *restrict ga32, double *restrict ga, double *restrict gb,
               double *restrict gz, long nq, long nm)
{
    for (long i = 0; i < nm * H; i++)
        ga32[i] = 0.0f;
    for (long q = 0; q < nq; q++) {
        const float *restrict bq = b + q * H, *restrict zq = z + q * H;
        float sb[H] = {0.0f}, sz[H] = {0.0f};
        for (long m = 0; m < nm; m++) {
            const double gqm = g[q * nm + m];
            const float w = fabs(gqm) < FLUSH ? 0.0f : (float)gqm;
            const float *restrict am = a + m * H;
            float *restrict gam = ga32 + m * H;
            for (long h = 0; h < H; h++) {
                const float pre = am[h] + bq[h], on = pre > 0.0f;
                const float t = w * (zq[h] * on);
                sz[h] += w * (pre * on);
                sb[h] += t;
                gam[h] += t;
            }
        }
        for (long h = 0; h < H; h++) {
            gb[q * H + h] = sb[h];
            gz[q * H + h] = sz[h];
        }
    }
    for (long i = 0; i < nm * H; i++)
        ga[i] = ga32[i];
}

/* The float64 attention scores of the field's queries and placement loss,
   and their gradient with respect to b. The scores sum over the channels in
   order; the b gradient over the keys in order. */
SCORES(attend_scores, double)

/* gb[q, h] = (sum_m g[q, m] * on[q, m, h]) * z[q, h], on the relu mask of
   a[m, h] + b[q, h], applied as a product with 0/1 so the loops have no
   branches; the H sums of a query stay in registers across its keys. */
void attend_b_grad(const double *restrict a, const double *restrict b,
                   const double *restrict z, const double *restrict g,
                   double *restrict gb, long nq, long nm)
{
    for (long q = 0; q < nq; q++) {
        const double *restrict bq = b + q * H;
        double acc[H] = {0.0};
        for (long m = 0; m < nm; m++) {
            const double gqm = g[q * nm + m];
            const double *restrict am = a + m * H;
            for (long h = 0; h < H; h++) {
                const double on = am[h] + bq[h] > 0.0;
                acc[h] += gqm * on;
            }
        }
        for (long h = 0; h < H; h++)
            gb[q * H + h] = acc[h] * z[q * H + h];
    }
}

/* The occupied-cell box: its 0/1 cells in C order, their strides and the
   top cell along each axis. */
struct box {
    const unsigned char *occupied;
    double top[3];
    int64_t stride[3];
};

/* A cell coordinate clipped into the box: max(v, 0), then min(., top). */
static double clip(double v, double top)
{
    return v > 0.0 ? (v < top ? v : top) : 0.0;
}

/* The hit test, the one place a visited cell is judged: it blocks the ray
   when it is occupied and is not the target's own cell. */
static int hits(const struct box *box, int64_t cell, int64_t own)
{
    return box->occupied[cell] && cell != own;
}

/* Whether the ray start + t * ray, t in [t_in, t_out], passes through a
   blocking cell: the entry cell, then along each moving axis in turn the
   cell each plane crossing enters, and for a crossing that also lies on a
   plane of a moving other axis the cell below that plane too. Each step is
   the numpy traversal's expression (visibility._numpy_cell_blocked). */
static int ray_blocked(const struct box *box, const double *start,
                       const double *ray, double t_in, double t_out, int64_t own)
{
    double first[3], last[3];
    for (int a = 0; a < 3; a++) {
        first[a] = clip(floor(start[a] + t_in * ray[a]), box->top[a]);
        last[a] = clip(floor(start[a] + t_out * ray[a]), box->top[a]);
    }
    int64_t cell = 0;
    for (int a = 0; a < 3; a++)
        cell += (int64_t)first[a] * box->stride[a];
    if (hits(box, cell, own))
        return 1;
    for (int a = 0; a < 3; a++) {
        if (ray[a] == 0.0)
            continue;
        const double step = ray[a] > 0.0 ? 1.0 : -1.0;
        const int64_t count = (int64_t)((last[a] - first[a]) * step);
        const int b = a == 2 ? 0 : a + 1, c = a == 0 ? 2 : a - 1;
        for (int64_t k = 1; k <= count; k++) {
            const double entered = first[a] + (double)k * step;
            const double plane = entered + (step < 0.0 ? 1.0 : 0.0);
            const double t = (plane - start[a]) / ray[a];
            const double pb = t * ray[b] + start[b], pc = t * ray[c] + start[c];
            const double fb = floor(pb), fc = floor(pc);
            const int64_t base = (int64_t)entered * box->stride[a];
            const int64_t upper = base + (int64_t)clip(fb, box->top[b]) * box->stride[b]
                                  + (int64_t)clip(fc, box->top[c]) * box->stride[c];
            if (hits(box, upper, own))
                return 1;
            const int on_b = pb == fb && ray[b] != 0.0, on_c = pc == fc && ray[c] != 0.0;
            if (on_b || on_c) {
                const int64_t lower = base + (int64_t)clip(fb - on_b, box->top[b]) * box->stride[b]
                                      + (int64_t)clip(fc - on_c, box->top[c]) * box->stride[c];
                if (lower != upper && hits(box, lower, own))
                    return 1;
            }
        }
    }
    return 0;
}

/* blocked[i] = 1 where the segment from the eye to the center of voxel
   rows[i] passes through an occupied cell other than that voxel's own. Each
   ray is clipped to the box by the slab test first. Returns 0, or i + 1 for
   the first row i outside [0, m), where it stops. */
long cell_blocked(const unsigned char *occupied, const int64_t *lo, const int64_t *shape,
                  const double *origin, double res, const double *centers,
                  const int64_t *keys, long m, double ex, double ey, double ez,
                  const int64_t *rows, long n, unsigned char *blocked)
{
    struct box box = {occupied, {0.0}, {shape[1] * shape[2], shape[2], 1}};
    const double eye[3] = {ex, ey, ez};
    double start[3], ext[3];
    int inside[3];
    for (int a = 0; a < 3; a++) {
        start[a] = (eye[a] - origin[a]) / res - (double)lo[a];
        ext[a] = (double)shape[a];
        box.top[a] = ext[a] - 1.0;
        const double cell = floor(start[a]);
        inside[a] = cell >= 0.0 && cell < ext[a];
    }
    for (long i = 0; i < n; i++) {
        const int64_t row = rows[i];
        if (row < 0 || row >= m)
            return i + 1;
        double ray[3], t_in = -INFINITY, t_out = INFINITY;
        int enters = 1;
        for (int a = 0; a < 3; a++) {
            ray[a] = (centers[3 * row + a] - eye[a]) / res;
            if (ray[a] != 0.0) {
                const double t_lo = -start[a] / ray[a], t_hi = (ext[a] - start[a]) / ray[a];
                const double near = t_lo < t_hi ? t_lo : t_hi, far = t_lo < t_hi ? t_hi : t_lo;
                t_in = near > t_in ? near : t_in;
                t_out = far < t_out ? far : t_out;
            } else {
                enters &= inside[a];
            }
        }
        t_in = t_in > 0.0 ? t_in : 0.0;
        t_out = t_out < 1.0 ? t_out : 1.0;
        const int64_t *key = keys + 3 * row;
        const int64_t own = (key[0] - lo[0]) * box.stride[0] + (key[1] - lo[1]) * box.stride[1]
                            + (key[2] - lo[2]) * box.stride[2];
        blocked[i] = enters && t_in < t_out && ray_blocked(&box, start, ray, t_in, t_out, own);
    }
    return 0;
}
"""
# -march=native is safe: the library is built on the host that runs it and
# kept nowhere, and its results do not depend on the flags. Without it gcc
# 12 leaves the fit's gradient loop scalar, slower than the numpy step.
OPT = ("-O3", "-march=native")
FLAGS = ("-ffp-contract=off", f"-DH={HIDDEN}", f"-DFLUSH={FLUSH!r}", "-shared", "-fPIC")


def _address(x: np.ndarray, dtype, shape) -> int:
    """The data address of x after checking that it is a C-contiguous array
    of dtype and shape, the layout its kernel reads."""
    if not (isinstance(x, np.ndarray) and x.dtype == dtype and x.shape == shape
            and x.flags.c_contiguous):
        raise ValueError(f"kernel operand is not a C-contiguous {np.dtype(dtype)} array "
                         f"of shape {shape}")
    return x.ctypes.data


def _grid_operands(grid) -> tuple:
    """The traversal's per-grid operands, checked: the occupied-cell box
    (cells, lower corner, extent), the lattice origin and resolution, and
    the voxel centers and keys with their count."""
    lo, shape, occupied = grid.occupancy
    m = len(grid.centers)
    return (_address(occupied, np.bool_, tuple(shape.tolist())), _address(lo, np.int64, (3,)),
            _address(shape, np.int64, (3,)), _address(grid.origin, np.float64, (3,)),
            float(grid.resolution), _address(grid.centers, np.float64, (m, 3)),
            _address(grid.keys, np.int64, (m, 3)), m)


class Library:
    """ctypes binding of the compiled kernels. Arrays go in as raw pointers,
    each checked first for dtype, contiguity and shape; a grid's arrays are
    checked once, at its first traversal. The functions keep no state and
    ctypes releases the GIL around them, so threads run them in parallel."""

    def __init__(self, lib):
        ptr, n, f64 = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
        self.lib = lib
        self._grids = weakref.WeakKeyDictionary()    # grid -> _grid_operands(grid)
        lib.fit_scores.argtypes = [ptr] * 4 + [n, n]
        lib.fit_scores.restype = None
        lib.fit_grads.argtypes = [ptr] * 8 + [n, n]
        lib.fit_grads.restype = None
        lib.attend_scores.argtypes = [ptr] * 4 + [n, n]
        lib.attend_scores.restype = None
        lib.attend_b_grad.argtypes = [ptr] * 5 + [n, n]
        lib.attend_b_grad.restype = None
        lib.cell_blocked.argtypes = [ptr] * 4 + [f64, ptr, ptr, n] + [f64] * 3 + [ptr, n, ptr]
        lib.cell_blocked.restype = n

    def fit_scores(self, A, B, Z, out) -> np.ndarray:
        """The (q, keys) scores sum_h relu(A[m] + B[q])_h Z[q, h] of float32
        A, B and Z, summed in float32 and written widened into the float64
        array out, which is returned."""
        q, m = len(B), len(A)
        f32 = np.float32
        At = np.ascontiguousarray(A.T)
        self.lib.fit_scores(_address(At, f32, (HIDDEN, m)), _address(B, f32, (q, HIDDEN)),
                            _address(Z, f32, (q, HIDDEN)), _address(out, np.float64, (q, m)),
                            q, m)
        return out

    def fit_grads(self, A, B, Z, g, scratch):
        """(gA, gB, gZ), float64, for the float64 logit gradients g (q,
        keys), which the kernel flushes and rounds to float32; scratch is a
        float32 array of A's shape that gA sums in."""
        q, m = len(B), len(A)
        f32 = np.float32
        args = (_address(A, f32, (m, HIDDEN)), _address(B, f32, (q, HIDDEN)),
                _address(Z, f32, (q, HIDDEN)), _address(g, np.float64, (q, m)),
                _address(scratch, f32, (m, HIDDEN)))
        gA, gB, gZ = np.empty((m, HIDDEN)), np.empty((q, HIDDEN)), np.empty((q, HIDDEN))
        self.lib.fit_grads(*args, gA.ctypes.data, gB.ctypes.data, gZ.ctypes.data, q, m)
        return gA, gB, gZ

    def attend_scores(self, A, B, Z) -> np.ndarray:
        """The float64 (q, keys) scores sum_h relu(A[m] + B[q])_h Z[q, h] of
        float64 A (keys, 32), B and Z (q, 32), summed over the channels in
        order (autodiff.scores_forward sums the same terms)."""
        q, m = len(B), len(A)
        f64 = np.float64
        _address(A, f64, (m, HIDDEN))     # checked before the transpose could hide it
        At = np.ascontiguousarray(A.T)
        s = np.empty((q, m))
        self.lib.attend_scores(At.ctypes.data, _address(B, f64, (q, HIDDEN)),
                               _address(Z, f64, (q, HIDDEN)), s.ctypes.data, q, m)
        return s

    def attend_b_grad(self, A, B, Z, g) -> np.ndarray:
        """The float64 gradient (q, 32) of sum(g * attend_scores(A, B, Z))
        with respect to B, its sums over the keys in order
        (autodiff.scores_b_grad sums the same terms)."""
        q, m = len(B), len(A)
        f64 = np.float64
        args = (_address(A, f64, (m, HIDDEN)), _address(B, f64, (q, HIDDEN)),
                _address(Z, f64, (q, HIDDEN)), _address(g, f64, (q, m)))
        gb = np.empty((q, HIDDEN))
        self.lib.attend_b_grad(*args, gb.ctypes.data, q, m)
        return gb

    def cell_blocked(self, grid, eye, rows) -> np.ndarray:
        """The traversal's mask over the voxel rows for a camera at eye
        (visibility._cell_blocked); a row outside [0, voxel count) raises
        IndexError."""
        operands = self._grids.get(grid)
        if operands is None:
            operands = self._grids[grid] = _grid_operands(grid)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        blocked = np.empty(len(rows), dtype=bool)
        ex, ey, ez = np.asarray(eye, dtype=np.float64).reshape(3).tolist()
        bad = self.lib.cell_blocked(*operands, ex, ey, ez, _address(rows, np.int64, (len(rows),)),
                                    len(rows), blocked.ctypes.data)
        if bad:
            raise IndexError(f"voxel row {rows[bad - 1]} is out of range for {operands[-1]} voxels")
        return blocked


def build(opt=OPT) -> Optional[Library]:
    """Compile SOURCE with the system C compiler into a temporary directory,
    load it and delete the directory; None when there is no compiler or the
    build or the load fails."""
    # imported here, not at module level: only a build needs it, and it is
    # the one module this adds to `import camopt`
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        with tempfile.TemporaryDirectory(prefix="camopt-native-") as tmp:
            src, lib = os.path.join(tmp, "native.c"), os.path.join(tmp, "native.so")
            with open(src, "w") as fh:
                fh.write(SOURCE)
            subprocess.run([cc, *opt, *FLAGS, "-o", lib, src, "-lm"], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
            return Library(ctypes.CDLL(lib))
    except (OSError, subprocess.SubprocessError):
        return None


_lock = threading.Lock()
_library = None
_tried = False


def load() -> Optional[Library]:
    """The kernels, built by the first call of the process (one build even
    when threads call at once); None where they cannot be built."""
    global _library, _tried
    with _lock:
        if not _tried:
            _library = build()
            _tried = True
    return _library
