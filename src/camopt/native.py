"""The compiled kernels: one C source, native.c beside this module, built by
the system compiler at first use and loaded through ctypes.

The source holds three kernels: the field fit's step, `fit_forward` and
`fit_backward` around numpy's exp, which one call of a FitStep runs over
its fit's workspace (the encode of the weights, the float32 slab passes,
the float64 row chain and the float64 chain back to the weights; the
library exports the slab passes, `fit_scores` and `fit_grads`, on their
own as well, and the tests bind them there); the float64 attention
scores of the field's queries and placement loss and their gradient with
respect to the query offsets (`attend_scores`, `attend_b_grad`); and the
exact occupied-cell traversal behind visibility (`cell_blocked`). The
first call that needs a kernel (a visibility traversal, a field fit or a
field query) compiles native.c once per process into a temporary
directory, loads it and deletes the directory (`load`). Nothing is built
or read at import and nothing is cached on disk. The package needs a C
compiler: where there is no `cc` on PATH, or the build or the load fails,
`load` raises a RuntimeError that says why, at that call and at every
later one.

FP contraction is off and every kernel sums in one fixed sequential order,
so the results do not depend on the optimization flags or the BLAS kernel:
the fit step equals a numpy evaluation in the kernels' summation order
(each float64 product over its inner index, each row's sums over its keys,
the slab passes' float32 sums over channels, keys or queries), the
attention scores and their gradient equal a float64 numpy evaluation in
the kernel's order (over the channels for the scores, over the keys for
the gradient), and the traversal's masks equal a vectorized numpy
traversal's. The tests keep those numpy evaluations as the kernels'
oracles.
"""

import ctypes
import os
import platform
import shutil
import tempfile
import threading
import weakref

import numpy as np

HIDDEN = 32          # the observation field's hidden width, compiled into the field's kernels
D_K = 32             # the width of its attention queries and keys, compiled into the fit kernels
FLUSH = 1e-30        # fit-step logit gradients below this in magnitude are dropped

# -march=native is safe: the library is built on the host that runs it and
# kept nowhere, and its results do not depend on the flags. Without it gcc
# 12 builds for the architecture's baseline (SSE2 on x86-64), and a fit step
# takes about twice as long.
# Where an x86 host has 512-bit vectors, gcc uses them only when asked, and
# the slab passes and the attention scores run faster in them; other
# architectures have no such option.
OPT = ("-O3", "-march=native") + (("-mprefer-vector-width=512",)
                                  if platform.machine().lower() in ("x86_64", "amd64") else ())
FLAGS = ("-ffp-contract=off", f"-DH={HIDDEN}", f"-DDK={D_K}", f"-DFLUSH={FLUSH!r}", "-shared",
         "-fPIC")


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


class _Fit(ctypes.Structure):
    """The C struct fit: a fit step's operands and workspace."""
    _fields_ = ([("nq", ctypes.c_long), ("nm", ctypes.c_long),
                 ("weight", ctypes.c_void_p * 6)]
                + [(name, ctypes.c_void_p) for name in ("basis", "v", "dv", "sup", "pos", "nrm",
                                                        "target", "s")]
                + [("grad", ctypes.c_void_p * 6), ("work", ctypes.c_void_p)])


# the shapes of the six weights, in the order of their spans of field.theta
WEIGHT_SHAPES = ((6, HIDDEN), (HIDDEN,), (HIDDEN, HIDDEN), (HIDDEN,), (HIDDEN, D_K), (HIDDEN, D_K))
_WEIGHT_ENDS = np.cumsum([np.prod(shape) for shape in WEIGHT_SHAPES]).tolist()


def weight_views(flat: np.ndarray) -> tuple:
    """The six weights W1, b1, W2, b2, WQ and WK as views of one vector of
    their float64 elements, one after the other in WEIGHT_SHAPES order."""
    return tuple(part.reshape(shape) for part, shape in
                 zip(np.split(flat, _WEIGHT_ENDS[:-1]), WEIGHT_SHAPES, strict=True))


class FitStep:
    """The compiled step of one fit over its own workspace. A call,

        grad = step(positions, normals, target)

    runs fit_forward, which encodes the weights and writes the float32 slab
    scores of the batch rows (positions and normals (rows, 3)), each row
    less its maximum, into s (rows, keys); numpy's exp of s in place; and
    fit_backward, which runs the float64 row chain against target (rows, 3),
    leaving the logit gradients in s, the float32 slab gradients and the
    float64 weight chain. It returns the gradient of the batch's mean
    squared error with respect to the weight vector theta, a float64 array
    of theta's shape in the workspace that the next call overwrites. The
    kernels read theta and the keys' arrays in place, so theta must be
    updated in place between steps (autodiff.adam_step does). A step
    allocates nothing."""

    def __init__(self, lib, theta, basis, V, dV, sup, rows: int):
        keys = len(basis)
        f64 = np.float64
        _address(theta, f64, (_WEIGHT_ENDS[-1],))
        self.lib = lib
        self.s = np.empty((rows, keys))
        self.grad = np.empty_like(theta)
        self._work = np.empty(lib.fit_work(rows, keys))
        self._operands = (theta, basis, V, dV, sup)    # kept alive for the kernels
        self._fit = _Fit(
            rows, keys, (ctypes.c_void_p * 6)(*[w.ctypes.data for w in weight_views(theta)]),
            _address(basis, f64, (keys, 6)), _address(V, f64, (keys, 3)),
            _address(dV, f64, (3, keys)), _address(sup, f64, (3,)), None, None, None,
            self.s.ctypes.data,
            (ctypes.c_void_p * 6)(*[g.ctypes.data for g in weight_views(self.grad)]),
            self._work.ctypes.data)
        self._ref = ctypes.byref(self._fit)

    def __call__(self, positions, normals, target) -> np.ndarray:
        """The weight gradient of one step on the batch rows at positions
        with normals against their attributes target, all float64 (rows,
        3)."""
        shape = (self._fit.nq, 3)
        self._fit.pos = _address(positions, np.float64, shape)
        self._fit.nrm = _address(normals, np.float64, shape)
        self._fit.target = _address(target, np.float64, shape)
        self.lib.fit_forward(self._ref)
        np.exp(self.s, out=self.s)
        self.lib.fit_backward(self._ref)
        return self.grad


class Library:
    """ctypes binding of the compiled kernels the package calls. Arrays go
    in as raw pointers, each checked first for dtype, contiguity and shape;
    a grid's arrays are checked once, at its first traversal. The functions keep no state and
    ctypes releases the GIL around them, so threads run them in parallel."""

    def __init__(self, lib):
        ptr, n, f64 = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
        self.lib = lib
        self._grids = weakref.WeakKeyDictionary()    # grid -> _grid_operands(grid)
        lib.fit_work.argtypes = [n, n]
        lib.fit_work.restype = n
        for step in (lib.fit_forward, lib.fit_backward):
            step.argtypes = [ctypes.POINTER(_Fit)]
            step.restype = None
        lib.attend_scores.argtypes = [ptr] * 4 + [n, n]
        lib.attend_scores.restype = None
        lib.attend_b_grad.argtypes = [ptr] * 5 + [n, n]
        lib.attend_b_grad.restype = None
        lib.cell_blocked.argtypes = [ptr] * 4 + [f64, ptr, ptr, n] + [f64] * 3 + [ptr, n, ptr]
        lib.cell_blocked.restype = n

    def fit_step(self, theta, basis, V, dV, sup, rows: int) -> FitStep:
        """A fit step (FitStep) of batches of rows training rows against the
        float64 weight vector theta (weight_views) and the snapshot's keys:
        their encoder inputs basis (keys, 6) and attributes V (keys, 3),
        dV = V.T * 2 / (3 rows) and the attribute ceilings sup (3,)."""
        return FitStep(self.lib, theta, basis, V, dV, sup, rows)

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


def build(opt=OPT) -> Library:
    """Compile native.c with the system C compiler into a temporary
    directory, load it and delete the directory. Raises RuntimeError when
    there is no `cc` on PATH, with the compiler's stderr when the build
    fails, and when the load fails."""
    # imported here, not at module level: only a build needs it, and it is
    # the one module this adds to `import camopt`
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("camopt needs a C compiler to build its kernels, and there is no "
                           "`cc` on PATH")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
    with tempfile.TemporaryDirectory(prefix="camopt-native-") as tmp:
        lib = os.path.join(tmp, "native.so")
        try:
            subprocess.run([cc, *opt, *FLAGS, "-o", lib, src, "-lm"], check=True,
                           stdin=subprocess.DEVNULL, capture_output=True, text=True,
                           errors="replace", timeout=120)
            return Library(ctypes.CDLL(lib))
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(f"building camopt's kernels with {cc} failed "
                               f"(exit {exc.returncode}):\n{exc.stderr}") from None
        except (OSError, subprocess.SubprocessError) as exc:
            raise RuntimeError(f"building or loading camopt's kernels failed: {exc}") from None


_lock = threading.Lock()
_library = None
_tried = False
_error = None


def load() -> Library:
    """The kernels, built by the first call of the process (one build even
    when threads call at once). Where that build failed, every call raises
    its RuntimeError again, without a second attempt."""
    global _library, _tried, _error
    with _lock:
        if not _tried:
            _tried = True
            try:
                _library = build()
            except RuntimeError as exc:
                _error = str(exc)
    if _library is None:
        raise RuntimeError(_error)
    return _library
