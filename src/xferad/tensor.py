"""Dense n-d arrays with reverse-mode automatic differentiation.

Just enough machinery to train small convolutional networks on a CPU:
numpy holds the values, every differentiable op optionally records a
node on a Tape, and backward() replays the tape in reverse. Tensors are
treated as immutable once produced by an op; parameters are the only
arrays mutated in place (by the optimizer, between passes).
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)


def _usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the process's only helper threads, one per usable CPU past the caller's (none
# starts with one CPU), each started on first use and kept, with its own malloc arena
_HELPERS = ThreadPoolExecutor(max(_usable_cpus() - 1, 1), thread_name_prefix="xferad-helper")


def run_all(tasks):
    """[t() for t in tasks], the caller and up to min(_usable_cpus(),
    len(tasks)) - 1 of _HELPERS taking the tasks in order.

    No task starts once one has failed, so every task before the earliest
    failing one has run, and its error, the serial loop's, is raised. A
    helper loop not yet started when the caller runs out of tasks is
    cancelled, not waited on, so a task may call run_all while every
    helper is busy.
    """
    results, failures = [None] * len(tasks), []
    order, lock = iter(range(len(tasks))), threading.Lock()

    def loop():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = tasks[i]()
            except BaseException as e:  # an interrupt too: it stops the others, raised below
                failures.append((i, e))

    helpers = [_HELPERS.submit(loop) for _ in range(min(_usable_cpus(), len(tasks)) - 1)]
    loop()
    for h in helpers:
        if not h.cancel():
            h.result()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


class Tensor:
    """A numpy array plus an optional gradient of the same shape.

    data is stored row-major. grad stays None until backward() deposits
    into it; repeated backward calls accumulate.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of the ops of one forward pass.

    Execution order is a valid topological order: every node's inputs
    are either leaves or outputs of earlier nodes.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []


def _emit(out_data, inputs, backward_fn, tape):
    """Wrap an op result; record it when a tape is given and a gradient can flow.

    backward_fn(g) must return one gradient array (or None) per input,
    and must not mutate g or retain references for later mutation.
    """
    out = Tensor(out_data)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(_Node(out, inputs, backward_fn))
    return out


def backward(loss, tape):
    """Populate grad on every requires_grad leaf reachable from loss.

    loss must be a scalar produced under this tape. Gradients of
    intermediate (tape-produced) tensors are kept internal; a tensor
    feeding several consumers receives the sum of all contributions.
    """
    if not isinstance(tape, Tape) or not tape.nodes:
        raise ContractError("backward needs the tape the loss was recorded on")
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(n.output) for n in tape.nodes}
    if id(loss) not in produced:
        raise ContractError("loss was not produced under this tape")

    flows = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = flows.pop(id(node.output), None)
        if g is None:
            continue  # no gradient path reached this node
        for inp, gi in zip(node.inputs, node.backward_fn(g)):
            if gi is None or not inp.requires_grad:
                continue
            if id(inp) in produced:
                prev = flows.get(id(inp))
                flows[id(inp)] = gi if prev is None else prev + gi
            else:
                inp.grad = gi if inp.grad is None else inp.grad + gi


# ---------------------------------------------------------------------------
# elementwise / shape ops


def add(a, b, tape=None):
    """Elementwise sum; b may broadcast against a (e.g. a bias row)."""
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit(out, (a, b), bwd, tape)


def mul(a, b, tape=None):
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ, {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g * bd, g * ad

    return _emit(ad * bd, (a, b), bwd, tape)


def scale(x, s, tape=None):
    """Multiply by a python scalar."""
    s = float(s)

    def bwd(g):
        return (g * s,)

    return _emit(x.data * s, (x,), bwd, tape)


def relu(x, tape=None):
    xd = x.data

    def bwd(g):
        return (g * (xd > 0),)

    return _emit(np.maximum(xd, 0), (x,), bwd, tape)


def reshape(x, shape, tape=None):
    """View with a new shape; element count and row-major order preserved."""
    shape = tuple(int(s) for s in shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from None
    in_shape = x.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _emit(out, (x,), bwd, tape)


def flatten(x, tape=None):
    """Collapse all but the leading (batch) axis."""
    n = x.shape[0] if x.data.ndim > 0 else 1
    return reshape(x, (n, x.size // n), tape)


def sum_all(x, tape=None):
    """Sum of all elements, as a scalar tensor."""
    in_shape = x.shape
    dt = x.dtype

    def bwd(g):
        return (np.broadcast_to(g, in_shape).copy(),)

    return _emit(np.asarray(x.data.sum(), dtype=dt), (x,), bwd, tape)


def _unbroadcast(g, shape):
    """Sum g down to shape, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b, tape=None):
    """Matrix product of a [m,k] and b [k,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        da = g @ bd.T if a.requires_grad else None
        db = ad.T @ g if b.requires_grad else None
        return da, db

    return _emit(ad @ bd, (a, b), bwd, tape)


# ---------------------------------------------------------------------------
# convolution / pooling


def _spans(n, k, stride, padding, n_out):
    """Per kernel offset i along one axis: the slice of outputs o whose input
    o*stride + i - padding lies inside [0, n), and the slice of those inputs;
    None when no output's input does."""
    spans = []
    for i in range(k):
        lo = max(0, -((i - padding) // stride))
        hi = min(n_out, (n - 1 + padding - i) // stride + 1)
        first = lo * stride + i - padding
        spans.append((slice(lo, hi), slice(first, first + stride * (hi - lo - 1) + 1, stride))
                     if lo < hi else None)
    return spans


@functools.lru_cache(maxsize=256)
def _clipped_taps(H, W, kh, kw, stride, padding, Ho, Wo):
    """The window offsets that reach inside the unpadded [H,W] input, in
    row-major order, as (k, out, inp): tap k = i*kw + j of the patches holds
    the input elements [..., inp] at [..., out], and zero elsewhere."""
    rows = _spans(H, kh, stride, padding, Ho)
    cols = _spans(W, kw, stride, padding, Wo)
    return tuple((i * kw + j, (..., r[0], c[0]), (..., r[1], c[1]))
                 for i, r in enumerate(rows) if r
                 for j, c in enumerate(cols) if c)


@functools.lru_cache(maxsize=256)
def _conv_taps(H, W, kh, kw, stride, padding, Ho, Wo):
    """(input plane, output plane, taps) for conv2d's tap loop; each tap is
    (k, out, inp, wrap): tap k of the patches, laid out as the output plane,
    holds the input elements [..., inp], laid out as the input plane, at
    [..., out]; the [Ho,Wo] columns [..., wrap] of it must then be zeroed.

    At stride 1 with Wo == W both planes are flat: offset (i, j) shifts the
    whole H*W plane by (i-p)*W + (j-p), one slice per tap. The shift carries
    |j-p| elements per row across the row end; those are the tap's wrapped
    columns. Any other geometry keeps _clipped_taps' row blocks (wrap None).
    """
    if stride != 1 or Wo != W:
        blocks = _clipped_taps(H, W, kh, kw, stride, padding, Ho, Wo)
        return (H, W), (Ho, Wo), tuple((k, out, inp, None) for k, out, inp in blocks)
    taps = []
    for k, (_, rows, cols), _ in _clipped_taps(H, W, kh, kw, 1, padding, Ho, Wo):
        d = k % kw - padding
        shift = (k // kw - padding) * W + d
        lo = max(rows.start * W, -shift)
        hi = min(rows.stop * W, H * W - shift)
        wrap = None if d == 0 else (..., slice(cols.stop, W) if d > 0 else slice(0, cols.start))
        taps.append((k, (..., slice(lo, hi)), (..., slice(lo + shift, hi + shift)), wrap))
    return (H * W,), (Ho * Wo,), tuple(taps)


def _bits(a):
    """View of a's elements as unsigned integers of the same width."""
    return a.view(f"u{a.itemsize}")


def _dw_takes_nt(F, K, N, P):
    """Whether conv2d's dw ([F,K], K = C*kh*kw, from N samples of P = Ho*Wo
    outputs) is one NT GEMM over channel-major copies. At M*N*K <= 100**3
    OpenBLAS's small-matrix kernels give bits that depend on the operand
    layout; above it NT gives tensordot's NN bytes. Vector extents run as
    gemv, and planes under 256 (conv3's 8x8) gain nothing from the copies."""
    return F > 1 and K > 1 and P >= 256 and F * K * N * P > 100 ** 3


def conv2d(x, w, b, stride=1, padding=0, tape=None):
    """Batched 2-d cross-correlation with per-filter bias.

    x: [N,C,H,W], w: [F,C,kh,kw], b: [F]. Output height is
    (H + 2*padding - kh)//stride + 1, likewise width. Implemented as
    im2col + matmul so the backward path is plain matrix algebra plus a
    scatter-add back through the patch extraction (col2im).

    The patch matrix is filled straight from the unpadded x, one slice
    copy per kernel offset (_conv_taps: a shift of the whole flat plane,
    its wrapped columns zeroed after the copy, or a block of rows), each
    clipped to the outputs whose input lies inside x; the rest stays
    zero, as if x were zero-padded.

    The col2im scatter adds the same slices, one per kernel offset in
    row-major order, into a float64 zero array of x's shape, then casts
    once to the gradient's dtype. Each input element thus sums its patch
    contributions in float64, in kernel-offset order, starting from +0.0,
    so no sum is -0.0 and the +0.0 a plane slice adds from its zeroed
    wrapped columns changes none; contributions that land in the padding
    are never made.

    dw is one NT GEMM over channel-major copies on the shapes _dw_takes_nt
    picks (the bytes of tensordot's NN product), tensordot on the others.

    When x and w both need gradients, dw and dx run as run_all([dw, dx]):
    each reads only cols and g and writes its own arrays, as the serial
    backward does, so no byte changes; BLAS and numpy's copies release the GIL.
    """
    stride = int(stride)
    padding = int(padding)
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ShapeError(f"conv2d: padding must be non-negative, got {padding}")
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input and kernels, got {x.shape} and {w.shape}")
    if 0 in w.shape:
        raise ShapeError(f"conv2d: kernels {w.shape} have a zero extent")
    N, C, H, W = x.shape
    F, Cw, kh, kw = w.shape
    if Cw != C:
        raise ShapeError(f"conv2d: input has {C} channels but kernels expect {Cw}")
    if b.shape != (F,):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match {F} filters")
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if kh > Hp or kw > Wp:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {Hp}x{Wp}"
        )

    Ho, Wo = (Hp - kh) // stride + 1, (Wp - kw) // stride + 1
    in_plane, out_plane, taps = _conv_taps(H, W, kh, kw, stride, padding, Ho, Wo)
    cols = (np.zeros if padding else np.empty)((N, C, kh * kw, Ho, Wo), x.dtype)
    planes = cols.reshape(N, C, kh * kw, *out_plane)
    xs = x.data.reshape(N, C, *in_plane)
    for k, out_ix, in_ix, wrap in taps:
        planes[:, :, k][out_ix] = xs[in_ix]
        if wrap:
            cols[:, :, k][wrap] = 0
    cols = cols.reshape(N, C * kh * kw, Ho * Wo)
    wr = w.data.reshape(F, -1)
    out = np.matmul(wr, cols).reshape(N, F, Ho, Wo)
    out += b.data[None, :, None, None]

    def weight_grad(gr):
        if _dw_takes_nt(F, C * kh * kw, N, Ho * Wo):
            # channel-major copies move contiguous Ho*Wo runs, where
            # tensordot's sample-major copy of cols transposes element-wise
            gk = np.ascontiguousarray(gr.transpose(1, 0, 2)).reshape(F, -1)
            ck = np.ascontiguousarray(cols.transpose(1, 0, 2)).reshape(C * kh * kw, -1)
            return np.dot(gk, ck.T).reshape(w.shape)
        return np.tensordot(gr, cols, axes=([0, 2], [0, 2])).reshape(w.shape)

    def input_grad(gr):
        dcols = np.matmul(wr.T, gr).reshape(N, C, kh * kw, Ho, Wo)
        dplanes = dcols.reshape(N, C, kh * kw, *out_plane)
        dx = np.zeros((N, C, *in_plane))
        for k, out_ix, in_ix, wrap in taps:
            if wrap:
                dcols[:, :, k][wrap] = 0
            dx[in_ix] += dplanes[:, :, k][out_ix]
        return dx.reshape(x.shape).astype(gr.dtype, copy=False)

    def bwd(g):
        gr = g.reshape(N, F, Ho * Wo)
        db = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        if w.requires_grad and x.requires_grad:
            dw, dx = run_all([lambda: weight_grad(gr), lambda: input_grad(gr)])
        else:
            dw = weight_grad(gr) if w.requires_grad else None
            dx = input_grad(gr) if x.requires_grad else None
        return dx, dw, db

    return _emit(out, (x, w, b), bwd, tape)


def maxpool2d(x, window, stride, tape=None):
    """Per-window max over [N,C,H,W]; ties route gradient to the first
    (row-major) maximal element of the window.

    The forward is np.maximum over strided views of the window's rows,
    then of its columns. np.maximum breaks a -0.0/+0.0 tie by operand
    order, one way in its SIMD loop and the other in its scalar loop, so
    when x holds a -0.0 each window whose max is zero then takes the bits
    of its first zero tap in row-major order (without one, that max is
    +0.0 already): the output is the first maximal element's bits for
    every non-NaN input (NaN is outside this contract).

    Windows must not overlap (stride >= window). The backward's hits are
    the first tap, in row-major order, equal to the output; it assigns
    each tap's hit gradients of g + 0 into a zero array, so a -0.0
    gradient lands as +0.0. It selects values through their bit patterns
    (the bits multiplied by a 0/1 mask) instead of np.where, whose
    per-element branch mispredicts on pooling data and costs several
    times as much.
    """
    window = int(window)
    stride = int(stride)
    if window < 1 or stride < 1:
        raise ShapeError(f"maxpool2d: window {window} and stride {stride} must be positive")
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d: need 4-d input, got {x.shape}")
    H, W = x.shape[2:]
    if window > H or window > W:
        raise ShapeError(f"maxpool2d: window {window} exceeds spatial extent {H}x{W}")
    if stride < window:
        raise ShapeError(f"maxpool2d: stride {stride} below window {window}: windows would overlap")

    Ho, Wo = (H - window) // stride + 1, (W - window) // stride + 1
    tap_ix = [inp for _, _, inp in _clipped_taps(H, W, window, window, stride, 0, Ho, Wo)]
    rows = [inp[1] for inp in tap_ix[::window]]
    cols = [inp[2] for inp in tap_ix[:window]]
    xd = x.data
    m = np.maximum(xd[..., rows[0], :], xd[..., rows[-1], :])
    for r in rows[1:-1]:
        np.maximum(m, xd[..., r, :], out=m)
    out = np.maximum(m[..., cols[0]], m[..., cols[-1]])
    for c in cols[1:-1]:
        np.maximum(out, m[..., c], out=out)
    zero = out == 0
    if zero.any() and (_bits(xd) == 1 << 8 * xd.itemsize - 1).any():
        first = out[zero]
        for inp in tap_ix[::-1]:
            v = xd[inp][zero]
            np.copyto(first, v, where=v == 0)
        out[zero] = first

    def bwd(g):
        free = np.ones(out.shape, dtype=bool)
        hits = []
        for inp in tap_ix[:-1]:
            hit = np.equal(xd[inp], out)
            hit &= free
            free ^= hit
            hits.append(hit)
        hits.append(free)
        dx = np.zeros(x.shape, g.dtype)
        gbits = _bits(g + 0)
        for inp, hit in zip(tap_ix, hits):
            np.multiply(gbits, hit, out=_bits(dx[inp]))
        return (dx,)

    return _emit(out, (x,), bwd, tape)


def global_avg_pool(x, tape=None):
    """Mean over the spatial axes: [N,C,H,W] -> [N,C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: need 4-d input, got {x.shape}")
    N, C, H, W = x.shape
    inv = 1.0 / (H * W)

    def bwd(g):
        return (np.broadcast_to(g[:, :, None, None], (N, C, H, W)) * np.asarray(inv, g.dtype),)

    return _emit(x.data.mean(axis=(2, 3)), (x,), bwd, tape)


# ---------------------------------------------------------------------------
# classification loss


def softmax(logits):
    """Row-wise softmax of a [N,K] array (plain numpy, no grad)."""
    z = np.asarray(logits)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, targets, tape=None):
    """Mean negative log-likelihood of integer targets under row softmax.

    Fused with the softmax (max-subtracted) so large logits cannot
    overflow; the backward rule is (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: need [N,K] logits, got {logits.shape}")
    N, K = logits.shape
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (N,):
        raise ShapeError(f"softmax_cross_entropy: {N} logit rows but {t.shape} targets")
    if t.size and (t.min() < 0 or t.max() >= K):
        bad = t[(t < 0) | (t >= K)][0]
        raise IndexError(f"target class {bad} out of range for {K} classes")

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    logp = (z - m) - np.log(s)
    loss = np.asarray(-logp[np.arange(N), t].mean(), dtype=z.dtype)
    probs = e / s

    def bwd(g):
        d = probs.copy()
        d[np.arange(N), t] -= 1.0
        return (d * (g / N),)

    return _emit(loss, (logits,), bwd, tape)
