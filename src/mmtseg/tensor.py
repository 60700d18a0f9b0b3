"""Dense N-D tensors with reverse-mode automatic differentiation.

Covers exactly the operations the segmentation graphs need: 3D cross-correlation,
ReLU/sigmoid/softmax, average/max pooling, nearest upsampling, channel
concatenation, elementwise arithmetic with two attention broadcast patterns,
and scalar reductions for the losses.

Values are stored as float32. Reductions and convolution contractions
accumulate in float64 before casting back, and every op's summation order
is fixed by its operand shapes, so repeated runs are bitwise identical.

Convolution is same-padded at stride 1 with odd kernel extents, the only
kind the network runs. The input and the output gradient share one flat
layout with a zero gutter of the kernel's half-width after every row and
plane, in which each kernel tap is a fixed column shift, so the forward pass
and both gradients are sums of GEMMs on contiguous column slices. The kernel
gradient is one GEMM per tap. The forward pass and the input gradient copy
their taps into fixed-size im2col tiles when there are few channels per tap
and no more than twice as many as output rows; otherwise they loop over the
taps (see `conv3d`). Every tile is copied into one shared
workspace, allocated on first use and never shrunk, so a small convolution
does not map and fault in fresh memory on every call.

Every op computes its output with one array kernel, and every graph node
keeps the kernel and non-tensor arguments that made it, so `replayer` can
re-run just the kernels downstream of some inputs, for B values of each at
once as lanes: every replayed array has a leading lane axis, each kernel
runs once for all lanes, and each lane is bitwise a forward pass of its own,
in float64 when the lanes are. The calls the ops make carry no lanes. A
replay frees each value after its last consumer. `grad_check` records its
objective once, runs one backward pass and takes every central difference
from one replay; one more lane of it must match a fresh evaluation of the
objective bitwise, or the check fails.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "set_debug_checks",
    "no_grad",
    "add",
    "mul_broadcast",
    "relu",
    "sigmoid",
    "softmax_channels",
    "conv3d",
    "global_avg_pool",
    "max_pool3d",
    "nearest_upsample",
    "concat_channels",
    "slice_channels",
    "tensor_sum",
    "replayer",
    "grad_check",
    "max_rel_err",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an op contract."""


_debug_checks = False


def set_debug_checks(enabled):
    """Enable per-op NaN/Inf assertions on values and gradients."""
    global _debug_checks
    _debug_checks = bool(enabled)


_grad_enabled = True


class no_grad:
    """Context in which ops record no parents or backward closures.

    Outputs made inside it are graph leaves with `requires_grad` False, so
    nothing keeps intermediates alive for a backward pass that inference
    never runs. Parameters keep their own `requires_grad`.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


def _check_finite(arr, what):
    if _debug_checks and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")


class Tensor:
    """A float32 array plus an optional slot in a reverse-mode graph.

    Tensors produced by ops are treated as immutable. `grad` accumulates
    across `backward` calls until explicitly cleared. A graph node also
    keeps the call that made it: `_call` is (array kernel, non-tensor
    arguments).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_call")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._call = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.astype(np.float32, copy=False)
        _check_finite(self.grad, "gradient")

    def backward(self):
        """Accumulate gradients of this scalar into every graph leaf.

        Repeated calls without zeroing keep accumulating.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        order = _topo_order(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- operator sugar used by the loss expressions --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul_broadcast(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul_broadcast(self, -1.0)

    def __rsub__(self, other):
        return add(-self, float(other))

    def __truediv__(self, other):
        return div(self, other)


def _topo_order(root):
    """Reverse topological order over the ancestors of `root` (iterative DFS)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def _make(data, parents, backward, kernel, *extra):
    """`data` as the output of the array `kernel` on `parents` and the
    non-tensor arguments `extra`. It joins the graph, with its backward
    closure and its call, when grad is on and a parent needs one."""
    out = Tensor(data)
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
        out._call = (kernel, extra)
    _check_finite(out.data, "op output")
    return out


def _broadcast_kind(target, other):
    """Classify `other` against `target`: 'equal', 'channel', 'spatial' or None.

    Only the two attention patterns are allowed to broadcast: per-channel
    weights C×1×1×1 and per-voxel weights 1×D×H×W over a C×D×H×W map.
    """
    if other == target:
        return "equal"
    if len(target) == 4 and len(other) == 4:
        c, d, h, w = target
        if other == (c, 1, 1, 1):
            return "channel"
        if other == (1, d, h, w):
            return "spatial"
    return None


def _reduce_to(g, kind):
    if kind == "equal":
        return g
    if kind == "channel":
        return np.sum(g, axis=(1, 2, 3), keepdims=True, dtype=np.float64)
    return np.sum(g, axis=0, keepdims=True, dtype=np.float64)  # spatial


# Each op `f` computes its output with one array kernel `_f` of its parents' arrays,
# then its non-tensor arguments: the float32 output, paired with what the backward
# closure keeps if it keeps anything. `replayer` runs the same kernels; there, scalars
# stay numpy scalars, whose operators cost a tenth of a ufunc call.
#
# A kernel depends on its arguments alone. In a replay, an operand that depends on a
# replayed leaf is laned: it has one leading lane axis more than its recorded value,
# and the other operands are the recorded arrays. A kernel tells the two apart by
# shape, against the ndims its op recorded where shape alone cannot tell, and each
# lane of its output is bitwise its output on that lane's operands. The channel axis
# of a map is −4 and its spatial axes −3…−1 either way, and elementwise kernels
# broadcast the lane axis as it comes.
_add = operator.add
_mul_broadcast = operator.mul
_global_avg_pool = lambda x: x.mean((-3, -2, -1), np.float64, keepdims=True).astype(x.dtype)
_slice_channels = lambda x, start, stop: x[..., start:stop, :, :, :].copy()
_nearest_upsample = lambda x: np.repeat(np.repeat(np.repeat(x, 2, -3), 2, -2), 2, -1)


def _tensor_sum(x, ndim):
    return x.reshape(*x.shape[:x.ndim - ndim], -1).sum(-1, np.float64).astype(x.dtype)


def _div(a, b, ndim, b_ndim):
    if b.ndim > b_ndim:  # one divisor per lane; the `ndim`-d dividend may have lanes
        return a / b.reshape(-1, *(1,) * ndim)
    return a / b.flat[0]


def _concat_channels(*parts):
    lanes = [len(p) for p in parts if p.ndim == 5]
    if lanes:  # recorded maps repeat across the lanes
        parts = [p if p.ndim == 5 else np.broadcast_to(p, (lanes[0], *p.shape)) for p in parts]
    return np.concatenate(parts, axis=-4)


def add(a, b):
    """Elementwise sum; `b` may be a Python scalar."""
    if not isinstance(b, Tensor):
        s = np.float32(b)
        return _make(_add(a.data, s), [a], lambda g: (g,), _add, s)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _make(_add(a.data, b.data), [a, b], lambda g: (g, g), _add)


def mul_broadcast(a, b):
    """Elementwise product; `b` is a Python scalar, a tensor of `a`'s shape or
    one of the attention weights broadcast over it."""
    if not isinstance(b, Tensor):
        s = np.float32(b)
        return _make(_mul_broadcast(a.data, s), [a], lambda g: (g * s,), _mul_broadcast, s)
    kind = _broadcast_kind(a.data.shape, b.data.shape)
    if kind is None:
        raise ShapeError(f"mul shapes not broadcastable: {a.data.shape} vs {b.data.shape}")
    def backward(g):
        return (g * b.data, _reduce_to(g * a.data, kind))
    return _make(_mul_broadcast(a.data, b.data), [a, b], backward, _mul_broadcast)


def div(a, b):
    """Division; the divisor must be a scalar Tensor or a Python scalar."""
    if not isinstance(b, Tensor):
        return mul_broadcast(a, 1.0 / float(b))
    if b.data.size != 1:
        raise ShapeError(f"div needs a scalar divisor, got shape {b.data.shape}")
    bv = float(b.data.reshape(()))
    def backward(g):
        ga = g / np.float32(bv)
        gb = np.asarray(
            -np.sum(g.astype(np.float64) * a.data) / (bv * bv), dtype=np.float32
        ).reshape(b.data.shape)
        return (ga, gb)
    ndims = a.data.ndim, b.data.ndim
    return _make(_div(a.data, b.data, *ndims), [a, b], backward, _div, *ndims)


def _relu(x):
    out = np.maximum(x, 0)
    out += 0  # −0 becomes +0
    return out


def relu(x):
    """max(0, x), with +0 for x ≤ 0 and NaN for NaN; subgradient at 0 is 0."""
    out = _relu(x.data)
    return _make(out, [x], lambda g: (g * (out > 0),), _relu)


# smallest/largest float32 strictly inside (0, 1)
_SIGMOID_LO = np.float32(np.nextafter(np.float32(0), np.float32(1)))
_SIGMOID_HI = np.float32(1.0 - 2.0**-24)


def _sigmoid(d):
    e = np.abs(d)
    np.exp(np.negative(e, out=e), out=e)  # exp(−|d|) ≤ 1 never overflows
    out = np.maximum(e, d >= 0)  # 1 / (1 + e) for d ≥ 0, else e / (1 + e)
    e += 1
    out /= e
    np.maximum(out, _SIGMOID_LO, out=out)  # np.clip's Python dispatch costs more than this
    return np.minimum(out, _SIGMOID_HI, out=out)


def sigmoid(x):
    """Numerically stable logistic, clamped strictly inside (0, 1).

    Without the clamp float32 rounds saturated outputs to exactly 0 or 1,
    which kills the gradient exactly and freezes training permanently.
    Float64 lanes keep float32's bounds.
    """
    out = _sigmoid(x.data)
    return _make(out, [x], lambda g: (g * out * (1.0 - out),), _sigmoid)


def _softmax_channels(x):
    z = x.astype(np.float64)
    z -= z.max(axis=-4, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-4, keepdims=True)
    return s.astype(x.dtype), s


def softmax_channels(x):
    """Per-voxel distribution over channel axis 0, max-stabilized."""
    if x.data.ndim != 4 or x.data.shape[0] < 2:
        raise ShapeError(f"softmax_channels needs C>=2 feature map, got {x.data.shape}")
    out, s = _softmax_channels(x.data)
    def backward(g):
        gs = g.astype(np.float64) * s
        return ((gs - s * gs.sum(axis=0, keepdims=True)),)
    return _make(out, [x], backward, _softmax_channels)


def tensor_sum(x):
    """Sum of all elements as a scalar tensor (float64 accumulator)."""
    return _make(_tensor_sum(x.data, x.data.ndim), [x],
                 lambda g: (np.broadcast_to(g, x.data.shape),), _tensor_sum, x.data.ndim)


def global_avg_pool(x):
    """Spatial mean per channel: C×D×H×W -> C×1×1×1."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool needs C×D×H×W, got {x.data.shape}")
    n = x.data[0].size
    def backward(g):
        return (np.broadcast_to(g / n, x.data.shape),)
    return _make(_global_avg_pool(x.data), [x], backward, _global_avg_pool)


def slice_channels(x, start, stop):
    """Channel sub-range of a feature map; gradient zero-pads back."""
    if x.data.ndim != 4:
        raise ShapeError(f"slice_channels needs C×D×H×W, got {x.data.shape}")
    c = x.data.shape[0]
    if not (0 <= start < stop <= c):
        raise ShapeError(f"channel range [{start}:{stop}] invalid for C={c}")

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return _make(_slice_channels(x.data, start, stop), [x], backward, _slice_channels,
                 start, stop)


def concat_channels(inputs):
    """Stack feature maps along the channel axis; spatial extents must match."""
    if len(inputs) < 2:
        raise ShapeError("concat_channels needs at least two inputs")
    spatial = inputs[0].data.shape[1:]
    for t in inputs[1:]:
        if t.data.shape[1:] != spatial:
            raise ShapeError(
                f"concat spatial mismatch: {t.data.shape[1:]} vs {spatial}"
            )
    splits = np.cumsum([t.data.shape[0] for t in inputs])[:-1]
    def backward(g):
        return tuple(np.split(g, splits, axis=0))
    parts = [t.data for t in inputs]
    return _make(_concat_channels(*parts), list(inputs), backward, _concat_channels)


# `_correlate` (the forward pass and the input gradient) with C channels per tap and
# O output rows copies its taps into im2col tiles of at most _TILE_BYTES, sized to
# stay in L2, when C <= _TILE_CHANNELS and C <= 2·O; otherwise it loops over taps,
# since a copied row that feeds few outputs costs more than it saves. O is the rows
# of one lane. Constants, not options: the summation order depends on shapes alone.
_TILE_CHANNELS = 16
_TILE_BYTES = 512 << 10

# The one float64 buffer every im2col tile is copied into, allocated on first
# use and grown to the largest tile asked for, never shrunk. A fresh array per
# tile is handed back to the kernel when freed and faulted in again by the next
# conv, which costs small convs several times their arithmetic. Sharing it makes
# `_correlate` non-reentrant; results never point into it.
_workspace = None


def _tile(shape):
    """A C-contiguous float64 view of `shape` at the start of `_workspace`."""
    global _workspace
    n = math.prod(shape)
    if _workspace is None or _workspace.size < n:
        _workspace = np.empty(n)
    return _workspace[:n].reshape(shape)


def _view(base, shape, strides, offset=0):
    """An uncopied view of the C-contiguous array `base` starting `offset`
    elements in; builds it directly, which is cheaper than `as_strided`."""
    return np.ndarray(shape, base.dtype, base, offset * base.itemsize, strides)


def _taps(src, span, kshape, plane, row):
    """Uncopied kd×kh×kw×rows×span column windows of a C-contiguous flat padded
    map `src`: tap (i, j, k) is `src[:, s:s + span]` with s = i·plane + j·row + k."""
    rs, cs = src.strides
    return _view(src, (*kshape, src.shape[0], span), (plane * cs, row * cs, cs, rs, cs))


def _correlate(k, taps):
    """Sum over taps t of `k[..., t] @ taps[t]` for an O×C×kd×kh×kw kernel, or
    a B×O×C×kd×kh×kw one whose lanes are the B·O rows of one contraction: a
    [B·]O × span float64 array.

    Not reentrant: the im2col tiles live in the shared `_workspace`."""
    c, span = taps.shape[3], taps.shape[-1]
    tiled = c <= _TILE_CHANNELS and c <= 2 * k.shape[-5]  # O of one lane: lanes never choose
    k = k.reshape(-1, *k.shape[-4:])
    if tiled:
        out = np.empty((len(k), span))  # every column is written by one matmul below
        kmat = k.transpose(0, 2, 3, 4, 1).reshape(len(k), -1)
        cols = max(1, _TILE_BYTES // kmat[0].nbytes)
        for a in range(0, span, cols):
            window = taps[..., a : a + cols]
            tile = _tile(window.shape)
            np.copyto(tile, window)
            np.matmul(kmat, tile.reshape(kmat.shape[1], -1), out=out[:, a : a + cols])
        return out
    ktaps = np.ascontiguousarray(k.transpose(2, 3, 4, 0, 1))
    first, *rest = np.ndindex(*ktaps.shape[:3])
    out = ktaps[first] @ taps[first]  # a 1×1×1 kernel is one GEMM, with no fill and no add
    for t in rest:
        out += ktaps[t] @ taps[t]
    return out


def _kernel_grad(g, taps, kshape):
    """`g @ taps[t].T` for every tap t, as an O × C × kd × kh × kw array."""
    gk = np.empty((*kshape, g.shape[0], taps.shape[3]))
    for t in np.ndindex(*kshape):
        gk[t] = g @ taps[t].T
    return gk.transpose(3, 4, 0, 1, 2)


def _grid(flat, extents, plane, row, lead=0, lanes=0, length=0):
    """Voxels of a C-contiguous flat map: (z, y, x) is column
    lead + z·plane + y·row + x. With `lanes`, a lanes×C×D×H×W view whose
    lane n starts n·`length` columns further on."""
    rs, cs = flat.strides
    if lanes:
        return _view(flat, (lanes, flat.shape[0], *extents), (length * cs, rs, plane * cs, row * cs, cs),
                     lead)
    return _view(flat, (flat.shape[0], *extents), (rs, plane * cs, row * cs, cs), lead)


def _layout(a, kshape):
    """A C×D×H×W map in float64 on the flat grid of a same-padded conv with odd
    kernel extents `kshape`, half-widths (pd, ph, pw): row stride R = W + pw,
    plane stride P = (H + ph)·R, voxel (z, y, x) at column lead + z·P + y·R + x
    with lead = pd·P + ph·R + pw, zeros elsewhere. The pw zeros after a row
    also pad the left of the next row, and the ph zero rows after a plane the
    top of the next one. The lanes of a B×C×D×H×W map lie end to end, lane n
    n·L columns on with L = (D + pd)·P, so the pd zero planes after a lane
    also pad the top of the next one. Returns (buffer, lead, P, R, L)."""
    c, d, h, w = a.shape[-4:]
    lanes = len(a) if a.ndim == 5 else 0
    pd, ph, pw = (n // 2 for n in kshape)
    row = w + pw
    plane = (h + ph) * row
    lead = pd * plane + ph * row + pw
    length = (d + pd) * plane
    # the last tap of the last voxel reads the final element of the last d + pd planes
    flat = np.zeros((c, lead + (lanes or 1) * length))
    _grid(flat, (d, h, w), plane, row, lead, lanes, length)[...] = a
    return flat, lead, plane, row, length


def _conv3d(x, kernel, bias):
    """The output of `conv3d` and what its backward keeps. Lanes may lead the
    input (B×C×D×H×W), the kernel (B×O×C×kd×kh×kw) or the bias (B×O), and
    each lane's output is bitwise that of a call on that lane alone: input
    lanes share one flat layout (see `_layout`), kernel lanes are the B·O
    rows of one contraction, and bias lanes are added after it."""
    lanes = len(x) if x.ndim == 5 else 0
    if lanes and kernel.ndim == 6:  # lanes on both: one lane at a time
        bias = np.broadcast_to(bias, (lanes, bias.shape[-1]))
        return np.stack([_conv3d(*lane)[0] for lane in zip(x, kernel, bias)]), None, None, None
    kshape = kernel.shape[-3:]
    d, h, w = extents = x.shape[-3:]
    xp, lead, plane, row, length = _layout(x, kshape)
    span = max(lanes - 1, 0) * length + (d - 1) * plane + (h - 1) * row + w
    x_taps = _taps(xp, span, kshape, plane, row)
    k64 = kernel.astype(np.float64)
    # backward remakes the im2col copy: holding it in the graph raises peak memory
    if kernel.ndim == 6:
        out = _grid(_correlate(k64, x_taps), extents, plane, row).reshape(*kernel.shape[:2], *extents)
    else:
        out = _grid(_correlate(k64, x_taps), extents, plane, row, 0, lanes, length)
    out = out + bias.astype(np.float64)[..., np.newaxis, np.newaxis, np.newaxis]
    return out.astype(np.result_type(x, kernel, bias)), (lead, plane, row, span), x_taps, k64


def conv3d(x, kernel, bias):
    """Same-padded 3D cross-correlation at stride 1 of a C×D×H×W map with an
    O×C×kd×kh×kw kernel of odd extents: an O×D×H×W output.

    Differentiable w.r.t. input, kernel and bias; the input gradient is
    computed only when `x.requires_grad`. On the grid of `_layout`, kernel
    tap (i, j, k) is the column shift i·P + j·R + k and output voxel
    (z, y, x) column z·P + y·R + x of a span of (D - 1)·P + (H - 1)·R + W
    columns, so every pass is a sum over taps of one GEMM on a contiguous
    column slice (kn2row, Vasudevan et al. 2017). The input (xp) and the
    output gradient (gp) share that layout:

    - forward: K_t @ xp[:, shift_t:shift_t + span]
    - kernel gradient: gp[:, lead:lead + span] @ xp[:, shift_t:shift_t + span].T
    - input gradient: the forward contraction over gp, with the kernel
      flipped and transposed

    In the forward pass and the input gradient, C channels per tap into O
    output rows are contracted as L2-sized im2col tiles, one GEMM per tile
    (Chellapilla et al. 2006), when C is at most `_TILE_CHANNELS` and at most
    2·O; otherwise as a loop over uncopied slices that starts from the first
    tap's product, so a 1×1×1 kernel is one GEMM. The kernel gradient
    contracts over the long span, one GEMM per tap whatever the channel
    count. Contractions run in float64, cast back to float32.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv3d input must be C×D×H×W, got {x.data.shape}")
    if kernel.data.ndim != 5:
        raise ShapeError(f"conv3d kernel must be O×C×kd×kh×kw, got {kernel.data.shape}")
    o, ci = kernel.data.shape[:2]
    kshape = kernel.data.shape[2:]
    if x.data.shape[0] != ci:
        raise ShapeError(
            f"conv3d channel mismatch: input has {x.data.shape[0]}, kernel expects {ci}"
        )
    if bias.data.shape != (o,):
        raise ShapeError(f"conv3d bias must have shape ({o},), got {bias.data.shape}")
    if not all(n % 2 for n in kshape):
        raise ShapeError(f"conv3d same padding needs odd kernel extents, got {kshape}")

    extents = x.data.shape[1:]
    out, (lead, plane, row, span), x_taps, k64 = _conv3d(x.data, kernel.data, bias.data)

    def backward(g):
        g64 = g.astype(np.float64)
        gp = _layout(g64, kshape)[0]
        gk = _kernel_grad(gp[:, lead : lead + span], x_taps, kshape)
        gb = g64.sum(axis=(1, 2, 3))
        gx = None
        if x.requires_grad:
            flipped = k64.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
            g_taps = _taps(gp, span, kshape, plane, row)
            gx = _grid(_correlate(flipped, g_taps), extents, plane, row)
        return (gx, gk, gb)

    return _make(out, [x, kernel, bias], backward, _conv3d)


def _max_pool3d(x):
    *lanes, c, d, h, w = x.shape
    n = len(lanes)
    # a dx×dy×dz×[B×]C×D'×H'×W' view, reduced over dx, then dy, then dz; on a
    # tie np.maximum(second, m) returns m, so each stage keeps the first maximum
    blocks = x.reshape(*lanes, c, d // 2, 2, h // 2, 2, w // 2, 2)
    stages = [blocks.transpose(n + 6, n + 4, n + 2, *range(n + 1), n + 1, n + 3, n + 5)]
    for _ in range(3):
        first, second = stages[-1]
        m = first.copy()
        np.maximum(second, m, out=m)
        stages.append(m)
    return stages[-1], stages


def max_pool3d(x):
    """Non-overlapping max pooling by 2 per spatial axis; extents must be even.

    Ties: an output carries the bits of the first entry of its 2³ block, in
    (dz, dy, dx) order, that equals the maximum (+0 or −0), and that entry
    alone gets the output's gradient.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool3d needs C×D×H×W, got {x.data.shape}")
    c, d, h, w = x.data.shape
    if d % 2 or h % 2 or w % 2:
        raise ShapeError(f"max_pool3d extents {x.data.shape[1:]} not divisible by 2")
    out, stages = _max_pool3d(x.data)

    def backward(g):
        # per stage, the first cell equal to the maximum takes g, the second g − g = 0
        g = g.astype(np.float32, copy=False)
        for a, m in zip(stages[2::-1], stages[:0:-1]):
            ga = np.empty_like(a)
            np.multiply(g, a[0] == m, out=ga[0])
            ga[1] = g - ga[0]
            g = ga
        return (g.transpose(3, 4, 2, 5, 1, 6, 0).reshape(c, d, h, w),)

    return _make(out, [x], backward, _max_pool3d)


def nearest_upsample(x):
    """Nearest-neighbor upsampling by 2 per spatial axis."""
    if x.data.ndim != 4:
        raise ShapeError(f"nearest_upsample needs C×D×H×W, got {x.data.shape}")
    c, d, h, w = x.data.shape

    def backward(g):
        # fold the 2 copies along D, then H, then W with one add each;
        # the D and H folds add contiguous runs, not a strided reduction
        gx = g.astype(np.float64)
        for run in (h * 2 * w * 2, w * 2, 1):
            copies = gx.reshape(-1, 2, run)
            gx = copies[:, 0] + copies[:, 1]
        return (gx.reshape(c, d, h, w),)

    return _make(_nearest_upsample(x.data), [x], backward, _nearest_upsample)


def replayer(root, *leaves):
    """`value(*lanes)`: the B×`root.shape` values of `root` recomputed from
    one B×`leaf.shape` array per leaf, B values of each of `leaves`.

    `root` must have been made with the graph recorded; each call walks it
    once to plan the replay. `value` runs, in forward order, the array
    kernels of the recorded ops the leaves reach, each once for all lanes:
    every replayed value has the lanes as its leading axis, the recorded
    values of the rest are shared among them, and each kernel tells the two
    apart by shape (see `_conv3d`), so it is passed nothing but its
    arguments. It makes no tensor and records no graph, and it frees each
    replayed value after its last consumer. Ops depend only on their
    operands, so each lane, a single one too, is bitwise the root of a full
    forward pass with every leaf's data set to its lane, as long as the
    recording stands for that pass. Float64 lanes replay in float64.

    It does not when the pass reads a leaf outside the ops, when an op left
    a parent edge out, or when the pass ran under `no_grad`: then the leaves
    reach less of the recording than of the pass, and an unreached root
    repeats its recorded value in every lane. Replay also freezes Python
    control flow at the recorded pass: a branch taken on a value, such as the
    zero-mass branch of `losses.spatial_constraint_loss`, stays as it was
    recorded. `grad_check` tests its recording with one lane more.
    """
    # the reached nodes, each with its parents (positions in the replay or recorded
    # arrays) and the positions it is the last consumer of, which it frees
    plan = []
    at = {id(leaf): n for n, leaf in enumerate(leaves)}  # the first positions hold the lanes
    for node in reversed(_topo_order(root)):  # forward order
        if any(id(p) in at for p in node._parents):
            at[id(node)] = len(leaves) + len(plan)
            plan.append((node, [at.get(id(p), p.data) for p in node._parents], []))
    last = {p: step for step, (_, parents, _) in enumerate(plan) for p in parents if type(p) is int}
    for p, step in last.items():
        plan[step][2].append(p)

    def value(*lanes):
        now, b = [*lanes], len(lanes[0])
        for node, parents, free in plan:
            kernel, extra = node._call
            out = kernel(*[now[p] if type(p) is int else p for p in parents], *extra)
            if type(out) is tuple:  # the output and what the op's backward keeps
                out = out[0]
            if out.shape != (b, *node.data.shape):
                raise ShapeError(f"{kernel.__name__} cannot replay lanes of these operands")
            _check_finite(out, "op output")
            for p in free:
                now[p] = None
            now.append(out)
        if not plan:  # no leaf reaches `root`
            return np.repeat(root.data[np.newaxis], b, 0)
        return now[-1]

    return value


def _evaluate(f, leaves, values):
    """`f().data` under `no_grad` with each leaf's data set to its value;
    the data is restored afterwards, also when `f` raises."""
    kept = [t.data.copy() for t in leaves]
    try:
        for t, v in zip(leaves, values):
            t.data[...] = v
        with no_grad():
            return f().data
    finally:
        for t, v in zip(leaves, kept):
            t.data[...] = v


def grad_check(f, x, step=1e-3):
    """Max relative error between analytic and central-difference gradients.

    `f` must map `x` to a scalar Tensor. It is called twice. The first call
    records `root = f(x)`; one backward pass over it gives the analytic
    gradient, and one replay of it (`replayer`) the central difference at
    every coordinate of `x`, each perturbation a lane, so keep inputs small.
    The second call evaluates `f` under `no_grad` with every entry of `x`
    moved up by `step`, and one more lane of the replay must give that value
    bitwise. If it does not, the recording does not stand for `f` (see
    `replayer`), and the result is `inf`. `x.data` and `x.requires_grad` are
    restored afterwards, also when `f` raises.

    The error is relative for gradient entries above 1 in magnitude and
    absolute below, which keeps float32 forward rounding from swamping
    near-zero entries.
    """
    x.zero_grad()
    needed_grad = x.requires_grad
    x.requires_grad = True
    try:
        root = f(x)
        root.backward()
        grad = np.zeros_like(x.data) if x.grad is None else x.grad  # f may not reach x
        analytic = grad.astype(np.float64).reshape(-1)
    finally:
        x.requires_grad = needed_grad
    x.zero_grad()

    # lane n moves entry n up by `step`, lane k + n moves it down, lane 2·k moves all up
    k = x.data.size
    lanes = np.repeat(x.data[np.newaxis], 2 * k + 1, 0)
    flat, n = lanes.reshape(2 * k + 1, k), np.arange(k)
    flat[n, n] = flat[2 * k] = x.data.reshape(-1) + step
    flat[k + n, n] = x.data.reshape(-1) - step
    out = replayer(root, x)(lanes)
    if out[2 * k].tobytes() != _evaluate(lambda: f(x), [x], [lanes[2 * k]]).tobytes():
        return math.inf
    up, down = out[:2 * k].astype(np.float64).reshape(2, k)
    return max_rel_err(analytic, (up - down) / (2.0 * step))


def max_rel_err(a, b):
    """Elementwise max of |a-b| / max(|a|, |b|, 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))
