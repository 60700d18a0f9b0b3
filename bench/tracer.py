"""Span tracer for the mmtseg benchmark.

Wraps every public function and public method of every loaded ``mmtseg``
module at every name it is bound to (module globals, by-name imports in
other modules, and class attributes such as ``Tensor.__add__``), and the
backward closure of every op output. Spans (name, label, start, end,
parent, unit) are kept in flat arrays in memory and written out once,
after the run. The program's own files are not touched: installing
patches module and class attributes, and ``uninstall`` restores them.
"""

from __future__ import annotations

import gzip
import sys
import types
from array import array
from time import perf_counter

SETUP_UNIT = -2  # spans recorded while the benchmark sets up
NO_UNIT = -1  # spans inside an episode but outside any unit


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _mmtseg_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "mmtseg" or name.startswith("mmtseg."))
    ]


def _boundary_count(mask):
    """Six-connected boundary voxels of a mask; the volume border is background.

    Kept apart from ``metrics.boundary_voxels`` so that the work count stays
    fixed when the code it measures changes.
    """
    import numpy as np

    m = np.asarray(mask) != 0
    p = np.pad(m, 1)
    interior = (
        p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1] & p[1:-1, :-2, 1:-1]
        & p[1:-1, 2:, 1:-1] & p[1:-1, 1:-1, :-2] & p[1:-1, 1:-1, 2:]
    )
    return int(np.count_nonzero(m & ~interior))


class UnitRef:
    """The unit a span is charged to; the benchmark's unit clock moves it."""

    __slots__ = ("current",)

    def __init__(self):
        self.current = NO_UNIT


class Tracer:
    def __init__(self, unit_ref):
        self.unit = unit_ref
        self.names = []
        self._name_ids = {}
        self.labels = [""]
        self._label_ids = {"": 0}
        self.sp_name = array("i")
        self.sp_label = array("i")
        self.sp_parent = array("i")
        self.sp_unit = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack = []
        self.counters = {}  # computed work counters, episodes only
        self._kernel_module = {}  # id(kernel tensor) -> (module name, tensor)
        self._patches = []
        self._wrappers = None

    # -- span recording ----------------------------------------------------

    def name_id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def label_id(self, label):
        i = self._label_ids.get(label)
        if i is None:
            i = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return i

    def _open(self, name_id, label=0):
        idx = len(self.sp_start)
        stack = self._stack
        self.sp_name.append(name_id)
        self.sp_label.append(label)
        self.sp_parent.append(stack[-1] if stack else -1)
        self.sp_unit.append(self.unit.current)
        self.sp_end.append(0.0)
        stack.append(idx)
        self.sp_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.sp_end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key, amount):
        if self.unit.current != SETUP_UNIT:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def _wrap_backward(self, out, op, label=0, conv=None):
        inner = out._backward
        if inner is None or getattr(inner, "_bench_traced", False):
            return
        nid = self.name_id(f"tensor.{op}.bwd")
        open_, close, count = self._open, self._close, self.count

        def traced_backward(g):
            idx = open_(nid, label)
            try:
                return inner(g)
            finally:
                close(idx)
                if conv is not None:
                    count("conv_bwd_flop", 2.0 * conv[0])
                    count("conv_bytes", conv[2])

        traced_backward._bench_traced = True
        out._backward = traced_backward
        count("graph_nodes", 1.0)

    def _op_wrapper(self, fn, op):
        """Forward span for a tensor op, plus a traced backward closure."""
        nid = self.name_id(f"tensor.{op}")
        open_, close = self._open, self._close
        tensor_cls = sys.modules["mmtseg.tensor"].Tensor
        wrap_backward = self._wrap_backward

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if isinstance(out, tensor_cls):
                wrap_backward(out, op)
            return out

        return wrapper

    def _conv_wrapper(self, fn):
        """conv3d: span labelled with the kernel's module, FLOPs and bytes from shapes."""
        nid = self.name_id("tensor.conv3d")
        open_, close, count = self._open, self._close, self.count
        kernel_module, label_id = self._kernel_module, self.label_id
        wrap_backward = self._wrap_backward

        def conv3d(x, kernel, bias, *args, **kwargs):
            entry = kernel_module.get(id(kernel))
            label = label_id(entry[0]) if entry is not None and entry[1] is kernel else 0
            idx = open_(nid, label)
            try:
                out = fn(x, kernel, bias, *args, **kwargs)
            finally:
                close(idx)
            o, c, kd, kh, kw = kernel.data.shape
            flop = 2.0 * o * c * kd * kh * kw * out.data[0].size
            fwd_bytes = 4.0 * (x.data.size + kernel.data.size + out.data.size)
            bwd_bytes = 4.0 * (out.data.size + 2 * x.data.size + 2 * kernel.data.size)
            count("conv_fwd_flop", flop)
            count("conv_bytes", fwd_bytes)
            wrap_backward(out, "conv3d", label, (flop, fwd_bytes, bwd_bytes))
            return out

        return conv3d

    def _register_wrapper(self, fn, name):
        """ParamStore.register: remember which module owns each conv kernel."""
        inner = self._span_wrapper(fn, name)
        kernel_module = self._kernel_module

        def register(store, pname, array_):
            t = inner(store, pname, array_)
            if pname.endswith(".kernel"):
                kernel_module[id(t)] = (pname[: -len(".kernel")], t)
            return t

        return register

    def _hd95_wrapper(self, fn, name):
        inner = self._span_wrapper(fn, name)
        count = self.count

        def hd95(a, b):
            out = inner(a, b)
            if out is not None:
                count("hd95_pairs", float(_boundary_count(a) * _boundary_count(b)))
            return out

        return hd95

    def _blob_wrapper(self, fn, name, saving):
        inner = self._span_wrapper(fn, name)
        count = self.count

        def blob(*args, **kwargs):
            out = inner(*args, **kwargs)
            named = args[1] if saving else out[0]
            count("blob_bytes", float(sum(a.nbytes for a in named.values())))
            return out

        return blob

    def _make_wrapper(self, fn, name):
        if name == "tensor.conv3d":
            return self._conv_wrapper(fn)
        if name.startswith("tensor.") and name.count(".") == 1:
            return self._op_wrapper(fn, name.split(".")[1])
        if name == "model.ParamStore.register":
            return self._register_wrapper(fn, name)
        if name == "metrics.hd95":
            return self._hd95_wrapper(fn, name)
        if name in ("model.save_blob", "model.load_blob"):
            return self._blob_wrapper(fn, name, saving=name == "model.save_blob")
        return self._span_wrapper(fn, name)

    def _build_wrappers(self):
        """Map id(original function) -> wrapper for every public function."""
        wrappers = {}
        for mod in _mmtseg_modules():
            short = _short(mod.__name__)
            for name, val in vars(mod).items():
                if name.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                    wrappers[id(val)] = (val, self._make_wrapper(val, f"{short}.{name}"))
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for aname, aval in vars(val).items():
                        if not aname.startswith("_") and isinstance(aval, types.FunctionType):
                            wrappers[id(aval)] = (
                                aval,
                                self._make_wrapper(aval, f"{short}.{name}.{aname}"),
                            )
        return wrappers

    def install(self):
        """Patch every binding of every public function; idempotent per install."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        wrappers = self._wrappers
        owners = []
        seen = set()
        for mod in _mmtseg_modules():
            owners.append(mod)
            for val in vars(mod).values():
                if isinstance(val, type) and val.__module__.startswith("mmtseg") and id(val) not in seen:
                    seen.add(id(val))
                    owners.append(val)
        for owner in owners:
            for name, val in list(vars(owner).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, name, hit[1])
                    self._patches.append((owner, name, val))

    def uninstall(self):
        for owner, name, val in reversed(self._patches):
            setattr(owner, name, val)
        self._patches.clear()

    def forget_kernels(self):
        """Drop the kernel->module map; call between episodes, whose graphs are gone."""
        self._kernel_module.clear()

    # -- results -----------------------------------------------------------

    def span_count(self):
        return len(self.sp_start)

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        n = len(self.sp_start)
        dur = [self.sp_end[i] - self.sp_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.sp_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def write(self, path, t0):
        """Write all spans as gzip TSV; times in ms relative to `t0`."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("span\tname\tlabel\tstart_ms\tend_ms\tparent\tunit\n")
            for i in range(len(self.sp_start)):
                fh.write(
                    f"{i}\t{self.names[self.sp_name[i]]}\t{self.labels[self.sp_label[i]]}\t"
                    f"{(self.sp_start[i] - t0) * 1e3:.4f}\t{(self.sp_end[i] - t0) * 1e3:.4f}\t"
                    f"{self.sp_parent[i]}\t{self.sp_unit[i]}\n"
                )
