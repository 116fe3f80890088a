"""Spans around xferad's public functions, recorded from outside the package.

Tracer.install() replaces each public function of the tensor, nn, data,
transfer, evaluate, synth and cli modules with a timing wrapper, at every
name in the xferad package that is bound to it (cli.anomaly_scores and
transfer.anomaly_scores are both bound to evaluate.anomaly_scores, and
each is patched). It also wraps ModelGraph.forward, ModelGraph.copy and
the forward of every Layer subclass. Tape ops additionally wrap the
backward closure they have just recorded on the tape, so backward time is
attributed per op. uninstall() restores every original binding.

Spans stay in memory as [name, start, end, parent, tag, attrs] lists and
are written out once, by the caller, when the run ends. Wrappers only
time and count: they pass arguments and results through untouched, so a
traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("tensor", "nn", "data", "transfer", "evaluate", "synth", "cli")
TIMED_OPS = ("conv2d", "maxpool2d", "relu", "matmul", "add", "global_avg_pool",
             "softmax_cross_entropy")
COUNTED_OPS = ("conv2d", "matmul", "maxpool2d")
CLI_COMMANDS = ("pretrain", "benchmark", "evaluate", "make_synth", "make_task", "transfer")
# metrics whose layer runs only during set-up; they are taken from the
# traced set-up processes, every other metric from the traced rounds
SETUP_METRICS = ("synth.make_digit_set.us_per_image", "cli.make_synth.self_s",
                 "cli.make_task.self_s", "cli.transfer.self_s")
REPORT_IO = ("evaluate.emit_report", "evaluate.load_report", "evaluate.write_scores_csv")

_clock = time.perf_counter


# ---------------------------------------------------------------------------
# computed operation counts ("computed": derived from shapes, not measured)


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays if a is not None)


def _fwd_flop(op, args, out):
    if op == "conv2d":
        n, f, ho, wo = out.shape
        _, c, kh, kw = args[1].shape
        return 2 * n * f * c * kh * kw * ho * wo
    if op == "matmul":
        m, k = args[0].shape
        return 2 * m * k * args[1].shape[1]
    window = int(args[1])
    return out.data.size * (window * window - 1)  # maxpool2d comparisons


def _bwd_flop(op, fwd_flop, out, grads):
    if op == "maxpool2d":
        return out.data.size  # one scatter-add per pooled element
    # conv2d: dw and dx each cost one forward's worth; matmul: da and db likewise
    return fwd_flop * sum(g is not None for g in grads[:2])


class Tracer:
    def __init__(self):
        self.spans = []
        self.tag = None  # copied into every span; the runner sets it per invocation
        self._stack = []
        self._patches = []
        self._layers = {}  # id(layer) -> (name, in frozen prefix)

    # -- spans ---------------------------------------------------------------

    def _open(self, name, attrs=None):
        i = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1] if self._stack else -1,
                           self.tag, attrs])
        self._stack.append(i)
        return i

    def _close(self, i):
        self.spans[i][2] = _clock()
        self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, tag, attrs) in enumerate(self.spans):
                rec = {"id": i, "parent": parent, "name": name, "start": t0, "end": t1,
                       "tag": tag}
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name, attrs(args, kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return wrapper

    def _op(self, op, fn):
        """Tape op: a fwd span per call, and a bwd span around the backward
        closure the call recorded, if it recorded one."""
        tape_at = list(inspect.signature(fn).parameters).index("tape")
        counted = op in COUNTED_OPS
        fwd_name, bwd_name = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = kwargs.get("tape", args[tape_at] if len(args) > tape_at else None)
            before = len(tape.nodes) if tape is not None else 0
            i = self._open(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            flop = None
            if counted:
                flop = _fwd_flop(op, args, out)
                tensors = [a.data for a in args if hasattr(a, "data")]
                self.spans[i][5] = {"flop": flop, "bytes": _nbytes(*tensors, out.data)}
            if tape is not None and len(tape.nodes) > before:
                node = tape.nodes[-1]
                node.backward_fn = self._bwd(bwd_name, op, node, flop)
            return out
        return wrapper

    def _bwd(self, name, op, node, fwd_flop):
        inner = node.backward_fn
        out = node.output

        def backward_fn(g):
            j = self._open(name)
            try:
                grads = inner(g)
            finally:
                self._close(j)
            if fwd_flop is not None:
                saved = [t.data for t in node.inputs]
                self.spans[j][5] = {"flop": _bwd_flop(op, fwd_flop, out, grads),
                                    "bytes": _nbytes(g, *saved, *grads)}
            return grads
        return backward_fn

    def _batch_iter(self, fn):
        """Generator: one span per batch, covering only the wait for it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self._open("data.batch_iter.next")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                yield item
        return wrapper

    def _model_forward(self, fn):
        @functools.wraps(fn)
        def forward(model, batch, *args, **kwargs):
            tape = kwargs.get("tape", args[0] if args else None)
            self._name_layers(model)
            i = self._open("nn.ModelGraph.forward", {"train": tape is not None})
            try:
                return fn(model, batch, *args, **kwargs)
            finally:
                self._close(i)
        return forward

    def _name_layers(self, model):
        """conv1, relu1, pool1, ..., gap, dense; layers before the first
        trainable parameterized layer form the frozen prefix."""
        first_trainable = next(
            (i for i, l in enumerate(model.layers) if l.params() and l.trainable),
            len(model.layers),
        )
        seen = defaultdict(int)
        short = {"conv": "conv", "relu": "relu", "maxpool": "pool"}
        self._layers = {}
        for i, layer in enumerate(model.layers):
            if layer.kind in short:
                seen[layer.kind] += 1
                name = f"{short[layer.kind]}{seen[layer.kind]}"
            else:
                name = {"globalavgpool": "gap"}.get(layer.kind, layer.kind)
            self._layers[id(layer)] = (name, i < first_trainable)

    def _layer_forward(self, fn):
        @functools.wraps(fn)
        def forward(layer, *args, **kwargs):
            name, frozen = self._layers.get(id(layer), (layer.kind, False))
            i = self._open(f"nn.{name}.fwd", {"frozen": True} if frozen else None)
            try:
                return fn(layer, *args, **kwargs)
            finally:
                self._close(i)
        return forward

    # -- install / uninstall -------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"xferad.{short}")
            for name, fn in vars(mod).items():
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or name.startswith("_")):
                    continue
                wrapped[id(fn)] = (fn, self._wrapper_for(short, name, fn))

        sites = [m for n, m in sys.modules.items() if n == "xferad" or n.startswith("xferad.")]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

        nn = sys.modules["xferad.nn"]
        self._patch(nn.ModelGraph, "forward", self._model_forward(nn.ModelGraph.forward))
        self._patch(nn.ModelGraph, "copy", self._timed("nn.ModelGraph.copy", nn.ModelGraph.copy))
        for cls in vars(nn).values():
            if (isinstance(cls, type) and issubclass(cls, nn.Layer) and cls is not nn.Layer
                    and "forward" in cls.__dict__):
                self._patch(cls, "forward", self._layer_forward(cls.forward))

    def _wrapper_for(self, module, name, fn):
        params = inspect.signature(fn).parameters
        if module == "tensor" and "tape" in params and name != "backward":
            return self._op(name, fn)
        if module == "data" and name == "batch_iter":
            return self._batch_iter(fn)
        if module == "cli" and name.startswith("cmd_"):
            return self._timed(f"cli.{name[4:]}", fn)
        if module == "evaluate" and name == "anomaly_scores":
            return self._timed("evaluate.anomaly_scores", fn,
                               lambda a, kw: {"images": len(a[1])})
        if module == "synth" and name == "make_digit_set":
            return self._timed("synth.make_digit_set", fn, _digit_set_images)
        return self._timed(f"{module}.{name}", fn)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._layers = {}


def _digit_set_images(args, kwargs):
    per_class = kwargs.get("per_class", args[0])
    classes = kwargs.get("classes", args[2] if len(args) > 2 else range(10))
    return {"images": per_class * len(classes)}


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def per_layer_metrics(spans, rounds):
    """{name: (value, unit)} for every per-layer metric; busy times and
    counts are per round, per-call times are means over all calls."""
    total = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    child = defaultdict(float)
    for name, t0, t1, parent, _tag, attrs in spans:
        d = t1 - t0
        total[name] += d
        calls[name] += 1
        if parent >= 0:
            child[parent] += d
        for k, v in (attrs or {}).items():
            attr_sum[(name, k)] += v
    self_s = defaultdict(float)
    frozen_s = 0.0
    val_scoring = 0.0
    for i, (name, t0, t1, parent, _tag, attrs) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[i]
        if attrs and attrs.get("frozen"):
            frozen_s += t1 - t0
        if (name.startswith("evaluate.") and parent >= 0
                and spans[parent][0] == "transfer.train_target"):
            val_scoring += t1 - t0

    def per_call_ms(name):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    def busy(name):
        return total[name] / rounds

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    m = {}
    for op in TIMED_OPS:
        m[f"tensor.{op}.fwd_ms"] = (per_call_ms(f"tensor.{op}.fwd"), "ms")
        m[f"tensor.{op}.bwd_ms"] = (per_call_ms(f"tensor.{op}.bwd"), "ms")
        m[f"tensor.{op}.calls"] = (calls[f"tensor.{op}.fwd"] / rounds, "count")
    m["tensor.backward.busy_s"] = (busy("tensor.backward"), "s")
    for op in COUNTED_OPS:
        f, b = f"tensor.{op}.fwd", f"tensor.{op}.bwd"
        flop = attr_sum[(f, "flop")] + attr_sum[(b, "flop")]
        moved = attr_sum[(f, "bytes")] + attr_sum[(b, "bytes")]
        m[f"tensor.{op}.gflop_computed"] = (flop / rounds / 1e9, "GFLOP")
        m[f"tensor.{op}.mb_computed"] = (moved / rounds / 1e6, "MB")
        m[f"tensor.{op}.gflop_per_s"] = (rate(flop / 1e9, total[f] + total[b]), "GFLOP/s")
    for k in (1, 2, 3):
        m[f"nn.conv{k}.fwd_ms"] = (per_call_ms(f"nn.conv{k}.fwd"), "ms")
    m["nn.frozen_prefix.fwd_s"] = (frozen_s / rounds, "s")
    train_fwd = sum(t1 - t0 for name, t0, t1, _p, _t, a in spans
                    if name == "nn.ModelGraph.forward" and a["train"])
    m["nn.forward.train_s"] = (train_fwd / rounds, "s")
    m["nn.forward.infer_s"] = ((total["nn.ModelGraph.forward"] - train_fwd) / rounds, "s")
    m["nn.sgd_step.busy_s"] = (busy("nn.sgd_step"), "s")
    m["nn.ModelGraph.copy.calls"] = (calls["nn.ModelGraph.copy"] / rounds, "count")
    m["nn.save_weights.busy_s"] = (busy("nn.save_weights"), "s")
    m["nn.load_weights.busy_s"] = (busy("nn.load_weights"), "s")
    m["data.preprocess.us_per_image"] = (1e3 * per_call_ms("data.preprocess"), "us")
    m["data.batch_iter.wait_s"] = (busy("data.batch_iter.next"), "s")
    m["data.load_idx.busy_s"] = (busy("data.load_idx"), "s")
    m["data.build_anomaly_task.busy_s"] = (busy("data.build_anomaly_task"), "s")
    m["transfer.train_target.busy_s"] = (busy("transfer.train_target"), "s")
    m["transfer.pretrain_source.busy_s"] = (busy("transfer.pretrain_source"), "s")
    m["transfer.val_scoring.busy_s"] = (val_scoring / rounds, "s")
    m["evaluate.anomaly_scores.images_per_s"] = (
        rate(attr_sum[("evaluate.anomaly_scores", "images")], total["evaluate.anomaly_scores"]),
        "1/s")
    m["evaluate.auc_pairwise_oracle.busy_s"] = (busy("evaluate.auc_pairwise_oracle"), "s")
    m["evaluate.report_io.busy_s"] = (sum(total[n] for n in REPORT_IO) / rounds, "s")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = (self_s[f"cli.{cmd}"] / rounds, "s")
    images = attr_sum[("synth.make_digit_set", "images")]
    m["synth.make_digit_set.us_per_image"] = (
        1e6 * total["synth.make_digit_set"] / images if images else 0.0, "us")
    return m
