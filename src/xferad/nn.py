"""Layers, the small convnet family, SGD with Nesterov momentum, and
the binary weight-file format.

The architecture family this toolkit trains is: N blocks of
[3x3 conv, relu, 2x2 maxpool], then global average pooling and a single
dense layer producing the class logits. Weight files store named
parameter tensors plus a reserved metadata record so the model can be
rebuilt from the file alone.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from . import tensor as T
from .errors import ContractError, FormatError, ShapeError

WEIGHT_MAGIC = b"XFAW"
WEIGHT_VERSION = 1
_META_INPUT_HW = "__meta__.input_hw"


class Layer:
    """Base layer: a kind tag, optional named parameters, and a trainable
    flag kept only as their requires_grad (True when parameter-free)."""

    kind = "?"

    @property
    def trainable(self):
        return all(p.requires_grad for p in self.params().values())

    @trainable.setter
    def trainable(self, value):
        for p in self.params().values():
            p.requires_grad = bool(value)

    def params(self):
        """Named parameter tensors of this layer ({} when parameter-free)."""
        return {}

    def forward(self, x, tape=None):
        raise NotImplementedError


class Conv2d(Layer):
    """Square-kernel conv, stride 1, padding 1 (weight files record only the kernel)."""

    kind = "conv"

    def __init__(self, in_channels, filters, kernel=3, *, rng=None, dtype=np.float32):
        fan_in = in_channels * kernel * kernel
        w = _he_normal(rng, (filters, in_channels, kernel, kernel), fan_in, dtype)
        self.weight = T.Tensor(w, requires_grad=True)
        self.bias = T.Tensor(np.zeros(filters, dtype=dtype), requires_grad=True)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, tape=None):
        return T.conv2d(x, self.weight, self.bias, 1, 1, tape)


class Dense(Layer):
    kind = "dense"

    def __init__(self, in_features, out_features, *, rng=None, dtype=np.float32):
        w = _he_normal(rng, (in_features, out_features), in_features, dtype)
        self.weight = T.Tensor(w, requires_grad=True)
        self.bias = T.Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, tape=None):
        return T.add(T.matmul(x, self.weight, tape), self.bias, tape)


class Relu(Layer):
    kind = "relu"

    def forward(self, x, tape=None):
        return T.relu(x, tape)


class MaxPool2d(Layer):
    """2x2 max pooling, stride 2."""

    kind = "maxpool"

    def forward(self, x, tape=None):
        return T.maxpool2d(x, 2, 2, tape)


class GlobalAvgPool(Layer):
    kind = "globalavgpool"

    def forward(self, x, tape=None):
        return T.global_avg_pool(x, tape)


def _he_normal(rng, shape, fan_in, dtype):
    if rng is None:
        rng = np.random.default_rng()
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


class ModelGraph:
    """Ordered layer pipeline with validated shape composition.

    The last layer must be the graph's only Dense layer and it must emit
    num_classes logits. The layers' own ops check that they compose: the
    constructor runs one empty batch through them, tape-free, and keeps
    the per-sample shape entering each layer for suffix.
    """

    def __init__(self, layers, input_shape, num_classes):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.num_classes = int(num_classes)
        dense_positions = [i for i, l in enumerate(self.layers) if l.kind == "dense"]
        if dense_positions != [len(self.layers) - 1]:
            raise ShapeError("model must end with its single dense logits layer")
        x = T.Tensor(np.zeros((0, *self.input_shape), np.float32))
        self._in_shapes = []
        for i, layer in enumerate(self.layers):
            self._in_shapes.append(x.shape[1:])
            try:
                x = layer.forward(x)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None
        if x.shape[1:] != (self.num_classes,):
            raise ShapeError(f"final layer produces {x.shape[1:]}, expected ({self.num_classes},)")

    def forward(self, batch, tape=None, upto=None):
        """Run the network on a [N, *input_shape] tensor.

        upto limits execution to the first `upto` layers (activation tap
        for feature-extractor comparisons); None runs the full graph.
        """
        if tuple(batch.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"batch shape {tuple(batch.shape[1:])} does not match model input {self.input_shape}"
            )
        x = batch
        for layer in self.layers if upto is None else self.layers[:upto]:
            x = layer.forward(x, tape)
        return x

    def suffix(self, start):
        """Graph of layers[start:], sharing this graph's layer objects.

        Its input shape is the activation shape entering layer `start`,
        so it runs on the output of forward(..., upto=start). start 0
        returns this graph itself.
        """
        if start == 0:
            return self
        return ModelGraph(self.layers[start:], self._in_shapes[start], self.num_classes)

    def parameterized_layers(self):
        return [l for l in self.layers if l.params()]

    def named_parameters(self):
        """[(name, Tensor)] pairs, names like conv1.weight / dense.bias."""
        out = []
        conv_i = 0
        for layer in self.layers:
            ps = layer.params()
            if not ps:
                continue
            if layer.kind == "conv":
                conv_i += 1
                prefix = f"conv{conv_i}"
            else:
                prefix = "dense"
            for pname, p in ps.items():
                out.append((f"{prefix}.{pname}", p))
        return out

    def parameter_count(self):
        return sum(p.size for _, p in self.named_parameters())

    def copy(self):
        """Deep copy: independent parameter arrays, same structure and flags."""
        clone = object.__new__(ModelGraph)
        clone.input_shape = self.input_shape
        clone.num_classes = self.num_classes
        clone._in_shapes = self._in_shapes
        clone.layers = []
        for layer in self.layers:
            lc = object.__new__(type(layer))
            lc.__dict__.update({
                k: (T.Tensor(v.data.copy(), requires_grad=v.requires_grad)
                    if isinstance(v, T.Tensor) else v)
                for k, v in layer.__dict__.items()
            })
            clone.layers.append(lc)
        return clone


def build_small_convnet(input_shape, num_classes, seed, *, dtype=np.float32):
    """Three conv blocks (16/16/32 filters), GAP, dense head.

    Deterministic for a given seed; He-normal weights, zero biases.
    Needs at least 16x16 spatial input for the three pooling stages.
    """
    C, H, W = (int(s) for s in input_shape)
    if H < 16 or W < 16:
        raise ShapeError(f"input {H}x{W} too small for three pooling stages (need >=16)")
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(C, 16, rng=rng, dtype=dtype), Relu(), MaxPool2d(),
        Conv2d(16, 16, rng=rng, dtype=dtype), Relu(), MaxPool2d(),
        Conv2d(16, 32, rng=rng, dtype=dtype), Relu(), MaxPool2d(),
        GlobalAvgPool(),
        Dense(32, num_classes, rng=rng, dtype=dtype),
    ]
    return ModelGraph(layers, (C, H, W), num_classes)


# ---------------------------------------------------------------------------
# optimizer


class SgdState:
    """SGD with momentum / Nesterov and 1/(1+decay*t) learning-rate decay.

    The iteration counter is global across epochs; velocities are
    zero-initialized per parameter name on first use.
    """

    def __init__(self, lr0, decay=0.0, momentum=0.0, nesterov=False):
        self.lr0 = float(lr0)
        self.decay = float(decay)
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)
        self.iteration = 0
        self.velocity = {}

    def effective_lr(self):
        return self.lr0 / (1.0 + self.decay * self.iteration)


def sgd_step(model, state):
    """One update of every trainable parameter from its populated gradient.

    v <- momentum*v - lr_t*g; then w += momentum*v - lr_t*g under
    Nesterov, else w += v. Raises if a trainable parameter has no
    gradient. Non-trainable parameters are untouched.
    """
    lr = state.effective_lr()
    mom = state.momentum
    for name, p in model.named_parameters():
        if not p.requires_grad:
            continue
        g = p.grad
        if g is None:
            raise ContractError(f"no gradient for trainable parameter {name}")
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = mom * v - lr * g
        state.velocity[name] = v
        if state.nesterov:
            p.data += mom * v - lr * g
        else:
            p.data += v
    state.iteration += 1


def zero_grads(model):
    for _, p in model.named_parameters():
        p.zero_grad()


# ---------------------------------------------------------------------------
# weight files
#
# Little-endian layout, documented in README.md:
#   magic   4 bytes  "XFAW"
#   u32     version (1)
#   u32     record count
#   records: u16 name length | name UTF-8 | u8 rank | u32 extents[rank] | f32 data
#   u32     CRC32 of all preceding bytes
# One record per parameter tensor, plus the reserved "__meta__.input_hw"
# record ([H, W] of the model input) so the model can be rebuilt.


def save_weights(model, path):
    """Write the model's parameters (f32) in the documented binary format.

    ContractError, and no file, if a parameter holds a NaN or infinity.
    """
    records = list(model.named_parameters())
    for name, p in records:
        if not np.isfinite(p.data).all():
            raise ContractError(f"parameter {name} holds a non-finite value; not saved")
    body = bytearray()
    body += WEIGHT_MAGIC
    body += struct.pack("<II", WEIGHT_VERSION, len(records) + 1)
    for name, p in records:
        body += _pack_record(name, p.data)
    hw = np.asarray(model.input_shape[1:], dtype=np.float32)
    body += _pack_record(_META_INPUT_HW, hw)
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    with open(path, "wb") as f:
        f.write(body)


def _pack_record(name, arr):
    nb = name.encode("utf-8")
    rec = struct.pack("<H", len(nb)) + nb
    rec += struct.pack("<B", arr.ndim)
    rec += struct.pack(f"<{arr.ndim}I", *arr.shape)
    rec += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return rec


def load_weights(path):
    """Rebuild a ModelGraph from a weight file.

    Validates magic, version, record bounds and the trailing CRC before
    touching any values, then rejects a NaN or infinite value; a corrupt
    file never yields a partial model.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise FormatError(f"weight file truncated at byte {len(blob)}: no room for header")
    if blob[:4] != WEIGHT_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {WEIGHT_MAGIC!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != WEIGHT_VERSION:
        raise FormatError(f"unsupported version {version}, expected {WEIGHT_VERSION}")
    stored_crc = struct.unpack_from("<I", blob, len(blob) - 4)[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(f"crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")

    off = 12
    records = []
    for _ in range(count):
        name, arr, off = _unpack_record(blob, off)
        records.append((name, arr))
    if off != len(blob) - 4:
        raise FormatError(f"trailing bytes after record {count} at byte {off}")
    return _rebuild_model(dict(records), [n for n, _ in records])


def _unpack_record(blob, off):
    end = len(blob) - 4
    if off + 2 > end:
        raise FormatError(f"weight file truncated at byte {off}: expected record name length")
    (nlen,) = struct.unpack_from("<H", blob, off)
    off += 2
    if off + nlen + 1 > end:
        raise FormatError(f"weight file truncated at byte {off}: expected record name")
    try:
        name = blob[off:off + nlen].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"record name at byte {off} is not valid UTF-8") from None
    off += nlen
    rank = blob[off]
    off += 1
    if off + 4 * rank > end:
        raise FormatError(f"weight file truncated at byte {off}: extents of {name}")
    extents = struct.unpack_from(f"<{rank}I", blob, off)
    if 0 in extents:
        raise FormatError(f"record {name} at byte {off} has a zero extent: {extents}")
    off += 4 * rank
    n = int(np.prod(extents)) if rank else 1
    if off + 4 * n > end:
        raise FormatError(f"weight file truncated at byte {off}: data of {name}")
    arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(extents)
    if not np.isfinite(arr).all():
        raise FormatError(f"record {name} at byte {off} holds a non-finite value")
    off += 4 * n
    return name, arr, off


def _rebuild_model(by_name, order):
    """Reconstruct the conv-blocks + GAP + dense family from named records."""
    if _META_INPUT_HW not in by_name:
        raise FormatError(f"missing {_META_INPUT_HW} record")
    hw = by_name[_META_INPUT_HW]
    if hw.shape != (2,):
        raise FormatError(f"shape-manifest mismatch: {_META_INPUT_HW} has extents {hw.shape}")
    if (hw < 1).any() or (hw != np.floor(hw)).any():
        raise FormatError(f"{_META_INPUT_HW} {hw.tolist()} is not two whole numbers >= 1")
    H, W = int(hw[0]), int(hw[1])

    conv_names = []
    for name in order:
        if name.startswith("conv") and name.endswith(".weight"):
            conv_names.append(name[:-len(".weight")])
    if not conv_names or "dense.weight" not in by_name:
        raise FormatError("shape-manifest mismatch: need convN.weight records and dense.weight")

    layers = []
    in_ch = None
    for cname in conv_names:
        w = by_name[cname + ".weight"]
        b = by_name.get(cname + ".bias")
        if w.ndim != 4:
            raise FormatError(f"shape-manifest mismatch: {cname}.weight has rank {w.ndim}, expected 4")
        if b is None or b.shape != (w.shape[0],):
            raise FormatError(f"shape-manifest mismatch: {cname}.bias does not match {cname}.weight")
        if in_ch is None:
            in_ch = w.shape[1]
        conv = Conv2d(w.shape[1], w.shape[0], kernel=w.shape[2])
        conv.weight.data = w.astype(np.float32)
        conv.bias.data = b.astype(np.float32)
        layers += [conv, Relu(), MaxPool2d()]
    layers.append(GlobalAvgPool())

    dw = by_name["dense.weight"]
    db = by_name.get("dense.bias")
    if dw.ndim != 2:
        raise FormatError(f"shape-manifest mismatch: dense.weight has rank {dw.ndim}, expected 2")
    if db is None or db.shape != (dw.shape[1],):
        raise FormatError("shape-manifest mismatch: dense.bias does not match dense.weight")
    dense = Dense(dw.shape[0], dw.shape[1])
    dense.weight.data = dw.astype(np.float32)
    dense.bias.data = db.astype(np.float32)
    layers.append(dense)

    try:
        return ModelGraph(layers, (in_ch, H, W), dw.shape[1])
    except ShapeError as e:
        raise FormatError(f"shape-manifest mismatch: {e}") from None
