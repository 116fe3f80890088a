"""Layers, the small convnet family, SGD with Nesterov momentum, and
the binary weight-file format.

The architecture family this toolkit trains is: N blocks of
[3x3 conv, 2x2 maxpool, relu] (the same function as [conv, relu,
maxpool]), then global average pooling and a single dense layer
producing the class logits. Weight files store named parameter tensors
plus a reserved metadata record so the model can be rebuilt from the
file alone.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib

import numpy as np

from . import tensor as T
from .errors import ContractError, FormatError, ShapeError

WEIGHT_MAGIC = b"XFAW"
WEIGHT_VERSION = 1
_META_INPUT_HW = "__meta__.input_hw"
_MAX_RANK = 4  # conv kernels; save_weights writes no higher rank


class Layer:
    """Base layer: a kind tag, optional named parameters, and a trainable
    flag read from their requires_grad (True when parameter-free)."""

    kind = "?"

    @property
    def trainable(self):
        return all(p.requires_grad for p in self.params().values())

    def params(self):
        """Named parameter tensors of this layer ({} when parameter-free)."""
        return {}

    def forward(self, x, tape=None):
        raise NotImplementedError


class _Affine(Layer):
    """A layer whose parameters are a weight and a per-output bias."""

    def __init__(self, weight, bias):
        self.weight = T.Tensor(weight, requires_grad=True)
        self.bias = T.Tensor(bias, requires_grad=True)

    @classmethod
    def from_arrays(cls, weight, bias):
        """The layer holding these arrays as its parameters, as loaded."""
        layer = object.__new__(cls)
        _Affine.__init__(layer, weight, bias)
        return layer

    def params(self):
        return {"weight": self.weight, "bias": self.bias}


class Conv2d(_Affine):
    """Square-kernel conv, stride 1, padding 1 (weight files record only the kernel)."""

    kind = "conv"

    def __init__(self, in_channels, filters, kernel=3, *, rng, dtype=np.float32):
        fan_in = in_channels * kernel * kernel
        super().__init__(_he_normal(rng, (filters, in_channels, kernel, kernel), fan_in, dtype),
                         np.zeros(filters, dtype=dtype))

    def forward(self, x, tape=None):
        return T.conv2d(x, self.weight, self.bias, 1, 1, tape)


class Dense(_Affine):
    kind = "dense"

    def __init__(self, in_features, out_features, *, rng, dtype=np.float32):
        super().__init__(_he_normal(rng, (in_features, out_features), in_features, dtype),
                         np.zeros(out_features, dtype=dtype))

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
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


class ModelGraph:
    """Ordered layer pipeline with validated shape composition.

    The last layer must be the graph's only Dense layer and it must emit
    num_classes logits. The layers' own ops check that they compose: the
    constructor runs one empty float32 batch through them, tape-free, and
    keeps the empty activation entering each layer, then the empty logits,
    for their shapes and dtypes.
    """

    def __init__(self, layers, input_shape, num_classes):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.num_classes = int(num_classes)
        dense_positions = [i for i, l in enumerate(self.layers) if l.kind == "dense"]
        if dense_positions != [len(self.layers) - 1]:
            raise ShapeError("model must end with its single dense logits layer")
        x = T.Tensor(np.zeros((0, *self.input_shape), np.float32))
        self._empty = [x.data]
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None
            self._empty.append(x.data)
        if x.shape[1:] != (self.num_classes,):
            raise ShapeError(f"final layer produces {x.shape[1:]}, expected ({self.num_classes},)")

    def forward(self, batch, tape=None, upto=None):
        """Run the network on a [N, *input_shape] tensor.

        upto limits execution to the first `upto` layers (activation tap
        for feature-extractor comparisons); None runs the full graph. In
        build_small_convnet's graph upto 2, 5 and 8 return a block's pool
        output before its relu.
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
        return ModelGraph(self.layers[start:], self._empty[start].shape[1:], self.num_classes)

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
        clone._empty = self._empty
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

    Each block is [conv, maxpool, relu], byte for byte [conv, relu,
    maxpool] (relu and max commute, and no conv output is -0.0), so the
    pool's windows almost never have a zero max, where after a relu about
    half do, and the relu sees a quarter of the elements. Deterministic
    for a given seed; He-normal weights, zero biases. Needs at least
    16x16 spatial input for the three pooling stages.
    """
    C, H, W = (int(s) for s in input_shape)
    if H < 16 or W < 16:
        raise ShapeError(f"input {H}x{W} too small for three pooling stages (need >=16)")
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(C, 16, rng=rng, dtype=dtype), MaxPool2d(), Relu(),
        Conv2d(16, 16, rng=rng, dtype=dtype), MaxPool2d(), Relu(),
        Conv2d(16, 32, rng=rng, dtype=dtype), MaxPool2d(), Relu(),
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
    names, arrays = [], []
    for _ in range(count):
        name, arr, off = _unpack_record(blob, off)
        names.append(name)
        arrays.append(arr)
    if off != len(blob) - 4:
        raise FormatError(f"trailing bytes after record {count} at byte {off}")

    # save_weights' records in its order: conv1..convK weight and bias
    # (K >= 1), dense weight and bias, metadata. Built from the parsed
    # records, so the file's length bounds the list, not its header.
    blocks = max(1, (len(names) - 3) // 2)
    expected = [f"conv{i}.{p}" for i in range(1, blocks + 1) for p in ("weight", "bias")]
    expected += ["dense.weight", "dense.bias", _META_INPUT_HW]
    for i, (got, want) in enumerate(itertools.zip_longest(names, expected)):
        if got != want:
            raise FormatError(f"record {i + 1} is {got!r}, expected {want!r}")
    *convs, dw, db, hw = arrays

    if hw.shape != (2,):
        raise FormatError(f"shape-manifest mismatch: {_META_INPUT_HW} has extents {hw.shape}")
    if (hw < 1).any() or (hw != np.floor(hw)).any():
        raise FormatError(f"{_META_INPUT_HW} {hw.tolist()} is not two whole numbers >= 1")
    # conv1's extents give the input channels and the dense weight's the class
    # count; T.add would broadcast a (1,) bias. ModelGraph's ops check the rest.
    if convs[0].ndim != 4:
        raise FormatError(f"shape-manifest mismatch: conv1.weight has rank {convs[0].ndim}, expected 4")
    if dw.ndim != 2:
        raise FormatError(f"shape-manifest mismatch: dense.weight has rank {dw.ndim}, expected 2")
    if db.shape != (dw.shape[1],):
        raise FormatError("shape-manifest mismatch: dense.bias does not match dense.weight")

    layers = []
    for w, b in zip(convs[::2], convs[1::2]):
        layers += [Conv2d.from_arrays(w.astype(np.float32), b.astype(np.float32)),
                   MaxPool2d(), Relu()]
    layers += [GlobalAvgPool(), Dense.from_arrays(dw.astype(np.float32), db.astype(np.float32))]
    try:
        return ModelGraph(layers, (convs[0].shape[1], int(hw[0]), int(hw[1])), dw.shape[1])
    except ShapeError as e:
        raise FormatError(f"shape-manifest mismatch: {e}") from None


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
    if rank > _MAX_RANK:
        raise FormatError(f"record {name} at byte {off} has rank {rank}, above {_MAX_RANK}")
    off += 1
    if off + 4 * rank > end:
        raise FormatError(f"weight file truncated at byte {off}: extents of {name}")
    extents = struct.unpack_from(f"<{rank}I", blob, off)
    if 0 in extents:
        raise FormatError(f"record {name} at byte {off} has a zero extent: {extents}")
    off += 4 * rank
    n = math.prod(extents)
    if off + 4 * n > end:
        raise FormatError(f"weight file truncated at byte {off}: data of {name}")
    arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(extents)
    if not np.isfinite(arr).all():
        raise FormatError(f"record {name} at byte {off} holds a non-finite value")
    off += 4 * n
    return name, arr, off
