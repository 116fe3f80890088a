import struct
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from xferad import nn, transfer
from xferad import tensor as T
from xferad.errors import ContractError, FormatError, ShapeError

from mutation import not_refused, sample_mutations, weight_structure_offsets, with_weight_crc


def small_model(seed=0):
    return nn.build_small_convnet((3, 32, 32), 8, seed=seed)


# ---------------------------------------------------------------------------
# construction


def test_forward_logit_shape():
    m = small_model()
    x = T.Tensor(np.random.default_rng(0).random((4, 3, 32, 32), dtype=np.float32))
    assert m.forward(x).shape == (4, 8)


def test_same_seed_bit_identical_parameters():
    a, b = small_model(7), small_model(7)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_different_seed_differs():
    a, b = small_model(7), small_model(8)
    assert not np.array_equal(a.layers[0].weight.data, b.layers[0].weight.data)


def test_zero_input_logits_equal_head_bias():
    m = small_model()
    x = T.Tensor(np.zeros((2, 3, 32, 32), np.float32))
    logits = m.forward(x).data
    assert np.array_equal(logits, np.broadcast_to(m.layers[-1].bias.data, (2, 8)))


def test_parameter_budget():
    assert small_model().parameter_count() < 30_000


def test_input_too_small_for_three_pools():
    with pytest.raises(ShapeError, match="too small"):
        nn.build_small_convnet((3, 12, 12), 4, seed=0)


def test_model_must_end_in_single_dense():
    with pytest.raises(ShapeError, match="dense"):
        nn.ModelGraph([nn.GlobalAvgPool()], (3, 4, 4), 48)


def test_batch_independence_row0():
    m = small_model()
    rng = np.random.default_rng(1)
    x16 = rng.random((16, 3, 32, 32), dtype=np.float32)
    row_alone = m.forward(T.Tensor(x16[:1])).data[0]
    row_in_batch = m.forward(T.Tensor(x16)).data[0]
    assert np.allclose(row_alone, row_in_batch, atol=1e-5)


RNG = np.random.default_rng(0)


def block(in_channels, filters, kernel=3):
    return [nn.Conv2d(in_channels, filters, kernel, rng=RNG), nn.Relu(), nn.MaxPool2d()]


def dense(in_features, out_features):
    return nn.Dense(in_features, out_features, rng=RNG)


# each graph breaks one composition rule, which its id names
@pytest.mark.parametrize("layers, input_shape, num_classes", [
    pytest.param(block(3, 16) + block(8, 16) + [nn.GlobalAvgPool(), dense(16, 4)],
                 (3, 16, 16), 4, id="conv-channels-differ-between-blocks"),
    pytest.param(block(3, 16) + [nn.GlobalAvgPool(), dense(8, 4)],
                 (3, 16, 16), 4, id="dense-width-differs-from-conv-filters"),
    pytest.param(block(3, 16) + [nn.GlobalAvgPool(), dense(16, 4)],
                 (3, 16, 16), 5, id="logits-differ-from-num-classes"),
    pytest.param(block(3, 16) + block(16, 16) + [nn.GlobalAvgPool(), dense(16, 4)],
                 (3, 2, 2), 4, id="pooling-below-1x1"),
    pytest.param(block(3, 16) + [dense(16, 4)], (3, 16, 16), 4, id="dense-before-gap"),
    pytest.param([nn.Conv2d(12, 16, rng=RNG), nn.GlobalAvgPool(), dense(16, 4)],
                 (12,), 4, id="conv-on-flat-input"),
    pytest.param([nn.GlobalAvgPool(), dense(12, 4)], (12,), 4, id="gap-on-flat-input"),
    pytest.param(block(3, 16, kernel=5) + [nn.GlobalAvgPool(), dense(16, 4)],
                 (3, 2, 2), 4, id="kernel-larger-than-padded-input"),
])
def test_model_graph_rejects_a_broken_composition(layers, input_shape, num_classes):
    with pytest.raises(ShapeError):
        nn.ModelGraph(layers, input_shape, num_classes)


def assert_suffixes_continue_the_forward_pass(m, x):
    assert m.suffix(0) is m
    for k in range(len(m.layers)):
        tail = m.suffix(k)
        assert all(a is b for a, b in zip(tail.layers, m.layers[k:]))
        assert tail.input_shape == m.forward(x, upto=k).shape[1:]
        assert np.array_equal(tail.forward(m.forward(x, upto=k)).data, m.forward(x).data)


def test_suffix_shares_layers_and_continues_the_forward_pass():
    m = small_model()
    x = T.Tensor(np.random.default_rng(3).random((2, 3, 32, 32), dtype=np.float32))
    assert_suffixes_continue_the_forward_pass(m, x)
    detector = transfer.apply_freeze(transfer.replace_head(m, 2, seed=0), transfer.FreezePolicy(2))
    assert_suffixes_continue_the_forward_pass(detector, x)


def test_forward_without_record_cannot_backprop():
    m = small_model()
    x = T.Tensor(np.random.default_rng(2).random((2, 3, 32, 32), dtype=np.float32))
    logits = m.forward(x)
    loss = T.softmax_cross_entropy(logits, [0, 1])
    with pytest.raises(ContractError):
        T.backward(loss, T.Tape())
    assert all(p.grad is None for _, p in m.named_parameters())


def test_forward_shape_mismatch():
    m = small_model()
    with pytest.raises(ShapeError, match="does not match model input"):
        m.forward(T.Tensor(np.zeros((2, 1, 32, 32), np.float32)))


def test_softmax_of_model_logits_normalized():
    m = small_model(3)
    x = T.Tensor(np.random.default_rng(3).random((8, 3, 32, 32), dtype=np.float32))
    probs = T.softmax(m.forward(x).data)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# optimizer


def scalar_model(w0, dtype=np.float64):
    dense = nn.Dense(1, 1, rng=np.random.default_rng(0), dtype=dtype)
    dense.weight.data = np.array([[w0]], dtype=dtype)
    m = nn.ModelGraph([dense], (1,), 1)
    return m, dense


def set_grads(model, wg, bg=0.0):
    dense = model.layers[-1]
    dense.weight.grad = np.full_like(dense.weight.data, wg)
    dense.bias.grad = np.full_like(dense.bias.data, bg)


def reference_sgd(w0, grads, lr0, decay, momentum, nesterov):
    w, v = w0, 0.0
    for t, g in enumerate(grads):
        lr = lr0 / (1.0 + decay * t)
        v = momentum * v - lr * g
        w = w + (momentum * v - lr * g) if nesterov else w + v
    return w


def test_sgd_vanilla_single_step():
    m, dense = scalar_model(1.0)
    state = nn.SgdState(lr0=0.1)
    set_grads(m, 0.5)
    nn.sgd_step(m, state)
    assert dense.weight.data[0, 0] == pytest.approx(0.95, abs=1e-15)
    assert state.iteration == 1


def test_sgd_nesterov_two_steps_match_hand_recurrence():
    m, dense = scalar_model(0.0)
    state = nn.SgdState(lr0=0.1, momentum=0.9, nesterov=True)
    for _ in range(2):
        set_grads(m, 1.0)
        nn.sgd_step(m, state)
    expected = reference_sgd(0.0, [1.0, 1.0], 0.1, 0.0, 0.9, True)
    assert dense.weight.data[0, 0] == pytest.approx(expected, abs=1e-15)


def test_sgd_hundred_steps_match_hand_recurrence_to_1e12():
    rng = np.random.default_rng(4)
    grads = rng.standard_normal(100)
    m, dense = scalar_model(0.3)
    state = nn.SgdState(lr0=1e-3, decay=1e-6, momentum=0.9, nesterov=True)
    for g in grads:
        set_grads(m, g)
        nn.sgd_step(m, state)
    expected = reference_sgd(0.3, grads, 1e-3, 1e-6, 0.9, True)
    assert abs(dense.weight.data[0, 0] - expected) <= 1e-12


def test_decay_halves_lr_at_million_iterations():
    state = nn.SgdState(lr0=1e-3, decay=1e-6)
    state.iteration = 10 ** 6
    assert state.effective_lr() == 1e-3 / 2


def test_effective_lr_monotone_nonincreasing():
    state = nn.SgdState(lr0=1e-3, decay=1e-6)
    m, _ = scalar_model(0.0)
    lrs = []
    for _ in range(50):
        lrs.append(state.effective_lr())
        set_grads(m, 1.0)
        nn.sgd_step(m, state)
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    assert all(lr > 0 for lr in lrs)


def test_zero_gradient_step_is_noop():
    m = small_model()
    before = {n: p.data.copy() for n, p in m.named_parameters()}
    for _, p in m.named_parameters():
        p.grad = np.zeros_like(p.data)
    nn.sgd_step(m, nn.SgdState(lr0=0.1, momentum=0.9, nesterov=True))
    for n, p in m.named_parameters():
        assert np.array_equal(p.data, before[n])


def test_missing_gradient_is_contract_error():
    m = small_model()
    with pytest.raises(ContractError, match="no gradient"):
        nn.sgd_step(m, nn.SgdState(lr0=0.1))


def train_steps(model, steps, lr=1e-3, momentum=0.0, batch=None, seed=5):
    rng = np.random.default_rng(seed)
    if batch is None:
        batch = (rng.random((8, 3, 32, 32), dtype=np.float32),
                 rng.integers(0, model.num_classes, 8))
    x, y = batch
    state = nn.SgdState(lr0=lr, momentum=momentum)
    losses = []
    for _ in range(steps):
        tape = T.Tape()
        loss = T.softmax_cross_entropy(model.forward(T.Tensor(x), tape), y, tape)
        T.backward(loss, tape)
        nn.sgd_step(model, state)
        nn.zero_grads(model)
        losses.append(float(loss.data))
    return losses


def test_frozen_layer_untouched_after_training():
    m = small_model()
    m.layers[0].weight.requires_grad = False
    m.layers[0].bias.requires_grad = False
    frozen_w = m.layers[0].weight.data.copy()
    frozen_b = m.layers[0].bias.data.copy()
    train_steps(m, 5)
    assert np.array_equal(m.layers[0].weight.data, frozen_w)
    assert np.array_equal(m.layers[0].bias.data, frozen_b)


def test_trainable_is_read_from_requires_grad():
    m = small_model()
    m.layers[0].weight.requires_grad = False
    m.layers[0].bias.requires_grad = False
    assert m.layers[0].trainable is False
    assert m.copy().layers[0].trainable is False
    relu = next(l for l in m.layers if l.kind == "relu")
    assert relu.trainable is True


def relu_before_pool(model):
    """A copy of model with each block as [conv, relu, maxpool]."""
    layers = model.copy().layers
    for i in [i for i, layer in enumerate(layers) if layer.kind == "maxpool"]:
        layers[i], layers[i + 1] = layers[i + 1], layers[i]
    return nn.ModelGraph(layers, model.input_shape, model.num_classes)


def assert_same_parameter_bytes(a, b, attr):
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert getattr(pa, attr).tobytes() == getattr(pb, attr).tobytes(), (attr, na)


def zero_background_batch(rng, dtype):
    """Mostly-zero images, like MNIST digits: at zero biases 84% of pool1's
    windows then have a zero max, and the relu-first order's mask leaves
    -0.0 gradients."""
    x = np.zeros((8, 3, 32, 32), dtype)
    x[:, :, 10:22, 12:20] = rng.random((8, 3, 12, 8))
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("images", ["random", "zero_background"])
def test_pool_before_relu_keeps_every_byte_of_the_relu_first_order(dtype, images):
    """max and relu commute, and the pool's zero re-signing and first-equal
    hits make the two block orders agree byte for byte: logits, gradients,
    weights and training records."""
    rng = np.random.default_rng(12)
    x = (zero_background_batch(rng, dtype) if images == "zero_background"
         else rng.random((8, 3, 32, 32)).astype(dtype))
    y = rng.integers(0, 8, 8)
    new = nn.build_small_convnet((3, 32, 32), 8, seed=3, dtype=dtype)
    assert [l.kind for l in new.layers[:3]] == ["conv", "maxpool", "relu"]
    old = relu_before_pool(new)
    states = [nn.SgdState(0.05, 1e-6, 0.9, nesterov=True) for _ in range(2)]
    for _ in range(4):
        logits = []
        for model, state in zip((new, old), states):
            tape = T.Tape()
            out = model.forward(T.Tensor(x), tape)
            T.backward(T.softmax_cross_entropy(out, y, tape), tape)
            logits.append(out.data.tobytes())
        assert logits[0] == logits[1]
        assert_same_parameter_bytes(new, old, "grad")
        for model, state in zip((new, old), states):
            nn.sgd_step(model, state)
            nn.zero_grads(model)
        assert_same_parameter_bytes(new, old, "data")

    config = transfer.TransferConfig(lr0=0.05, batch_size=4, epochs=2, seed=1)
    trained = [transfer._train_epochs(model, lambda ix: x[ix], y, config)
               for model in (new, old)]
    assert trained[0][1] == trained[1][1]
    assert_same_parameter_bytes(trained[0][0], trained[1][0], "data")


class CountingHelper:
    """Stands in for tensor._DW_HELPER: counts submits, runs them on pool."""

    def __init__(self, pool):
        self.pool, self.submits = pool, 0

    def submit(self, fn, *args):
        self.submits += 1
        return self.pool.submit(fn, *args)


def dw_threads(prefix="xferad-conv-dw"):
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


def conv_steps(monkeypatch, cpus, dtype, batch, steps=3):
    """Per step the logits, gradients and weights of Nesterov SGD on the
    network and of criterion 1's stride-2 padding-1 conv, whose input x
    needs a gradient, with tensor._usable_cpus patched to cpus; and the
    number of dw products handed to the helper."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    helper = CountingHelper(T._DW_HELPER)
    monkeypatch.setattr(T, "_DW_HELPER", helper)
    rng = np.random.default_rng([30, batch])
    images = rng.random((batch, 3, 32, 32)).astype(dtype)
    labels = rng.integers(0, 8, batch)
    model = nn.build_small_convnet((3, 32, 32), 8, seed=31, dtype=dtype)
    state = nn.SgdState(0.05, 1e-6, 0.9, nesterov=True)
    x, w, b = (T.Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
               for s in ((batch, 4, 9, 9), (5, 4, 3, 3), (5,)))
    seen = []
    for _ in range(steps):
        tape = T.Tape()
        logits = model.forward(T.Tensor(images), tape)
        T.backward(T.softmax_cross_entropy(logits, labels, tape), tape)
        seen.append(logits.data.tobytes())
        seen += [p.grad.tobytes() for _, p in model.named_parameters()]
        nn.sgd_step(model, state)
        nn.zero_grads(model)
        seen += [p.data.tobytes() for _, p in model.named_parameters()]
        tape = T.Tape()
        c = T.conv2d(x, w, b, 2, 1, tape)
        T.backward(T.sum_all(T.mul(c, c, tape), tape), tape)
        seen += [c.data.tobytes()] + [t.grad.tobytes() for t in (x, w, b)]
        for t in (x, w, b):
            t.data = t.data - dtype(0.01) * t.grad
            t.zero_grad()
    return seen, helper.submits


@pytest.mark.parametrize("batch", [1, 4, 16])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_dw_on_the_helper_keeps_every_byte(monkeypatch, dtype, batch):
    """With two usable CPUs each conv whose input needs a gradient (conv2,
    conv3 and the stride-2 conv; conv1's input needs none) computes dw on
    the helper thread: the same logits, gradients and weights as with one,
    where every dw runs inline, also when threads switch every microsecond."""
    serial, inline_submits = conv_steps(monkeypatch, 1, dtype, batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, helper_submits = conv_steps(monkeypatch, 2, dtype, batch)
    finally:
        sys.setswitchinterval(interval)
    assert inline_submits == 0
    assert helper_submits == 3 * 3
    assert threaded == serial


def test_conv_dw_helper_starts_once_and_only_when_needed(monkeypatch):
    """No helper thread with one usable CPU, for a tape-free forward, or for
    a suffix whose first conv's input is a cached activation; with two, one
    thread serves every later step, so none leaks."""
    pool = ThreadPoolExecutor(1, thread_name_prefix="conv-dw-probe")
    monkeypatch.setattr(T, "_DW_HELPER", pool)
    rng = np.random.default_rng(32)
    x, y = rng.random((4, 3, 32, 32), dtype=np.float32), rng.integers(0, 8, 4)
    model = small_model(33)
    suffix = model.suffix(6)
    cached = model.forward(T.Tensor(x), upto=6)

    def step(net, batch):
        tape = T.Tape()
        T.backward(T.softmax_cross_entropy(net.forward(T.Tensor(batch), tape), y, tape), tape)
        nn.zero_grads(model)

    try:
        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
        for _ in range(3):
            step(model, x)
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        model.forward(T.Tensor(x))
        step(suffix, cached.data)
        assert dw_threads("conv-dw-probe") == []
        before = threading.active_count()
        for _ in range(40):
            step(model, x)
        assert len(dw_threads("conv-dw-probe")) == 1
        assert threading.active_count() <= before + 1
    finally:
        pool.shutdown()
    assert len(dw_threads()) <= 1


def test_an_error_in_the_helpers_dw_leaves_backward_usable(monkeypatch):
    """dw's error, raised on the helper thread, comes out of T.backward; the
    helper is not left stuck, so the next backward gives the serial bytes."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(34)
    x, y = rng.random((4, 3, 32, 32), dtype=np.float32), rng.integers(0, 8, 4)
    model = small_model(35)
    takes_nt, failing, names = T._dw_takes_nt, [True], []

    def failing_takes_nt(*shape):
        names.append(threading.current_thread().name)
        if failing[0]:
            raise RuntimeError("dw failed")
        return takes_nt(*shape)

    monkeypatch.setattr(T, "_dw_takes_nt", failing_takes_nt)

    def grads():
        tape = T.Tape()
        T.backward(T.softmax_cross_entropy(model.forward(T.Tensor(x), tape), y, tape), tape)
        out = [p.grad.tobytes() for _, p in model.named_parameters()]
        nn.zero_grads(model)
        return out

    with pytest.raises(RuntimeError, match="dw failed"):
        grads()
    assert names and names[0].startswith("xferad-conv-dw")
    nn.zero_grads(model)
    failing[0] = False
    threaded = grads()
    monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
    assert threaded == grads()


def test_loss_strictly_decreases_over_20_fullbatch_steps():
    m = small_model(11)
    rng = np.random.default_rng(6)
    batch = (rng.random((32, 3, 32, 32), dtype=np.float32), rng.integers(0, 8, 32))
    losses = train_steps(m, 21, lr=1e-3, batch=batch)
    # loss before step t is losses[t]; compare successive full-batch losses
    assert all(a > b for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# weight files


def independent_weight_reader(path):
    """Byte-level reader written only from the README's format table."""
    with open(path, "rb") as f:
        blob = f.read()
    assert blob[:4] == b"XFAW"
    version, count = struct.unpack_from("<II", blob, 4)
    assert version == 1
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    assert stored_crc == (zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
    off = 12
    records = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        rank = blob[off]
        off += 1
        extents = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        n = 1
        for e in extents:
            n *= e
        flat = struct.unpack_from(f"<{n}f", blob, off)
        off += 4 * n
        records[name] = (extents, flat)
    assert off == len(blob) - 4
    return records


def test_save_load_roundtrip_bit_exact(tmp_path):
    m = small_model(9)
    path = tmp_path / "model.xfaw"
    nn.save_weights(m, path)
    loaded = nn.load_weights(path)
    assert loaded.input_shape == m.input_shape
    assert loaded.num_classes == m.num_classes
    for (na, pa), (nb, pb) in zip(m.named_parameters(), loaded.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_roundtrip_preserves_forward_bit_exact(tmp_path):
    m = small_model(10)
    path = tmp_path / "model.xfaw"
    nn.save_weights(m, path)
    loaded = nn.load_weights(path)
    x = T.Tensor(np.random.default_rng(7).random((3, 3, 32, 32), dtype=np.float32))
    assert np.array_equal(m.forward(x).data, loaded.forward(x).data)


def test_load_weights_builds_layers_from_the_file_without_drawing(tmp_path, monkeypatch):
    m = small_model(11)
    path = tmp_path / "model.xfaw"
    nn.save_weights(m, path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_weights drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = nn.load_weights(path)
    for (_, pa), (_, pb) in zip(m.named_parameters(), loaded.named_parameters()):
        assert pb.data.tobytes() == pa.data.tobytes()
        assert pb.requires_grad and pb.data.flags.writeable  # sgd_step updates in place


def test_independent_reader_recovers_identical_flat_arrays(tmp_path):
    m = small_model(12)
    path = tmp_path / "model.xfaw"
    nn.save_weights(m, path)
    records = independent_weight_reader(path)
    for name, p in m.named_parameters():
        extents, flat = records[name]
        assert tuple(extents) == p.shape
        assert np.array_equal(np.asarray(flat, np.float32).reshape(extents), p.data)
    assert records["__meta__.input_hw"][1] == (32.0, 32.0)


def test_truncated_file_rejected_without_partial_model(tmp_path):
    m = small_model()
    path = tmp_path / "model.xfaw"
    nn.save_weights(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        nn.load_weights(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.xfaw"
    nn.save_weights(small_model(), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        nn.load_weights(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "model.xfaw"
    nn.save_weights(small_model(), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    # refresh crc so the version check itself is exercised
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        nn.load_weights(path)


def test_flipped_payload_byte_fails_crc(tmp_path):
    path = tmp_path / "model.xfaw"
    nn.save_weights(small_model(), path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="crc"):
        nn.load_weights(path)


def test_save_weights_refuses_non_finite_parameters(tmp_path):
    m = small_model()
    m.layers[-1].bias.data[1] = np.inf
    path = tmp_path / "model.xfaw"
    with pytest.raises(ContractError, match="dense.bias"):
        nn.save_weights(m, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_under_a_valid_crc_is_format_error(tmp_path, value):
    m = small_model()
    path = tmp_path / "model.xfaw"
    nn.save_weights(m, path)
    blob = bytearray(path.read_bytes())
    w = m.layers[0].weight.data
    start = blob.find(np.ascontiguousarray(w, "<f4").tobytes())
    blob[start:start + 4] = np.array([value], "<f4").tobytes()
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="conv1.weight .*non-finite"):
        nn.load_weights(path)


def write_weight_records(path, records):
    """A weight file holding [(name, array)] records under a valid crc."""
    body = b"XFAW" + struct.pack("<II", 1, len(records))
    body += b"".join(nn._pack_record(name, arr) for name, arr in records)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def test_zero_extent_record_under_a_valid_crc_is_format_error(tmp_path):
    records = [(n, p.data) for n, p in small_model().named_parameters()]
    records[0] = ("conv1.weight", np.zeros((16, 3, 0, 0), np.float32))
    records.append(("__meta__.input_hw", np.array([32, 32], np.float32)))
    path = tmp_path / "model.xfaw"
    write_weight_records(path, records)
    with pytest.raises(FormatError, match="conv1.weight .*zero extent"):
        nn.load_weights(path)


@pytest.mark.parametrize("hw", [[16.6, 16], [16, 0]])
def test_non_whole_input_size_under_a_valid_crc_is_format_error(tmp_path, hw):
    records = [(n, p.data) for n, p in small_model().named_parameters()]
    records.append(("__meta__.input_hw", np.array(hw, np.float32)))
    path = tmp_path / "model.xfaw"
    write_weight_records(path, records)
    with pytest.raises(FormatError, match="input_hw .*whole numbers"):
        nn.load_weights(path)


def mismatched_weight_records(case):
    """A small_model's records (input 32x32) with one shape made inconsistent."""
    records = {n: p.data for n, p in small_model().named_parameters()}
    records["__meta__.input_hw"] = np.array([32, 32], np.float32)
    name, arr = {
        "conv2-8-channels": ("conv2.weight", np.zeros((16, 8, 3, 3), np.float32)),
        "dense-16-rows": ("dense.weight", np.zeros((16, 8), np.float32)),
        "input-4x4": ("__meta__.input_hw", np.array([4, 4], np.float32)),
        "input-1x1": ("__meta__.input_hw", np.array([1, 1], np.float32)),
    }[case]
    records[name] = arr
    return list(records.items())


@pytest.mark.parametrize("case", ["conv2-8-channels", "dense-16-rows", "input-4x4", "input-1x1"])
def test_shapes_that_do_not_compose_under_a_valid_crc_are_format_error(tmp_path, case):
    path = tmp_path / "model.xfaw"
    write_weight_records(path, mismatched_weight_records(case))
    with pytest.raises(FormatError):
        nn.load_weights(path)


def test_undecodable_record_name_is_format_error(tmp_path):
    path = tmp_path / "model.xfaw"
    nn.save_weights(small_model(), path)
    blob = bytearray(path.read_bytes())
    blob[14] = 0xFF  # first byte of the first record name, under a valid crc
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="UTF-8"):
        nn.load_weights(path)


def wrapped_extent_weights(path):
    """A small_model file, valid CRC, whose conv1.weight extents are four
    of 65,536: 2**64 elements, which an int64 product counts as 0."""
    nn.save_weights(small_model(), path)
    blob = bytearray(path.read_bytes())
    at = 12 + 2 + len("conv1.weight") + 1
    blob[at:at + 16] = struct.pack("<4I", *[65536] * 4)
    path.write_bytes(with_weight_crc(bytes(blob)))


def test_record_extents_whose_product_wraps_int64_are_format_error(tmp_path):
    path = tmp_path / "model.xfaw"
    wrapped_extent_weights(path)
    with pytest.raises(FormatError, match="truncated .*conv1.weight"):
        nn.load_weights(path)


def test_rank_above_the_largest_saved_rank_is_format_error(tmp_path):
    path = tmp_path / "model.xfaw"
    nn.save_weights(small_model(), path)
    blob = bytearray(path.read_bytes())
    blob[12 + 2 + len("conv1.weight")] = 65
    path.write_bytes(with_weight_crc(bytes(blob)))
    with pytest.raises(FormatError, match="conv1.weight .*rank 65"):
        nn.load_weights(path)


def renamed_weight_records(case):
    """A small_model's records, named other than save_weights names them."""
    records = [(n, p.data) for n, p in small_model().named_parameters()]
    records.append(("__meta__.input_hw", np.array([32, 32], np.float32)))
    if case == "repeated-conv2":  # once loaded as a 4-block net
        return records[:4] + records[2:]
    if case == "renamed-conv1":  # once loaded as a 2-block net of 16 input channels
        return [("conv1.weighx", records[0][1])] + records[1:]
    return [records[4], records[5], *records[:4], *records[6:]]  # conv3 first


@pytest.mark.parametrize("case,message", [
    ("repeated-conv2", "record 5 is 'conv2.weight', expected 'conv3.weight'"),
    ("renamed-conv1", "record 1 is 'conv1.weighx', expected 'conv1.weight'"),
    ("conv3-first", "record 1 is 'conv3.weight', expected 'conv1.weight'"),
])
def test_records_not_named_as_save_weights_names_them_are_format_error(tmp_path, case, message):
    path = tmp_path / "model.xfaw"
    write_weight_records(path, renamed_weight_records(case))
    with pytest.raises(FormatError, match=message):
        nn.load_weights(path)


def test_every_prefix_of_a_weight_file_is_format_error(tmp_path):
    """A weight file cut at any byte, with the CRC as cut or recomputed over
    the bytes kept, raises FormatError: a cut file never loads a model."""
    rng = np.random.default_rng(0)
    tiny = nn.ModelGraph([nn.Conv2d(1, 2, rng=rng), nn.Relu(), nn.MaxPool2d(),
                          nn.GlobalAvgPool(), nn.Dense(2, 2, rng=rng)], (1, 4, 4), 2)
    path = tmp_path / "model.xfaw"
    nn.save_weights(tiny, path)
    blob = path.read_bytes()
    nn.load_weights(path)
    cuts = [((cut, crc), bad(blob[:cut])) for cut in range(len(blob))
            for crc, bad in (("as cut", bytes), ("recomputed", with_weight_crc))]
    assert not not_refused(path, cuts, nn.load_weights)


def test_structure_byte_mutations_under_a_valid_crc_are_format_error(tmp_path):
    """Each of a seeded 1,000 of the 56,100 single-byte changes to the header,
    names, ranks and extents, under a recomputed CRC, raises FormatError."""
    path = tmp_path / "model.xfaw"
    nn.save_weights(small_model(), path)
    blob = path.read_bytes()
    offsets = weight_structure_offsets(blob)
    assert len(offsets) == 220
    mutants = [((off, value), with_weight_crc(bad))
               for off, value, bad in sample_mutations(blob, offsets, 1000, seed=19)]
    assert not not_refused(path, mutants, nn.load_weights)
