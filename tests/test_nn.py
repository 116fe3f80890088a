import struct
import zlib

import numpy as np
import pytest

from xferad import nn, transfer
from xferad import tensor as T
from xferad.errors import ContractError, FormatError, ShapeError


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


def block(in_channels, filters, kernel=3):
    return [nn.Conv2d(in_channels, filters, kernel), nn.Relu(), nn.MaxPool2d()]


# each graph breaks one composition rule, which its id names
@pytest.mark.parametrize("layers, input_shape, num_classes", [
    pytest.param(block(3, 16) + block(8, 16) + [nn.GlobalAvgPool(), nn.Dense(16, 4)],
                 (3, 16, 16), 4, id="conv-channels-differ-between-blocks"),
    pytest.param(block(3, 16) + [nn.GlobalAvgPool(), nn.Dense(8, 4)],
                 (3, 16, 16), 4, id="dense-width-differs-from-conv-filters"),
    pytest.param(block(3, 16) + [nn.GlobalAvgPool(), nn.Dense(16, 4)],
                 (3, 16, 16), 5, id="logits-differ-from-num-classes"),
    pytest.param(block(3, 16) + block(16, 16) + [nn.GlobalAvgPool(), nn.Dense(16, 4)],
                 (3, 2, 2), 4, id="pooling-below-1x1"),
    pytest.param(block(3, 16) + [nn.Dense(16, 4)], (3, 16, 16), 4, id="dense-before-gap"),
    pytest.param([nn.Conv2d(12, 16), nn.GlobalAvgPool(), nn.Dense(16, 4)],
                 (12,), 4, id="conv-on-flat-input"),
    pytest.param([nn.GlobalAvgPool(), nn.Dense(12, 4)], (12,), 4, id="gap-on-flat-input"),
    pytest.param(block(3, 16, kernel=5) + [nn.GlobalAvgPool(), nn.Dense(16, 4)],
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
    m.layers[0].trainable = False
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
    assert m.layers[1].kind == "relu" and m.layers[1].trainable is True


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
