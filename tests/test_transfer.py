import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from xferad import data, evaluate, nn, synth, transfer
from xferad.errors import CapacityError, ContractError, ShapeError
from xferad import tensor as T
from xferad.evaluate import ScoredSet, anomaly_scores, auc_trapezoid

from rsscheck import peak_rss_growth
from test_nn import HELPER_BOUND, helper_threads


def feature_activations(model, x):
    """Output of everything before the dense head (the activation tap)."""
    return model.forward(T.Tensor(x), upto=len(model.layers) - 1).data


def params_snapshot(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


def blob_task(seed=0, n_train=60, n_test=20, hw=16):
    """Linearly separable toy task: dim blobs (normal) vs bright blobs."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:hw, 0:hw]

    def blobs(n, amp):
        out = np.zeros((n, 3, hw, hw), np.float32)
        for i in range(n):
            cy, cx = rng.uniform(4, hw - 4, 2)
            g = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 12.0))
            img = amp * g + rng.normal(0, 0.02, (hw, hw))
            out[i] = np.clip(img, 0, 1)[None]
        return out

    return data.AnomalyTask(
        train_normal=blobs(n_train, 0.25),
        train_anomalous=blobs(n_train, 0.85),
        test_normal=blobs(n_test, 0.25),
        test_anomalous=blobs(n_test, 0.85),
        anomaly_class=1,
        seed=seed,
    )


def small_source(seed=0, classes=8, hw=16):
    return nn.build_small_convnet((3, hw, hw), classes, seed=seed)


# ---------------------------------------------------------------------------
# replace_head


def test_replace_head_swaps_only_the_head():
    src = small_source(seed=1)
    before = params_snapshot(src)
    tgt = transfer.replace_head(src, 2, seed=9)
    assert tgt.num_classes == 2
    assert tgt.layers[-1].weight.shape == (32, 2)
    for name, p in tgt.named_parameters():
        if name.startswith("dense"):
            continue
        assert np.array_equal(p.data, before[name])
    # input model untouched
    for name, p in src.named_parameters():
        assert np.array_equal(p.data, before[name])


def test_replace_head_same_seed_identical_init():
    src = small_source(seed=1)
    a = transfer.replace_head(src, 2, seed=5)
    b = transfer.replace_head(src, 2, seed=5)
    assert np.array_equal(a.layers[-1].weight.data, b.layers[-1].weight.data)
    c = transfer.replace_head(src, 2, seed=6)
    assert not np.array_equal(a.layers[-1].weight.data, c.layers[-1].weight.data)


def test_replace_head_preserves_last_hidden_activation():
    src = small_source(seed=2)
    tgt = transfer.replace_head(src, 2, seed=0)
    x = np.random.default_rng(3).random((4, 3, 16, 16), dtype=np.float32)
    assert np.array_equal(feature_activations(src, x), feature_activations(tgt, x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_replace_head_graph_matches_a_freshly_built_one(dtype):
    """The empty-batch pass of the new graph, logits included, and its class
    count are those of a ModelGraph built from its layers."""
    src = nn.build_small_convnet((3, 16, 16), 8, seed=1, dtype=dtype)
    tgt = transfer.replace_head(src, 2, seed=9)
    fresh = nn.ModelGraph(tgt.layers, tgt.input_shape, 2)
    assert tgt.num_classes == fresh.num_classes == 2
    empties = [[(e.shape, e.dtype) for e in m._empty] for m in (tgt, fresh, src)]
    assert empties[0] == empties[1]
    assert empties[0][:-1] == empties[2][:-1]
    assert empties[0][-1] == ((0, 2), np.dtype(dtype))


def test_replace_head_requires_dense_tail():
    m = small_source()
    m.layers = m.layers[:-1]  # strip the head
    with pytest.raises(ContractError, match="dense"):
        transfer.replace_head(m, 2, seed=0)


# ---------------------------------------------------------------------------
# apply_freeze


def test_apply_freeze_zero_depth_everything_trainable():
    m = transfer.apply_freeze(small_source(), transfer.FreezePolicy(0))
    assert all(l.trainable for l in m.parameterized_layers())


def test_apply_freeze_rejects_freezing_the_head():
    m = small_source()
    with pytest.raises(ContractError, match="head must stay trainable"):
        transfer.apply_freeze(m, transfer.FreezePolicy(4))


def run_target(model, task, strategy, freeze_depth, epochs=3, seed=0, lr=1e-2,
               selection=transfer.SELECT_BEST_VAL_AUC):
    policy = transfer.FreezePolicy(freeze_depth)
    m = transfer.apply_freeze(model, policy)
    config = transfer.TransferConfig(
        strategy=strategy, freeze=policy, lr0=lr, epochs=epochs, seed=seed,
        batch_size=16, model_selection=selection,
    )
    return transfer.train_target(m, task, config), m


def test_finetune_depth2_changes_exactly_the_unfrozen_parameters():
    tgt = transfer.replace_head(small_source(seed=4), 2, seed=4)
    (trained, _), frozen_model = run_target(tgt, blob_task(), transfer.STRATEGY_FINE_TUNE, 2,
                                            selection=transfer.SELECT_LAST_EPOCH)
    before = params_snapshot(frozen_model)
    changed = {n for n, p in trained.named_parameters() if not np.array_equal(p.data, before[n])}
    assert changed == {"conv3.weight", "conv3.bias", "dense.weight", "dense.bias"}


def test_fixed_extractor_only_head_changes_and_features_bit_stable():
    tgt = transfer.replace_head(small_source(seed=5), 2, seed=5)
    probe = np.random.default_rng(6).random((8, 3, 16, 16), dtype=np.float32)
    (trained, _), frozen_model = run_target(
        tgt, blob_task(), transfer.STRATEGY_FIXED, 3, epochs=5,
        selection=transfer.SELECT_LAST_EPOCH,
    )
    before = params_snapshot(frozen_model)
    changed = {n for n, p in trained.named_parameters() if not np.array_equal(p.data, before[n])}
    assert changed == {"dense.weight", "dense.bias"}
    assert np.array_equal(
        feature_activations(frozen_model, probe), feature_activations(trained, probe)
    )


def test_fixed_strategy_requires_full_freeze():
    tgt = transfer.replace_head(small_source(), 2, seed=0)
    policy = transfer.FreezePolicy(1)  # not all non-head layers
    m = transfer.apply_freeze(tgt, policy)
    config = transfer.TransferConfig(strategy=transfer.STRATEGY_FIXED, freeze=policy,
                                     epochs=1, seed=0)
    with pytest.raises(ContractError, match=r"fixed_extractor strategy needs freeze depth 3 "
                       r"\(every parameterized layer before the head\), got 1"):
        transfer.train_target(m, blob_task(), config)


@pytest.mark.parametrize("epochs", [0, 1])
@pytest.mark.parametrize("strategy,depth", [(transfer.STRATEGY_FIXED, 3),
                                            (transfer.STRATEGY_FINE_TUNE, 2)])
def test_train_target_rejects_a_frozen_head_before_any_work(monkeypatch, strategy, depth,
                                                            epochs):
    policy = transfer.FreezePolicy(depth)
    m = transfer.apply_freeze(transfer.replace_head(small_source(), 2, seed=0), policy)
    m.layers[-1].weight.requires_grad = False
    m.layers[-1].bias.requires_grad = False
    config = transfer.TransferConfig(strategy=strategy, freeze=policy, epochs=epochs, seed=0)

    def no_work(*args):
        raise AssertionError("prefix features computed before the checks")

    monkeypatch.setattr(transfer, "prefix_features", no_work)
    message = rf"dense\.weight is frozen, but freeze depth {depth} makes it trainable"
    with pytest.raises(ContractError, match=message):
        transfer.train_target(m, blob_task(), config)


# Models whose freeze flags disagree with config.freeze: (the depth the
# model is frozen at, parameters then frozen by hand, config strategy and
# depth, the message). The first is a partly frozen layer; in the other two
# the model is frozen to another depth than config.freeze.
MISFROZEN = {
    "partly": (2, ["conv3.bias"], transfer.STRATEGY_FINE_TUNE, 2,
               r"conv3\.bias is frozen, but freeze depth 2 makes it trainable"),
    "finetune_config_deeper": (1, [], transfer.STRATEGY_FINE_TUNE, 3,
                               r"conv2\.weight is trainable, but freeze depth 3 makes it frozen"),
    "fixed_config_depth0": (3, [], transfer.STRATEGY_FIXED, 0,
                            r"fixed_extractor strategy needs freeze depth 3 "
                            r"\(every parameterized layer before the head\), got 0"),
}


@pytest.mark.parametrize("fit,case", [
    pytest.param(fit, case, id=fit if case == "partly" else f"{fit}-{case}")
    for case in MISFROZEN for fit in ("train_target", "train_suffix")
])
def test_partly_frozen_layer_rejected_before_any_work(monkeypatch, fit, case):
    frozen_at, frozen_by_hand, strategy, depth, message = MISFROZEN[case]
    m = transfer.apply_freeze(transfer.replace_head(small_source(), 2, seed=0),
                              transfer.FreezePolicy(frozen_at))
    for name in frozen_by_hand:
        dict(m.named_parameters())[name].requires_grad = False
    config = transfer.TransferConfig(strategy=strategy, freeze=transfer.FreezePolicy(depth),
                                     epochs=1, seed=0)

    def no_work(*args):
        raise AssertionError("prefix features computed before the checks")

    monkeypatch.setattr(transfer, "prefix_features", no_work)
    task = blob_task()
    with pytest.raises(ContractError, match=message):
        if fit == "train_target":
            transfer.train_target(m, task, config)
        else:
            transfer.train_suffix(m, task.train_normal, task.train_anomalous, config)


# ---------------------------------------------------------------------------
# training behaviour


def test_fixed_extractor_separates_blob_task():
    tgt = transfer.replace_head(small_source(seed=7), 2, seed=7)
    (trained, record), _ = run_target(tgt, blob_task(seed=1), transfer.STRATEGY_FIXED, 3,
                                      epochs=10, lr=1e-2)
    best_val = max(e.val_auc for e in record.epochs)
    assert best_val >= 0.99
    assert record.epochs[record.selected_epoch].val_auc == best_val


def test_val_aucs_all_in_unit_interval():
    tgt = transfer.replace_head(small_source(seed=8), 2, seed=8)
    (_, record), _ = run_target(tgt, blob_task(seed=2), transfer.STRATEGY_FINE_TUNE, 2,
                                epochs=4)
    assert all(0.0 <= e.val_auc <= 1.0 for e in record.epochs)


def test_selection_best_vs_last_epoch():
    # high lr on a tiny task makes val AUC fluctuate, so the peak lands
    # mid-training; selection contract: best >= last
    tgt = transfer.replace_head(small_source(seed=9), 2, seed=9)
    task = blob_task(seed=3, n_train=24, n_test=8)
    (m_best, rec_best), _ = run_target(tgt, task, transfer.STRATEGY_FINE_TUNE, 0,
                                       epochs=8, lr=0.15, seed=11)
    (m_last, rec_last), _ = run_target(tgt, task, transfer.STRATEGY_FINE_TUNE, 0,
                                       epochs=8, lr=0.15, seed=11,
                                       selection=transfer.SELECT_LAST_EPOCH)
    aucs = [e.val_auc for e in rec_best.epochs]
    assert rec_last.selected_epoch == len(aucs) - 1
    assert rec_best.selected_epoch == int(np.argmax(aucs))
    assert aucs[rec_best.selected_epoch] >= aucs[-1]
    if rec_best.selected_epoch != rec_last.selected_epoch:
        assert not all(
            np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(m_best.named_parameters(), m_last.named_parameters())
        )


def test_train_target_epochs_zero_returns_input_model():
    tgt = transfer.replace_head(small_source(seed=10), 2, seed=10)
    policy = transfer.FreezePolicy(2)
    m = transfer.apply_freeze(tgt, policy)
    config = transfer.TransferConfig(freeze=policy, epochs=0, seed=0)
    trained, record = transfer.train_target(m, blob_task(), config)
    assert record.epochs == []
    for (na, pa), (_, pb) in zip(m.named_parameters(), trained.named_parameters()):
        assert np.array_equal(pa.data, pb.data), na


def test_val_split_cannot_empty_a_class():
    tgt = transfer.replace_head(small_source(), 2, seed=0)
    tiny = blob_task(n_train=3, n_test=2)
    config = transfer.TransferConfig(freeze=transfer.FreezePolicy(0), epochs=1, seed=0)
    with pytest.raises(CapacityError, match="val fraction"):
        transfer.train_target(tgt, tiny, config)


@pytest.mark.parametrize("empty", ["normal", "anomalous"])
def test_train_suffix_rejects_an_empty_split(empty):
    m = transfer.replace_head(small_source(), 2, seed=0)
    task = blob_task()
    splits = {"normal": task.train_normal, "anomalous": task.train_anomalous}
    splits[empty] = splits[empty][:0]
    with pytest.raises(CapacityError):
        transfer.train_suffix(m, splits["normal"], splits["anomalous"],
                              transfer.TransferConfig(epochs=0, seed=0))


# ---------------------------------------------------------------------------
# pretraining


def source_digits(per_class=80, classes=(0, 1, 2, 3, 4, 5, 6, 7), hw=16, seed=0):
    ds = synth.make_digit_set(per_class, seed=seed, classes=classes)
    keep = np.isin(ds.labels, classes)
    x = data.preprocess_split([img for img, k in zip(ds.images, keep) if k], (hw, hw))
    return data.LabeledImageSet(x, ds.labels[keep], ds.class_names)


def test_pretrain_epochs_zero_is_identity():
    src = small_source(seed=12)
    before = params_snapshot(src)
    config = transfer.TransferConfig(epochs=0, seed=0)
    trained, record = transfer.pretrain_source(src, source_digits(per_class=4), config)
    assert record.epochs == []
    for name, p in trained.named_parameters():
        assert np.array_equal(p.data, before[name])


def test_pretrain_same_seed_identical_loss_sequences():
    ds = source_digits(per_class=10)
    config = transfer.TransferConfig(lr0=1e-2, epochs=2, seed=3)
    _, rec_a = transfer.pretrain_source(small_source(seed=13), ds, config)
    _, rec_b = transfer.pretrain_source(small_source(seed=13), ds, config)
    assert [e.train_loss for e in rec_a.epochs] == [e.train_loss for e in rec_b.epochs]
    assert all(e.val_auc is None for e in rec_a.epochs)


def test_pretrain_selects_the_last_epoch_under_either_selection_rule():
    # pretraining has no val split, so the best_val_auc default keeps the
    # last epoch, as last_epoch does
    ds = source_digits(per_class=6)
    runs = {
        selection: transfer.pretrain_source(
            small_source(seed=14), ds,
            transfer.TransferConfig(lr0=1e-2, epochs=3, seed=4, model_selection=selection),
        )
        for selection in (transfer.SELECT_BEST_VAL_AUC, transfer.SELECT_LAST_EPOCH)
    }
    (m_best, r_best), (m_last, r_last) = runs.values()
    assert r_best.selected_epoch == r_last.selected_epoch == 2
    assert all(e.val_auc is None for e in r_best.epochs + r_last.epochs)
    for (na, pa), (_, pb) in zip(m_best.named_parameters(), m_last.named_parameters()):
        assert np.array_equal(pa.data, pb.data), na
    _, r_zero = transfer.pretrain_source(small_source(seed=14), ds,
                                         transfer.TransferConfig(epochs=0, seed=4))
    assert r_zero.selected_epoch == 0


def test_pretrain_needs_two_classes():
    ds = source_digits(per_class=5, classes=(0,))
    with pytest.raises(ContractError, match="2 classes"):
        transfer.pretrain_source(small_source(), ds, transfer.TransferConfig(epochs=1))


def test_pretrain_class_count_mismatch():
    ds = source_digits(per_class=5, classes=tuple(range(10)))
    with pytest.raises(ContractError, match="outputs"):
        transfer.pretrain_source(small_source(classes=8), ds, transfer.TransferConfig(epochs=1))


def raw_source_set(kind, tmp_path):
    """(a raw 10-class LabeledImageSet, the input size of the model it
    trains) for each kind of set pretrain_source must take as it is."""
    rng = np.random.default_rng(6)
    if kind == "idx-28-to-32":  # a loader's uint8 digits, resized to the model
        paths = tmp_path / "digits-images", tmp_path / "digits-labels"
        synth.write_digit_idx(*paths, per_class=3, seed=5)
        return data.load_idx(*paths), 32
    if kind == "cifar10-at-32":  # a loader's uint8 pixels, already the model's size
        rec = rng.integers(0, 256, size=(30, 3073), dtype=np.uint8)
        rec[:, 0] %= 10
        path = tmp_path / "data_batch_1.bin"
        path.write_bytes(rec.tobytes())
        return data.load_cifar10_batches([path]), 32
    images = rng.random((30, 3, 16, 16))  # float64 values in [0,1]
    return data.LabeledImageSet(images, np.arange(30) % 10, [str(c) for c in range(10)]), 16


@pytest.mark.parametrize("kind", ["idx-28-to-32", "cifar10-at-32", "float64"])
def test_pretrain_on_raw_images_equals_pretrain_on_the_preprocessed_set(kind, tmp_path):
    """pretrain_source preprocesses each batch to the model's input size, so
    a raw set trains the bytes that preprocessing the whole set first does."""
    raw, hw = raw_source_set(kind, tmp_path)
    pre = data.LabeledImageSet(data.preprocess_split(raw.images, (hw, hw)), raw.labels,
                               raw.class_names)
    config = transfer.TransferConfig(lr0=1e-2, epochs=2, batch_size=7, seed=8)
    m_raw, r_raw = transfer.pretrain_source(small_source(seed=3, classes=10, hw=hw), raw, config)
    m_pre, r_pre = transfer.pretrain_source(small_source(seed=3, classes=10, hw=hw), pre, config)
    assert r_raw == r_pre and len(r_raw.epochs) == 2
    for (name, a), (_, b) in zip(m_raw.named_parameters(), m_pre.named_parameters()):
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes(), name


def test_pretrain_peaks_at_one_batch_not_the_preprocessed_set():
    """Pretraining 4,000 uint8 28x28 digits into a 32x32 model raises a fresh
    process's peak RSS by less than half of the 47 MiB that the set
    preprocessed to float32 would take: only one batch is preprocessed at a
    time. The set-up holds only the uint8 array and the model."""
    n = 4_000
    preprocessed_bytes = n * 3 * 32 * 32 * 4
    growth = peak_rss_growth(
        "import numpy as np\nfrom xferad import data, nn, transfer\n"
        f"images = np.random.default_rng(0).integers(0, 256, ({n}, 1, 28, 28), dtype=np.uint8)\n"
        f"source = data.LabeledImageSet(images, np.arange({n}) % 8, list('01234567'))\n"
        "model = nn.build_small_convnet((3, 32, 32), 8, seed=0)\n"
        "config = transfer.TransferConfig(lr0=1e-2, epochs=1, seed=0)",
        "transfer.pretrain_source(model, source, config)",
    )
    assert growth < preprocessed_bytes // 2


def test_pretrain_reaches_decent_source_accuracy():
    ds = source_digits(per_class=60)
    config = transfer.TransferConfig(lr0=transfer.PRETRAIN_LR, epochs=12, seed=1)
    trained, _ = transfer.pretrain_source(small_source(seed=14), ds, config)
    logits = trained.forward(T.Tensor(np.asarray(ds.images, np.float32))).data
    acc = float((logits.argmax(1) == ds.labels).mean())
    assert acc >= 0.90


# ---------------------------------------------------------------------------
# end-to-end determinism


def test_pipeline_bit_reproducible():
    def run():
        ds = source_digits(per_class=12, seed=21)
        src = small_source(seed=15)
        config = transfer.TransferConfig(lr0=1e-2, epochs=2, seed=4)
        pre, _ = transfer.pretrain_source(src, ds, config)
        tgt = transfer.replace_head(pre, 2, seed=5)
        tgt = transfer.apply_freeze(tgt, transfer.FreezePolicy(2))
        tconfig = transfer.TransferConfig(
            freeze=transfer.FreezePolicy(2), lr0=1e-3, epochs=3, seed=6,
        )
        return transfer.train_target(tgt, blob_task(seed=4), tconfig)

    (m1, r1), (m2, r2) = run(), run()
    for (na, pa), (_, pb) in zip(m1.named_parameters(), m2.named_parameters()):
        assert np.array_equal(pa.data, pb.data), na
    assert [(e.train_loss, e.val_auc, e.lr) for e in r1.epochs] == \
           [(e.train_loss, e.val_auc, e.lr) for e in r2.epochs]
    assert r1.selected_epoch == r2.selected_epoch


def test_frozen_params_bit_identical_after_many_epochs():
    tgt = transfer.replace_head(small_source(seed=16), 2, seed=16)
    policy = transfer.FreezePolicy(2)
    m = transfer.apply_freeze(tgt, policy)
    before = params_snapshot(m)
    config = transfer.TransferConfig(freeze=policy, lr0=1e-2, epochs=7, seed=7)
    trained, _ = transfer.train_target(m, blob_task(seed=5), config)
    for name in ("conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias"):
        p = dict(trained.named_parameters())[name]
        assert np.array_equal(p.data, before[name]), name


def test_train_record_csv_exact_text(tmp_path):
    """Header from EpochStats' fields, repr of each number, empty val_auc
    for None, CRLF line ends."""
    record = transfer.TrainRecord([
        transfer.EpochStats(0, 0.6931471805599453, None, 0.001),
        transfer.EpochStats(1, 0.25, 2 / 3, 0.000999999000001),
    ], selected_epoch=1)
    path = tmp_path / "record.csv"
    record.to_csv(path)
    assert path.read_bytes() == (b"epoch,train_loss,val_auc,lr\r\n"
                                 b"0,0.6931471805599453,,0.001\r\n"
                                 b"1,0.25,0.6666666666666666,0.000999999000001\r\n")


# ---------------------------------------------------------------------------
# frozen-prefix activation cache


def reference_train_target(model, task, config):
    """train_target without the prefix cache: every training batch and
    every per-epoch val pass runs the whole graph, frozen layers included.
    The oracle the cached path must match bit for bit."""
    x_norm = np.asarray(task.train_normal, dtype=np.float32)
    x_anom = np.asarray(task.train_anomalous, dtype=np.float32)
    val_n_idx, val_a_idx = transfer._stratified_val_split(len(x_norm), len(x_anom), config.seed)
    mask_n = np.zeros(len(x_norm), dtype=bool)
    mask_n[val_n_idx] = True
    mask_a = np.zeros(len(x_anom), dtype=bool)
    mask_a[val_a_idx] = True
    x_train = np.concatenate([x_norm[~mask_n], x_anom[~mask_a]])
    y_train = np.concatenate([np.zeros(int((~mask_n).sum()), np.int64),
                              np.ones(int((~mask_a).sum()), np.int64)])
    x_val = np.concatenate([x_norm[mask_n], x_anom[mask_a]])
    y_val = np.concatenate([np.zeros(len(val_n_idx), np.int64),
                            np.ones(len(val_a_idx), np.int64)])

    trained = model.copy()
    best_auc, best_model = -1.0, trained.copy()
    state = config.make_sgd()
    stats = []
    for epoch in range(config.epochs):
        total, seen = 0.0, 0
        lr_at_start = state.effective_lr()
        for xb, yb in data.batch_iter(x_train, y_train, config.batch_size, True,
                                      config.seed, epoch):
            tape = T.Tape()
            loss = T.softmax_cross_entropy(trained.forward(T.Tensor(xb), tape), yb, tape)
            T.backward(loss, tape)
            nn.sgd_step(trained, state)
            nn.zero_grads(trained)
            total += float(loss.data) * len(yb)
            seen += len(yb)
        auc = auc_trapezoid(ScoredSet(anomaly_scores(trained, x_val), y_val))
        if auc > best_auc:
            best_auc, best_model = auc, trained.copy()
        stats.append(transfer.EpochStats(epoch, total / max(seen, 1), auc, lr_at_start))

    if config.epochs == 0:
        return trained, transfer.TrainRecord([], selected_epoch=0)
    if config.model_selection == transfer.SELECT_BEST_VAL_AUC:
        selected = int(np.argmax([e.val_auc for e in stats]))
        return best_model, transfer.TrainRecord(stats, selected_epoch=selected)
    return trained, transfer.TrainRecord(stats, selected_epoch=len(stats) - 1)


# split points of the family: after conv block 1, 2, 3, and after GAP
@pytest.mark.parametrize("k", [3, 6, 9, 10])
def test_prefix_activations_independent_of_batching(k):
    model = transfer.replace_head(small_source(seed=17, hw=32), 2, seed=17)
    x = np.random.default_rng(18).random((70, 3, 32, 32), dtype=np.float32)
    chunked = transfer.prefix_features(model, k, x, np.arange(len(x)))

    shuffled = np.empty_like(chunked)
    order = np.random.default_rng(19).permutation(len(x))
    for start in range(0, len(x), 16):
        sel = order[start:start + 16]
        shuffled[sel] = model.forward(T.Tensor(x[sel]), upto=k).data
    single = np.concatenate([model.forward(T.Tensor(x[i:i + 1]), upto=k).data
                             for i in range(len(x))])

    assert chunked.shape == (70,) + model.suffix(k).input_shape
    assert np.array_equal(chunked, shuffled)
    assert np.array_equal(chunked, single)


def serial_prefix_features(model, k, images, index):
    """prefix_features as one loop over its chunks, in index order."""
    step = evaluate.INFER_BATCH
    return np.concatenate([
        model.forward(T.Tensor(data.preprocess_split(data.gather(images, index[s:s + step]),
                                                     model.input_shape[1:])), upto=k).data
        for s in range(0, len(index), step)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_prefix_features_bytes_independent_of_the_helper_count(monkeypatch, cpus, dtype):
    """Helper threads share the chunks but compute each one's bytes as the
    serial loop does; with one CPU or one chunk the calling thread runs
    every chunk, and the process never holds more helpers than the kept
    pool."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    model = transfer.replace_head(nn.build_small_convnet((3, 16, 16), 8, seed=26, dtype=dtype),
                                  2, seed=26)
    runners, counts = set(), []
    forward = model.forward

    def recording_forward(batch, **kw):
        runners.add(threading.current_thread().name)
        counts.append(len(helper_threads()))
        return forward(batch, **kw)

    monkeypatch.setattr(model, "forward", recording_forward)
    rng = np.random.default_rng(27)
    stacked = rng.random((70, 3, 16, 16), dtype=np.float32)
    # runs of grayscale 20x20 and color 16x16 images, cut across chunks
    ragged = [rng.random((1, 20, 20), dtype=np.float32) if i % 23 < 9 else stacked[i]
              for i in range(70)]
    for images in (stacked, ragged):
        for n in (1, 16, 17, 70):
            index = np.arange(n)[::-1]
            helpers = min(cpus, -(-n // evaluate.INFER_BATCH)) - 1
            for k in (0, 3, 6, 10):
                runners.clear()
                got = transfer.prefix_features(model, k, images, index)
                assert len(runners) <= helpers + 1
                if helpers == 0:
                    assert runners == {threading.current_thread().name}
                assert max(counts + [len(helper_threads())]) <= HELPER_BOUND
                want = serial_prefix_features(model, k, images, index)
                assert got.dtype == (np.float32 if k == 0 else dtype)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def serial_anomaly_scores(model, samples):
    """anomaly_scores as one loop over its chunks, a 1-row last chunk
    joined to the one before it, each chunk's softmax taken on its own."""
    n = len(samples)
    starts = list(range(0, n, evaluate.INFER_BATCH))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    out = np.empty(n, dtype=np.float64)
    for start, stop in zip(starts, starts[1:] + [n]):
        logits = model.forward(T.Tensor(samples[start:stop])).data
        out[start:stop] = T.softmax(logits)[:, evaluate.LABEL_ANOMALOUS]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_anomaly_scores_bytes_independent_of_the_helper_count(monkeypatch, cpus, dtype):
    """Scoring shares its chunks with the helper threads, yet every score
    has the serial loop's bytes."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    model = nn.build_small_convnet((3, 16, 16), 2, seed=30, dtype=dtype)
    x = np.random.default_rng(31).random((70, 3, 16, 16)).astype(dtype)
    for n in (0, 1, 2, 17, 70):
        got = anomaly_scores(model, x[:n])
        want = serial_anomaly_scores(model, x[:n])
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()


def test_prefix_features_under_fast_thread_switches(monkeypatch):
    """More threads than cores, switching every microsecond, over 1-sample
    chunks (the last one joined to the one before it): each chunk runs
    once and every row gets its own bytes."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(evaluate, "INFER_BATCH", 1)
    model = small_source(seed=28)
    x = np.random.default_rng(29).random((150, 3, 16, 16), dtype=np.float32)
    want = serial_prefix_features(model, 6, x, np.arange(len(x)))
    sizes = []
    forward = model.forward
    monkeypatch.setattr(model, "forward",
                        lambda batch, **kw: sizes.append(len(batch.data)) or forward(batch, **kw))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = transfer.prefix_features(model, 6, x, np.arange(len(x)))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(sizes) == [1] * (len(x) - 2) + [2]  # the 1-row last chunk joins the one before
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_prefix_features_raises_the_earliest_chunks_error(monkeypatch, cpus):
    """Chunk 2 holds a [2,H,W] image and chunk 4 a [4,H,W] one. With
    helpers, chunk 2 waits until chunk 4 has failed, yet chunk 2's error,
    the serial loop's, is the one raised, and no chunk runs after it: the
    calling thread waits for every helper that took one."""
    monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
    step = evaluate.INFER_BATCH
    images = [np.zeros((3, 16, 16), np.float32) for _ in range(6 * step)]
    images[2 * step + 5] = np.zeros((2, 16, 16), np.float32)
    images[4 * step + 5] = np.zeros((4, 16, 16), np.float32)
    chunk4_failing, started = threading.Event(), []
    preprocess = data.preprocess_split

    def waiting_preprocess(chunk, hw):
        started.append(len(chunk))
        channels = {len(image) for image in chunk}
        if 4 in channels:
            chunk4_failing.set()
        elif 2 in channels and cpus > 1:
            # give chunk 4's error the microseconds it needs to be recorded
            chunk4_failing.wait(10)
            time.sleep(0.1)
        return preprocess(chunk, hw)

    monkeypatch.setattr(data, "preprocess_split", waiting_preprocess)
    with pytest.raises(ShapeError, match=r"got \(2, 16, 16\)"):
        transfer.prefix_features(small_source(seed=25), 6, images, np.arange(len(images)))
    count = len(started)
    time.sleep(0.05)
    assert len(started) == count <= (3 if cpus == 1 else 6)
    assert len(helper_threads()) <= HELPER_BOUND
    assert chunk4_failing.is_set() == (cpus > 1)


def test_helper_threads_never_exceed_the_kept_pool(monkeypatch):
    """Across pretrain steps and prefix_features calls the process holds at
    most max(usable CPUs - 1, 1) xferad-helper threads; with one usable CPU
    it starts none. That case runs in a fresh process pinned to one CPU,
    as this one may have started its kept helper already."""
    counts = []
    run_all = T.run_all

    def counting_run_all(tasks):
        counts.append(len(helper_threads()))
        out = run_all(tasks)
        counts.append(len(helper_threads()))
        return out

    monkeypatch.setattr(T, "run_all", counting_run_all)
    ds = source_digits(per_class=8)
    config = transfer.TransferConfig(lr0=0.05, batch_size=16, epochs=2, seed=40)
    trained, _ = transfer.pretrain_source(small_source(seed=40), ds, config)
    transfer.prefix_features(trained, 6, ds.images, np.arange(len(ds)))
    assert len(counts) > 2 * 8
    assert max(counts) <= HELPER_BOUND
    if not hasattr(os, "sched_setaffinity"):
        return
    script = f"""
import os, sys, threading
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
sys.path.insert(0, {str(Path(transfer.__file__).parents[1])!r})
import numpy as np
from xferad import data, nn, synth, transfer
ds = synth.make_digit_set(8, seed=0, classes=(0, 1, 2, 3))
ds = data.LabeledImageSet(data.preprocess_split(ds.images, (16, 16)), ds.labels, ds.class_names)
config = transfer.TransferConfig(lr0=0.05, batch_size=16, epochs=2, seed=41)
trained, _ = transfer.pretrain_source(nn.build_small_convnet((3, 16, 16), 4, seed=41), ds, config)
transfer.prefix_features(trained, 6, ds.images, np.arange(len(ds)))
print(len([t for t in threading.enumerate() if t.name.startswith("xferad-helper")]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scores_and_head_inputs_independent_of_the_inference_batch(monkeypatch, dtype):
    """evaluate.INFER_BATCH is the one chunk size of evaluate.infer, which
    both anomaly_scores and prefix_features run on.

    No activation entering the head depends on it. The dense head's rows
    agree between chunks of 16 and 64, also at 17, 33 and 113 samples,
    where one of them would leave a last chunk of one row: numpy runs a
    1-row product as a matrix-vector call whose last bits differ, so infer
    folds that row into the chunk before it, and at 1 only the
    activations are compared."""
    model = nn.build_small_convnet((3, 16, 16), 2, seed=23, dtype=dtype)
    head = len(model.layers) - 1
    sizes = []
    forward = model.forward
    monkeypatch.setattr(model, "forward",
                        lambda batch, **kw: sizes.append(len(batch.data)) or forward(batch, **kw))

    def chunks(n, batch):
        c = [min(batch, n - s) for s in range(0, n, batch)]
        return c[:-2] + [c[-2] + 1] if len(c) > 1 and c[-1] == 1 else c

    for n in (17, 33, 70, 113):
        x = np.random.default_rng([24, n]).random((n, 3, 16, 16)).astype(dtype)
        features, scores, head_scores = {}, {}, {}
        for batch in (1, 16, 64):
            monkeypatch.setattr(evaluate, "INFER_BATCH", batch)
            sizes.clear()
            features[batch] = transfer.prefix_features(model, head, x, np.arange(n))
            # helper threads take infer's chunks in no fixed order
            assert sorted(sizes) == sorted(chunks(n, batch))
            if batch > 1:
                sizes.clear()
                scores[batch] = anomaly_scores(model, x)
                assert sorted(sizes) == sorted(chunks(n, batch))
                head_scores[batch] = anomaly_scores(model.suffix(head), features[batch])
        assert features[1].dtype == dtype
        assert features[1].tobytes() == features[16].tobytes() == features[64].tobytes()
        assert scores[16].tobytes() == scores[64].tobytes()
        assert head_scores[16].tobytes() == head_scores[64].tobytes()
        # scoring the head on the lookup's features is scoring the whole model
        # on the preprocessed images, as evaluate did before it used the lookup
        whole = anomaly_scores(model, data.preprocess_split(x, (16, 16)))
        assert head_scores[64].tobytes() == whole.tobytes()


@pytest.mark.parametrize("selection", [transfer.SELECT_BEST_VAL_AUC, transfer.SELECT_LAST_EPOCH])
@pytest.mark.parametrize("strategy,depth", [
    (transfer.STRATEGY_FIXED, 3),
    (transfer.STRATEGY_FINE_TUNE, 2),
    (transfer.STRATEGY_FINE_TUNE, 1),
    (transfer.STRATEGY_FINE_TUNE, 0),
])
def test_train_target_bit_identical_to_full_forward_loop(strategy, depth, selection):
    check_cached_training_matches_reference(small_source(seed=20), strategy, depth, selection)


def test_cached_training_of_a_double_precision_model_matches_reference():
    source = nn.build_small_convnet((3, 16, 16), 8, seed=22, dtype=np.float64)
    check_cached_training_matches_reference(source, transfer.STRATEGY_FINE_TUNE, 2,
                                            transfer.SELECT_BEST_VAL_AUC)


def check_cached_training_matches_reference(source, strategy, depth, selection):
    tgt = transfer.replace_head(source, 2, seed=20)
    policy = transfer.FreezePolicy(depth)
    m = transfer.apply_freeze(tgt, policy)
    config = transfer.TransferConfig(strategy=strategy, freeze=policy, lr0=0.05, epochs=4,
                                     seed=21, model_selection=selection)
    task = blob_task(seed=6, n_train=40)
    got_model, got_record = transfer.train_target(m, task, config)
    want_model, want_record = reference_train_target(m, task, config)

    assert got_record == want_record
    for (name, got), (_, want) in zip(got_model.named_parameters(),
                                      want_model.named_parameters()):
        assert np.array_equal(got.data, want.data), name
    assert [l.trainable for l in got_model.layers] == [l.trainable for l in m.layers]
