"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale
end-to-end criteria (7 and 8) drive the real CLI on a synthetic digit
corpus written in genuine IDX format; point XFERAD_DATA at real MNIST
IDX files (train-images-idx3-ubyte / train-labels-idx1-ubyte) to run
them on MNIST instead.
"""

import csv
import json
import os
import struct
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from xferad import data, evaluate as ev, nn, transfer
from xferad import tensor as T
from xferad.cli import main
from xferad.errors import FormatError

from fdcheck import numeric_grad
from taskstats import hypergeom_mean_sigma


@contextmanager
def gate(num, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} [{title}]: FAIL")
        raise
    print(f"\nACCEPTANCE {num} [{title}]: PASS")


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def tiny_family_model():
    """3-block convnet under 5k parameters, double precision."""
    rng = np.random.default_rng(0)
    layers = [
        nn.Conv2d(1, 8, rng=rng, dtype=np.float64), nn.Relu(), nn.MaxPool2d(),
        nn.Conv2d(8, 8, rng=rng, dtype=np.float64), nn.Relu(), nn.MaxPool2d(),
        nn.Conv2d(8, 8, rng=rng, dtype=np.float64), nn.Relu(), nn.MaxPool2d(),
        nn.GlobalAvgPool(),
        nn.Dense(8, 2, rng=rng, dtype=np.float64),
    ]
    return nn.ModelGraph(layers, (1, 16, 16), 2)


def check_op_grads(build, leaves, tol):
    """build(tape) -> scalar loss Tensor over the given leaf tensors."""
    tape = T.Tape()
    loss = build(tape)
    T.backward(loss, tape)
    for leaf in leaves:
        fd = numeric_grad(lambda: float(build(None).data), leaf.data)
        err = np.abs(leaf.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() <= tol, f"grad error {err.max():.2e} > {tol}"


def test_criterion_1_gradient_correctness():
    with gate(1, "gradient correctness vs central finite differences"):
        rng = np.random.default_rng(1)

        def lf(shape):
            return T.Tensor(rng.standard_normal(shape), requires_grad=True)

        # every op family, non-pooling tolerance 1e-4
        a, b = lf((4, 5)), lf((5, 3))
        check_op_grads(lambda t: T.sum_all(T.mul(T.matmul(a, b, t), T.matmul(a, b, t), t), t),
                       [a, b], 1e-4)
        x, w, bias = lf((2, 3, 8, 8)), lf((4, 3, 3, 3)), lf(4)
        check_op_grads(lambda t: T.sum_all(T.mul(c := T.conv2d(x, w, bias, 2, 1, t), c, t), t),
                       [x, w, bias], 1e-4)
        r = lf((3, 4))
        check_op_grads(lambda t: T.sum_all(T.relu(r, t), t), [r], 1e-4)
        p, q = lf((3, 4)), lf(4)
        check_op_grads(lambda t: T.sum_all(T.mul(s := T.add(p, q, t), s, t), t), [p, q], 1e-4)
        sc = lf((2, 5))
        check_op_grads(lambda t: T.sum_all(T.scale(T.mul(sc, sc, t), -1.7, t), t), [sc], 1e-4)
        rs = lf((2, 3, 4))
        check_op_grads(lambda t: T.sum_all(T.mul(v := T.flatten(T.reshape(rs, (4, 6), t), t), v, t), t),
                       [rs], 1e-4)
        g = lf((2, 3, 4, 4))
        check_op_grads(lambda t: T.sum_all(T.mul(u := T.global_avg_pool(g, t), u, t), t), [g], 1e-4)
        ce = lf((6, 3))
        targets = rng.integers(0, 3, 6)
        check_op_grads(lambda t: T.softmax_cross_entropy(ce, targets, t), [ce], 1e-4)
        # pooling, tolerance 1e-3
        mp = lf((1, 2, 6, 6))
        check_op_grads(lambda t: T.sum_all(T.mul(m := T.maxpool2d(mp, 2, 2, t), m, t), t),
                       [mp], 1e-3)

        # full 3-block convnet, <= 5k parameters, tolerance 1e-3
        model = tiny_family_model()
        assert model.parameter_count() <= 5000
        xb = rng.standard_normal((2, 1, 16, 16))
        yb = np.array([0, 1])

        def loss_scalar():
            logits = model.forward(T.Tensor(xb))
            return float(T.softmax_cross_entropy(logits, yb).data)

        tape = T.Tape()
        loss = T.softmax_cross_entropy(model.forward(T.Tensor(xb), tape), yb, tape)
        T.backward(loss, tape)
        for name, parm in model.named_parameters():
            fd = numeric_grad(loss_scalar, parm.data)
            err = np.abs(parm.grad - fd) / np.maximum(1.0, np.abs(fd))
            assert err.max() <= 1e-3, f"{name}: {err.max():.2e}"


# ---------------------------------------------------------------------------
# criterion 2: AUC oracle equivalence


def test_criterion_2_auc_oracle_equivalence():
    with gate(2, "auc_trapezoid vs pairwise oracle on 500 random sets"):
        rng = np.random.default_rng(2)
        for i in range(500):
            n = int(rng.integers(2, 201))
            labels = np.zeros(n, np.int64)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            if i % 2:  # coarse grid forces ties
                scores = rng.integers(0, max(2, n // 3), n) / max(2, n // 3)
            else:
                scores = rng.random(n)
            s = ev.ScoredSet(scores.astype(float), labels)
            assert abs(ev.auc_trapezoid(s) - ev.auc_pairwise_oracle(s)) <= 1e-12
        tied = ev.ScoredSet(np.full(40, 0.3), np.tile([0, 1], 20))
        assert ev.auc_trapezoid(tied) == 0.5
        perfect = ev.ScoredSet(np.tile([0.2, 0.9], 20).astype(float), np.tile([0, 1], 20))
        assert ev.auc_trapezoid(perfect) == 1.0


# ---------------------------------------------------------------------------
# criterion 3: optimizer semantics


def test_criterion_3_optimizer_semantics():
    with gate(3, "Nesterov/momentum/decay recurrence and lr halving"):
        def reference(w0, grads, lr0, decay, momentum, nesterov):
            w, v = w0, 0.0
            for t, g in enumerate(grads):
                lr = lr0 / (1.0 + decay * t)
                v = momentum * v - lr * g
                w = w + (momentum * v - lr * g) if nesterov else w + v
            return w

        rng = np.random.default_rng(3)
        grads = rng.standard_normal(100)
        dense = nn.Dense(1, 1, rng=rng, dtype=np.float64)
        dense.weight.data = np.array([[0.5]])
        model = nn.ModelGraph([dense], (1,), 1)
        state = nn.SgdState(lr0=1e-3, decay=1e-6, momentum=0.9, nesterov=True)
        for g in grads:
            dense.weight.grad = np.array([[g]])
            dense.bias.grad = np.zeros(1)
            nn.sgd_step(model, state)
        expected = reference(0.5, grads, 1e-3, 1e-6, 0.9, True)
        assert abs(dense.weight.data[0, 0] - expected) <= 1e-12

        state = nn.SgdState(lr0=1e-3, decay=1e-6)
        state.iteration = 10 ** 6
        assert state.effective_lr() == 1e-3 / 2


# ---------------------------------------------------------------------------
# criterion 4: transfer freeze contracts


def test_criterion_4_freeze_contracts():
    with gate(4, "fixed-extractor bit-stability and exact fine-tune change set"):
        rng = np.random.default_rng(4)
        hw = 16

        def blobs(n, amp):
            out = np.zeros((n, 3, hw, hw), np.float32)
            yy, xx = np.mgrid[0:hw, 0:hw]
            for i in range(n):
                cy, cx = rng.uniform(4, hw - 4, 2)
                out[i] = np.clip(
                    amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 12.0)
                    + rng.normal(0, 0.02, (hw, hw)), 0, 1)[None]
            return out

        task = data.AnomalyTask(blobs(40, 0.2), blobs(40, 0.8),
                                blobs(10, 0.2), blobs(10, 0.8), 1, 0)
        source = nn.build_small_convnet((3, hw, hw), 8, seed=4)
        probe = rng.random((8, 3, hw, hw), dtype=np.float32)

        def run(strategy, depth):
            m = transfer.replace_head(source, 2, seed=5)
            m = transfer.apply_freeze(m, transfer.FreezePolicy(depth))
            before = {n: p.data.copy() for n, p in m.named_parameters()}
            feats_before = m.forward(T.Tensor(probe), upto=len(m.layers) - 1).data
            cfg = transfer.TransferConfig(
                strategy=strategy, freeze=transfer.FreezePolicy(depth),
                lr0=1e-2, epochs=4, seed=6,
                model_selection=transfer.SELECT_LAST_EPOCH,
            )
            trained, _ = transfer.train_target(m, task, cfg)
            changed = {n for n, p in trained.named_parameters()
                       if not np.array_equal(p.data, before[n])}
            feats_after = trained.forward(T.Tensor(probe), upto=len(trained.layers) - 1).data
            return changed, np.array_equal(feats_before, feats_after)

        changed, feats_stable = run(transfer.STRATEGY_FIXED, 3)
        assert changed == {"dense.weight", "dense.bias"}
        assert feats_stable, "feature activations must be bit-identical under fixed extractor"

        for depth, expected in [
            (2, {"conv3.weight", "conv3.bias", "dense.weight", "dense.bias"}),
            (1, {"conv2.weight", "conv2.bias", "conv3.weight", "conv3.bias",
                 "dense.weight", "dense.bias"}),
        ]:
            changed, _ = run(transfer.STRATEGY_FINE_TUNE, depth)
            assert changed == expected, f"depth {depth}: changed {changed}"


# ---------------------------------------------------------------------------
# criterion 5: task-construction protocol


def test_criterion_5_task_construction_protocol():
    with gate(5, "1000 seeded 6000/1000 builds: sizes, disjointness, sampling stats"):
        per_class, n_classes = 7000, 10
        n = per_class * n_classes
        labels = np.repeat(np.arange(n_classes), per_class)
        images = np.zeros((n, 1, 1, 1), np.float32)
        ds = data.LabeledImageSet(images, labels, [str(i) for i in range(n_classes)])

        draws = 7000  # 6000 train + 1000 test normals per build
        counts = np.zeros(n_classes)
        n_builds = 1000
        for s in range(n_builds):
            task = data.build_anomaly_task(ds, 0, 6000, 1000, seed=s)
            idx = task.source_indices
            assert len(idx["train_normal"]) == len(idx["train_anomalous"]) == 6000
            assert len(idx["test_normal"]) == len(idx["test_anomalous"]) == 1000
            train = np.concatenate([idx["train_normal"], idx["train_anomalous"]])
            test = np.concatenate([idx["test_normal"], idx["test_anomalous"]])
            assert np.intersect1d(train, test).size == 0
            normal = np.concatenate([idx["train_normal"], idx["test_normal"]])
            normal_labels = labels[normal]
            assert not (normal_labels == 0).any()
            counts += np.bincount(normal_labels, minlength=n_classes)

        mean, sigma = hypergeom_mean_sigma(per_class, per_class * (n_classes - 1), draws)
        se = sigma / np.sqrt(n_builds)
        for c in range(1, n_classes):
            dev = abs(counts[c] / n_builds - mean)
            assert dev <= 5 * se, f"class {c}: |{dev:.3f}| > 5*{se:.3f}"


# ---------------------------------------------------------------------------
# criterion 6: confusion-matrix / metrics fidelity


def test_criterion_6_confusion_metrics_fidelity():
    with gate(6, "concrete-crack confusion fixtures and derived metrics"):
        # crack-detector operating points: (tp, fn, fp, tn, predicted-crack total, predicted-no-crack total)
        tables = [
            (3993, 7, 0, 4000, 3993, 4007),
            (3975, 25, 1, 3999, 3976, 4024),
            (3952, 48, 51, 3949, 4003, 3997),
        ]
        for tp, fn, fp, tn, pred_pos, pred_neg in tables:
            scores = np.concatenate([
                np.full(tp, 0.9), np.full(fn, 0.1),
                np.full(fp, 0.9), np.full(tn, 0.1),
            ])
            y = np.concatenate([np.ones(tp + fn, np.int64), np.zeros(fp + tn, np.int64)])
            m = ev.confusion_at(ev.ScoredSet(scores, y), 0.5)
            assert (m.tp, m.fn, m.fp, m.tn) == (tp, fn, fp, tn)
            assert m.tp + m.fn == 4000 and m.fp + m.tn == 4000
            assert m.tp + m.fp == pred_pos and m.fn + m.tn == pred_neg
            assert m.total == 8000
        dn = ev.metrics(ev.ConfusionMatrix(3993, 7, 0, 4000))["anomalous"]
        assert dn.precision == 1.0
        assert dn.recall == 3993 / 4000 == 0.99825
        rn = ev.metrics(ev.ConfusionMatrix(3975, 25, 1, 3999))["anomalous"]
        assert rn.precision == 3975 / 3976
        iv = ev.metrics(ev.ConfusionMatrix(3952, 48, 51, 3949))["anomalous"]
        assert iv.precision == 3952 / 4003 and iv.recall == 3952 / 4000


# ---------------------------------------------------------------------------
# criteria 7 and 8: desk-scale end-to-end benchmark + determinism


SOURCE_CLASSES = "0,1,2,3,4,5,6,7"
PRETRAIN_EPOCHS = 10
BENCH_EPOCHS = 8
TRAIN_PER_CLASS = 1000
TEST_PER_CLASS = 1000
SEED = 7


def _idx_corpora(root):
    """Synthetic source/benchmark corpora, or real MNIST when provided."""
    mnist_dir = os.environ.get("XFERAD_DATA")
    if mnist_dir and os.path.exists(os.path.join(mnist_dir, "train-images-idx3-ubyte")):
        img = os.path.join(mnist_dir, "train-images-idx3-ubyte")
        lbl = os.path.join(mnist_dir, "train-labels-idx1-ubyte")
        return (img, lbl), (img, lbl)
    src = (str(root / "src-images"), str(root / "src-labels"))
    bench = (str(root / "bench-images"), str(root / "bench-labels"))
    assert main(["make-synth", "--per-class", "500", "--seed", "100",
                 "--out-images", src[0], "--out-labels", src[1]]) == 0
    assert main(["make-synth", "--per-class", "2200", "--seed", "200",
                 "--out-images", bench[0], "--out-labels", bench[1]]) == 0
    return src, bench


def _run_pipeline(root, corpora):
    """pretrain + both benchmark strategies; returns output paths."""
    (src_i, src_l), (bm_i, bm_l) = corpora
    weights = str(root / "source.xfaw")
    assert main(["pretrain", "--data-format", "idx", "--images", src_i, "--labels", src_l,
                 "--classes", SOURCE_CLASSES, "--per-class", "500",
                 "--epochs", str(PRETRAIN_EPOCHS), "--seed", "42",
                 "--size", "32", "32", "--out", weights]) == 0
    dirs = {}
    for strategy in ("finetune", "fixed"):
        out_dir = str(root / f"bench_{strategy}")
        assert main(["benchmark", "--data-format", "idx", "--images", bm_i, "--labels", bm_l,
                     "--size", "32", "32", "--source-weights", weights,
                     "--strategy", strategy,
                     "--train-per-class", str(TRAIN_PER_CLASS),
                     "--test-per-class", str(TEST_PER_CLASS),
                     "--epochs", str(BENCH_EPOCHS), "--seed", str(SEED),
                     "--out-dir", out_dir]) == 0
        dirs[strategy] = out_dir
    return weights, dirs


def _read_bench_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    per_class = {int(r[0]): float(r[1]) for r in rows[1:-1]}
    return per_class, float(rows[-1][1])


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_run1")
    corpora = _idx_corpora(root)
    weights, dirs = _run_pipeline(root, corpora)
    return {"root": root, "corpora": corpora, "weights": weights, "dirs": dirs}


@pytest.mark.slow
def test_criterion_7_desk_scale_benchmark(bench_run):
    with gate(7, "desk-scale one-vs-rest benchmark over all 10 classes"):
        fine, fine_mean = _read_bench_csv(os.path.join(bench_run["dirs"]["finetune"], "benchmark.csv"))
        fixed, _ = _read_bench_csv(os.path.join(bench_run["dirs"]["fixed"], "benchmark.csv"))
        assert sorted(fine) == list(range(10))
        print(f"  fine-tune per-class AUC: {[round(fine[c], 4) for c in range(10)]}")
        print(f"  fixed per-class AUC:     {[round(fixed[c], 4) for c in range(10)]}")
        print(f"  fine-tune mean AUC: {fine_mean:.4f}")
        assert fine_mean >= 0.95, f"mean AUC {fine_mean:.4f} < 0.95"
        for c in range(10):
            assert fine[c] >= 0.90, f"class {c} AUC {fine[c]:.4f} < 0.90"
            assert fine[c] >= fixed[c] - 0.02, (
                f"class {c}: fine-tune {fine[c]:.4f} < fixed {fixed[c]:.4f} - 0.02"
            )


@pytest.mark.slow
def test_criterion_8_benchmark_determinism(bench_run, tmp_path_factory):
    with gate(8, "identical seeds reproduce every weight file and CSV"):
        root2 = tmp_path_factory.mktemp("bench_run2")
        weights2, dirs2 = _run_pipeline(root2, bench_run["corpora"])

        def same_bytes(a, b):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                return fa.read() == fb.read()

        assert same_bytes(bench_run["weights"], weights2)
        for strategy in ("finetune", "fixed"):
            d1, d2 = bench_run["dirs"][strategy], dirs2[strategy]
            files = ["benchmark.csv"]
            files += [f"weights_{c}.xfaw" for c in range(10)]
            files += [f"record_{c}.csv" for c in range(10)]
            files += [f"task_{c}.json" for c in range(10)]
            for name in files:
                assert same_bytes(os.path.join(d1, name), os.path.join(d2, name)), (
                    f"{strategy}/{name} differs between identical runs"
                )


# ---------------------------------------------------------------------------
# criterion 9: format round-trips and corruption rejection


def test_criterion_9_format_roundtrips(tmp_path):
    with gate(9, "weight/IDX/report round-trips and corruption rejection"):
        # weight file round-trip, bit-exact
        model = nn.build_small_convnet((3, 16, 16), 4, seed=9)
        wpath = tmp_path / "m.xfaw"
        nn.save_weights(model, wpath)
        loaded = nn.load_weights(wpath)
        for (na, pa), (nb, pb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
        wpath2 = tmp_path / "m2.xfaw"
        nn.save_weights(loaded, wpath2)
        assert wpath.read_bytes() == wpath2.read_bytes()

        # corrupted weight files rejected, no partial model
        blob = bytearray(wpath.read_bytes())
        for corrupt in (
            blob[: len(blob) // 3],                      # truncation
            b"WAXF" + bytes(blob[4:]),                   # magic
            bytes(blob[:-5]) + bytes(5),                 # crc
        ):
            bad = tmp_path / "bad.xfaw"
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(FormatError):
                nn.load_weights(bad)

        # IDX re-serialization, byte-identical
        from xferad.synth import write_digit_idx
        i1, l1 = str(tmp_path / "i1"), str(tmp_path / "l1")
        write_digit_idx(i1, l1, per_class=15, seed=3)
        ds = data.load_idx(i1, l1)
        i2, l2 = str(tmp_path / "i2"), str(tmp_path / "l2")
        data.write_idx(ds.images, ds.labels, i2, l2)
        assert open(i1, "rb").read() == open(i2, "rb").read()
        assert open(l1, "rb").read() == open(l2, "rb").read()
        ds2 = data.load_idx(i2, l2)
        assert np.array_equal(ds.images, ds2.images)
        with pytest.raises(FormatError):
            bad_idx = tmp_path / "bad-idx"
            bad_idx.write_bytes(struct.pack(">IIII", 0x9999, 1, 2, 2) + bytes(4))
            data.load_idx(bad_idx, l1)

        # report JSON round-trip, byte-identical on re-emit
        rng = np.random.default_rng(10)
        scores = rng.integers(0, 7, 50) / 7.0
        y = (rng.random(50) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        report = ev.evaluate_scores(ev.ScoredSet(scores.astype(float), y), 0.5)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        ev.emit_report(report, r1, "json")
        ev.emit_report(ev.load_report(r1), r2, "json")
        assert r1.read_bytes() == r2.read_bytes()

        # the weight-format CRC really covers the whole byte stream
        full = wpath.read_bytes()
        assert struct.unpack_from("<I", full, len(full) - 4)[0] == (zlib.crc32(full[:-4]) & 0xFFFFFFFF)
