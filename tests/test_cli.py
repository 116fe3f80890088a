import contextlib
import copy
import csv
import io
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferad import cli, data, evaluate, nn, transfer
from xferad.cli import main
from xferad.errors import (
    EXIT_CAPACITY, EXIT_CONSISTENCY, EXIT_FORMAT, CapacityError, ConsistencyError,
    ContractError, FormatError, ShapeError, UndefinedMetricError, XferadError,
)

from mutation import not_refused
from test_nn import mismatched_weight_records, wrapped_extent_weights, write_weight_records


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic IDX corpus shared by the CLI tests."""
    root = tmp_path_factory.mktemp("corpus")
    imgs, lbls = str(root / "digits-images"), str(root / "digits-labels")
    assert main(["make-synth", "--per-class", "40", "--seed", "0",
                 "--out-images", imgs, "--out-labels", lbls]) == 0
    return {"images": imgs, "labels": lbls}


def dataset_flags(corpus, size=16):
    return ["--data-format", "idx", "--images", corpus["images"],
            "--labels", corpus["labels"], "--size", str(size), str(size)]


@pytest.fixture(scope="module")
def source_weights(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pretrain") / "source.xfaw")
    code = main(["pretrain", *dataset_flags(corpus), "--classes", "0,1,2,3,4,5,6,7",
                 "--per-class", "30", "--epochs", "2", "--seed", "1", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def task_file(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("task") / "task9.json")
    code = main(["make-task", *dataset_flags(corpus), "--anomaly-class", "9",
                 "--train-per-class", "24", "--test-per-class", "8",
                 "--seed", "2", "--out", out])
    assert code == 0
    return out


def test_make_synth_outputs_and_manifest(corpus):
    manifest = json.load(open(corpus["images"] + ".manifest.json"))
    assert manifest["command"] == "make-synth"
    assert manifest["parameters"]["per_class"] == 40


def test_pretrain_epochs_zero_equals_initialization(corpus, tmp_path):
    out = str(tmp_path / "init.xfaw")
    assert main(["pretrain", *dataset_flags(corpus), "--classes", "0,1,2,3",
                 "--per-class", "5", "--epochs", "0", "--seed", "3", "--out", out]) == 0
    loaded = nn.load_weights(out)
    fresh = nn.build_small_convnet((3, 16, 16), 4, seed=3)
    for (na, pa), (_, pb) in zip(loaded.named_parameters(), fresh.named_parameters()):
        assert np.array_equal(pa.data, pb.data), na


def test_pretrain_writes_loadable_weights_and_record(source_weights):
    model = nn.load_weights(source_weights)
    assert model.num_classes == 8
    with open(source_weights + ".record.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["epoch", "train_loss", "val_auc", "lr"]
    assert len(rows) == 3  # 2 epochs
    assert rows[1][2] == ""  # no validation metric during pretraining


def test_pretrain_rerun_is_byte_identical(corpus, tmp_path):
    args = lambda out: ["pretrain", *dataset_flags(corpus), "--classes", "0,1",
                        "--per-class", "8", "--epochs", "1", "--seed", "4", "--out", out]
    a, b = str(tmp_path / "a.xfaw"), str(tmp_path / "b.xfaw")
    assert main(args(a)) == 0
    assert main(args(b)) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a + ".record.csv").read() == open(b + ".record.csv").read()


def test_pretrain_on_zero_sized_idx_images_exits_format(tmp_path):
    imgs, lbls = tmp_path / "i", tmp_path / "l"
    imgs.write_bytes(struct.pack(">IIII", 0x803, 2, 0, 16))
    lbls.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    out = tmp_path / "s.xfaw"
    assert main(["pretrain", "--images", str(imgs), "--labels", str(lbls), "--classes", "0,1",
                 "--per-class", "1", "--epochs", "1", "--out", str(out)]) == EXIT_FORMAT
    assert not out.exists()


def test_make_task_sizes_and_determinism(corpus, task_file, tmp_path):
    doc = json.load(open(task_file))
    idx = doc["indices"]
    assert len(idx["train_normal"]) == len(idx["train_anomalous"]) == 24
    assert len(idx["test_normal"]) == len(idx["test_anomalous"]) == 8
    other = str(tmp_path / "other_seed.json")
    assert main(["make-task", *dataset_flags(corpus), "--anomaly-class", "9",
                 "--train-per-class", "24", "--test-per-class", "8",
                 "--seed", "5", "--out", other]) == 0
    assert json.load(open(other))["indices"]["train_normal"] != idx["train_normal"]


def test_make_task_capacity_exit_code(corpus, tmp_path):
    out = str(tmp_path / "too_big.json")
    code = main(["make-task", *dataset_flags(corpus), "--anomaly-class", "0",
                 "--train-per-class", "4000", "--test-per-class", "1000",
                 "--seed", "0", "--out", out])
    assert code == EXIT_CAPACITY


def test_validate_task_accepts_good_and_rejects_tampered(corpus, task_file, tmp_path):
    assert main(["validate-task", *dataset_flags(corpus), "--task", task_file]) == 0
    doc = json.load(open(task_file))
    doc["indices"]["train_normal"][0] = doc["indices"]["train_anomalous"][0]
    doc.pop("inputs")  # drop digests; we're tampering with indices, not data
    bad = str(tmp_path / "tampered.json")
    json.dump(doc, open(bad, "w"))
    assert main(["validate-task", *dataset_flags(corpus), "--task", bad]) == EXIT_CONSISTENCY


def test_transfer_fixed_strategy_changes_only_head(corpus, source_weights, task_file, tmp_path):
    out = str(tmp_path / "fixed.xfaw")
    assert main(["transfer", *dataset_flags(corpus), "--strategy", "fixed",
                 "--source-weights", source_weights, "--task", task_file,
                 "--epochs", "2", "--seed", "6", "--out", out]) == 0
    source = nn.load_weights(source_weights)
    trained = nn.load_weights(out)
    src_params = dict(source.named_parameters())
    for name, p in trained.named_parameters():
        if name.startswith("dense"):
            continue
        assert np.array_equal(p.data, src_params[name].data), name


def test_transfer_finetune_depth0_updates_everything(corpus, source_weights, task_file, tmp_path):
    out = str(tmp_path / "deep.xfaw")
    assert main(["transfer", *dataset_flags(corpus), "--strategy", "finetune",
                 "--freeze-depth", "0", "--source-weights", source_weights,
                 "--task", task_file, "--epochs", "2", "--lr", "0.01",
                 "--seed", "7", "--out", out]) == 0
    source = nn.load_weights(source_weights)
    trained = nn.load_weights(out)
    src_params = dict(source.named_parameters())
    for name, p in trained.named_parameters():
        if name.startswith("dense"):
            continue  # head was re-initialized anyway
        assert not np.array_equal(p.data, src_params[name].data), name


def test_transfer_fixed_conflicts_with_freeze_depth(corpus, source_weights, task_file, tmp_path):
    code = main(["transfer", *dataset_flags(corpus), "--strategy", "fixed",
                 "--freeze-depth", "1", "--source-weights", source_weights,
                 "--task", task_file, "--epochs", "1", "--seed", "0",
                 "--out", str(tmp_path / "x.xfaw")])
    assert code == 1


@pytest.fixture(scope="module")
def eval_dir(corpus, source_weights, task_file, tmp_path_factory):
    weights = str(tmp_path_factory.mktemp("t") / "target.xfaw")
    assert main(["transfer", *dataset_flags(corpus), "--strategy", "finetune",
                 "--source-weights", source_weights, "--task", task_file,
                 "--epochs", "3", "--seed", "8", "--out", weights]) == 0
    out_dir = str(tmp_path_factory.mktemp("eval"))
    assert main(["evaluate", *dataset_flags(corpus), "--weights", weights,
                 "--task", task_file, "--out-dir", out_dir]) == 0
    return out_dir


def test_evaluate_report_consistent(eval_dir, capsys):
    report = json.load(open(f"{eval_dir}/report.json"))
    assert 0.0 <= report["auc"] <= 1.0
    c = report["confusion"]
    assert c["tp"] + c["fn"] == 8  # actual anomalous = test_per_class
    assert c["fp"] + c["tn"] == 8
    with open(f"{eval_dir}/roc.csv") as f:
        roc_rows = list(csv.reader(f))
    assert len(roc_rows) - 1 == len(report["roc"]["fpr"])
    with open(f"{eval_dir}/scores.csv") as f:
        assert len(list(csv.reader(f))) - 1 == 16
    manifest = json.load(open(f"{eval_dir}/evaluate.manifest.json"))
    assert f"{eval_dir}/report.json" in manifest["outputs"]


def test_evaluate_summary_matches_json(corpus, eval_dir, source_weights, task_file, capsys):
    report = json.load(open(f"{eval_dir}/report.json"))
    weights = json.load(open(f"{eval_dir}/evaluate.manifest.json"))["parameters"]["weights"]
    assert main(["evaluate", *dataset_flags(corpus), "--weights", weights,
                 "--task", task_file, "--out-dir", eval_dir]) == 0
    printed = capsys.readouterr().out
    line = next(l for l in printed.splitlines() if l.startswith("test AUC"))
    assert abs(float(line.split()[2]) - report["auc"]) < 1e-6


def test_evaluate_corrupt_weights_exit_format(corpus, task_file, tmp_path):
    bad = tmp_path / "junk.xfaw"
    bad.write_bytes(b"XFAWgarbagegarbage")
    code = main(["evaluate", *dataset_flags(corpus), "--weights", str(bad),
                 "--task", task_file, "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_FORMAT


def test_evaluate_nan_head_under_a_valid_crc_exits_format(corpus, source_weights, task_file,
                                                          tmp_path):
    detector = transfer.replace_head(nn.load_weights(source_weights), 2, seed=0)
    path = tmp_path / "nan.xfaw"
    nn.save_weights(detector, path)
    blob = bytearray(path.read_bytes())
    head = np.ascontiguousarray(detector.layers[-1].weight.data, "<f4").tobytes()
    start = blob.find(head)
    blob[start:start + len(head)] = np.full(len(head) // 4, np.nan, "<f4").tobytes()
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))
    out = tmp_path / "out"
    assert main(["evaluate", *dataset_flags(corpus), "--weights", str(path),
                 "--task", task_file, "--out-dir", str(out)]) == EXIT_FORMAT
    assert not out.exists()


def test_evaluate_weights_whose_shapes_do_not_compose_exit_format(corpus, task_file, tmp_path):
    path = tmp_path / "mismatched.xfaw"
    write_weight_records(path, mismatched_weight_records("conv2-8-channels"))
    out = tmp_path / "out"
    assert main(["evaluate", *dataset_flags(corpus), "--weights", str(path),
                 "--task", task_file, "--out-dir", str(out)]) == EXIT_FORMAT
    assert not out.exists()


def test_evaluate_weights_whose_extents_wrap_int64_exit_format(corpus, task_file, tmp_path):
    path = tmp_path / "wrapped.xfaw"
    wrapped_extent_weights(path)
    out = tmp_path / "out"
    assert main(["evaluate", *dataset_flags(corpus), "--weights", str(path),
                 "--task", task_file, "--out-dir", str(out)]) == EXIT_FORMAT
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow being tested
def test_diverging_pretrain_exits_1_and_writes_nothing(corpus, tmp_path, capsys):
    out = tmp_path / "source.xfaw"
    assert main(["pretrain", *dataset_flags(corpus), "--classes", "0,1,2",
                 "--per-class", "8", "--epochs", "3", "--lr", "1e6", "--seed", "1",
                 "--out", str(out)]) == 1
    assert "diverged" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["make-synth", "pretrain", "make-task", "transfer",
                                     "evaluate", "benchmark"])
def test_command_creates_a_missing_output_directory(corpus, source_weights, task_file,
                                                    tmp_path, command):
    new = tmp_path / "a" / "b"
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    outputs = {
        "make-synth": ["--per-class", "2", "--out-images", str(new / "images" / "i"),
                       "--out-labels", str(new / "labels" / "l")],
        "pretrain": [*dataset_flags(corpus), "--classes", "0,1", "--per-class", "4",
                     "--epochs", "1", "--out", str(new / "s.xfaw")],
        "make-task": [*dataset_flags(corpus), "--anomaly-class", "1", "--train-per-class", "4",
                      "--test-per-class", "2", "--out", str(new / "t.json")],
        "transfer": [*dataset_flags(corpus), "--source-weights", source_weights,
                     "--task", task_file, "--epochs", "1", "--out", str(new / "w.xfaw")],
        "evaluate": [*dataset_flags(corpus), "--weights", detector, "--task", task_file,
                     "--out-dir", str(new)],
        "benchmark": [*dataset_flags(corpus), "--source-weights", source_weights,
                      "--train-per-class", "10", "--test-per-class", "2", "--epochs", "1",
                      "--out-dir", str(new)],
    }
    assert main([command, *outputs[command]]) == 0
    written = [p for p in new.rglob("*") if p.is_file()]
    assert written and all(p.stat().st_size for p in written)


@pytest.mark.parametrize("command", ["evaluate", "benchmark"])
def test_out_dir_that_cannot_be_created_exits_1_before_any_forward_pass(
        corpus, source_weights, task_file, tmp_path, monkeypatch, command):
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    blocker = tmp_path / "a-file"
    blocker.write_text("")

    def no_work(*args):
        raise AssertionError("a forward pass ran before the output directory was made")

    monkeypatch.setattr(transfer, "prefix_features", no_work)
    argv = {
        "evaluate": ["--weights", detector, "--task", task_file],
        "benchmark": ["--source-weights", source_weights, "--train-per-class", "10",
                      "--test-per-class", "2", "--epochs", "1"],
    }[command]
    assert main([command, *dataset_flags(corpus), *argv, "--out-dir", str(blocker)]) == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["pretrain", "--no-such-flag"])
    assert e.value.code == 2


MALFORMED_NUMERIC_FLAGS = [
    ("pretrain", ["--classes", "0,x"]),
    ("pretrain", ["--size", "0", "0"]),
    ("pretrain", ["--per-class", "0"]),
    ("make-synth", ["--per-class", "0"]),
    ("benchmark", ["--train-per-class", "0"]),
    ("make-synth", ["--seed", "-1"]),
    ("make-task", ["--seed", "-1"]),
    ("pretrain", ["--seed", "-1"]),
    ("evaluate", ["--threshold", "nan"]),
    ("make-task", ["--train-per-class", "-1"]),
    ("pretrain", ["--classes", "0,0"]),
    ("pretrain", ["--lr", "nan"]),
    ("pretrain", ["--lr", "-1"]),
    ("benchmark", ["--lr", "0"]),
    ("benchmark", ["--freeze-depth", "-1"]),
    ("make-task", ["--anomaly-class", "-1"]),
]


@pytest.mark.parametrize("command, flags", MALFORMED_NUMERIC_FLAGS,
                         ids=["_".join([c, *f]) for c, f in MALFORMED_NUMERIC_FLAGS])
def test_malformed_numeric_flag_exits_usage(corpus, source_weights, task_file, tmp_path,
                                            command, flags):
    detector = str(tmp_path / "detector.xfaw")
    if command == "evaluate":
        nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    out = str(tmp_path / "out")
    base = {
        "make-synth": ["--per-class", "2", "--out-images", out + "-i", "--out-labels", out + "-l"],
        "pretrain": [*dataset_flags(corpus), "--classes", "0,1", "--per-class", "5",
                     "--epochs", "1", "--out", out],
        "make-task": [*dataset_flags(corpus), "--anomaly-class", "9", "--train-per-class", "4",
                      "--test-per-class", "4", "--out", out],
        "evaluate": [*dataset_flags(corpus), "--weights", detector, "--task", task_file,
                     "--out-dir", out],
        "benchmark": [*dataset_flags(corpus), "--source-weights", source_weights,
                      "--train-per-class", "4", "--test-per-class", "4", "--epochs", "1",
                      "--out-dir", out],
    }[command]
    with pytest.raises(SystemExit) as e:
        main([command, *base, *flags])
    assert e.value.code == 2


@pytest.mark.parametrize("error, code", [
    (FormatError, 3), (CapacityError, 4), (ConsistencyError, 5), (ContractError, 1),
    (ShapeError, 1), (UndefinedMetricError, 1), (XferadError, 1), (OSError, 1),
])
def test_main_returns_each_error_class_exit_code(monkeypatch, error, code):
    def fail(args):
        raise error("injected")
    monkeypatch.setattr(cli, "cmd_validate_task", fail)
    assert main(["validate-task", "--task", "unused.json"]) == code


def test_commands_never_mutate_input_files(corpus, source_weights, task_file, tmp_path):
    import hashlib

    inputs = [corpus["images"], corpus["labels"], source_weights, task_file]
    digest = lambda p: hashlib.sha256(open(p, "rb").read()).hexdigest()
    before = [digest(p) for p in inputs]
    assert main(["transfer", *dataset_flags(corpus), "--source-weights", source_weights,
                 "--task", task_file, "--epochs", "1", "--seed", "12",
                 "--out", str(tmp_path / "w.xfaw")]) == 0
    assert main(["evaluate", *dataset_flags(corpus), "--weights", str(tmp_path / "w.xfaw"),
                 "--task", task_file, "--out-dir", str(tmp_path / "e")]) == 0
    assert [digest(p) for p in inputs] == before


def test_benchmark_csv_structure(corpus, source_weights, tmp_path):
    out_dir = str(tmp_path / "bench")
    assert main(["benchmark", *dataset_flags(corpus), "--source-weights", source_weights,
                 "--train-per-class", "12", "--test-per-class", "6",
                 "--epochs", "1", "--seed", "9", "--out-dir", out_dir]) == 0
    with open(f"{out_dir}/benchmark.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["class", "auc"]
    assert [r[0] for r in rows[1:]] == [str(c) for c in range(10)] + ["mean"]
    aucs = [float(r[1]) for r in rows[1:-1]]
    assert abs(float(rows[-1][1]) - sum(aucs) / 10) < 1e-12
    for cls in range(10):
        assert json.load(open(f"{out_dir}/report_{cls}.json"))["auc"] == aucs[cls]
        nn.load_weights(f"{out_dir}/weights_{cls}.xfaw")


def test_benchmark_on_an_empty_corpus_exits_capacity(source_weights, tmp_path):
    imgs, lbls = tmp_path / "i", tmp_path / "l"
    imgs.write_bytes(struct.pack(">IIII", 0x803, 0, 16, 16))
    lbls.write_bytes(struct.pack(">II", 0x801, 0))
    out_dir = tmp_path / "bench"
    assert main(["benchmark", "--images", str(imgs), "--labels", str(lbls),
                 "--source-weights", source_weights, "--out-dir", str(out_dir)]) == EXIT_CAPACITY
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def two_class_corpus(corpus, tmp_path_factory):
    """Classes 0 and 1 of the shared corpus, as their own IDX pair."""
    ds = data.load_idx(corpus["images"], corpus["labels"])
    keep = ds.labels < 2
    root = tmp_path_factory.mktemp("two")
    imgs, lbls = str(root / "two-images"), str(root / "two-labels")
    data.write_idx(ds.images[keep], ds.labels[keep], imgs, lbls)
    return {"images": imgs, "labels": lbls}


def test_benchmark_loops_over_the_dataset_classes(two_class_corpus, source_weights, tmp_path):
    out_dir = str(tmp_path / "bench")
    assert main(["benchmark", *dataset_flags(two_class_corpus), "--source-weights", source_weights,
                 "--train-per-class", "12", "--test-per-class", "6",
                 "--epochs", "1", "--seed", "9", "--out-dir", out_dir]) == 0
    with open(f"{out_dir}/benchmark.csv") as f:
        rows = list(csv.reader(f))
    assert [r[0] for r in rows] == ["class", "0", "1", "mean"]


# the benchmark's cache holds the activations entering layer k = 10, 6, 0, 3
@pytest.mark.parametrize("freeze", [
    pytest.param(["--strategy", "fixed"], id="fixed"),
    pytest.param(["--strategy", "finetune"], id="finetune"),
    pytest.param(["--strategy", "finetune", "--freeze-depth", "0"], id="finetune-depth0"),
    pytest.param(["--strategy", "finetune", "--freeze-depth", "1"], id="finetune-depth1"),
])
def test_benchmark_equals_make_task_transfer_evaluate_per_class(two_class_corpus, source_weights,
                                                                tmp_path, freeze):
    flags = dataset_flags(two_class_corpus)
    bench = tmp_path / "bench"
    assert main(["benchmark", *flags, "--source-weights", source_weights, *freeze,
                 "--train-per-class", "12", "--test-per-class", "6",
                 "--epochs", "2", "--seed", "9", "--out-dir", str(bench)]) == 0
    same = lambda a, b: open(a, "rb").read() == open(b, "rb").read()
    for c in (0, 1):
        task, weights, ev = tmp_path / f"task{c}.json", tmp_path / f"w{c}.xfaw", tmp_path / f"e{c}"
        assert main(["make-task", *flags, "--anomaly-class", str(c), "--train-per-class", "12",
                     "--test-per-class", "6", "--seed", "9", "--out", str(task)]) == 0
        assert main(["transfer", *flags, *freeze, "--source-weights", source_weights,
                     "--task", str(task), "--epochs", "2", "--seed", str(9 + c),
                     "--out", str(weights)]) == 0
        assert main(["evaluate", *flags, "--weights", str(weights), "--task", str(task),
                     "--out-dir", str(ev)]) == 0
        assert same(task, bench / f"task_{c}.json")
        assert same(weights, bench / f"weights_{c}.xfaw")
        assert same(f"{weights}.record.csv", bench / f"record_{c}.csv")
        assert same(ev / "report.json", bench / f"report_{c}.json")
    depth = lambda path: json.load(open(path))["parameters"]["freeze_depth"]
    assert depth(f"{weights}.manifest.json") == depth(bench / "benchmark.manifest.json")


@pytest.mark.parametrize("command", ["benchmark", "transfer", "evaluate"])
def test_command_preprocesses_each_used_sample_once(two_class_corpus, source_weights,
                                                    tmp_path, monkeypatch, command):
    """benchmark preprocesses every split of every class's task, transfer
    its task's train splits and evaluate its test splits: each sample once."""
    flags = dataset_flags(two_class_corpus)
    task, out = tmp_path / "task.json", tmp_path / "out"
    assert main(["make-task", *flags, "--anomaly-class", "1", "--train-per-class", "10",
                 "--test-per-class", "5", "--seed", "9", "--out", str(task)]) == 0
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    extra, task_files, splits = {
        "benchmark": (["--source-weights", source_weights, "--train-per-class", "10",
                       "--test-per-class", "5", "--epochs", "1", "--seed", "9",
                       "--out-dir", str(out)],
                      [out / "task_0.json", out / "task_1.json"], cli.TASK_SPLITS),
        "transfer": (["--source-weights", source_weights, "--task", str(task),
                      "--epochs", "1", "--out", str(out / "w.xfaw")],
                     [task], cli.TASK_SPLITS[:2]),
        "evaluate": (["--weights", detector, "--task", str(task), "--out-dir", str(out)],
                     [task], cli.TASK_SPLITS[2:]),
    }[command]
    ds = data.load_idx(two_class_corpus["images"], two_class_corpus["labels"])
    position = {img.tobytes(): i for i, img in enumerate(ds.images)}
    assert len(position) == len(ds)  # every sample is recognizable by its bytes
    counts = np.zeros(len(ds), dtype=np.int64)
    preprocess_split = data.preprocess_split

    def counting(images, target_hw):
        for img in images:
            counts[position[np.asarray(img).tobytes()]] += 1
        return preprocess_split(images, target_hw)

    monkeypatch.setattr(data, "preprocess_split", counting)
    assert main([command, *flags, *extra]) == 0
    used = np.zeros(len(ds), dtype=bool)
    for path in task_files:
        indices = json.load(open(path))["indices"]
        for s in splits:
            used[indices[s]] = True
    assert 0 < used.sum() < len(ds)
    assert np.array_equal(counts, used.astype(np.int64))


@pytest.mark.parametrize("command", ["benchmark", "transfer", "evaluate", "make-task"])
def test_command_hashes_each_input_file_once(corpus, source_weights, task_file, tmp_path,
                                             monkeypatch, command):
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    out = tmp_path / "out"
    extra, inputs = {
        "benchmark": (["--source-weights", source_weights, "--train-per-class", "10",
                       "--test-per-class", "2", "--epochs", "0", "--out-dir", str(out)],
                      [source_weights]),
        "transfer": (["--source-weights", source_weights, "--task", task_file,
                      "--epochs", "0", "--out", str(out / "w.xfaw")],
                     [source_weights, task_file]),
        "evaluate": (["--weights", detector, "--task", task_file, "--out-dir", str(out)],
                     [detector, task_file]),
        "make-task": (["--anomaly-class", "1", "--train-per-class", "4",
                       "--test-per-class", "2", "--out", str(out / "t.json")], []),
    }[command]
    hashed = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
    assert main([command, *dataset_flags(corpus), *extra]) == 0
    assert sorted(hashed) == sorted([corpus["images"], corpus["labels"], *inputs])


@pytest.mark.parametrize("tamper", [
    lambda doc: "{not json",
    lambda doc: {k: v for k, v in doc.items() if k != "indices"},
    lambda doc: {k: v for k, v in doc.items() if k != "anomaly_class"},
    lambda doc: {**doc, "seed": "2"},
    lambda doc: {**doc, "anomaly_class": 9.0},
    lambda doc: {**doc, "inputs": {".": "0" * 64}},
    lambda doc: {**doc, "inputs": dict.fromkeys(doc["inputs"], 0)},
], ids=["not_json", "no_indices", "no_anomaly_class", "string_seed", "float_anomaly_class",
        "directory_input", "integer_digests"])
@pytest.mark.parametrize("command", ["evaluate", "validate-task"])
def test_malformed_task_file_exits_format(corpus, source_weights, task_file, tmp_path,
                                          tamper, command):
    doc = tamper(json.load(open(task_file)))
    bad = tmp_path / "bad_task.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    extra = (["--weights", source_weights, "--out-dir", str(tmp_path / "out")]
             if command == "evaluate" else [])
    assert main([command, *dataset_flags(corpus), "--task", str(bad), *extra]) == EXIT_FORMAT


def assert_task_doc_exits(code, doc, command, corpus, source_weights, tmp_path):
    """Run command on the task doc and corpus; it must exit code and write nothing."""
    bad = tmp_path / "bad_task.json"
    bad.write_text(json.dumps(doc))
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    out = tmp_path / "out"
    extra = {
        "transfer": ["--source-weights", source_weights, "--epochs", "1", "--out", str(out)],
        "evaluate": ["--weights", detector, "--out-dir", str(out)],
        "validate-task": [],
    }[command]
    assert main([command, *dataset_flags(corpus), "--task", str(bad), *extra]) == code
    assert not out.exists()


@pytest.mark.parametrize("command", ["transfer", "evaluate", "validate-task"])
def test_task_with_test_split_repeating_train_exits_consistency(corpus, source_weights,
                                                                task_file, tmp_path, command):
    doc = json.load(open(task_file))
    n = len(doc["indices"]["test_normal"])
    doc["indices"]["test_normal"] = doc["indices"]["train_normal"][:n]
    assert_task_doc_exits(EXIT_CONSISTENCY, doc, command, corpus, source_weights, tmp_path)


@pytest.mark.parametrize("command", ["transfer", "evaluate", "validate-task"])
def test_task_with_empty_test_splits_exits_consistency(corpus, source_weights, task_file,
                                                       tmp_path, command):
    doc = json.load(open(task_file))
    doc["indices"]["test_normal"] = []
    doc["indices"]["test_anomalous"] = []
    assert_task_doc_exits(EXIT_CONSISTENCY, doc, command, corpus, source_weights, tmp_path)


@pytest.mark.parametrize("split", ["train_normal", "test_anomalous"])
@pytest.mark.parametrize("command", ["transfer", "evaluate", "validate-task"])
def test_task_with_a_split_repeating_a_sample_exits_consistency(corpus, source_weights,
                                                                task_file, tmp_path, command,
                                                                split):
    doc = json.load(open(task_file))
    doc["indices"][split][1] = doc["indices"][split][0]
    assert_task_doc_exits(EXIT_CONSISTENCY, doc, command, corpus, source_weights, tmp_path)


@pytest.mark.parametrize("command", ["transfer", "evaluate", "validate-task"])
def test_task_run_on_a_dataset_with_changed_pixels_exits_format(corpus, source_weights,
                                                                task_file, tmp_path, command):
    """The task's digests are checked against the files the command
    loaded, not against the files the task names."""
    ds = data.load_idx(corpus["images"], corpus["labels"])
    changed = {"images": str(tmp_path / "inverted-images"), "labels": str(tmp_path / "labels")}
    data.write_idx(255 - ds.images, ds.labels, changed["images"], changed["labels"])
    doc = json.load(open(task_file))
    assert_task_doc_exits(EXIT_FORMAT, doc, command, changed, source_weights, tmp_path)


def test_task_naming_a_fifo_input_exits_format_without_opening_it(corpus, task_file, tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    doc = json.load(open(task_file))
    bad = tmp_path / "fifo_task.json"
    bad.write_text(json.dumps({**doc, "inputs": {str(fifo): "0" * 64}}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "xferad.cli", "validate-task",
                           *dataset_flags(corpus), "--task", str(bad)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_FORMAT, proc.stderr


def test_deeply_nested_task_file_exits_format_without_a_traceback(corpus, tmp_path):
    """JSON's decoder raises RecursionError on deep nesting; the reader
    turns it into a FormatError like any other malformed task file."""
    bad = tmp_path / "nested_task.json"
    bad.write_text("[" * 200_000)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "xferad.cli", "validate-task",
                           *dataset_flags(corpus), "--task", str(bad)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_FORMAT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "not valid JSON" in proc.stderr


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def mutated_task_runs(corpus, source_weights, task_file, tmp_path_factory):
    """(the make-task document, the dataset size, run(doc)): run writes doc
    as a task file and returns the exit codes and stderr of validate-task
    and evaluate on it, both run in this process."""
    root = tmp_path_factory.mktemp("mutated")
    detector, task, out_dir = str(root / "detector.xfaw"), str(root / "task.json"), str(root / "eval")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)

    def run(doc):
        with open(task, "w") as f:
            json.dump(doc, f)
        runs = []
        for argv in (["validate-task", *dataset_flags(corpus), "--task", task],
                     ["evaluate", *dataset_flags(corpus), "--weights", detector, "--task", task,
                      "--out-dir", out_dir]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                runs.append((main(argv), err.getvalue()))
        return runs

    return json.load(open(task_file)), len(data.load_idx(corpus["images"], corpus["labels"])), run


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_task_file_with_one_change_exits_0_3_or_5(mutated_task_runs, pick):
    """One change to a valid make-task file (a key deleted, a value replaced
    by generated JSON, or an index set to -1, to the dataset size or to a
    duplicate) makes validate-task and evaluate exit 0, 3 or 5, never with
    a traceback."""
    base, n, run = mutated_task_runs
    doc = copy.deepcopy(base)
    paths = [(k,) for k in doc] + [("indices", s) for s in doc["indices"]]
    paths += [("inputs", p) for p in doc["inputs"]]
    kind = pick.draw(st.sampled_from(["delete", "replace", "index"]))
    split = pick.draw(st.sampled_from(sorted(doc["indices"])))
    pos = pick.draw(st.integers(0, len(doc["indices"][split]) - 1))
    if kind == "index":
        every = [i for ix in doc["indices"].values() for i in ix]
        doc["indices"][split][pos] = pick.draw(st.sampled_from([-1, n, *every]))
    else:
        path = pick.draw(st.sampled_from(paths + ([("indices", split, pos)] if kind == "replace" else [])))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = pick.draw(JSON_VALUES)
    for code, err in run(doc):
        assert code in (0, EXIT_FORMAT, EXIT_CONSISTENCY), err
        assert "Traceback" not in err


def test_evaluate_uses_and_records_the_weights_input_size(corpus, source_weights, task_file,
                                                          tmp_path):
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    runs = {}
    for size in (16, 64):
        out = tmp_path / f"size{size}"
        assert main(["evaluate", *dataset_flags(corpus, size), "--weights", detector,
                     "--task", task_file, "--out-dir", str(out)]) == 0
        manifest = json.load(open(out / "evaluate.manifest.json"))
        assert manifest["parameters"]["size"] == [16, 16]
        runs[size] = [(out / n).read_bytes() for n in ("report.json", "roc.csv", "scores.csv")]
    assert runs[64] == runs[16]


def test_evaluate_outputs_independent_of_the_inference_batch(corpus, source_weights, tmp_path,
                                                             monkeypatch):
    """72 test samples: chunks of 16 (4 x 16 + 8) and of 64 (64 + 8) give
    the same report, ROC and score bytes."""
    task = str(tmp_path / "task.json")
    assert main(["make-task", *dataset_flags(corpus), "--anomaly-class", "9",
                 "--train-per-class", "4", "--test-per-class", "36", "--out", task]) == 0
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    runs = {}
    for batch in (16, 64):
        monkeypatch.setattr(evaluate, "INFER_BATCH", batch)
        out = tmp_path / f"batch{batch}"
        assert main(["evaluate", *dataset_flags(corpus), "--weights", detector, "--task", task,
                     "--out-dir", str(out)]) == 0
        runs[batch] = [(out / n).read_bytes() for n in ("report.json", "roc.csv", "scores.csv")]
    assert runs[16] == runs[64]


@pytest.mark.parametrize("command", ["make-synth", "pretrain", "make-task", "transfer",
                                     "evaluate", "benchmark"])
def test_manifest_parameters_of_each_command(corpus, source_weights, task_file, tmp_path,
                                             monkeypatch, command):
    """Each manifest records every parsed flag but its output paths, with
    the freeze depth and input size the command resolved."""
    monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
    detector = str(tmp_path / "detector.xfaw")
    nn.save_weights(transfer.replace_head(nn.load_weights(source_weights), 2, 0), detector)
    out = tmp_path / "out"
    dataset = {"data_format": "idx", "images": corpus["images"], "labels": corpus["labels"],
               "root": None, "class_dirs": None, "size": [16, 16]}
    argv, manifest, expected = {
        "make-synth": (
            ["--per-class", "2", "--seed", "3", "--out-images", str(out / "i"),
             "--out-labels", str(out / "l")],
            out / "i.manifest.json", {"per_class": 2, "seed": 3}),
        "pretrain": (
            [*dataset_flags(corpus), "--classes", "0,1", "--per-class", "4", "--epochs", "1",
             "--out", str(out / "s.xfaw")],
            out / "s.xfaw.manifest.json",
            {**dataset, "classes": [0, 1], "per_class": 4, "epochs": 1, "lr": 0.01,
             "batch_size": 16, "seed": 0}),
        "make-task": (
            [*dataset_flags(corpus), "--anomaly-class", "1", "--train-per-class", "4",
             "--test-per-class", "2", "--seed", "5", "--out", str(out / "t.json")],
            out / "t.json.manifest.json",
            {**dataset, "anomaly_class": 1, "train_per_class": 4, "test_per_class": 2,
             "seed": 5}),
        "transfer": (
            [*dataset_flags(corpus), "--source-weights", source_weights, "--task", task_file,
             "--epochs", "1", "--lr", "0.002", "--out", str(out / "w.xfaw")],
            out / "w.xfaw.manifest.json",
            {**dataset, "strategy": "finetune", "freeze_depth": 2,
             "source_weights": source_weights, "task": task_file, "epochs": 1, "lr": 0.002,
             "batch_size": 16, "model_selection": "best_val_auc", "seed": 0}),
        "evaluate": (
            [*dataset_flags(corpus), "--weights", detector, "--task", task_file,
             "--threshold", "0.25", "--out-dir", str(out)],
            out / "evaluate.manifest.json",
            {**dataset, "weights": detector, "task": task_file, "threshold": 0.25}),
        "benchmark": (
            [*dataset_flags(corpus), "--source-weights", source_weights, "--strategy", "fixed",
             "--train-per-class", "10", "--test-per-class", "2", "--epochs", "1",
             "--batch-size", "8", "--seed", "6", "--out-dir", str(out)],
            out / "benchmark.manifest.json",
            {**dataset, "source_weights": source_weights, "strategy": "fixed",
             "freeze_depth": 3, "train_per_class": 10, "test_per_class": 2, "epochs": 1,
             "lr": 0.001, "batch_size": 8, "seed": 6}),
    }[command]
    assert main([command, *argv]) == 0
    doc = json.load(open(manifest))
    assert doc["command"] == command
    assert doc["parameters"] == expected


def write_ragged_image_dir(root):
    """Two classes of ten PGM/PPM images each, of mixed sizes and channels."""
    rng = np.random.default_rng(21)
    for cls in ("plain", "cracked"):
        (root / cls).mkdir(parents=True)
        for i in range(10):
            h, w = (17, 20) if i % 3 else (24, 18)
            magic, channels, ext = (b"P6", 3, "ppm") if i % 2 else (b"P5", 1, "pgm")
            header = magic + f"\n{w} {h}\n255\n".encode()
            raster = rng.integers(0, 256, h * w * channels, np.uint8).tobytes()
            (root / cls / f"{i:02d}.{ext}").write_bytes(header + raster)


def write_cifar_dir(root):
    """Two CIFAR-10 batch files holding 8 random images of each class."""
    root.mkdir()
    rng = np.random.default_rng(22)
    rec = rng.integers(0, 256, (80, 3073), np.uint8)
    rec[:, 0] = rng.permutation(np.repeat(np.arange(10, dtype=np.uint8), 8))
    for i, half in enumerate((rec[:40], rec[40:]), 1):
        (root / f"data_batch_{i}.bin").write_bytes(half.tobytes())


@pytest.mark.parametrize("label", [10, 255])
@pytest.mark.parametrize("name,record", [("data_batch_1.bin", 0), ("data_batch_2.bin", 39)])
def test_cifar10_label_out_of_range_exits_format(tmp_path, capsys, label, name, record):
    """validate-task on a CIFAR-10 directory with a label byte above 9 exits
    3 with one error line naming the file and the record."""
    root = tmp_path / "cifar"
    write_cifar_dir(root)
    task = str(tmp_path / "task.json")
    flags = ["--data-format", "cifar10", "--root", str(root)]
    assert main(["make-task", *flags, "--anomaly-class", "1", "--train-per-class", "4",
                 "--test-per-class", "2", "--out", task]) == 0
    blob = bytearray((root / name).read_bytes())
    blob[3073 * record] = label
    (root / name).write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["validate-task", *flags, "--task", task]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err == f"error: {root / name}: label {label} of record {record} out of range for CIFAR-10\n"


def sampled_cuts(size, seed, skip=()):
    """Every cut inside the first 64 bytes, 24 seeded cuts past them and the
    cut before the last byte, none of them in skip."""
    rng = np.random.default_rng(seed)
    cuts = set(range(min(64, size))) | set(rng.integers(64, size, 24).tolist()) | {size - 1}
    return sorted(c for c in cuts if c not in skip)


def test_cut_input_files_exit_format_through_the_cli(tmp_path, monkeypatch, capsys):
    """The command that reads a cut file exits 3 with a one-line error and
    no traceback: a source weight file (transfer), an IDX image file
    (pretrain) and a CIFAR-10 batch file cut off a record boundary
    (make-task). Each uncut file runs to exit 0 first."""
    monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
    idx = {"images": str(tmp_path / "images"), "labels": str(tmp_path / "labels")}
    source, task = tmp_path / "source.xfaw", str(tmp_path / "task.json")
    assert main(["make-synth", "--per-class", "10", "--out-images", idx["images"],
                 "--out-labels", idx["labels"]]) == 0
    flags = dataset_flags(idx)
    pretrain = ["pretrain", *flags, "--per-class", "4", "--epochs", "0", "--out", str(source)]
    split = ["--train-per-class", "6", "--test-per-class", "2"]
    assert main(pretrain) == 0
    assert main(["make-task", *flags, "--anomaly-class", "9", *split, "--out", task]) == 0
    root = tmp_path / "cifar"
    write_cifar_dir(root)
    batch = root / "data_batch_1.bin"
    runs = [
        (source, ["transfer", *flags, "--source-weights", str(source), "--task", task,
                  "--epochs", "0", "--out", str(tmp_path / "detector.xfaw")], ()),
        (Path(idx["images"]), pretrain, ()),
        (batch, ["make-task", "--data-format", "cifar10", "--root", str(root), "--anomaly-class",
                 "1", *split, "--out", str(tmp_path / "cifar_task.json")],
         range(0, batch.stat().st_size, 3073)),
    ]

    def exits_format(argv):
        def load(_path):
            code = main(argv)
            err = capsys.readouterr().err
            if code == EXIT_FORMAT and err.startswith("error: ") and err.count("\n") == 1:
                raise FormatError(err)
            return code
        return load

    for seed, (path, argv, boundaries) in enumerate(runs):
        blob = path.read_bytes()
        assert main(argv) == 0, argv[0]
        cuts = [(cut, blob[:cut]) for cut in sampled_cuts(len(blob), seed, boundaries)]
        assert not not_refused(path, cuts, exits_format(argv)), argv[0]


@pytest.mark.parametrize("data_format", ["dir", "cifar10"])
def test_every_command_runs_on_the_dir_and_cifar10_formats(tmp_path, monkeypatch, data_format):
    """The six dataset commands exit 0 on a ragged PGM/PPM directory and on
    two CIFAR-10 batch files; manifests record the batch files' digests
    (a directory records none); a second transfer writes the same bytes."""
    import hashlib

    monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
    root = tmp_path / "data"
    if data_format == "dir":
        write_ragged_image_dir(root)
        flags = ["--data-format", "dir", "--root", str(root), "--class-dirs", "plain,cracked"]
        inputs = {}
    else:
        write_cifar_dir(root)
        flags = ["--data-format", "cifar10", "--root", str(root)]
        inputs = {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(root.glob("*.bin"))}
    flags += ["--size", "16", "16"]
    out = tmp_path / "out"
    source, task = str(out / "source.xfaw"), str(out / "task.json")
    evaluated, benched = out / "eval", out / "bench"
    split = ["--train-per-class", "6", "--test-per-class", "2"]
    runs = [
        ("pretrain", ["--classes", "0,1", "--per-class", "4", "--epochs", "1", "--out", source],
         source + ".manifest.json"),
        ("make-task", ["--anomaly-class", "1", *split, "--out", task], task + ".manifest.json"),
        ("validate-task", ["--task", task], None),
        ("transfer", ["--source-weights", source, "--task", task, "--epochs", "1",
                      "--out", str(out / "w1.xfaw")], str(out / "w1.xfaw.manifest.json")),
        ("transfer", ["--source-weights", source, "--task", task, "--epochs", "1",
                      "--out", str(out / "w2.xfaw")], None),
        ("evaluate", ["--weights", str(out / "w1.xfaw"), "--task", task,
                      "--out-dir", str(evaluated)], str(evaluated / "evaluate.manifest.json")),
        ("benchmark", ["--source-weights", source, *split, "--epochs", "1",
                       "--out-dir", str(benched)], str(benched / "benchmark.manifest.json")),
    ]
    for command, argv, manifest in runs:
        assert main([command, *flags, *argv]) == 0, command
        if manifest:
            recorded = json.load(open(manifest))["inputs"]
            others = {source, task, str(out / "w1.xfaw")}
            assert {p: d for p, d in recorded.items() if p not in others} == inputs, command
    assert (out / "w1.xfaw").read_bytes() == (out / "w2.xfaw").read_bytes()
