"""The benchmark's workloads.

Each workload is a list of set-up commands (xferad CLI argument lists,
run in order inside a fresh set-up directory), one timed round of CLI
invocations, the number of samples that round processes, and a quality
check on the round's outputs. Every path is relative to the set-up
directory, so manifests and task files are byte-identical wherever the
directory lives.

All corpora are the synthetic IDX digit set at 32x32 input, generated
from the workload seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

SOURCE_CLASSES = tuple(range(8))
SIZE = ["--size", "32", "32"]

# corpus seeds are offset from the workload seed so the three corpora differ
_TASK_SEED_OFFSET = 1_000_003
_HOLDOUT_SEED_OFFSET = 2_000_003

# source model for ovr and score: 80 per class x 4 epochs at batch 4 trains
# features good enough that the transferred detectors clear their floors on
# every seed tried (final pretrain loss 0.1-0.4)
_SOURCE_PER_CLASS = 80
_SOURCE_ARGS = ["--epochs", "4", "--lr", "0.01", "--batch-size", "4"]

# transfer settings shared by ovr's benchmark runs and score's detectors
_TRANSFER_EPOCHS = 3
_TRANSFER_ARGS = ["--epochs", str(_TRANSFER_EPOCHS), "--lr", "0.03"]
_TRAIN_PER_CLASS = 40
_VAL_FRACTION = 0.1  # xferad.transfer.TransferConfig.val_fraction default

OVR_TEST_PER_CLASS = 40
SCORE_CLASSES = (0, 3, 6, 9)
SCORE_TEST_PER_CLASS = 200

PRETRAIN_PER_CLASS = 80
PRETRAIN_EPOCHS = 5  # 4 left the source model's AUC seed-dependent (0.88-1.00)
HOLDOUT_PER_CLASS = 50


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation of a round; it writes only under `out`."""

    name: str
    argv: list
    out: str


# AUC floors sit 0.10-0.16 under the lowest mean AUC seen over 20-30 seeds,
# and well above the 0.5 of an untrained network
@dataclass(frozen=True)
class Workload:
    setup: list  # CLI argument lists
    round: list  # Invocations
    samples: int  # sample-epochs trained (pretrain, ovr) or test images scored (score) per round
    auc_floor: float
    auc: Callable[[], float]  # mean AUC of the round's outputs, read from the cwd


def _idx(prefix):
    return ["--data-format", "idx", "--images", f"{prefix}-images",
            "--labels", f"{prefix}-labels", *SIZE]


def _synth(prefix, per_class, seed):
    return ["make-synth", "--per-class", str(per_class), "--seed", str(seed),
            "--out-images", f"{prefix}-images", "--out-labels", f"{prefix}-labels"]


def _classes(classes):
    return ",".join(str(c) for c in classes)


def _source_setup(seed):
    return [
        _synth("src", _SOURCE_PER_CLASS, seed),
        ["pretrain", *_idx("src"), "--classes", _classes(SOURCE_CLASSES),
         "--per-class", str(_SOURCE_PER_CLASS), *_SOURCE_ARGS,
         "--seed", str(seed), "--out", "source.xfaw"],
    ]


def _train_samples_per_epoch(train_per_class):
    held_out = int(round(_VAL_FRACTION * train_per_class))
    return 2 * (train_per_class - held_out)


def _pretrain(seed):
    out = "out/pretrain"
    inv = Invocation("pretrain", [
        "pretrain", *_idx("src"), "--classes", _classes(SOURCE_CLASSES),
        "--per-class", str(PRETRAIN_PER_CLASS), "--epochs", str(PRETRAIN_EPOCHS),
        "--lr", "0.02", "--seed", str(seed), "--out", f"{out}/source.xfaw",
    ], out)
    return Workload(
        setup=[_synth("src", PRETRAIN_PER_CLASS, seed),
               _synth("holdout", HOLDOUT_PER_CLASS, seed + _HOLDOUT_SEED_OFFSET)],
        round=[inv],
        samples=len(SOURCE_CLASSES) * PRETRAIN_PER_CLASS * PRETRAIN_EPOCHS,
        auc_floor=0.75,
        auc=lambda: _source_macro_auc(f"{out}/source.xfaw", "holdout"),
    )


def _ovr(seed):
    per_class = _TRAIN_PER_CLASS + OVR_TEST_PER_CLASS
    invs = [
        Invocation(f"benchmark-{strategy}", [
            "benchmark", *_idx("task"), "--source-weights", "source.xfaw",
            "--strategy", strategy, "--train-per-class", str(_TRAIN_PER_CLASS),
            "--test-per-class", str(OVR_TEST_PER_CLASS), *_TRANSFER_ARGS,
            "--seed", str(seed), "--out-dir", f"out/{strategy}",
        ], f"out/{strategy}")
        for strategy in ("fixed", "finetune")
    ]
    return Workload(
        setup=_source_setup(seed) + [_synth("task", per_class, seed + _TASK_SEED_OFFSET)],
        round=invs,
        samples=len(invs) * 10 * _TRANSFER_EPOCHS * _train_samples_per_epoch(_TRAIN_PER_CLASS),
        auc_floor=0.7,
        auc=lambda: _mean([_benchmark_mean(os.path.join(i.out, "benchmark.csv")) for i in invs]),
    )


def _score(seed):
    per_class = _TRAIN_PER_CLASS + SCORE_TEST_PER_CLASS
    setup = _source_setup(seed) + [_synth("task", per_class, seed + _TASK_SEED_OFFSET)]
    invs = []
    for cls in SCORE_CLASSES:
        setup += [
            ["make-task", *_idx("task"), "--anomaly-class", str(cls),
             "--train-per-class", str(_TRAIN_PER_CLASS),
             "--test-per-class", str(SCORE_TEST_PER_CLASS),
             "--seed", str(seed), "--out", f"task_{cls}.json"],
            ["transfer", *_idx("task"), "--source-weights", "source.xfaw",
             "--task", f"task_{cls}.json", "--strategy", "finetune", *_TRANSFER_ARGS,
             "--seed", str(seed), "--out", f"detector_{cls}.xfaw"],
        ]
        invs.append(Invocation(f"evaluate-{cls}", [
            "evaluate", *_idx("task"), "--weights", f"detector_{cls}.xfaw",
            "--task", f"task_{cls}.json", "--out-dir", f"out/eval_{cls}",
        ], f"out/eval_{cls}"))
    return Workload(
        setup=setup,
        round=invs,
        samples=len(invs) * 2 * SCORE_TEST_PER_CLASS,
        auc_floor=0.65,
        auc=lambda: _mean([_report_auc(os.path.join(i.out, "report.json")) for i in invs]),
    )


WORKLOADS = {"pretrain": _pretrain, "ovr": _ovr, "score": _score}


def build(name, seed):
    if not 0 <= seed < 2**31:
        raise ValueError(f"seed must be in [0, 2**31), got {seed}")
    return WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# quality checks (run outside the timed region, never traced)


def _mean(values):
    return sum(values) / len(values)


def _benchmark_mean(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[-1][0] != "mean":
        raise ValueError(f"{path}: last row is not the mean")
    return float(rows[-1][1])


def _report_auc(path):
    with open(path) as f:
        return float(json.load(f)["auc"])


def _source_macro_auc(weights, holdout_prefix):
    """Mean one-vs-rest AUC of the source model's class probabilities on a
    held-out corpus of the source classes."""
    import numpy as np
    from xferad import data, nn, tensor
    from xferad.evaluate import ScoredSet, auc_trapezoid

    model = nn.load_weights(weights)
    ds = data.load_idx(f"{holdout_prefix}-images", f"{holdout_prefix}-labels")
    keep = np.isin(ds.labels, SOURCE_CLASSES)
    x = data.preprocess_split(ds.images[keep], model.input_shape[1:])
    y = ds.labels[keep]
    # batches of 64, as evaluate.anomaly_scores does, so the check stays
    # below the workload's own peak RSS
    probs = np.concatenate([
        tensor.softmax(model.forward(tensor.Tensor(x[i:i + 64])).data)
        for i in range(0, len(x), 64)
    ])
    return _mean([
        auc_trapezoid(ScoredSet(probs[:, k], (y == c).astype(np.int64)))
        for k, c in enumerate(SOURCE_CLASSES)
    ])
