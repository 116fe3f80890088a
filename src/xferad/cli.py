"""Command-line pipeline: pretrain, make-task, transfer, evaluate,
benchmark, plus make-synth (synthetic IDX corpus) and validate-task.

Every command writes a JSON manifest beside its outputs recording the
resolved parameters, input digests and output paths; rerunning a command
with the same parameters and inputs reproduces its outputs byte for
byte. Exit codes: 0 success, 2 usage (malformed flags included),
otherwise the raised error's XferadError.exit_code, or 1 for OSError.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, data, nn, synth, transfer
from .errors import (
    EXIT_FAILURE, CapacityError, ConsistencyError, ContractError, FormatError,
    XferadError,
)
from .evaluate import (
    LABEL_ANOMALOUS, LABEL_NORMAL, ScoredSet, anomaly_scores, auc_pairwise_oracle,
    emit_report, evaluate_scores, write_scores_csv,
)

AUC_AGREEMENT_TOL = 1e-9
DATA_ENV_VAR = "XFERAD_DATA"


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(*paths):
    return {p: _sha256(p) for p in paths}


# the flags that name where a command writes; a manifest lists the files
# written under "outputs" instead
OUTPUT_FLAGS = ("out", "out_dir", "out_images", "out_labels")


def _write_manifest(path, args, inputs, outputs, **resolved):
    """Record every parsed flag of args but OUTPUT_FLAGS, with the values
    the command resolved itself (resolved) in place of the raw flags, and
    the {path: digest} map inputs."""
    params = {k: v for k, v in vars(args).items() if k not in ("fn", "command", *OUTPUT_FLAGS)}
    doc = {
        "tool": "xferad",
        "version": __version__,
        "command": args.command,
        "parameters": {**params, **resolved},
        "inputs": inputs,
        "outputs": sorted(outputs),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _make_parent_dirs(*paths):
    """Create each output file's directory before any work, so a path
    that cannot be written fails first, not after the work is done."""
    for path in paths:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


# ---------------------------------------------------------------------------
# dataset flags shared by most commands


def _add_dataset_args(p):
    p.add_argument("--data-format", choices=["idx", "dir", "cifar10"], default="idx")
    p.add_argument("--images", help="IDX image file (idx format)")
    p.add_argument("--labels", help="IDX label file (idx format)")
    p.add_argument("--root", default=os.environ.get(DATA_ENV_VAR),
                   help=f"data directory for dir/cifar10 formats (default ${DATA_ENV_VAR})")
    p.add_argument("--class-dirs", type=_class_dirs,
                   help="comma-separated class subdirectories (dir format)")
    p.add_argument("--size", type=_count, nargs=2, default=[32, 32], metavar=("H", "W"),
                   help="pretrain's input size (default 32 32; use 224 224 or 299 299 for full-fidelity "
                        "runs); the other commands use their weights' input size")


def _load_dataset(args):
    """(dataset, {path: digest} of the files it was loaded from)."""
    if args.data_format == "idx":
        if not args.images or not args.labels:
            raise ContractError("idx format needs --images and --labels")
        return data.load_idx(args.images, args.labels), _digests(args.images, args.labels)
    if args.data_format == "dir":
        if not args.root or not args.class_dirs:
            raise ContractError("dir format needs --root and --class-dirs")
        subs = args.class_dirs.split(",")
        return data.load_image_dir(args.root, subs), {}
    if not args.root:
        raise ContractError("cifar10 format needs --root")
    paths = sorted(
        os.path.join(args.root, n) for n in os.listdir(args.root) if n.endswith(".bin")
    )
    if not paths:
        raise FormatError(f"no .bin batch files under {args.root}")
    return data.load_cifar10_batches(paths), _digests(*paths)


# ---------------------------------------------------------------------------
# commands


def cmd_make_synth(args):
    _make_parent_dirs(args.out_images, args.out_labels)
    synth.write_digit_idx(args.out_images, args.out_labels, args.per_class, args.seed)
    _write_manifest(args.out_images + ".manifest.json", args, {}, [args.out_images, args.out_labels])
    print(f"wrote {args.out_images} and {args.out_labels} "
          f"({args.per_class} samples per digit, seed {args.seed})")
    return 0


def _select_source_classes(ds, class_list, per_class, seed):
    """Filter to the requested classes, remap labels to 0..K-1, cap per class."""
    rng = np.random.default_rng([seed, 3])
    keep = []
    for cls in class_list:
        idx = np.flatnonzero(ds.labels == cls)
        if len(idx) < per_class:
            raise CapacityError(f"class {cls} has {len(idx)} samples, need {per_class}")
        keep.append(np.sort(rng.permutation(idx)[:per_class]))
    labels = np.repeat(np.arange(len(class_list), dtype=np.int64), per_class)
    return data.gather(ds.images, np.concatenate(keep)), labels


def cmd_pretrain(args):
    _make_parent_dirs(args.out)
    ds, digests = _load_dataset(args)
    class_list = args.classes
    images, labels = _select_source_classes(ds, class_list, args.per_class, args.seed)

    model = nn.build_small_convnet((3, args.size[0], args.size[1]), len(class_list), args.seed)
    config = transfer.TransferConfig(
        lr0=args.lr, epochs=args.epochs, seed=args.seed, batch_size=args.batch_size,
    )
    trained, record = transfer.pretrain_source(
        model, data.LabeledImageSet(images, labels, [str(c) for c in class_list]), config
    )
    nn.save_weights(trained, args.out)
    record_path = args.out + ".record.csv"
    record.to_csv(record_path)
    _write_manifest(args.out + ".manifest.json", args, digests, [args.out, record_path])
    last = record.epochs[-1].train_loss if record.epochs else float("nan")
    print(f"pretrained on {len(labels)} samples / {len(class_list)} classes; "
          f"final epoch loss {last:.4f}; weights -> {args.out}")
    return 0


def _write_task(path, anomaly_class, seed, indices, digests):
    doc = {
        "anomaly_class": anomaly_class,
        "seed": seed,
        "inputs": digests,
        "indices": {k: v.tolist() for k, v in indices.items()},
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


TASK_SPLITS = ("train_normal", "train_anomalous", "test_normal", "test_anomalous")


def _resolve_task(path, ds, digests):
    """The checked int64 sample indices into ds of each of TASK_SPLITS.

    A task that records dataset digests must have been made on files with
    the same contents as those ds was loaded from, digests ({path: digest}).
    """
    with open(path) as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
            raise FormatError(f"task file {path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"task file {path}: expected a JSON object")
    for key in ("anomaly_class", "seed"):
        if type(doc.get(key)) is not int:
            raise FormatError(f"task file {path}: {key} must be an integer, got {doc.get(key)!r}")
    raw = doc.get("indices")
    if not isinstance(raw, dict) or sorted(raw) != sorted(TASK_SPLITS):
        raise FormatError(f"task file {path}: indices must map exactly {', '.join(TASK_SPLITS)}")
    if "inputs" in doc:
        recorded = doc["inputs"]
        if not isinstance(recorded, dict) or not all(type(d) is str for d in recorded.values()):
            raise FormatError(f"task file {path}: inputs must map paths to digests")
        if sorted(recorded.values()) != sorted(digests.values()):
            raise FormatError(f"task file {path}: recorded digests differ from the loaded dataset's files")
    n = len(ds)
    for k, v in raw.items():
        if not isinstance(v, list) or not all(type(i) is int for i in v):
            raise FormatError(f"task file {path}: {k} must be a list of integers")
        if any(i < 0 or i >= n for i in v):
            raise FormatError(f"task file {path}: {k} index out of range for dataset of {n}")
    indices = {k: np.asarray(v, dtype=np.int64) for k, v in raw.items()}
    _check_task_invariants(path, ds.labels, indices, doc["anomaly_class"])
    return indices


def _check_task_invariants(path, labels, idx, anomaly_class):
    """ConsistencyError unless every split is non-empty and repeats no
    sample, the train splits are equal-sized, train and test are disjoint,
    and each split holds only the labels its role allows."""
    train = np.concatenate([idx["train_normal"], idx["train_anomalous"]])
    test = np.concatenate([idx["test_normal"], idx["test_anomalous"]])
    problems = []
    if any(len(v) == 0 for v in idx.values()):
        problems.append("a split is empty")
    if any(len(np.unique(v)) != len(v) for v in idx.values()):
        problems.append("a split repeats a sample")
    if len(idx["train_normal"]) != len(idx["train_anomalous"]):
        problems.append("train splits are not equal-sized")
    if np.intersect1d(train, test).size:
        problems.append("train and test share source indices")
    normal = np.concatenate([idx["train_normal"], idx["test_normal"]])
    if (labels[normal] == anomaly_class).any():
        problems.append("normal split contains anomaly-class samples")
    anom = np.concatenate([idx["train_anomalous"], idx["test_anomalous"]])
    if (labels[anom] != anomaly_class).any():
        problems.append("anomalous split contains non-anomaly-class samples")
    if problems:
        raise ConsistencyError(f"task {path} invalid: " + "; ".join(problems))


def cmd_make_task(args):
    _make_parent_dirs(args.out)
    ds, digests = _load_dataset(args)
    indices = data.anomaly_task_indices(
        ds.labels, args.anomaly_class, args.train_per_class, args.test_per_class, args.seed
    )
    _write_task(args.out, args.anomaly_class, args.seed, indices, digests)
    _write_manifest(args.out + ".manifest.json", args, digests, [args.out])
    print(f"task: anomaly class {args.anomaly_class}, "
          f"{args.train_per_class}/{args.train_per_class} train, "
          f"{args.test_per_class}/{args.test_per_class} test -> {args.out}")
    return 0


def cmd_validate_task(args):
    ds, digests = _load_dataset(args)
    _resolve_task(args.task, ds, digests)
    print(f"task {args.task} passes all invariant checks")
    return 0


def _detector(args, source, seed, model_selection):
    """Put a fresh 2-neuron head on source and freeze it as --strategy and
    --freeze-depth set.

    Returns (model, the TransferConfig that trains it, k): k is the frozen
    prefix length transfer.check_target finds. Every detector of one source
    has source's frozen prefix, bit for bit: replace_head copies the layers
    and apply_freeze only flips flags.
    """
    fixed = args.strategy == "fixed"
    depth = args.freeze_depth
    if depth is None:
        # fixed freezes every layer but the head; finetune also trains the last conv block
        depth = len(source.parameterized_layers()) - (1 if fixed else 2)
    policy = transfer.FreezePolicy(depth)
    model = transfer.apply_freeze(transfer.replace_head(source, 2, seed), policy)
    config = transfer.TransferConfig(
        strategy=transfer.STRATEGY_FIXED if fixed else transfer.STRATEGY_FINE_TUNE,
        freeze=policy, lr0=args.lr, epochs=args.epochs, seed=seed,
        batch_size=args.batch_size, model_selection=model_selection,
    )
    return model, config, transfer.check_target(model, config)


def _feature_lookup(model, k, images, splits):
    """Map an index array drawn from splits to its activations entering
    model.layers[k], running each sample of splits through layers[:k] once."""
    used = np.unique(np.concatenate(splits))
    cache = transfer.prefix_features(model, k, images, used)
    return lambda ix: cache[np.searchsorted(used, ix)]


def _checked_report(net, normal, anomalous, threshold):
    """Score normal (label 0) then anomalous (label 1) samples through net
    and report at threshold; ConsistencyError unless the pairwise oracle
    agrees on the AUC.

    net is a detector's suffix(k), and the samples are the activations
    entering its layer k (see _feature_lookup). Returns (scored, report).
    """
    labels = [LABEL_NORMAL] * len(normal) + [LABEL_ANOMALOUS] * len(anomalous)
    scored = ScoredSet(anomaly_scores(net, np.concatenate([normal, anomalous])), labels)
    report = evaluate_scores(scored, threshold)
    oracle = auc_pairwise_oracle(scored)
    if abs(report.auc - oracle) > AUC_AGREEMENT_TOL:
        raise ConsistencyError(
            f"AUC implementations disagree: trapezoid {report.auc!r} vs pairwise {oracle!r}"
        )
    return scored, report


def cmd_transfer(args):
    _make_parent_dirs(args.out)
    ds, digests = _load_dataset(args)
    source = nn.load_weights(args.source_weights)
    idx = _resolve_task(args.task, ds, digests)
    model, config, k = _detector(args, source, args.seed, args.model_selection)
    depth = config.freeze.frozen_layer_count
    train = [idx["train_normal"], idx["train_anomalous"]]
    features = _feature_lookup(model, k, ds.images, train)
    trained, record = transfer.train_suffix(model, *map(features, train), config)
    nn.save_weights(trained, args.out)
    record_path = args.out + ".record.csv"
    record.to_csv(record_path)
    _write_manifest(
        args.out + ".manifest.json", args, {**digests, **_digests(args.source_weights, args.task)},
        [args.out, record_path], freeze_depth=depth, size=list(model.input_shape[1:]),
    )
    sel = record.selected_epoch
    val = record.epochs[sel].val_auc if record.epochs else None
    print(f"transfer ({config.strategy}, freeze depth {depth}): "
          f"selected epoch {sel}" + (f", val AUC {val:.4f}" if val is not None else "")
          + f"; weights -> {args.out}")
    return 0


def cmd_evaluate(args):
    ds, digests = _load_dataset(args)
    model = nn.load_weights(args.weights)
    idx = _resolve_task(args.task, ds, digests)
    os.makedirs(args.out_dir, exist_ok=True)
    # the lookup holds each test sample's input to the head, its GAP vector
    head = len(model.layers) - 1
    test = [idx[s] for s in TASK_SPLITS[2:]]
    features = _feature_lookup(model, head, ds.images, test)
    scored, report = _checked_report(model.suffix(head), *map(features, test), args.threshold)

    report_path = os.path.join(args.out_dir, "report.json")
    roc_path = os.path.join(args.out_dir, "roc.csv")
    scores_path = os.path.join(args.out_dir, "scores.csv")
    emit_report(report, report_path, "json")
    emit_report(report, roc_path, "csv")
    write_scores_csv(scored, scores_path)
    _write_manifest(
        os.path.join(args.out_dir, "evaluate.manifest.json"), args,
        {**digests, **_digests(args.weights, args.task)}, [report_path, roc_path, scores_path],
        size=list(model.input_shape[1:]),
    )

    c = report.confusion
    print(f"test AUC        {report.auc:.6f}  (pairwise oracle agrees within {AUC_AGREEMENT_TOL})")
    print(f"threshold       {args.threshold}")
    print("confusion          predicted")
    print("                 anom    normal   total")
    print(f"actual anom    {c.tp:6d}  {c.fn:8d}  {c.tp + c.fn:6d}")
    print(f"actual normal  {c.fp:6d}  {c.tn:8d}  {c.fp + c.tn:6d}")
    print(f"total          {c.tp + c.fp:6d}  {c.fn + c.tn:8d}  {c.total:6d}")
    for name, m in report.metrics.items():
        fmt = lambda v: "undefined" if v is None else f"{v:.5f}"
        print(f"{name:<9} precision {fmt(m.precision)}  recall {fmt(m.recall)}  f1 {fmt(m.f1)}")
    return 0


def cmd_benchmark(args):
    ds, digests = _load_dataset(args)
    if not len(ds):
        raise CapacityError("dataset has no images: no one-vs-rest task to benchmark")
    source = nn.load_weights(args.source_weights)
    os.makedirs(args.out_dir, exist_ok=True)

    classes = range(len(ds.class_names))
    tasks = [
        data.anomaly_task_indices(
            ds.labels, cls, args.train_per_class, args.test_per_class, args.seed
        )
        for cls in classes
    ]
    detectors = [
        _detector(args, source, args.seed + cls, transfer.SELECT_BEST_VAL_AUC) for cls in classes
    ]
    # every detector shares source's frozen prefix (see _detector), so one
    # lookup over all tasks serves them all
    first, config, k = detectors[0]
    features = _feature_lookup(first, k, ds.images, [ix for idx in tasks for ix in idx.values()])

    rows = []
    outputs = []
    for cls, idx, (model, config, _) in zip(classes, tasks, detectors):
        task_path = os.path.join(args.out_dir, f"task_{cls}.json")
        _write_task(task_path, cls, args.seed, idx, digests)

        trained, record = transfer.train_suffix(
            model, features(idx["train_normal"]), features(idx["train_anomalous"]), config
        )
        weights_path = os.path.join(args.out_dir, f"weights_{cls}.xfaw")
        record_path = os.path.join(args.out_dir, f"record_{cls}.csv")
        nn.save_weights(trained, weights_path)
        record.to_csv(record_path)

        _, report = _checked_report(
            trained.suffix(k), features(idx["test_normal"]), features(idx["test_anomalous"]), 0.5
        )
        report_path = os.path.join(args.out_dir, f"report_{cls}.json")
        emit_report(report, report_path, "json")

        rows.append((cls, report.auc))
        outputs += [task_path, weights_path, record_path, report_path]
        print(f"class {cls}: test AUC {report.auc:.6f}")

    csv_path = os.path.join(args.out_dir, "benchmark.csv")
    with open(csv_path, "w") as f:
        f.write("class,auc\n")
        for cls, auc in rows:
            f.write(f"{cls},{auc!r}\n")
        mean = sum(a for _, a in rows) / len(rows)
        f.write(f"mean,{mean!r}\n")
    outputs.append(csv_path)
    _write_manifest(
        os.path.join(args.out_dir, "benchmark.manifest.json"), args,
        {**digests, **_digests(args.source_weights)}, outputs,
        freeze_depth=config.freeze.frozen_layer_count, size=list(source.input_shape[1:]),
    )
    print(f"mean AUC over {len(rows)} one-vs-rest classes: {mean:.6f} -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _checked(convert, ok, expected):
    """argparse type: convert(text), a usage error (exit 2) unless ok(value)."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative = _checked(int, lambda v: v >= 0, "an integer >= 0")
_finite = _checked(float, math.isfinite, "a finite number")
_rate = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_class_list = _checked(
    lambda text: [int(c) for c in text.split(",")],
    lambda v: min(v) >= 0 and len(set(v)) == len(v),
    "distinct comma-separated integers >= 0",
)
# kept as the text, which the manifest records
_class_dirs = _checked(str, lambda v: len(set(v.split(",")) - {""}) == len(v.split(",")),
                       "distinct non-empty comma-separated names")


def _add_detector_args(p, epochs):
    """The flags of a command that trains detectors on a source model."""
    _add_dataset_args(p)
    p.add_argument("--source-weights", required=True)
    p.add_argument("--strategy", choices=["fixed", "finetune"], default="finetune")
    p.add_argument("--freeze-depth", type=_non_negative, default=None,
                   help="parameterized layers to freeze (finetune default: all conv blocks but the last)")
    p.add_argument("--epochs", type=_non_negative, default=epochs)
    p.add_argument("--lr", type=_rate, default=1e-3)
    p.add_argument("--batch-size", type=_count, default=16)
    p.add_argument("--seed", type=_non_negative, default=0)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="xferad",
        description="Transfer-learning toolkit for image anomaly detection "
                    "(pretrain, transplant, fine-tune, evaluate).",
    )
    p.add_argument("--version", action="version", version=f"xferad {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("make-synth", help="write a synthetic digit corpus as IDX files")
    s.add_argument("--per-class", type=_count, default=500)
    s.add_argument("--seed", type=_non_negative, default=0)
    s.add_argument("--out-images", required=True)
    s.add_argument("--out-labels", required=True)
    s.set_defaults(fn=cmd_make_synth)

    s = sub.add_parser("pretrain", help="train the source network from scratch")
    _add_dataset_args(s)
    s.add_argument("--classes", type=_class_list, default="0,1,2,3,4,5,6,7",
                   help="comma-separated source class indices")
    s.add_argument("--per-class", type=_count, default=500)
    s.add_argument("--epochs", type=_non_negative, default=10)
    s.add_argument("--lr", type=_rate, default=transfer.PRETRAIN_LR)
    s.add_argument("--batch-size", type=_count, default=16)
    s.add_argument("--seed", type=_non_negative, default=0)
    s.add_argument("--out", required=True, help="weight file to write")
    s.set_defaults(fn=cmd_pretrain)

    s = sub.add_parser("make-task", help="build a one-vs-rest anomaly task index file")
    _add_dataset_args(s)
    s.add_argument("--anomaly-class", type=_non_negative, required=True)
    s.add_argument("--train-per-class", type=_count, required=True)
    s.add_argument("--test-per-class", type=_count, required=True)
    s.add_argument("--seed", type=_non_negative, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_make_task)

    s = sub.add_parser("validate-task", help="re-check a task file's invariants")
    _add_dataset_args(s)
    s.add_argument("--task", required=True)
    s.set_defaults(fn=cmd_validate_task)

    s = sub.add_parser("transfer", help="replace head, freeze, train on a task")
    _add_detector_args(s, epochs=50)
    s.add_argument("--task", required=True)
    s.add_argument("--model-selection", choices=[transfer.SELECT_BEST_VAL_AUC, transfer.SELECT_LAST_EPOCH],
                   default=transfer.SELECT_BEST_VAL_AUC)
    s.add_argument("--out", required=True, help="weight file to write")
    s.set_defaults(fn=cmd_transfer)

    s = sub.add_parser("evaluate", help="score a task's test split and emit reports")
    _add_dataset_args(s)
    s.add_argument("--weights", required=True)
    s.add_argument("--task", required=True)
    s.add_argument("--threshold", type=_finite, default=0.5)
    s.add_argument("--out-dir", required=True)
    s.set_defaults(fn=cmd_evaluate)

    s = sub.add_parser("benchmark", help="every one-vs-rest task of the dataset, one AUC per class")
    _add_detector_args(s, epochs=8)
    s.add_argument("--train-per-class", type=_count, default=1000)
    s.add_argument("--test-per-class", type=_count, default=1000)
    s.add_argument("--out-dir", required=True)
    s.set_defaults(fn=cmd_benchmark)

    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (XferadError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", EXIT_FAILURE)


if __name__ == "__main__":
    sys.exit(main())
