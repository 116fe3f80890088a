"""Command-line pipeline: pretrain, make-task, transfer, evaluate,
benchmark, plus make-synth (synthetic IDX corpus) and validate-task.

Every command writes a JSON manifest beside its outputs recording the
resolved parameters, input digests and output paths; rerunning a command
with the same parameters and inputs reproduces its outputs byte for
byte. Exit codes: 0 success, 2 usage, 3 data format, 4 capacity,
5 internal consistency, 1 anything else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, data, nn, synth, transfer
from .errors import (
    EXIT_CAPACITY, EXIT_CONSISTENCY, EXIT_FAILURE, EXIT_FORMAT,
    CapacityError, ConsistencyError, ContractError, FormatError,
    ShapeError, UndefinedMetricError, XferadError,
)
from .evaluate import (
    ScoredSet, anomaly_scores, auc_pairwise_oracle, auc_trapezoid,
    confusion_at, emit_report, evaluate_scores, write_scores_csv,
)

AUC_AGREEMENT_TOL = 1e-9
DATA_ENV_VAR = "XFERAD_DATA"


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, params, inputs, outputs):
    doc = {
        "tool": "xferad",
        "version": __version__,
        "command": command,
        "parameters": params,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": sorted(outputs),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# dataset flags shared by most commands


def _add_dataset_args(p):
    p.add_argument("--data-format", choices=["idx", "dir", "cifar10"], default="idx")
    p.add_argument("--images", help="IDX image file (idx format)")
    p.add_argument("--labels", help="IDX label file (idx format)")
    p.add_argument("--root", default=os.environ.get(DATA_ENV_VAR),
                   help=f"data directory for dir/cifar10 formats (default ${DATA_ENV_VAR})")
    p.add_argument("--class-dirs", help="comma-separated class subdirectories (dir format)")
    p.add_argument("--size", type=int, nargs=2, default=[32, 32], metavar=("H", "W"),
                   help="preprocess target size (default 32 32; use 224 224 or 299 299 for full-fidelity runs)")


def _load_dataset(args):
    if args.data_format == "idx":
        if not args.images or not args.labels:
            raise ContractError("idx format needs --images and --labels")
        return data.load_idx(args.images, args.labels), [args.images, args.labels]
    if args.data_format == "dir":
        if not args.root or not args.class_dirs:
            raise ContractError("dir format needs --root and --class-dirs")
        subs = args.class_dirs.split(",")
        return data.load_image_dir(args.root, subs), []
    if not args.root:
        raise ContractError("cifar10 format needs --root")
    paths = sorted(
        os.path.join(args.root, n) for n in os.listdir(args.root) if n.endswith(".bin")
    )
    if not paths:
        raise FormatError(f"no .bin batch files under {args.root}")
    return data.load_cifar10_batches(paths), paths


def _dataset_params(args):
    return {
        "data_format": args.data_format,
        "images": args.images,
        "labels": args.labels,
        "root": args.root,
        "class_dirs": args.class_dirs,
        "size": list(args.size),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_make_synth(args):
    synth.write_digit_idx(args.out_images, args.out_labels, args.per_class, args.seed)
    _write_manifest(
        args.out_images + ".manifest.json", "make-synth",
        {"per_class": args.per_class, "seed": args.seed},
        [], [args.out_images, args.out_labels],
    )
    print(f"wrote {args.out_images} and {args.out_labels} "
          f"({args.per_class} samples per digit, seed {args.seed})")
    return 0


def _select_source_classes(ds, class_list, per_class, seed):
    """Filter to the requested classes, remap labels to 0..K-1, cap per class."""
    rng = np.random.default_rng([seed, 3])
    keep = []
    for new_label, cls in enumerate(class_list):
        idx = np.flatnonzero(ds.labels == cls)
        if len(idx) < per_class:
            raise CapacityError(f"class {cls} has {len(idx)} samples, need {per_class}")
        sel = np.sort(rng.permutation(idx)[:per_class])
        keep.append((sel, new_label))
    images, labels = [], []
    imgs = ds.images
    for sel, new_label in keep:
        for i in sel:
            images.append(imgs[i])
        labels += [new_label] * len(sel)
    return images, np.asarray(labels, dtype=np.int64)


def cmd_pretrain(args):
    ds, input_files = _load_dataset(args)
    class_list = [int(c) for c in args.classes.split(",")]
    images, labels = _select_source_classes(ds, class_list, args.per_class, args.seed)
    x = data.preprocess_split(images, args.size)

    model = nn.build_small_convnet((3, args.size[0], args.size[1]), len(class_list), args.seed)
    config = transfer.TransferConfig(
        lr0=args.lr, epochs=args.epochs, seed=args.seed, batch_size=args.batch_size,
    )
    trained, record = transfer.pretrain_source(
        model, data.LabeledImageSet(x, labels, [str(c) for c in class_list]), config
    )
    nn.save_weights(trained, args.out)
    record_path = args.out + ".record.csv"
    record.to_csv(record_path)
    _write_manifest(
        args.out + ".manifest.json", "pretrain",
        {**_dataset_params(args), "classes": class_list, "per_class": args.per_class,
         "epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
         "seed": args.seed},
        input_files, [args.out, record_path],
    )
    last = record.epochs[-1].train_loss if record.epochs else float("nan")
    print(f"pretrained on {len(labels)} samples / {len(class_list)} classes; "
          f"final epoch loss {last:.4f}; weights -> {args.out}")
    return 0


def _task_doc(task, input_files):
    return {
        "anomaly_class": task.anomaly_class,
        "seed": task.seed,
        "inputs": {p: _sha256(p) for p in input_files},
        "indices": {k: v.tolist() for k, v in task.source_indices.items()},
    }


TASK_SPLITS = ("train_normal", "train_anomalous", "test_normal", "test_anomalous")


def _resolve_task(path, ds, input_files):
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            raise FormatError(f"task file {path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"task file {path}: expected a JSON object")
    for key in ("anomaly_class", "seed"):
        if type(doc.get(key)) is not int:
            raise FormatError(f"task file {path}: {key} must be an integer, got {doc.get(key)!r}")
    raw = doc.get("indices")
    if not isinstance(raw, dict) or sorted(raw) != sorted(TASK_SPLITS):
        raise FormatError(f"task file {path}: indices must map exactly {', '.join(TASK_SPLITS)}")
    inputs = doc.get("inputs", {})
    if not isinstance(inputs, dict):
        raise FormatError(f"task file {path}: inputs must map paths to digests")
    for p, digest in inputs.items():
        if os.path.exists(p) and _sha256(p) != digest:
            raise FormatError(f"task file {path}: dataset {p} digest changed since task creation")
    n = len(ds)
    for k, v in raw.items():
        if not isinstance(v, list) or not all(type(i) is int for i in v):
            raise FormatError(f"task file {path}: {k} must be a list of integers")
        if any(i < 0 or i >= n for i in v):
            raise FormatError(f"task file {path}: {k} index out of range for dataset of {n}")
    indices = {k: np.asarray(v, dtype=np.int64) for k, v in raw.items()}
    _check_task_invariants(path, ds.labels, indices, doc["anomaly_class"])
    return data.task_from_indices(ds, indices, doc["anomaly_class"], doc["seed"])


def _check_task_invariants(path, labels, idx, anomaly_class):
    """ConsistencyError unless the train splits are equal-sized, train and
    test are disjoint, and each split holds only the labels its role allows."""
    train = np.concatenate([idx["train_normal"], idx["train_anomalous"]])
    test = np.concatenate([idx["test_normal"], idx["test_anomalous"]])
    problems = []
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
    ds, input_files = _load_dataset(args)
    task = data.build_anomaly_task(
        ds, args.anomaly_class, args.train_per_class, args.test_per_class, args.seed
    )
    with open(args.out, "w") as f:
        json.dump(_task_doc(task, input_files), f, sort_keys=True)
        f.write("\n")
    _write_manifest(
        args.out + ".manifest.json", "make-task",
        {**_dataset_params(args), "anomaly_class": args.anomaly_class,
         "train_per_class": args.train_per_class, "test_per_class": args.test_per_class,
         "seed": args.seed},
        input_files, [args.out],
    )
    print(f"task: anomaly class {args.anomaly_class}, "
          f"{args.train_per_class}/{args.train_per_class} train, "
          f"{args.test_per_class}/{args.test_per_class} test -> {args.out}")
    return 0


def cmd_validate_task(args):
    ds, _ = _load_dataset(args)
    _resolve_task(args.task, ds, [])
    print(f"task {args.task} passes all invariant checks")
    return 0


def _freeze_for(args, model):
    n_param = len(model.parameterized_layers())
    if args.strategy == "fixed":
        if args.freeze_depth is not None and args.freeze_depth != n_param - 1:
            raise ContractError(
                f"--strategy fixed freezes all {n_param - 1} non-head layers; "
                f"--freeze-depth {args.freeze_depth} conflicts"
            )
        return transfer.STRATEGY_FIXED, transfer.FreezePolicy(n_param - 1)
    depth = args.freeze_depth if args.freeze_depth is not None else n_param - 2
    return transfer.STRATEGY_FINE_TUNE, transfer.FreezePolicy(depth)


def cmd_transfer(args):
    ds, input_files = _load_dataset(args)
    source = nn.load_weights(args.source_weights)
    task = _resolve_task(args.task, ds, input_files)
    hw = source.input_shape[1:]
    ptask = data.preprocess_task(task, hw)

    strategy, policy = _freeze_for(args, source)
    model = transfer.replace_head(source, 2, args.seed)
    model = transfer.apply_freeze(model, policy)
    config = transfer.TransferConfig(
        strategy=strategy, freeze=policy, lr0=args.lr, epochs=args.epochs,
        seed=args.seed, batch_size=args.batch_size,
        model_selection=args.model_selection,
    )
    trained, record = transfer.train_target(model, ptask, config)
    nn.save_weights(trained, args.out)
    record_path = args.out + ".record.csv"
    record.to_csv(record_path)
    _write_manifest(
        args.out + ".manifest.json", "transfer",
        {**_dataset_params(args), "strategy": args.strategy,
         "freeze_depth": policy.frozen_layer_count, "source_weights": args.source_weights,
         "task": args.task, "epochs": args.epochs, "lr": args.lr,
         "batch_size": args.batch_size, "model_selection": args.model_selection,
         "seed": args.seed},
        input_files + [args.source_weights, args.task], [args.out, record_path],
    )
    sel = record.selected_epoch
    val = record.epochs[sel].val_auc if record.epochs else None
    print(f"transfer ({strategy}, freeze depth {policy.frozen_layer_count}): "
          f"selected epoch {sel}" + (f", val AUC {val:.4f}" if val is not None else "")
          + f"; weights -> {args.out}")
    return 0


def _score_test_split(model, test_normal, test_anomalous):
    """Score preprocessed test images; normal ones are labelled 0, anomalous 1."""
    x = np.concatenate([np.asarray(test_normal), np.asarray(test_anomalous)])
    y = np.concatenate([
        np.zeros(len(test_normal), dtype=np.int64),
        np.ones(len(test_anomalous), dtype=np.int64),
    ])
    return ScoredSet(anomaly_scores(model, x), y)


def cmd_evaluate(args):
    ds, input_files = _load_dataset(args)
    model = nn.load_weights(args.weights)
    task = _resolve_task(args.task, ds, input_files)
    hw = model.input_shape[1:]
    scored = _score_test_split(model, data.preprocess_split(task.test_normal, hw),
                               data.preprocess_split(task.test_anomalous, hw))

    auc = auc_trapezoid(scored)
    oracle = auc_pairwise_oracle(scored)
    if abs(auc - oracle) > AUC_AGREEMENT_TOL:
        raise ConsistencyError(
            f"AUC implementations disagree: trapezoid {auc!r} vs pairwise {oracle!r}"
        )
    report = evaluate_scores(scored, args.threshold)

    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "report.json")
    roc_path = os.path.join(args.out_dir, "roc.csv")
    scores_path = os.path.join(args.out_dir, "scores.csv")
    emit_report(report, report_path, "json")
    emit_report(report, roc_path, "csv")
    write_scores_csv(scored, scores_path)
    _write_manifest(
        os.path.join(args.out_dir, "evaluate.manifest.json"), "evaluate",
        {**_dataset_params(args), "weights": args.weights, "task": args.task,
         "threshold": args.threshold},
        input_files + [args.weights, args.task],
        [report_path, roc_path, scores_path],
    )

    c = report.confusion
    print(f"test AUC        {report.auc:.6f}  (pairwise oracle agrees within {AUC_AGREEMENT_TOL})")
    print(f"threshold       {args.threshold}")
    print("confusion          predicted")
    print("                 anom    normal   total")
    print(f"actual anom    {c.tp:6d}  {c.fn:8d}  {c.tp + c.fn:6d}")
    print(f"actual normal  {c.fp:6d}  {c.tn:8d}  {c.fp + c.tn:6d}")
    print(f"total          {c.tp + c.fp:6d}  {c.fn + c.tn:8d}  {c.total:6d}")
    for name, m in (("anomalous", report.metrics_anomalous), ("normal", report.metrics_normal)):
        fmt = lambda v: "undefined" if v is None else f"{v:.5f}"
        print(f"{name:<9} precision {fmt(m.precision)}  recall {fmt(m.recall)}  f1 {fmt(m.f1)}")
    return 0


def cmd_benchmark(args):
    ds, input_files = _load_dataset(args)
    source = nn.load_weights(args.source_weights)
    hw = source.input_shape[1:]
    os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    outputs = []
    for cls in range(len(ds.class_names)):
        task = data.build_anomaly_task(
            ds, cls, args.train_per_class, args.test_per_class, args.seed
        )
        task_path = os.path.join(args.out_dir, f"task_{cls}.json")
        with open(task_path, "w") as f:
            json.dump(_task_doc(task, input_files), f, sort_keys=True)
            f.write("\n")

        ptask = data.preprocess_task(task, hw)
        strategy, policy = _freeze_for(args, source)
        model = transfer.replace_head(source, 2, args.seed + cls)
        model = transfer.apply_freeze(model, policy)
        config = transfer.TransferConfig(
            strategy=strategy, freeze=policy, lr0=args.lr, epochs=args.epochs,
            seed=args.seed + cls, batch_size=args.batch_size,
        )
        trained, record = transfer.train_target(model, ptask, config)

        weights_path = os.path.join(args.out_dir, f"weights_{cls}.xfaw")
        record_path = os.path.join(args.out_dir, f"record_{cls}.csv")
        nn.save_weights(trained, weights_path)
        record.to_csv(record_path)

        scored = _score_test_split(trained, ptask.test_normal, ptask.test_anomalous)
        auc = auc_trapezoid(scored)
        oracle = auc_pairwise_oracle(scored)
        if abs(auc - oracle) > AUC_AGREEMENT_TOL:
            raise ConsistencyError(
                f"AUC implementations disagree on class {cls}: {auc!r} vs {oracle!r}"
            )
        report = evaluate_scores(scored, 0.5)
        report_path = os.path.join(args.out_dir, f"report_{cls}.json")
        emit_report(report, report_path, "json")

        rows.append((cls, auc))
        outputs += [task_path, weights_path, record_path, report_path]
        print(f"class {cls}: test AUC {auc:.6f}")

    csv_path = os.path.join(args.out_dir, "benchmark.csv")
    with open(csv_path, "w") as f:
        f.write("class,auc\n")
        for cls, auc in rows:
            f.write(f"{cls},{auc!r}\n")
        mean = sum(a for _, a in rows) / len(rows)
        f.write(f"mean,{mean!r}\n")
    outputs.append(csv_path)
    _write_manifest(
        os.path.join(args.out_dir, "benchmark.manifest.json"), "benchmark",
        {**_dataset_params(args), "source_weights": args.source_weights,
         "strategy": args.strategy, "freeze_depth": args.freeze_depth,
         "train_per_class": args.train_per_class, "test_per_class": args.test_per_class,
         "epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
         "seed": args.seed},
        input_files + [args.source_weights], outputs,
    )
    print(f"mean AUC over {len(rows)} one-vs-rest classes: {mean:.6f} -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    p = argparse.ArgumentParser(
        prog="xferad",
        description="Transfer-learning toolkit for image anomaly detection "
                    "(pretrain, transplant, fine-tune, evaluate).",
    )
    p.add_argument("--version", action="version", version=f"xferad {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("make-synth", help="write a synthetic digit corpus as IDX files")
    s.add_argument("--per-class", type=int, default=500)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-images", required=True)
    s.add_argument("--out-labels", required=True)
    s.set_defaults(fn=cmd_make_synth)

    s = sub.add_parser("pretrain", help="train the source network from scratch")
    _add_dataset_args(s)
    s.add_argument("--classes", default="0,1,2,3,4,5,6,7",
                   help="comma-separated source class indices")
    s.add_argument("--per-class", type=int, default=500)
    s.add_argument("--epochs", type=int, default=10)
    s.add_argument("--lr", type=float, default=transfer.PRETRAIN_LR)
    s.add_argument("--batch-size", type=int, default=16)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="weight file to write")
    s.set_defaults(fn=cmd_pretrain)

    s = sub.add_parser("make-task", help="build a one-vs-rest anomaly task index file")
    _add_dataset_args(s)
    s.add_argument("--anomaly-class", type=int, required=True)
    s.add_argument("--train-per-class", type=int, required=True)
    s.add_argument("--test-per-class", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_make_task)

    s = sub.add_parser("validate-task", help="re-check a task file's invariants")
    _add_dataset_args(s)
    s.add_argument("--task", required=True)
    s.set_defaults(fn=cmd_validate_task)

    s = sub.add_parser("transfer", help="replace head, freeze, train on a task")
    _add_dataset_args(s)
    s.add_argument("--strategy", choices=["fixed", "finetune"], default="finetune")
    s.add_argument("--freeze-depth", type=int, default=None,
                   help="parameterized layers to freeze (finetune default: all conv blocks but the last)")
    s.add_argument("--source-weights", required=True)
    s.add_argument("--task", required=True)
    s.add_argument("--epochs", type=int, default=50)
    s.add_argument("--lr", type=float, default=1e-3)
    s.add_argument("--batch-size", type=int, default=16)
    s.add_argument("--model-selection", choices=[transfer.SELECT_BEST_VAL_AUC, transfer.SELECT_LAST_EPOCH],
                   default=transfer.SELECT_BEST_VAL_AUC)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="weight file to write")
    s.set_defaults(fn=cmd_transfer)

    s = sub.add_parser("evaluate", help="score a task's test split and emit reports")
    _add_dataset_args(s)
    s.add_argument("--weights", required=True)
    s.add_argument("--task", required=True)
    s.add_argument("--threshold", type=float, default=0.5)
    s.add_argument("--out-dir", required=True)
    s.set_defaults(fn=cmd_evaluate)

    s = sub.add_parser("benchmark", help="every one-vs-rest task of the dataset, one AUC per class")
    _add_dataset_args(s)
    s.add_argument("--source-weights", required=True)
    s.add_argument("--strategy", choices=["fixed", "finetune"], default="finetune")
    s.add_argument("--freeze-depth", type=int, default=None)
    s.add_argument("--train-per-class", type=int, default=1000)
    s.add_argument("--test-per-class", type=int, default=1000)
    s.add_argument("--epochs", type=int, default=8)
    s.add_argument("--lr", type=float, default=1e-3)
    s.add_argument("--batch-size", type=int, default=16)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", required=True)
    s.set_defaults(fn=cmd_benchmark)

    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (ContractError, ShapeError, UndefinedMetricError, XferadError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
