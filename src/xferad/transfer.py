"""Source pretraining, head replacement, freeze policies, and target-task
training under the two transfer strategies (fixed feature extractor vs.
fine-tuning).

All randomness flows from explicit integer seeds, so a whole
pretrain -> replace_head -> train_target pipeline is bit-reproducible.
None of these functions mutates its input model; trained copies are
returned.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import data, nn
from . import tensor as T
from .errors import CapacityError, ContractError
from .evaluate import INFER_BATCH, ScoredSet, anomaly_scores, auc_trapezoid

STRATEGY_FIXED = "fixed_extractor"
STRATEGY_FINE_TUNE = "fine_tune"

SELECT_BEST_VAL_AUC = "best_val_auc"
SELECT_LAST_EPOCH = "last_epoch"

# pretraining default is deliberately higher than the transfer default
# (1e-3), keeping fine-tuning slower-moving than normal training
PRETRAIN_LR = 1e-2

# the optimizer settings of every run; only the learning rate is settable
SGD_DECAY = 1e-6
SGD_MOMENTUM = 0.9


@dataclass
class FreezePolicy:
    """Number of leading parameterized layers to make non-trainable.

    The classification head is always left trainable, so the count must
    stay below the number of parameterized layers.
    """

    frozen_layer_count: int = 0

    @staticmethod
    def fixed_extractor(model):
        """Freeze everything except the head."""
        return FreezePolicy(len(model.parameterized_layers()) - 1)


@dataclass
class TransferConfig:
    """Strategy, freeze depth, learning rate and loop settings for one run."""

    strategy: str = STRATEGY_FINE_TUNE
    freeze: FreezePolicy = field(default_factory=FreezePolicy)
    lr0: float = 1e-3
    batch_size: int = 16
    epochs: int = 50
    seed: int = 0
    model_selection: str = SELECT_BEST_VAL_AUC
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.strategy not in (STRATEGY_FIXED, STRATEGY_FINE_TUNE):
            raise ContractError(f"unknown strategy {self.strategy!r}")
        if self.model_selection not in (SELECT_BEST_VAL_AUC, SELECT_LAST_EPOCH):
            raise ContractError(f"unknown model_selection {self.model_selection!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ContractError(f"val_fraction must be in (0,1), got {self.val_fraction}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ContractError("epochs must be >= 0 and batch_size >= 1")

    def make_sgd(self):
        return nn.SgdState(self.lr0, SGD_DECAY, SGD_MOMENTUM, nesterov=True)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_auc: float | None
    lr: float


@dataclass
class TrainRecord:
    """Per-epoch statistics plus the index of the selected epoch."""

    epochs: list
    selected_epoch: int

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "train_loss", "val_auc", "lr"])
            for e in self.epochs:
                w.writerow([
                    e.epoch,
                    repr(e.train_loss),
                    "" if e.val_auc is None else repr(e.val_auc),
                    repr(e.lr),
                ])


def _train_epochs(model, inputs, labels, config, evaluate_epoch=None, net=None):
    """Shared loop: per epoch, shuffled minibatch SGD; optional epoch hook.

    net is the graph run on inputs: model itself by default, or
    model.suffix(k) with inputs the cached activations entering layer k.
    The optimizer steps model, so velocities and errors stay keyed by
    its parameter names.
    """
    net = model if net is None else net
    state = config.make_sgd()
    record = []
    for epoch in range(config.epochs):
        total, seen = 0.0, 0
        lr_at_start = state.effective_lr()
        batches = data.batch_iter(inputs, labels, config.batch_size, True, config.seed, epoch)
        for step, (xb, yb) in enumerate(batches):
            tape = T.Tape()
            logits = net.forward(T.Tensor(xb), tape)
            loss = T.softmax_cross_entropy(logits, yb, tape)
            value = float(loss.data)
            if not math.isfinite(value):
                raise ContractError(
                    f"training diverged: loss {value} at epoch {epoch}, step {step} "
                    f"(learning rate {state.effective_lr()!r})"
                )
            T.backward(loss, tape)
            nn.sgd_step(model, state)
            nn.zero_grads(model)
            total += value * len(yb)
            seen += len(yb)
        val = evaluate_epoch() if evaluate_epoch is not None else None
        record.append(EpochStats(epoch, total / max(seen, 1), val, lr_at_start))
    return record


def pretrain_source(model, source_set, config):
    """Train the source network on its multi-class task.

    Returns (trained copy, TrainRecord); the record's val_auc column is
    empty (source training keeps the last epoch, no model selection).
    """
    labels = np.asarray(source_set.labels)
    if len(np.unique(labels)) < 2:
        raise ContractError("source set needs at least 2 classes")
    if int(labels.max()) + 1 > model.num_classes:
        raise ContractError(
            f"model has {model.num_classes} outputs but labels go up to {int(labels.max())}"
        )
    images = np.asarray(source_set.images, dtype=np.float32)

    trained = model.copy()
    stats = _train_epochs(trained, images, labels, config)
    return trained, TrainRecord(stats, selected_epoch=max(len(stats) - 1, 0))


def replace_head(model, num_classes, seed):
    """Swap the final dense layer for a fresh He-initialized one.

    Every non-head parameter of the returned model is bit-identical to
    the input model's; the input model is untouched.
    """
    out = model.copy()
    if not out.layers or out.layers[-1].kind != "dense":
        raise ContractError("model must end in a dense layer to replace its head")
    old = out.layers[-1]
    rng = np.random.default_rng(seed)
    head = nn.Dense(old.weight.shape[0], num_classes, rng=rng, dtype=old.weight.dtype)
    out.layers[-1] = head
    out.num_classes = int(num_classes)
    return out


def apply_freeze(model, policy):
    """Mark the first frozen_layer_count parameterized layers non-trainable.

    The head must stay trainable; the input model is untouched.
    """
    out = model.copy()
    plist = out.parameterized_layers()
    k = policy.frozen_layer_count
    if k < 0 or k > len(plist) - 1:
        raise ContractError(
            f"freeze depth {k} out of range: model has {len(plist)} parameterized layers "
            "and the head must stay trainable"
        )
    for i, layer in enumerate(plist):
        layer.trainable = i >= k
    return out


def _stratified_val_split(n_normal, n_anomalous, val_fraction, seed):
    """Held-out index sets per class; errors if either side would empty a class."""
    rng = np.random.default_rng([seed, 2])
    picks = []
    for n in (n_normal, n_anomalous):
        k = int(round(val_fraction * n))
        if k < 1 or n - k < 1:
            raise CapacityError(
                f"val fraction {val_fraction} leaves an empty split for a class of {n} samples"
            )
        picks.append(np.sort(rng.permutation(n)[:k]))
    return picks


def frozen_prefix_length(model):
    """Index k of the first layer with trainable parameters.

    layers[:k] cannot change during training. When every layer is frozen
    k is the head's index. ContractError if a layer has some parameters
    frozen and others trainable: the prefix would hide its trainable ones.
    """
    flags = {}
    for name, p in model.named_parameters():
        flags.setdefault(name.split(".")[0], set()).add(p.requires_grad)
    for layer, f in flags.items():
        if len(f) > 1:
            raise ContractError(
                f"layer {layer} is partly frozen; freeze all of its parameters or none"
            )
    for i, layer in enumerate(model.layers):
        if layer.params() and layer.trainable:
            return i
    return len(model.layers) - 1


def prefix_features(model, k, images, index):
    """Activations entering model.layers[k] for the raw images[index],
    tape-free, in index order; index must be non-empty.

    Each chunk of INFER_BATCH samples is gathered, preprocessed to the
    model's input size and run through layers[:k] (k == 0 stops after
    preprocessing), so the preprocessed images are never all held at
    once. Every layer of the family maps each sample on its own (conv is
    one matmul per sample of the stacked batch), so the activations are
    bit-identical to those of any other batching.
    """
    hw = model.input_shape[1:]
    out = None
    for start in range(0, len(index), INFER_BATCH):
        x = data.preprocess_split(data.gather(images, index[start:start + INFER_BATCH]), hw)
        a = model.forward(T.Tensor(x), upto=k).data
        if out is None:
            out = np.empty((len(index),) + a.shape[1:], dtype=a.dtype)
        out[start:start + len(a)] = a
    return out


def _check_target(model, config):
    """Frozen prefix length k of model; ContractError unless model is a
    2-class target with a trainable head whose prefix suits config's
    strategy."""
    head = len(model.layers) - 1
    if model.num_classes != 2:
        raise ContractError(f"target model must have 2 outputs, got {model.num_classes}")
    if not model.layers[head].trainable:
        raise ContractError(
            f"the head (layer {head}, {model.layers[head].kind}) is frozen; "
            "it must stay trainable"
        )
    k = frozen_prefix_length(model)
    if config.strategy == STRATEGY_FIXED and k != head:
        raise ContractError(
            "fixed_extractor strategy requires every layer except the head frozen "
            f"(the frozen prefix holds {k} of the {head} layers before the head)"
        )
    return k


def train_target(model, task, config):
    """Train the 2-class target model on an anomaly task.

    Runs the frozen prefix once per train sample (prefix_features, which
    also preprocesses raw images) and fits the rest as train_suffix does.
    """
    k = _check_target(model, config)
    splits = (task.train_normal, task.train_anomalous, task.test_normal, task.test_anomalous)
    if any(len(s) == 0 for s in splits):
        raise CapacityError("task splits must be non-empty")
    normal, anomalous = (
        prefix_features(model, k, s, np.arange(len(s))) for s in splits[:2]
    )
    return _fit_suffix(model, k, normal, anomalous, config)


def train_suffix(model, normal, anomalous, config):
    """Train the 2-class target model on its train splits' activations
    entering layer frozen_prefix_length(model) (see prefix_features).

    Holds out a seeded stratified val_fraction of the training data for
    per-epoch validation AUC, trains the suffix with shuffled minibatches,
    and returns the model of the selected epoch plus the TrainRecord.
    """
    k = _check_target(model, config)
    if len(normal) == 0 or len(anomalous) == 0:
        raise CapacityError("task splits must be non-empty")
    return _fit_suffix(model, k, normal, anomalous, config)


def _fit_suffix(model, k, normal, anomalous, config):
    """train_suffix on a checked model whose frozen prefix length is k."""
    val_n_idx, val_a_idx = _stratified_val_split(
        len(normal), len(anomalous), config.val_fraction, config.seed
    )
    mask_n = np.zeros(len(normal), dtype=bool)
    mask_n[val_n_idx] = True
    mask_a = np.zeros(len(anomalous), dtype=bool)
    mask_a[val_a_idx] = True

    a_train = np.concatenate([normal[~mask_n], anomalous[~mask_a]])
    y_train = np.concatenate([
        np.zeros(int((~mask_n).sum()), dtype=np.int64),
        np.ones(int((~mask_a).sum()), dtype=np.int64),
    ])
    a_val = np.concatenate([normal[mask_n], anomalous[mask_a]])
    y_val = np.concatenate([
        np.zeros(len(val_n_idx), dtype=np.int64),
        np.ones(len(val_a_idx), dtype=np.int64),
    ])

    trained = model.copy()
    best = {"auc": -1.0, "model": trained.copy()}
    net = trained.suffix(k)

    def evaluate_epoch():
        auc = auc_trapezoid(ScoredSet(anomaly_scores(net, a_val), y_val))
        if auc > best["auc"]:
            best["auc"] = auc
            best["model"] = trained.copy()
        return auc

    stats = _train_epochs(trained, a_train, y_train, config, evaluate_epoch, net)

    if config.epochs == 0:
        return trained, TrainRecord([], selected_epoch=0)
    if config.model_selection == SELECT_BEST_VAL_AUC:
        aucs = [e.val_auc for e in stats]
        selected = int(np.argmax(aucs))
        return best["model"], TrainRecord(stats, selected_epoch=selected)
    return trained, TrainRecord(stats, selected_epoch=len(stats) - 1)
