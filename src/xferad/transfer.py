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
from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .data import batch_iter
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
        for xb, yb in batch_iter(inputs, labels, config.batch_size, True, config.seed, epoch):
            tape = T.Tape()
            logits = net.forward(T.Tensor(xb), tape)
            loss = T.softmax_cross_entropy(logits, yb, tape)
            T.backward(loss, tape)
            nn.sgd_step(model, state)
            nn.zero_grads(model)
            total += float(loss.data) * len(yb)
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


def _frozen_prefix_length(model):
    """Index k of the first layer with trainable parameters.

    layers[:k] cannot change during training. When every layer is frozen
    k is the head's index, so the head still runs in the training loop.
    """
    for i, layer in enumerate(model.layers):
        if layer.params() and layer.trainable:
            return i
    return len(model.layers) - 1


def _prefix_activations(model, k, x):
    """Output of model.layers[:k] on x, tape-free, in chunks of INFER_BATCH.

    Every layer of the family maps each sample on its own (conv is one
    matmul per sample of the stacked batch), so the activations are
    bit-identical to those of any other batching. k == 0 returns x.
    """
    if k == 0:
        return x
    out = None
    for start in range(0, len(x), INFER_BATCH):
        a = model.forward(T.Tensor(x[start:start + INFER_BATCH]), upto=k).data
        if out is None:
            out = np.empty((len(x),) + a.shape[1:], dtype=a.dtype)
        out[start:start + len(a)] = a
    return out


def train_target(model, task, config):
    """Train the 2-class target model on an anomaly task.

    Holds out a seeded stratified val_fraction of the training data for
    per-epoch validation AUC, trains the rest with shuffled minibatches,
    and returns the model of the selected epoch plus the TrainRecord.
    The frozen prefix runs once per sample: training and validation run
    only the trainable suffix, on cached prefix activations.
    """
    k = _frozen_prefix_length(model)
    if model.num_classes != 2:
        raise ContractError(f"target model must have 2 outputs, got {model.num_classes}")
    x_norm = np.asarray(task.train_normal, dtype=np.float32)
    x_anom = np.asarray(task.train_anomalous, dtype=np.float32)
    if len(x_norm) == 0 or len(x_anom) == 0 or len(task.test_normal) == 0 or len(task.test_anomalous) == 0:
        raise CapacityError("task splits must be non-empty")
    if config.strategy == STRATEGY_FIXED and k != len(model.layers) - 1:
        raise ContractError(
            "fixed_extractor strategy requires every layer except the head frozen "
            f"(the frozen prefix holds {k} of the {len(model.layers) - 1} layers before the head)"
        )

    val_n_idx, val_a_idx = _stratified_val_split(
        len(x_norm), len(x_anom), config.val_fraction, config.seed
    )
    mask_n = np.zeros(len(x_norm), dtype=bool)
    mask_n[val_n_idx] = True
    mask_a = np.zeros(len(x_anom), dtype=bool)
    mask_a[val_a_idx] = True

    x_train = np.concatenate([x_norm[~mask_n], x_anom[~mask_a]])
    y_train = np.concatenate([
        np.zeros(int((~mask_n).sum()), dtype=np.int64),
        np.ones(int((~mask_a).sum()), dtype=np.int64),
    ])
    x_val = np.concatenate([x_norm[mask_n], x_anom[mask_a]])
    y_val = np.concatenate([
        np.zeros(len(val_n_idx), dtype=np.int64),
        np.ones(len(val_a_idx), dtype=np.int64),
    ])

    trained = model.copy()
    best = {"auc": -1.0, "model": trained.copy()}
    net = trained.suffix(k)
    a_train = _prefix_activations(trained, k, x_train)
    a_val = _prefix_activations(trained, k, x_val)
    del x_train, x_val  # training needs only the cache; free the input copies

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
