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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import data, evaluate, nn
from . import tensor as T
from .errors import CapacityError, ContractError
from .evaluate import ScoredSet, anomaly_scores, auc_trapezoid

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

# share of each train split that target training holds out for validation
VAL_FRACTION = 0.1


@dataclass
class FreezePolicy:
    """Number of leading parameterized layers to make non-trainable.

    The classification head is always left trainable, so the count must
    stay below the number of parameterized layers.
    """

    frozen_layer_count: int = 0


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

    def __post_init__(self):
        if self.strategy not in (STRATEGY_FIXED, STRATEGY_FINE_TUNE):
            raise ContractError(f"unknown strategy {self.strategy!r}")
        if self.model_selection not in (SELECT_BEST_VAL_AUC, SELECT_LAST_EPOCH):
            raise ContractError(f"unknown model_selection {self.model_selection!r}")
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
        """One column per EpochStats field; None is written empty."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow([c.name for c in fields(EpochStats)])
            w.writerows(["" if v is None else repr(v) for v in astuple(e)] for e in self.epochs)


def _train_epochs(model, rows, labels, config, val=None, k=0):
    """Shared loop: per epoch, shuffled minibatch SGD on model.suffix(k),
    whose input for a batch of sample indices ix is rows(ix): the
    activations entering layer k (k == 0: model).

    The optimizer steps model, so velocities and errors stay keyed by its
    parameter names. With val = (inputs, labels) each epoch records its
    val AUC, and under best_val_auc the first epoch of the highest one is
    selected; otherwise the last epoch is. Returns (the selected epoch's
    model, TrainRecord): model itself, trained in place, unless an
    earlier best epoch was copied.
    """
    net = model.suffix(k)
    state = config.make_sgd()
    pick_best = val is not None and config.model_selection == SELECT_BEST_VAL_AUC
    selected, best, best_auc = max(config.epochs - 1, 0), model, -1.0
    record, order = [], np.arange(len(labels))
    for epoch in range(config.epochs):
        total, seen = 0.0, 0
        lr_at_start = state.effective_lr()
        batches = data.batch_iter(order, labels, config.batch_size, True, config.seed, epoch)
        for step, (ix, yb) in enumerate(batches):
            tape = T.Tape()
            logits = net.forward(T.Tensor(rows(ix)), tape)
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
        auc = None if val is None else auc_trapezoid(ScoredSet(anomaly_scores(net, val[0]), val[1]))
        record.append(EpochStats(epoch, total / max(seen, 1), auc, lr_at_start))
        if pick_best and auc > best_auc:
            selected, best, best_auc = epoch, model.copy(), auc
    return best, TrainRecord(record, selected)


def pretrain_source(model, source_set, config):
    """Train the source network on its multi-class task.

    source_set holds raw images (a loader's uint8 pixels, say); each batch
    is preprocessed to the model's input size as it is drawn, so one batch
    is held preprocessed, never the set. Returns (trained copy,
    TrainRecord); the record's val_auc column is empty (source training
    keeps the last epoch, no model selection).
    """
    labels = np.asarray(source_set.labels)
    if len(np.unique(labels)) < 2:
        raise ContractError("source set needs at least 2 classes")
    if int(labels.max()) + 1 > model.num_classes:
        raise ContractError(
            f"model has {model.num_classes} outputs but labels go up to {int(labels.max())}"
        )
    images, hw = source_set.images, model.input_shape[1:]
    return _train_epochs(
        model.copy(), lambda ix: data.preprocess_split(data.gather(images, ix), hw), labels, config
    )


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


def _freeze_flags(model, policy):
    """requires_grad of each of model.named_parameters() under policy;
    ContractError if policy would freeze the head."""
    layers = model.parameterized_layers()
    k = policy.frozen_layer_count
    if k < 0 or k > len(layers) - 1:
        raise ContractError(
            f"freeze depth {k} out of range: model has {len(layers)} parameterized layers "
            "and the head must stay trainable"
        )
    return [i >= k for i, layer in enumerate(layers) for _ in layer.params()]


def apply_freeze(model, policy):
    """Mark the first frozen_layer_count parameterized layers non-trainable.

    The head must stay trainable; the input model is untouched.
    """
    out = model.copy()
    for (_, p), flag in zip(out.named_parameters(), _freeze_flags(out, policy)):
        p.requires_grad = flag
    return out


def _stratified_val_split(n_normal, n_anomalous, seed):
    """Held-out VAL_FRACTION index sets per class; errors if either side
    would empty a class."""
    rng = np.random.default_rng([seed, 2])
    picks = []
    for n in (n_normal, n_anomalous):
        k = int(round(VAL_FRACTION * n))
        if k < 1 or n - k < 1:
            raise CapacityError(
                f"val fraction {VAL_FRACTION} leaves an empty split for a class of {n} samples"
            )
        picks.append(np.sort(rng.permutation(n)[:k]))
    return picks


def prefix_features(model, k, images, index):
    """Activations entering model.layers[k] for the raw images[index],
    tape-free, in index order; index must be non-empty.

    Each chunk of evaluate.INFER_BATCH samples is gathered, preprocessed
    to the model's input size and run through layers[:k] (k == 0 stops
    after preprocessing), so the preprocessed images are never all held
    at once. Every layer of the family maps each sample on its own (conv is
    one matmul per sample of the stacked batch), so the activations are
    bit-identical to those of any other batching.

    The first chunk runs on the calling thread and fixes the output's shape
    and dtype. The rest are shared between the calling thread and one
    helper thread per further usable CPU (none with one CPU or one chunk),
    each writing its chunks' rows; the helpers are joined before return. If
    chunks fail, the earliest one's error is raised, as a serial loop would.
    """
    hw, step = model.input_shape[1:], evaluate.INFER_BATCH

    def run(start):
        x = data.preprocess_split(data.gather(images, index[start:start + step]), hw)
        return model.forward(T.Tensor(x), upto=k).data

    first = run(0)
    out = np.empty((len(index),) + first.shape[1:], dtype=first.dtype)
    out[:len(first)] = first
    starts, lock, failures = iter(range(step, len(index), step)), threading.Lock(), []

    def work():
        # a chunk taken after a failure was recorded lies past it, so skip it
        while not failures:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            try:
                out[start:start + step] = run(start)
            except BaseException as e:  # an interrupt too: it stops the others, raised below
                failures.append((start, e))

    helpers = min(T._usable_cpus(), math.ceil(len(index) / step)) - 1
    with ThreadPoolExecutor(max(helpers, 1)) as pool:  # a thread starts only on submit
        for _ in range(helpers):
            pool.submit(work)
        work()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return out


def check_target(model, config):
    """Frozen prefix length k of a 2-class target model: the position of
    parameterized layer number config.freeze.frozen_layer_count.

    ContractError unless each parameter's requires_grad is the flag
    apply_freeze(model, config.freeze) sets, which rejects a frozen head, a
    partly frozen layer and a model frozen to another depth, and unless a
    fixed_extractor config's depth leaves only the head trainable.
    """
    if model.num_classes != 2:
        raise ContractError(f"target model must have 2 outputs, got {model.num_classes}")
    depth = config.freeze.frozen_layer_count
    positions = [i for i, layer in enumerate(model.layers) if layer.params()]
    if config.strategy == STRATEGY_FIXED and depth != len(positions) - 1:
        raise ContractError(
            f"fixed_extractor strategy needs freeze depth {len(positions) - 1} (every "
            f"parameterized layer before the head), got {depth}"
        )
    state = ("frozen", "trainable")
    for (name, p), flag in zip(model.named_parameters(), _freeze_flags(model, config.freeze)):
        if p.requires_grad != flag:
            raise ContractError(
                f"{name} is {state[p.requires_grad]}, but freeze depth {depth} "
                f"makes it {state[flag]}"
            )
    return positions[depth]


def train_target(model, task, config):
    """Train the 2-class target model on an anomaly task.

    Runs the frozen prefix once per train sample (prefix_features, which
    also preprocesses raw images), then train_suffix on those activations.
    """
    k = check_target(model, config)
    splits = (task.train_normal, task.train_anomalous, task.test_normal, task.test_anomalous)
    if any(len(s) == 0 for s in splits):
        raise CapacityError("task splits must be non-empty")
    return train_suffix(
        model, *(prefix_features(model, k, s, np.arange(len(s))) for s in splits[:2]), config
    )


def train_suffix(model, normal, anomalous, config):
    """Train the 2-class target model on its train splits' activations
    entering layer check_target(model, config) (see prefix_features).

    Holds out a seeded stratified VAL_FRACTION of each split for per-epoch
    validation AUC (CapacityError if either part of a split would be empty,
    so an empty split too), trains the suffix with shuffled minibatches,
    and returns the model of the selected epoch plus the TrainRecord.
    """
    k = check_target(model, config)
    val_n, val_a = _stratified_val_split(len(normal), len(anomalous), config.seed)
    train_n, train_a = np.delete(normal, val_n, axis=0), np.delete(anomalous, val_a, axis=0)
    y_train = np.repeat([0, 1], [len(train_n), len(train_a)])
    y_val = np.repeat([0, 1], [len(val_n), len(val_a)])
    val = (np.concatenate([normal[val_n], anomalous[val_a]]), y_val)
    train = np.concatenate([train_n, train_a])
    return _train_epochs(model.copy(), lambda ix: train[ix], y_train, config, val, k)
