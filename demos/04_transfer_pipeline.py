"""The whole point of the toolkit: network-based transfer to anomaly detection.

Pretrain on eight digit classes, replace the softmax head with a fresh
two-neuron layer, then train the target task both ways: head-only
(fixed feature extractor) and with the last conv block unfrozen
(fine-tuning).
"""

import numpy as np

from xferad import data, nn, synth, transfer
from xferad.evaluate import ScoredSet, anomaly_scores, auc_trapezoid

SIZE = (16, 16)
SOURCE_CLASSES = tuple(range(8))   # digits 8 and 9 unseen during pretraining

print("1) pretraining the source network on digits 0-7...")
src_ds = synth.make_digit_set(per_class=80, seed=10, classes=SOURCE_CLASSES)
x = data.preprocess_split(list(src_ds.images), SIZE)
source_set = data.LabeledImageSet(x, src_ds.labels, src_ds.class_names)
source = nn.build_small_convnet((3, *SIZE), 8, seed=0)
config = transfer.TransferConfig(lr0=transfer.PRETRAIN_LR, epochs=10, seed=1)
source, rec = transfer.pretrain_source(source, source_set, config)
print(f"   final pretraining loss: {rec.epochs[-1].train_loss:.4f}")

print("2) building the digit-9-vs-rest target task...")
task_ds = synth.make_digit_set(per_class=150, seed=20)
task = data.build_anomaly_task(task_ds, anomaly_class=9, train_per_class=100,
                               test_per_class=40, seed=2)
test_x = np.concatenate([data.preprocess_split(task.test_normal, SIZE),
                         data.preprocess_split(task.test_anomalous, SIZE)])


def test_auc(model):
    ys = np.concatenate([np.zeros(40, np.int64), np.ones(40, np.int64)])
    return auc_trapezoid(ScoredSet(anomaly_scores(model, test_x), ys))


for label, strategy, depth, lr in [
    ("fixed feature extractor", transfer.STRATEGY_FIXED, 3, 1e-2),
    ("fine-tune last conv block", transfer.STRATEGY_FINE_TUNE, 2, 1e-3),
]:
    print(f"3) {label}: replace head, freeze depth {depth}, train...")
    model = transfer.replace_head(source, 2, seed=3)
    model = transfer.apply_freeze(model, transfer.FreezePolicy(depth))
    cfg = transfer.TransferConfig(
        strategy=strategy, freeze=transfer.FreezePolicy(depth),
        lr0=lr, epochs=8, seed=4,
    )
    trained, record = transfer.train_target(model, task, cfg)
    sel = record.selected_epoch
    print(f"   selected epoch {sel} (val AUC {record.epochs[sel].val_auc:.4f}); "
          f"test AUC {test_auc(trained):.4f}")

# the frozen extractor really is frozen: compare a conv parameter
trained_conv = dict(trained.named_parameters())["conv1.weight"]
source_conv = dict(source.named_parameters())["conv1.weight"]
print("conv1 untouched by target training:",
      np.array_equal(trained_conv.data, source_conv.data))
