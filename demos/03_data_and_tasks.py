"""Dataset plumbing: IDX files and one-vs-rest anomaly task construction.

The anomaly class is one source class; the normal class is drawn from
the remaining classes pooled together (not stratified), which leaves the
rest-class mix to fluctuate hypergeometrically.
"""

import os
import tempfile
from collections import Counter

import numpy as np

from xferad import data, synth

tmp = tempfile.mkdtemp()
imgs, lbls = os.path.join(tmp, "digits-images"), os.path.join(tmp, "digits-labels")

print("writing a synthetic digit corpus in IDX format...")
synth.write_digit_idx(imgs, lbls, per_class=80, seed=0)
ds = data.load_idx(imgs, lbls)
print(f"loaded {len(ds)} images of shape {ds.images.shape[1:]}, "
      f"classes {ds.class_names}")

# IDX round-trips exactly: the loaded uint8 pixels are written back as they are
i2, l2 = os.path.join(tmp, "i2"), os.path.join(tmp, "l2")
data.write_idx(ds.images, ds.labels, i2, l2)
print("re-serialized IDX is byte-identical:",
      open(imgs, "rb").read() == open(i2, "rb").read())

print("\nbuilding the digit-9-vs-rest anomaly task (40 train / 20 test per class)...")
task = data.build_anomaly_task(ds, anomaly_class=9, train_per_class=40,
                               test_per_class=20, seed=3)
normal_idx = np.concatenate([task.source_indices["train_normal"],
                             task.source_indices["test_normal"]])
mix = Counter(ds.labels[normal_idx].tolist())
print("rest-class mix inside the normal split (pooled, so uneven):")
for cls in sorted(mix):
    print(f"  digit {cls}: {mix[cls]}")
print("anomaly class present in normal split:", 9 in mix)

# preprocessing: replicate grayscale to RGB first, then bilinear-resize
img = task.train_normal[0]
out = data.preprocess_split([img], (32, 32))[0]
print(f"\npreprocess: {img.shape} -> {out.shape}, "
      f"channels identical: {np.array_equal(out[0], out[1])}, "
      f"range [{out.min():.3f}, {out.max():.3f}]")
