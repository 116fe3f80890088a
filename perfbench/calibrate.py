"""Machine-speed probe: a fixed piece of numpy and interpreter work.

Nothing here calls xferad, so no change to xferad can move it. Its time
tracks how fast this machine runs xferad-like work at the moment: the
same kinds of operation (im2col copy, small sgemm, relu, 2x2 max,
scatter-add, interpreter-bound small-array calls) at the shapes of a
batch-16 conv2 block. It allocates about 4 MB, well under any workload's
peak RSS.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_REPS = 25
# normalized times are the times on a machine where probe() takes this
# long (it took 0.08-0.13 s on the 2-core Xeon VM the baseline was measured on)
REFERENCE_S = 0.1


def probe():
    """Wall seconds of the fixed work."""
    rng = np.random.default_rng(0)
    x = rng.random((16, 16, 18, 18), dtype=np.float32)
    w = rng.random((16, 144), dtype=np.float32)
    idx = rng.integers(0, 16 * 18 * 18, size=144 * 256)
    t0 = time.perf_counter()
    for _ in range(_REPS):
        v = sliding_window_view(x, (3, 3), axis=(2, 3))
        cols = np.ascontiguousarray(v.transpose(0, 1, 4, 5, 2, 3)).reshape(16, 144, 256)
        out = np.maximum(np.matmul(w, cols), 0).reshape(16, 16, 8, 2, 8, 2).max(axis=(3, 5))
        np.bincount(idx, weights=cols[0].ravel(), minlength=16 * 18 * 18)
        for row in out[:, :, 0]:
            row * 0.5 + out[0, 0, 0]
    return time.perf_counter() - t0
