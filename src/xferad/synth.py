"""Deterministic synthetic digit corpus.

Renders the ten digit glyphs from a 5x7 pixel font with random scale,
shear, placement, intensity and noise into 28x28 grayscale images, and
serializes them as genuine IDX files. Gives the toolkit a fully
self-contained end-to-end story (demos, benchmarks, CI) on machines
without a local copy of MNIST; everything downstream consumes the IDX
files exactly as it would the real dataset.
"""

from __future__ import annotations

import numpy as np

from .data import LabeledImageSet, _bilinear_resize, write_idx

_GLYPHS = {
    0: (".###.", "#...#", "#..##", "#.#.#", "##..#", "#...#", ".###."),
    1: ("..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."),
    2: (".###.", "#...#", "....#", "...#.", "..#..", ".#...", "#####"),
    3: (".###.", "#...#", "....#", "..##.", "....#", "#...#", ".###."),
    4: ("...#.", "..##.", ".#.#.", "#..#.", "#####", "...#.", "...#."),
    5: ("#####", "#....", "####.", "....#", "....#", "#...#", ".###."),
    6: ("..##.", ".#...", "#....", "####.", "#...#", "#...#", ".###."),
    7: ("#####", "....#", "...#.", "..#..", ".#...", ".#...", ".#..."),
    8: (".###.", "#...#", "#...#", ".###.", "#...#", "#...#", ".###."),
    9: (".###.", "#...#", "#...#", ".####", "....#", "...#.", ".##.."),
}

IMAGE_SIZE = 28


def _glyph_array(digit):
    rows = _GLYPHS[digit]
    return np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows],
                    dtype=np.float64)


def _shear(img, factor):
    """Horizontal shear about the vertical center, linear interpolation."""
    h, w = img.shape
    out = np.zeros_like(img)
    for r in range(h):
        shift = factor * (r - h / 2.0)
        lo = int(np.floor(shift))
        frac = shift - lo
        row = np.roll(img[r], lo) * (1.0 - frac) + np.roll(img[r], lo + 1) * frac
        # roll wraps; blank out wrapped-in pixels
        if lo > 0:
            row[:lo] = 0.0
        elif lo < -1:
            row[lo + 1:] = 0.0
        out[r] = row
    return out


def _render(digit, rng):
    glyph = _glyph_array(digit)
    h = int(rng.integers(14, 23))
    w = max(6, int(round(h * 5.0 / 7.0)))
    big = _bilinear_resize(glyph[None], h, w)[0].astype(np.float64)
    big = _shear(big, float(rng.uniform(-0.15, 0.15)))
    big *= float(rng.uniform(0.65, 1.0))

    canvas = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    top = int(rng.integers(0, IMAGE_SIZE - h + 1))
    left = int(rng.integers(0, IMAGE_SIZE - w + 1))
    canvas[top:top + h, left:left + w] = big

    canvas += rng.normal(0.0, float(rng.uniform(0.04, 0.10)), canvas.shape)
    canvas += float(rng.uniform(0.0, 0.06))
    return np.clip(canvas, 0.0, 1.0).astype(np.float32)


def make_digit_set(per_class, seed, classes=tuple(range(10))):
    """per_class samples of each requested digit, in shuffled order."""
    rng = np.random.default_rng([seed, 777])
    images, labels = [], []
    for digit in classes:
        for _ in range(per_class):
            images.append(_render(digit, rng)[None])  # -> [1,28,28]
            labels.append(digit)
    images = np.stack(images)
    labels = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(len(labels))
    n_classes = int(max(classes)) + 1
    return LabeledImageSet(images[order], labels[order], [str(c) for c in range(n_classes)])


def write_digit_idx(images_path, labels_path, per_class, seed):
    """Generate a ten-digit set and serialize it as an IDX file pair."""
    ds = make_digit_set(per_class, seed)
    write_idx(ds.images, ds.labels, images_path, labels_path)
    return ds
