"""Deterministic synthetic digit corpus.

Renders the ten digit glyphs from a 5x7 pixel font with random scale,
shear, placement, intensity and noise into 28x28 grayscale images, and
serializes them as genuine IDX files. Gives the toolkit a fully
self-contained end-to-end story (demos, benchmarks, CI) on machines
without a local copy of MNIST; everything downstream consumes the IDX
files exactly as it would the real dataset.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=None)
def _glyph(digit, h):
    """digit's glyph resized to h rows and max(6, round(5h/7)) columns,
    float64, read-only (every caller shares the cached array)."""
    font = np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in _GLYPHS[digit]])
    w = max(6, int(round(h * 5.0 / 7.0)))
    big = _bilinear_resize(font[None], h, w)[0].astype(np.float64)
    big.flags.writeable = False
    return big


def _shear(img, factor):
    """Horizontal shear about the vertical center, linear interpolation.

    Row r moves right by shift = factor*(r - h/2): with lo = floor(shift)
    and frac = shift - lo, out[r, j] = img[r, (j-lo) % w]*(1-frac)
    + img[r, (j-lo-1) % w]*frac, then columns j < lo and j > w+lo are
    blanked. That keeps one wrapped-in term: when lo >= 0, column lo
    holds img[r, w-1]*frac; when lo <= -1, column w+lo holds
    img[r, 0]*(1-frac).
    """
    h, w = img.shape
    shift = factor * (np.arange(h) - h / 2.0)
    lo = np.floor(shift)
    frac = (shift - lo)[:, None]
    lo = lo.astype(np.int64)[:, None]
    j = np.arange(w)
    # source columns (j-lo) % w and (j-lo-1) % w, gathered at once
    a, b = img[np.arange(h)[:, None], (j - lo - np.arange(2)[:, None, None]) % w]
    out = a * (1.0 - frac) + b * frac
    out[(j < lo) | (j > w + lo)] = 0.0
    return out


def make_digit_set(per_class, seed, classes=tuple(range(10))):
    """per_class samples of each requested digit, in shuffled order.

    Each sample draws, in order: glyph height, shear, intensity, top and
    left placement, noise sigma, the noise image and a brightness offset;
    one permutation of all samples is drawn last.
    """
    rng = np.random.default_rng([seed, 777])
    labels = np.repeat(np.asarray(classes, dtype=np.int64), per_class)
    canvas = np.zeros((len(labels), IMAGE_SIZE, IMAGE_SIZE))
    for i, digit in enumerate(labels.tolist()):
        h = int(rng.integers(14, 23))
        glyph = _glyph(digit, h)
        w = glyph.shape[1]
        big = _shear(glyph, float(rng.uniform(-0.15, 0.15)))
        big *= float(rng.uniform(0.65, 1.0))
        top = int(rng.integers(0, IMAGE_SIZE - h + 1))
        left = int(rng.integers(0, IMAGE_SIZE - w + 1))
        canvas[i, top:top + h, left:left + w] = big
        canvas[i] += rng.normal(0.0, float(rng.uniform(0.04, 0.10)), (IMAGE_SIZE, IMAGE_SIZE))
        canvas[i] += float(rng.uniform(0.0, 0.06))
    images = np.clip(canvas, 0.0, 1.0, out=canvas).astype(np.float32)[:, None]  # -> [N,1,28,28]
    order = rng.permutation(len(labels))
    n_classes = int(max(classes)) + 1
    return LabeledImageSet(images[order], labels[order], [str(c) for c in range(n_classes)])


def write_digit_idx(images_path, labels_path, per_class, seed):
    """Generate a ten-digit set and serialize it as an IDX file pair."""
    ds = make_digit_set(per_class, seed)
    write_idx(ds.images, ds.labels, images_path, labels_path)
    return ds
