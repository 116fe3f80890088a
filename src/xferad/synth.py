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
    one permutation of all samples is drawn last. Each sample is rendered
    in one float64 scratch canvas and stored clipped to [0,1] as float32,
    and the set is shuffled in place.
    """
    rng = np.random.default_rng([seed, 777])
    labels = np.repeat(np.asarray(classes, dtype=np.int64), per_class)
    images = np.empty((len(labels), 1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    canvas = np.empty((IMAGE_SIZE, IMAGE_SIZE))
    for i, digit in enumerate(labels.tolist()):
        h = int(rng.integers(14, 23))
        glyph = _glyph(digit, h)
        w = glyph.shape[1]
        big = _shear(glyph, float(rng.uniform(-0.15, 0.15)))
        big *= float(rng.uniform(0.65, 1.0))
        top = int(rng.integers(0, IMAGE_SIZE - h + 1))
        left = int(rng.integers(0, IMAGE_SIZE - w + 1))
        canvas.fill(0.0)
        canvas[top:top + h, left:left + w] = big
        canvas += rng.normal(0.0, float(rng.uniform(0.04, 0.10)), (IMAGE_SIZE, IMAGE_SIZE))
        canvas += float(rng.uniform(0.0, 0.06))
        np.clip(canvas, 0.0, 1.0, out=images[i, 0])
    order = rng.permutation(len(labels))
    _permute_in_place(images, order)
    n_classes = int(max(classes)) + 1
    return LabeledImageSet(images, labels[order], [str(c) for c in range(n_classes)])


def _permute_in_place(images, order):
    """images[:] = images[order] without a second copy of the set: each
    cycle of order shifts its samples one place, through one temporary."""
    tmp = np.empty_like(images[0])
    order = order.tolist()  # -1 marks a filled slot
    for start in range(len(order)):
        if order[start] < 0:
            continue
        tmp[...] = images[start]
        i = start
        while order[i] != start:
            images[i] = images[order[i]]
            order[i], i = -1, order[i]
        images[i] = tmp
        order[i] = -1


def write_digit_idx(images_path, labels_path, per_class, seed):
    """Generate a ten-digit set and serialize it as an IDX file pair."""
    ds = make_digit_set(per_class, seed)
    write_idx(ds.images, ds.labels, images_path, labels_path)
    return ds
