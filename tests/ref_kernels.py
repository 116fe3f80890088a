"""Exactness oracles: the kernels that faster versions in xferad must
reproduce byte for byte.

conv2d and maxpool2d are the bincount-scatter kernels that conv2d's input
gradient and maxpool2d used before their strided slice-add versions.
conv2d's weight gradient stays np.tensordot, which copies the patches
sample-major and runs an NN product: it is the oracle for tensor.conv2d's
NT product over channel-major copies, which must give the same bytes.
Plain numpy on raw arrays. Each returns (out, bwd), where bwd(g) gives the
gradients the op's backward must reproduce: np.bincount sums the scattered
weights in float64, in the order the flat indices are listed, starting from
+0.0, then the result is cast to g's dtype.

preprocess and bilinear_resize are the per-image preprocessing that
data.preprocess_split batched.

shear, render and make_digit_set are the per-image synthetic digit
renderer that synth.make_digit_set replaced with cached glyphs and a
one-gather shear. make_digit_set returns raw (images, labels) arrays.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from xferad.synth import _GLYPHS, IMAGE_SIZE


def _col_indices(C, Hp, Wp, kh, kw, stride, Ho, Wo):
    """Flat scatter indices mapping im2col columns back into the padded input."""
    c = np.repeat(np.arange(C), kh * kw)
    ki = np.tile(np.repeat(np.arange(kh), kw), C)
    kj = np.tile(np.arange(kw), C * kh)
    oi = stride * np.repeat(np.arange(Ho), Wo)
    oj = stride * np.tile(np.arange(Wo), Ho)
    rows = ki[:, None] + oi[None, :]
    cols = kj[:, None] + oj[None, :]
    return ((c[:, None] * Hp + rows) * Wp + cols).astype(np.int64)


def conv2d(x, w, b, stride, padding):
    """im2col + matmul forward; bwd(g) -> (dx, dw, db)."""
    N, C, H, W = x.shape
    F, _, kh, kw = w.shape
    Hp, Wp = H + 2 * padding, W + 2 * padding
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    v = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    Ho, Wo = v.shape[2], v.shape[3]
    cols = np.ascontiguousarray(v.transpose(0, 1, 4, 5, 2, 3).reshape(N, C * kh * kw, Ho * Wo))
    wr = w.reshape(F, -1)
    out = np.matmul(wr, cols).reshape(N, F, Ho, Wo) + b[None, :, None, None]

    def bwd(g):
        gr = g.reshape(N, F, Ho * Wo)
        dw = np.tensordot(gr, cols, axes=([0, 2], [0, 2])).reshape(w.shape)
        db = g.sum(axis=(0, 2, 3))
        dcols = np.matmul(wr.T, gr)  # [N, C*kh*kw, Ho*Wo]
        idx = _col_indices(C, Hp, Wp, kh, kw, stride, Ho, Wo)
        offs = np.arange(N, dtype=np.int64)[:, None, None] * (C * Hp * Wp)
        dxp = np.bincount(
            (idx[None] + offs).ravel(),
            weights=dcols.ravel(),
            minlength=N * C * Hp * Wp,
        ).reshape(N, C, Hp, Wp)
        if padding:
            dxp = dxp[:, :, padding:-padding, padding:-padding]
        return dxp.astype(g.dtype, copy=False), dw, db

    return out, bwd


def maxpool2d(x, window, stride):
    """argmax forward (first maximum on ties); bwd(g) -> dx."""
    N, C, H, W = x.shape
    v = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    Ho, Wo = v.shape[2], v.shape[3]
    vr = v.reshape(N, C, Ho, Wo, window * window)
    arg = vr.argmax(axis=-1)  # first occurrence on ties
    out = np.take_along_axis(vr, arg[..., None], axis=-1)[..., 0]

    def bwd(g):
        ri = arg // window + (stride * np.arange(Ho))[None, None, :, None]
        cj = arg % window + (stride * np.arange(Wo))[None, None, None, :]
        base = (np.arange(N)[:, None, None, None] * C + np.arange(C)[None, :, None, None])
        flat = (base * H + ri) * W + cj
        return np.bincount(
            flat.ravel(), weights=g.ravel(), minlength=N * C * H * W
        ).reshape(N, C, H, W).astype(g.dtype, copy=False)

    return np.ascontiguousarray(out), bwd


def preprocess(image, target_hw):
    """One [1|3,H,W] image: grayscale replicated to 3 channels, then resized."""
    image = np.asarray(image)
    if image.shape[0] == 1:
        image = np.repeat(image, 3, axis=0)
    return bilinear_resize(image, int(target_hw[0]), int(target_hw[1]))


def bilinear_resize(image, out_h, out_w):
    """Half-pixel-centered bilinear resample of a [C,H,W] image."""
    C, H, W = image.shape
    if (H, W) == (out_h, out_w):
        return image.astype(np.float32, copy=True)
    src = image.astype(np.float64)

    ys = np.clip((np.arange(out_h) + 0.5) * (H / out_h) - 0.5, 0.0, H - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (W / out_w) - 0.5, 0.0, W - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]

    top = src[:, y0][:, :, x0] * (1.0 - wx) + src[:, y0][:, :, x1] * wx
    bot = src[:, y1][:, :, x0] * (1.0 - wx) + src[:, y1][:, :, x1] * wx
    out = top * (1.0 - wy) + bot * wy
    return np.clip(out, 0.0, 1.0).astype(np.float32)


def shear(img, factor):
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


def render(digit, rng):
    """One [28,28] float32 image of digit, drawing its parameters from rng."""
    glyph = np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in _GLYPHS[digit]])
    h = int(rng.integers(14, 23))
    w = max(6, int(round(h * 5.0 / 7.0)))
    big = bilinear_resize(glyph[None], h, w)[0].astype(np.float64)
    big = shear(big, float(rng.uniform(-0.15, 0.15)))
    big *= float(rng.uniform(0.65, 1.0))

    canvas = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    top = int(rng.integers(0, IMAGE_SIZE - h + 1))
    left = int(rng.integers(0, IMAGE_SIZE - w + 1))
    canvas[top:top + h, left:left + w] = big

    canvas += rng.normal(0.0, float(rng.uniform(0.04, 0.10)), canvas.shape)
    canvas += float(rng.uniform(0.0, 0.06))
    return np.clip(canvas, 0.0, 1.0).astype(np.float32)


def make_digit_set(per_class, seed, classes=tuple(range(10))):
    """(images [N,1,28,28] float32, labels int64): per_class renders of
    each requested digit, in shuffled order."""
    rng = np.random.default_rng([seed, 777])
    images, labels = [], []
    for digit in classes:
        for _ in range(per_class):
            images.append(render(digit, rng)[None])
            labels.append(digit)
    images = np.stack(images)
    labels = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(len(labels))
    return images[order], labels[order]
