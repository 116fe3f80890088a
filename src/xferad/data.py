"""Dataset ingestion, preprocessing, and one-vs-rest anomaly task construction.

Loaders are pure functions on files. They return the files' uint8 pixels
as [C,H,W] images; preprocess_split scales uint8 images to [0,1] by /255
(the one place that happens) and passes float images through as [0,1]
values. The project-wide label convention for anomaly tasks is
normal = 0, anomalous = 1.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, FormatError, ShapeError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

CIFAR10_CLASS_NAMES = [
    "airplane", "automobile", "bird", "cat", "deer",
    "dog", "frog", "horse", "ship", "truck",
]


@dataclass
class LabeledImageSet:
    """Images + integer class labels + class names.

    images may be a list of [C,H,W] arrays (possibly ragged across
    samples) or one stacked [N,C,H,W] array: uint8 pixels as the loaders
    give them, or float values in [0,1] (a synthetic set, or one already
    through preprocess_split).
    """

    images: object
    labels: np.ndarray
    class_names: list

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise ShapeError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        if len(self.labels) and int(self.labels.max()) >= len(self.class_names):
            raise ShapeError(
                f"label {int(self.labels.max())} out of range for {len(self.class_names)} classes"
            )

    def __len__(self):
        return len(self.labels)


@dataclass
class AnomalyTask:
    """Two-class task: anomalous = one source class, normal = pooled rest.

    Splits are sequences of [C,H,W] images; source_indices (when the
    task came from a LabeledImageSet) map each split entry back to its
    sample index for serialization and disjointness checks.
    """

    train_normal: object
    train_anomalous: object
    test_normal: object
    test_anomalous: object
    anomaly_class: int
    seed: int
    source_indices: dict = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# IDX files (big-endian)


def _be_u32(blob, off, what, path):
    if off + 4 > len(blob):
        raise FormatError(f"{path}: truncated at byte {off}, expected {what}")
    return struct.unpack_from(">I", blob, off)[0]


def _read_idx(path, magic, fields):
    """(u32 header values, uint8 payload) of the IDX file at path.

    The header is magic, then one u32 per name in fields: a count, then
    the extents of one item, each >= 1. The file must be exactly the size
    the header gives: the header plus count * extents bytes.
    """
    with open(path, "rb") as f:
        blob = f.read()
    found = _be_u32(blob, 0, "magic", path)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found:#010x} at byte 0, expected {magic:#010x}")
    values = [_be_u32(blob, 4 * i, name, path) for i, name in enumerate(fields, 1)]
    if min(values[1:], default=1) < 1:
        raise FormatError(f"{path}: image size {'x'.join(map(str, values[1:]))} must be positive")
    head, size = 4 * (1 + len(fields)), math.prod(values)
    if len(blob) != head + size:
        state = "truncated" if len(blob) < head + size else "overlong"
        raise FormatError(f"{path}: {state} at byte {len(blob)}, its header gives {head + size} bytes")
    return values, np.frombuffer(blob, dtype=np.uint8, count=size, offset=head)


def load_idx(images_path, labels_path):
    """Parse an IDX image/label file pair into a LabeledImageSet.

    The images are a read-only uint8 [N,1,H,W] view of the image file's
    pixel bytes; image count must agree between the two files, and each
    file must be exactly the size its header gives.
    """
    (count, rows, cols), pixels = _read_idx(
        images_path, IDX_IMAGES_MAGIC, ("image count", "row count", "column count"))
    (lcount,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, ("label count",))
    if lcount != count:
        raise FormatError(f"{labels_path}: {lcount} labels but {images_path} has {count} images")
    images = pixels.reshape(count, 1, rows, cols)
    n_classes = int(labels.max()) + 1 if count else 0
    return LabeledImageSet(images, labels, [str(c) for c in range(n_classes)])


def write_idx(images, labels, images_path, labels_path):
    """Serialize grayscale [N,1,H,W] images back to IDX files. uint8 images
    are written as they are; others are taken as [0,1] values and quantized
    in chunks of _CHUNK_PIXELS into one uint8 array that is written after
    the work."""
    images = np.asarray(images)
    n, _, rows, cols = images.shape
    if images.dtype == np.uint8:
        pix = np.ascontiguousarray(images)
    else:
        pix = np.empty(images.shape, dtype=np.uint8)
        step = max(1, _CHUNK_PIXELS // (rows * cols))
        for start in range(0, n, step):
            pix[start:start + step] = np.rint(images[start:start + step] * 255.0).clip(0, 255)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pix)
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# PGM (P5) / PPM (P6), maxval 255


def _read_pnm(path):
    """The file's pixels as a read-only uint8 [C,H,W] view of its bytes."""
    with open(path, "rb") as f:
        blob = f.read()

    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments; a single whitespace byte then separates the raster.
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(blob):
            raise FormatError(f"{path}: truncated header")
        ch = blob[pos:pos + 1]
        if ch == b"#":
            nl = blob.find(b"\n", pos)
            pos = len(blob) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(blob) and not blob[end:end + 1].isspace():
                end += 1
            tokens.append(blob[pos:end])
            pos = end
    pos += 1  # the single whitespace after maxval

    magic = tokens[0]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise FormatError(f"{path}: unsupported magic {magic!r}, expected P5 or P6")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError(f"{path}: non-numeric header fields {tokens[1:4]}") from None
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval} unsupported, expected 255")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image size {width}x{height} must be positive")
    need = pos + width * height * channels
    if len(blob) != need:
        state = "truncated" if len(blob) < need else "overlong"
        raise FormatError(f"{path}: {state} at byte {len(blob)}, its header gives {need} bytes")
    arr = np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(height, width, channels)
    return arr.transpose(2, 0, 1)


def load_image_dir(root_path, class_subdirs):
    """Load `<root>/<class>/*.pgm|ppm` with labels from subdirectory order.

    Files sort lexicographically within each class, so repeated listings
    are identical.
    """
    images, labels = [], []
    for label, sub in enumerate(class_subdirs):
        d = os.path.join(root_path, sub)
        if not os.path.isdir(d):
            raise FormatError(f"class directory {d} does not exist")
        names = sorted(
            n for n in os.listdir(d) if n.lower().endswith((".pgm", ".ppm"))
        )
        if not names:
            raise FormatError(f"class directory {d} contains no .pgm/.ppm images")
        for name in names:
            images.append(_read_pnm(os.path.join(d, name)))
            labels.append(label)
    return LabeledImageSet(images, np.asarray(labels), list(class_subdirs))


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches (1 label byte + 3072 pixel bytes per record)


def load_cifar10_batches(paths):
    """Read CIFAR-10 binary batch files into a LabeledImageSet.

    One uint8 [N,3,32,32] array, sized from the files' byte counts,
    receives each file's pixels in turn: the peak is that array plus one
    file.
    """
    sizes = [os.stat(path).st_size for path in paths]
    for path, size in zip(paths, sizes):
        if size % 3073 != 0:
            raise FormatError(f"{path}: size {size} is not a multiple of the 3073-byte record")
    images = np.empty((sum(sizes) // 3073, 3, 32, 32), dtype=np.uint8)
    labels = np.empty(len(images), dtype=np.int64)
    start = 0
    for path, size in zip(paths, sizes):
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) != size:
            raise FormatError(f"{path}: size changed from {size} to {len(blob)} bytes")
        rec = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 3073)
        bad = np.flatnonzero(rec[:, 0] > 9)
        if bad.size:
            raise FormatError(f"{path}: label {rec[bad[0], 0]} of record {bad[0]} out of range for CIFAR-10")
        stop = start + len(rec)
        labels[start:stop] = rec[:, 0]
        images[start:stop] = rec[:, 1:].reshape(-1, 3, 32, 32)
        start = stop
        del blob, rec  # free this file's bytes before the next file is read
    return LabeledImageSet(images, labels, list(CIFAR10_CLASS_NAMES))


# ---------------------------------------------------------------------------
# anomaly task construction


def build_anomaly_task(image_set, anomaly_class, train_per_class, test_per_class, seed):
    """One-vs-rest task: anomaly class vs. a pooled sample of the rest,
    with the splits anomaly_task_indices draws."""
    indices = anomaly_task_indices(
        image_set.labels, anomaly_class, train_per_class, test_per_class, seed
    )
    return AnomalyTask(
        train_normal=gather(image_set.images, indices["train_normal"]),
        train_anomalous=gather(image_set.images, indices["train_anomalous"]),
        test_normal=gather(image_set.images, indices["test_normal"]),
        test_anomalous=gather(image_set.images, indices["test_anomalous"]),
        anomaly_class=int(anomaly_class),
        seed=int(seed),
        source_indices=indices,
    )


def anomaly_task_indices(labels, anomaly_class, train_per_class, test_per_class, seed):
    """Sorted sample indices of each split of a one-vs-rest task.

    The normal split is drawn uniformly without replacement from the
    remaining classes pooled as a whole (not stratified, so rest-class
    proportions fluctuate hypergeometrically). Train and test are
    disjoint by source index; split sizes are exactly as requested.
    """
    need = train_per_class + test_per_class
    anom_idx = np.flatnonzero(labels == anomaly_class)
    rest_idx = np.flatnonzero(labels != anomaly_class)
    if len(anom_idx) < need:
        raise CapacityError(
            f"anomaly class {anomaly_class} has {len(anom_idx)} samples, need {need}"
        )
    if len(rest_idx) < need:
        raise CapacityError(
            f"remaining classes have {len(rest_idx)} samples, need {need}"
        )

    rng = np.random.default_rng([seed, anomaly_class])
    anom_sel = rng.permutation(anom_idx)[:need]
    norm_sel = rng.choice(rest_idx, size=need, replace=False)

    return {
        "train_anomalous": np.sort(anom_sel[:train_per_class]),
        "test_anomalous": np.sort(anom_sel[train_per_class:]),
        "train_normal": np.sort(norm_sel[:train_per_class]),
        "test_normal": np.sort(norm_sel[train_per_class:]),
    }


def gather(images, ix):
    """images[ix] for a stacked array, else the list of images at ix."""
    if isinstance(images, np.ndarray):
        return images[ix]
    return [images[i] for i in ix]


# ---------------------------------------------------------------------------
# preprocessing


# pixels per channel resized per chunk, counting the input or the output
# size, whichever is larger: 256 images at 32x32. One batch of 6,000 digits
# was slower per image than batches of 2,000, and the float64 temporaries
# grow with the chunk's input and output pixels.
_CHUNK_PIXELS = 256 * 32 * 32


def preprocess_split(images, target_hw):
    """Preprocess a sequence of [1|3,H,W] images into one stacked float32
    [N,3,H,W] array: uint8 pixels divided by 255 in float32 (other dtypes
    are taken as [0,1] values), grayscale replicated to 3 channels, then
    bilinear resized, values in [0,1].

    Runs of consecutive images of one shape and dtype are resized together,
    in chunks of at most _CHUNK_PIXELS input or output pixels per channel,
    so a list of mixed shapes or dtypes works. A grayscale chunk is resized
    once and broadcast to the 3 channels: each channel resizes on its own,
    so this gives the same bytes as replicating before resizing.
    """
    out_h, out_w = int(target_hw[0]), int(target_hw[1])
    out = np.empty((len(images), 3, out_h, out_w), dtype=np.float32)
    start = 0
    while start < len(images):
        shape, dtype = kind = _shape_and_dtype(images[start])
        if len(shape) != 3 or shape[0] not in (1, 3):
            raise ShapeError(f"preprocess expects [1|3,H,W] image, got {shape}")
        limit = max(1, _CHUNK_PIXELS // max(shape[1] * shape[2], out_h * out_w))
        stop = start + 1
        while (stop < len(images) and stop - start < limit
               and _shape_and_dtype(images[stop]) == kind):
            stop += 1
        chunk = np.asarray(images[start:stop])
        if dtype == np.uint8:
            chunk = np.divide(chunk, np.float32(255), dtype=np.float32)
        out[start:stop] = _bilinear_resize(chunk, out_h, out_w)
        start = stop
    return out


def _shape_and_dtype(image):
    image = np.asarray(image)
    return image.shape, image.dtype


def _bilinear_resize(image, out_h, out_w):
    """Half-pixel-centered bilinear resample of the last two axes of an
    [..., H, W] array, clipped to [0,1], as float32.

    Interpolates in x over every source row, then in y between rows y0
    and y1 of that result: per output pixel, in float64,
    top = a*(1-wx) + b*wx, likewise bot, out = top*(1-wy) + bot*wy. An
    image already of the output size is only cast, not clipped.
    """
    H, W = image.shape[-2:]
    if (H, W) == (out_h, out_w):
        return image.astype(np.float32, copy=True)
    src = image.astype(np.float64)

    ys = np.clip((np.arange(out_h) + 0.5) * (H / out_h) - 0.5, 0.0, H - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (W / out_w) - 0.5, 0.0, W - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    wy = (ys - y0)[:, None]
    wx = xs - x0

    rows = src[..., x0]
    rows *= 1.0 - wx
    rows += src[..., x1] * wx
    out = rows[..., y0, :]
    out *= 1.0 - wy
    out += rows[..., y1, :] * wy
    return np.clip(out, 0.0, 1.0, out=out).astype(np.float32)


# ---------------------------------------------------------------------------
# batching


def batch_iter(images, labels, batch_size, shuffle, seed, epoch=0):
    """Yield (image_batch, label_batch) covering every sample exactly once.

    The final partial batch is emitted. Shuffle order is a fresh seeded
    permutation per epoch, drawn from (seed, epoch).
    """
    if batch_size < 1:
        raise ShapeError(f"batch_size must be >= 1, got {batch_size}")
    n = len(labels)
    order = (
        np.random.default_rng([seed, epoch]).permutation(n)
        if shuffle else np.arange(n)
    )
    images = np.asarray(images)
    labels = np.asarray(labels)
    for start in range(0, n, batch_size):
        sel = order[start:start + batch_size]
        yield images[sel], labels[sel]
