import struct
from collections import Counter

import numpy as np
import pytest

from xferad import data, evaluate
from xferad.errors import CapacityError, ContractError, FormatError, ShapeError

import ref_kernels
from mutation import not_refused, sample_mutations
from rsscheck import peak_rss_growth
from taskstats import hypergeom_mean_sigma


# ---------------------------------------------------------------------------
# IDX


def write_idx_pair(tmp_path, images_u8, labels_u8):
    n, rows, cols = images_u8.shape
    img_path = tmp_path / "imgs-idx3-ubyte"
    lbl_path = tmp_path / "lbls-idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images_u8.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, n) + labels_u8.tobytes())
    return img_path, lbl_path


def test_idx_header_and_scaling(tmp_path):
    imgs = np.zeros((2, 28, 28), np.uint8)
    imgs[0, 0, 0] = 255
    imgs[1, 3, 4] = 128
    p_img, p_lbl = write_idx_pair(tmp_path, imgs, np.array([1, 0], np.uint8))
    ds = data.load_idx(p_img, p_lbl)
    assert len(ds) == 2
    assert ds.images.shape == (2, 1, 28, 28) and ds.images.dtype == np.uint8
    assert ds.images[0, 0, 0, 0] == 255
    assert ds.images[0, 0, 1, 1] == 0
    assert ds.images[1, 0, 3, 4] == 128
    assert list(ds.labels) == [1, 0]


def test_idx_wrong_magic(tmp_path):
    p_img, p_lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))
    blob = bytearray(p_img.read_bytes())
    blob[3] = 0x05
    p_img.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic.*byte 0"):
        data.load_idx(p_img, p_lbl)


def test_idx_truncated_payload_reports_offset(tmp_path):
    p_img, p_lbl = write_idx_pair(tmp_path, np.zeros((2, 4, 4), np.uint8), np.zeros(2, np.uint8))
    blob = p_img.read_bytes()
    p_img.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="truncated at byte"):
        data.load_idx(p_img, p_lbl)


def test_idx_overlong_file_is_format_error(tmp_path):
    p_img, p_lbl = write_idx_pair(tmp_path, np.zeros((2, 4, 4), np.uint8), np.zeros(2, np.uint8))
    for path, size in ((p_img, 48), (p_lbl, 10)):
        blob = path.read_bytes()
        path.write_bytes(blob + b"\0")
        with pytest.raises(FormatError, match=f"overlong at byte {size + 1}, .* gives {size} bytes"):
            data.load_idx(p_img, p_lbl)
        path.write_bytes(blob)


def test_idx_header_mutations_are_format_error(tmp_path):
    """Each of a seeded 1,000 of the 4,080 single-byte changes to the images
    header, and 500 of the 2,040 to the labels header, raises FormatError:
    a file must be exactly the size its header gives, so rows 28 -> 1 no
    longer loads 50 images of 1x28 from the first 1,400 pixels."""
    rng = np.random.default_rng(5)
    p_img, p_lbl = write_idx_pair(tmp_path, rng.integers(0, 256, (50, 28, 28), np.uint8),
                                  rng.integers(0, 10, 50, np.uint8))
    wrong = []
    for path, head, count in ((p_img, 16, 1000), (p_lbl, 8, 500)):
        blob = path.read_bytes()
        mutants = [((path.name, off, value), bad)
                   for off, value, bad in sample_mutations(blob, range(head), count, seed=head)]
        wrong += not_refused(path, mutants, lambda _: data.load_idx(p_img, p_lbl))
        path.write_bytes(blob)
    assert not wrong


def test_idx_count_disagreement(tmp_path):
    p_img, p_lbl = write_idx_pair(tmp_path, np.zeros((2, 4, 4), np.uint8), np.zeros(2, np.uint8))
    p_lbl.write_bytes(struct.pack(">II", 0x801, 3) + bytes(3))
    with pytest.raises(FormatError, match="3 labels but"):
        data.load_idx(p_img, p_lbl)


@pytest.mark.parametrize("shape", [(2, 0, 4), (2, 4, 0)])
def test_idx_image_size_must_be_positive(tmp_path, shape):
    p_img, p_lbl = write_idx_pair(tmp_path, np.zeros(shape, np.uint8), np.zeros(2, np.uint8))
    with pytest.raises(FormatError, match="must be positive"):
        data.load_idx(p_img, p_lbl)


def test_idx_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(5, 1, 9, 7)).astype(np.uint8)
    ds0 = data.LabeledImageSet(imgs.astype(np.float32) / 255.0,
                               rng.integers(0, 3, 5), ["0", "1", "2"])
    ip, lp = tmp_path / "i", tmp_path / "l"
    data.write_idx(ds0.images, ds0.labels, ip, lp)  # [0,1] floats are quantized
    ds1 = data.load_idx(ip, lp)
    assert ds1.images.dtype == np.uint8 and np.array_equal(ds1.images, imgs)
    assert np.array_equal(ds0.labels, ds1.labels)
    # and a second serialize->load cycle writes the loaded bytes as they are
    ip2, lp2 = tmp_path / "i2", tmp_path / "l2"
    data.write_idx(ds1.images, ds1.labels, ip2, lp2)
    assert ip2.read_bytes() == ip.read_bytes()
    ds2 = data.load_idx(ip2, lp2)
    assert np.array_equal(ds1.images, ds2.images)


@pytest.mark.parametrize("images, labels, error, match", [
    (np.zeros((2, 1, 4, 4), np.uint8), np.array([1, 300]), ContractError, "outside 0..255"),
    (np.zeros((2, 1, 4, 4), np.uint8), np.array([-1, 0]), ContractError, "outside 0..255"),
    (np.zeros((2, 3, 4, 4), np.uint8), np.zeros(2, np.int64), ShapeError, r"\[N,1,H,W\]"),
    (np.zeros((2, 4, 4), np.uint8), np.zeros(2, np.int64), ShapeError, r"\[N,1,H,W\]"),
    (np.zeros((2, 1, 0, 4), np.uint8), np.zeros(2, np.int64), ShapeError, r"\[N,1,H,W\]"),
    (np.zeros((2, 1, 4, 4), np.uint8), np.zeros(3, np.int64), ShapeError, "for 2 images"),
    (np.zeros((2, 1, 4, 4), np.uint8), np.zeros((2, 1), np.int64), ShapeError, "for 2 images"),
])
def test_write_idx_refuses_what_load_idx_would_misread(tmp_path, images, labels, error, match):
    """A label of 300 would read back as 44 and -1 as 255, and a [N,3,H,W]
    image file as overlong: each is refused before any file is opened."""
    ip, lp = tmp_path / "i", tmp_path / "l"
    with pytest.raises(error, match=match):
        data.write_idx(images, labels, ip, lp)
    assert not ip.exists() and not lp.exists()


def test_synth_corpus_histogram_matches_independent_byte_reader(tmp_path):
    from xferad.synth import write_digit_idx

    ip, lp = tmp_path / "imgs", tmp_path / "lbls"
    write_digit_idx(ip, lp, per_class=20, seed=5)
    blob = lp.read_bytes()
    magic, count = struct.unpack_from(">II", blob, 0)
    assert magic == 0x801 and count == 200
    hist = Counter(blob[8:8 + count])
    assert all(hist[d] == 20 for d in range(10))
    ds = data.load_idx(ip, lp)
    assert Counter(ds.labels.tolist()) == hist


# ---------------------------------------------------------------------------
# PGM / PPM


def test_pgm_p5_minimal(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = data._read_pnm(p)
    assert img.shape == (1, 2, 2) and img.dtype == np.uint8
    assert img[0, 0, 0] == 0
    assert img[0, 1, 1] == 255
    assert img[0, 0, 1] == 64


def test_ppm_p6_channels(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n# a comment\n1 1\n255\n" + bytes([255, 0, 128]))
    img = data._read_pnm(p)
    assert img.shape == (3, 1, 1) and img.dtype == np.uint8
    assert img[0, 0, 0] == 255
    assert img[1, 0, 0] == 0
    assert img[2, 0, 0] == 128


def test_pnm_bad_magic_names_file(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P4\n1 1\n255\n\x00")
    with pytest.raises(FormatError, match="bad.pgm"):
        data._read_pnm(p)


def test_pnm_maxval_must_be_255(tmp_path):
    p = tmp_path / "deep.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(FormatError, match="maxval"):
        data._read_pnm(p)


@pytest.mark.parametrize("header", [b"P5 -2 2 255\n", b"P5 2 0 255\n"])
def test_pnm_size_must_be_positive(tmp_path, header):
    p = tmp_path / "empty.pgm"
    p.write_bytes(header + bytes(4))
    with pytest.raises(FormatError, match="must be positive"):
        data._read_pnm(p)


@pytest.mark.parametrize("magic,channels,count,same", [(b"P5", 1, 13 * 255, 20),
                                                      (b"P6", 3, 600, 2)])
def test_pnm_header_mutations_are_format_error_or_the_same_image(tmp_path, magic, channels,
                                                                  count, same):
    """Every one of the 3,315 single-byte changes to a 32x32 P5 file's 13
    header bytes, and a seeded 600 of a P6 file's, raises FormatError or
    loads the identical image: a file must hold exactly its one image, so
    width 32 -> 2 no longer loads a 32x2 image from the first raster bytes,
    while a whitespace byte swapped for another still loads (20 of the P5
    changes, 2 of the P6 sample)."""
    header = magic + b"\n32 32\n255\n"
    raster = np.random.default_rng(8).integers(0, 256, 32 * 32 * channels, np.uint8)
    blob = header + raster.tobytes()
    p = tmp_path / "image.pnm"
    p.write_bytes(blob)
    want = data._read_pnm(p)
    wrong, loaded = [], 0
    for off, value, bad in sample_mutations(blob, range(len(header)), count, seed=channels):
        p.write_bytes(bad)
        try:
            got = data._read_pnm(p)
        except FormatError:
            continue
        except Exception as e:  # noqa: BLE001 - any other outcome is the fault
            wrong.append((off, value, repr(e)))
            continue
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            wrong.append((off, value, f"loaded {got.shape}"))
        loaded += 1
    assert not wrong
    assert loaded == same


@pytest.mark.parametrize("extra", [-1, 1])
def test_pnm_file_must_end_where_its_raster_ends(tmp_path, extra):
    p = tmp_path / "a.pgm"
    blob = b"P5\n2 2\n255\n" + bytes(4)
    p.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
    state = "truncated" if extra < 0 else "overlong"
    message = f"{state} at byte {len(blob) + extra}, its header gives 15 bytes"
    with pytest.raises(FormatError, match=message):
        data._read_pnm(p)


def make_image_dir(tmp_path):
    neg = tmp_path / "negative"
    pos = tmp_path / "positive"
    neg.mkdir()
    pos.mkdir()
    for i, d in enumerate([neg, neg, neg]):
        (d / f"img_{i}.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([i] * 4))
    for i, d in enumerate([pos, pos]):
        (d / f"img_{i}.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([100 + i] * 4))
    return tmp_path


def test_image_dir_labels_by_subdir_order(tmp_path):
    root = make_image_dir(tmp_path)
    ds = data.load_image_dir(root, ["negative", "positive"])
    assert len(ds) == 5
    assert list(ds.labels) == [0, 0, 0, 1, 1]
    assert ds.class_names == ["negative", "positive"]


def test_image_dir_listing_is_deterministic(tmp_path):
    root = make_image_dir(tmp_path)
    a = data.load_image_dir(root, ["negative", "positive"])
    b = data.load_image_dir(root, ["negative", "positive"])
    assert np.array_equal(a.labels, b.labels)
    for ia, ib in zip(a.images, b.images):
        assert np.array_equal(ia, ib)


def test_image_dir_empty_class_error(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(FormatError, match="no .pgm"):
        data.load_image_dir(tmp_path, ["empty"])


def test_image_dir_undecodable_names_file(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "junk.pgm").write_bytes(b"not a pnm file")
    with pytest.raises(FormatError, match="junk.pgm"):
        data.load_image_dir(tmp_path, ["c"])


# ---------------------------------------------------------------------------
# CIFAR-10 binary


def test_cifar10_record_layout(tmp_path):
    # two records: label byte + R/G/B planes of 1024 bytes each
    rec0 = bytes([3]) + bytes([10] * 1024) + bytes([20] * 1024) + bytes([30] * 1024)
    rec1 = bytes([9]) + bytes([0] * 3072)
    p = tmp_path / "data_batch_1.bin"
    p.write_bytes(rec0 + rec1)
    ds = data.load_cifar10_batches([p])
    assert ds.images.shape == (2, 3, 32, 32) and ds.images.dtype == np.uint8
    assert list(ds.labels) == [3, 9]
    assert ds.images[0, 0, 0, 0] == 10
    assert ds.images[0, 1, 0, 0] == 20
    assert ds.images[0, 2, 0, 0] == 30
    assert ds.class_names[3] == "cat"


def test_cifar10_bad_record_size(tmp_path):
    p = tmp_path / "data_batch_1.bin"
    p.write_bytes(bytes(3072))  # one byte short of a record
    with pytest.raises(FormatError, match="3073"):
        data.load_cifar10_batches([p])


def write_cifar_batch(path, n, seed):
    """n random CIFAR-10 records (labels 0-9) as one batch file; returns
    them as a uint8 [n, 3073] array."""
    rec = np.random.default_rng(seed).integers(0, 256, size=(n, 3073), dtype=np.uint8)
    rec[:, 0] %= 10
    path.write_bytes(rec.tobytes())
    return rec


@pytest.mark.parametrize("label", [10, 255])
@pytest.mark.parametrize("file,record", [(0, 0), (1, 6)])
def test_cifar10_label_out_of_range_names_its_file_and_record(tmp_path, label, file, record):
    """A label byte above 9, in the first file's first record or in the
    last record of a second file, is a FormatError naming both."""
    paths = [tmp_path / "data_batch_1.bin", tmp_path / "data_batch_2.bin"]
    recs = [write_cifar_batch(p, n, seed) for p, n, seed in zip(paths, (5, 7), (14, 15))]
    recs[file][record, 0] = label
    paths[file].write_bytes(recs[file].tobytes())
    with pytest.raises(FormatError) as e:
        data.load_cifar10_batches(paths)
    assert str(e.value) == f"{paths[file]}: label {label} of record {record} out of range for CIFAR-10"


def loaded_sets(tmp_path):
    """{loader: (its images, the uint8 [C,H,W] pixels its files hold, the
    most common image size)} for an IDX pair, a directory of P5 and P6 files
    (a ragged list: 300 P5 files of one size among P6 and other P5 sizes)
    and two CIFAR-10 batches. 300 images of one size cross a 256-image
    preprocessing chunk."""
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 256, size=(600, 28, 28), dtype=np.uint8)
    ds = data.load_idx(*write_idx_pair(tmp_path, raw, np.zeros(600, np.uint8)))
    sets = {"idx": (ds.images, raw[:, None], (28, 28))}

    pnm, d = [], tmp_path / "pnm"
    d.mkdir()
    files = [(b"P6", 9, 7)] + [(b"P5", 8, 6)] * 300 + [(b"P5", 5, 11), (b"P6", 8, 6)]
    for i, (magic, w, h) in enumerate(files):
        hwc = rng.integers(0, 256, size=(h, w, 3 if magic == b"P6" else 1), dtype=np.uint8)
        (d / f"{i:04d}.pnm").write_bytes(magic + b"\n%d %d\n255\n" % (w, h) + hwc.tobytes())
        pnm.append(hwc.transpose(2, 0, 1))
    sets["pnm"] = ([data._read_pnm(d / f"{i:04d}.pnm") for i in range(len(pnm))], pnm, (6, 8))

    paths = [tmp_path / "data_batch_1.bin", tmp_path / "data_batch_2.bin"]
    recs = [write_cifar_batch(p, n, seed) for p, n, seed in zip(paths, (170, 130), (8, 9))]
    ds = data.load_cifar10_batches(paths)
    assert np.array_equal(ds.labels, np.concatenate(recs)[:, 0])
    sets["cifar10"] = (ds.images, np.concatenate(recs)[:, 1:].reshape(-1, 3, 32, 32), (32, 32))
    return sets


def test_loaders_give_the_files_uint8_bytes(tmp_path):
    for name, (images, raw, _) in loaded_sets(tmp_path).items():
        assert len(images) == len(raw), name
        for got, want in zip(images, raw):
            assert got.dtype == np.uint8 and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def test_preprocess_of_loaded_bytes_equals_it_of_their_float32_copy_divided_by_255(tmp_path):
    """The loaders used to divide a float32 copy of the bytes by 255;
    preprocess_split now does, so its output keeps every byte. Checked at
    the input size (a cast, no resize) and at two resizes."""
    for name, (images, raw, size) in loaded_sets(tmp_path).items():
        floats = [img.astype(np.float32) / 255.0 for img in raw]
        for hw in (size, (32, 32), (19, 27)):
            got = data.preprocess_split(images, hw)
            want = data.preprocess_split(floats, hw)
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes(), (name, hw)


def prefixes(blob):
    return [(cut, blob[:cut]) for cut in range(len(blob))]


def test_every_prefix_of_an_idx_or_pnm_file_is_format_error(tmp_path):
    """Each IDX file of a pair, a P5 and a P6 file, cut at any byte, raises
    FormatError: a cut file never loads."""
    rng = np.random.default_rng(12)
    p_img, p_lbl = write_idx_pair(tmp_path, rng.integers(0, 256, (3, 4, 5), np.uint8),
                                  np.array([0, 2, 1], np.uint8))
    img, lbl = p_img.read_bytes(), p_lbl.read_bytes()
    cut = tmp_path / "cut"
    assert not not_refused(cut, prefixes(img), lambda p: data.load_idx(p, p_lbl))
    assert not not_refused(cut, prefixes(lbl), lambda p: data.load_idx(p_img, p))
    for magic, channels in ((b"P5", 1), (b"P6", 3)):
        raster = rng.integers(0, 256, 3 * 2 * channels, np.uint8).tobytes()
        blob = magic + b"\n# a comment\n3 2\n255\n" + raster
        cut.write_bytes(blob)
        assert data._read_pnm(cut).shape == (channels, 2, 3)
        assert not not_refused(cut, prefixes(blob), data._read_pnm), magic


def test_cifar10_file_cut_off_a_record_boundary_is_format_error(tmp_path):
    """A batch file cut at any byte raises FormatError unless the cut falls on
    a 3,073-byte record boundary; there it loads the whole records before the
    cut (none at byte 0)."""
    path = tmp_path / "data_batch_1.bin"
    rec = write_cifar_batch(path, 4, seed=13)
    blob = path.read_bytes()
    boundaries = range(0, len(blob) + 1, 3073)
    off_boundary = [(cut, b) for cut, b in prefixes(blob) if cut not in boundaries]
    assert not not_refused(path, off_boundary, lambda p: data.load_cifar10_batches([p]))
    for cut in boundaries:
        path.write_bytes(blob[:cut])
        ds = data.load_cifar10_batches([path])
        n = cut // 3073
        assert ds.images.shape == (n, 3, 32, 32) and list(ds.labels) == list(rec[:n, 0])
        assert ds.images.tobytes() == rec[:n, 1:].tobytes()


def test_cifar10_bad_size_fails_before_allocating(tmp_path, monkeypatch):
    good, bad = tmp_path / "data_batch_1.bin", tmp_path / "data_batch_2.bin"
    write_cifar_batch(good, 2, seed=0)
    bad.write_bytes(bytes(3074))
    monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("allocated before the size check"))
    with pytest.raises(FormatError, match="data_batch_2.bin: size 3074 is not a multiple"):
        data.load_cifar10_batches([good, bad])


def test_cifar10_file_that_grows_while_loading(tmp_path, monkeypatch):
    """A file whose size changes between the size check and its read is
    rejected, even when it still holds whole records."""
    p = tmp_path / "data_batch_1.bin"
    write_cifar_batch(p, 2, seed=0)

    def open_after_growing(path, mode):
        with open(path, "ab") as f:
            f.write(bytes(3073))
        return open(path, mode)

    monkeypatch.setattr(data, "open", open_after_growing, raising=False)
    with pytest.raises(FormatError, match="size changed from 6146 to 9219 bytes"):
        data.load_cifar10_batches([p])


def test_cifar10_load_peaks_at_the_array_plus_one_file(tmp_path):
    """Two 10,000-record files (61 MB) raise a fresh process's peak RSS by
    at most the 61 MB uint8 array, one file and 4 MiB of slack."""
    paths = [tmp_path / f"data_batch_{i}.bin" for i in (1, 2)]
    for seed, p in enumerate(paths):
        write_cifar_batch(p, 10_000, seed)
    array_bytes, file_bytes = 20_000 * 3072, 10_000 * 3073
    growth = peak_rss_growth(f"from xferad import data\npaths = {[str(p) for p in paths]!r}",
                             "ds = data.load_cifar10_batches(paths)")
    assert array_bytes <= growth <= array_bytes + file_bytes + 4 * 2**20


def test_idx_load_peaks_at_the_two_files(tmp_path):
    """A 20,000-image 28x28 IDX pair (15.7 MB) raises a fresh process's
    peak RSS by at most both files' bytes and 4 MiB of slack: the images
    are a view of the image file's bytes."""
    rng = np.random.default_rng(11)
    p_img, p_lbl = write_idx_pair(tmp_path, rng.integers(0, 256, (20_000, 28, 28), np.uint8),
                                  rng.integers(0, 10, 20_000, np.uint8))
    image_bytes = p_img.stat().st_size
    growth = peak_rss_growth(f"from xferad import data\npaths = {[str(p_img), str(p_lbl)]!r}",
                             "ds = data.load_idx(*paths)")
    assert image_bytes <= growth <= image_bytes + p_lbl.stat().st_size + 4 * 2**20


# ---------------------------------------------------------------------------
# anomaly tasks


def toy_set(per_class=40, n_classes=10, seed=0):
    n = per_class * n_classes
    labels = np.repeat(np.arange(n_classes), per_class)
    images = np.zeros((n, 1, 1, 1), np.float32)
    images[:, 0, 0, 0] = np.arange(n)  # unique pixel = source index
    return data.LabeledImageSet(images, labels, [str(i) for i in range(n_classes)])


def test_task_sizes_exact():
    task = data.build_anomaly_task(toy_set(), 0, 10, 5, seed=1)
    assert len(task.train_normal) == 10 and len(task.train_anomalous) == 10
    assert len(task.test_normal) == 5 and len(task.test_anomalous) == 5


def test_task_disjoint_and_excludes_anomaly_class():
    ds = toy_set()
    task = data.build_anomaly_task(ds, 3, 12, 6, seed=2)
    idx = task.source_indices
    train = np.concatenate([idx["train_normal"], idx["train_anomalous"]])
    test = np.concatenate([idx["test_normal"], idx["test_anomalous"]])
    assert np.intersect1d(train, test).size == 0
    normal = np.concatenate([idx["train_normal"], idx["test_normal"]])
    assert not (ds.labels[normal] == 3).any()
    anom = np.concatenate([idx["train_anomalous"], idx["test_anomalous"]])
    assert (ds.labels[anom] == 3).all()
    # label convention is fixed project-wide
    assert evaluate.LABEL_NORMAL == 0
    assert evaluate.LABEL_ANOMALOUS == 1


def test_task_same_seed_identical_different_seed_differs():
    ds = toy_set()
    a = data.build_anomaly_task(ds, 0, 10, 5, seed=7)
    b = data.build_anomaly_task(ds, 0, 10, 5, seed=7)
    c = data.build_anomaly_task(ds, 0, 10, 5, seed=8)
    for k in a.source_indices:
        assert np.array_equal(a.source_indices[k], b.source_indices[k])
    assert not np.array_equal(
        np.sort(np.concatenate([a.source_indices["train_normal"], a.source_indices["test_normal"]])),
        np.sort(np.concatenate([c.source_indices["train_normal"], c.source_indices["test_normal"]])),
    )


def test_task_split_sizes_at_cifar10_scale():
    # 6000 samples per class; 5000/5000 train and 1000/1000 test splits
    ds = toy_set(per_class=6000)
    task = data.build_anomaly_task(ds, 4, 5000, 1000, seed=3)
    assert len(task.train_normal) == len(task.train_anomalous) == 5000
    assert len(task.test_normal) == len(task.test_anomalous) == 1000


def test_task_capacity_errors_state_required_vs_available():
    ds = toy_set(per_class=8)
    with pytest.raises(CapacityError, match="has 8 samples, need 11"):
        data.build_anomaly_task(ds, 0, 8, 3, seed=0)
    labels = np.array([0] * 6 + [1] * 4)
    tiny = data.LabeledImageSet(np.zeros((10, 1, 1, 1), np.float32), labels, ["0", "1"])
    with pytest.raises(CapacityError, match="remaining classes have 4"):
        data.build_anomaly_task(tiny, 0, 3, 2, seed=0)


def test_task_pooled_sampling_is_unstratified_hypergeometric():
    # 200 seeded builds on a balanced 10-class set; per-rest-class mean
    # count within 5 standard errors of the hypergeometric expectation
    per_class, n_classes = 60, 10
    draws = 30 + 15
    ds = toy_set(per_class=per_class, n_classes=n_classes)
    n_builds = 200
    counts = np.zeros(n_classes)
    for s in range(n_builds):
        task = data.build_anomaly_task(ds, 0, 30, 15, seed=s)
        normal = np.concatenate([task.source_indices["train_normal"],
                                 task.source_indices["test_normal"]])
        for c in range(1, n_classes):
            counts[c] += (ds.labels[normal] == c).sum()
    mean, sigma = hypergeom_mean_sigma(per_class, per_class * (n_classes - 1), draws)
    se = sigma / np.sqrt(n_builds)
    for c in range(1, n_classes):
        assert abs(counts[c] / n_builds - mean) <= 5 * se, f"class {c} biased"


# ---------------------------------------------------------------------------
# preprocessing


def ref_bilinear(img, oh, ow):
    """Scalar-loop reference for half-pixel-centered bilinear resampling."""
    C, H, W = img.shape
    out = np.zeros((C, oh, ow))
    for c in range(C):
        for i in range(oh):
            sy = min(max((i + 0.5) * H / oh - 0.5, 0.0), H - 1.0)
            y0 = int(np.floor(sy))
            y1 = min(y0 + 1, H - 1)
            fy = sy - y0
            for j in range(ow):
                sx = min(max((j + 0.5) * W / ow - 0.5, 0.0), W - 1.0)
                x0 = int(np.floor(sx))
                x1 = min(x0 + 1, W - 1)
                fx = sx - x0
                top = img[c, y0, x0] * (1 - fx) + img[c, y0, x1] * fx
                bot = img[c, y1, x0] * (1 - fx) + img[c, y1, x1] * fx
                out[c, i, j] = top * (1 - fy) + bot * fy
    return out


def test_preprocess_replicates_grayscale_then_resizes():
    rng = np.random.default_rng(1)
    img = rng.random((1, 28, 28), dtype=np.float32)
    out = data.preprocess_split([img], (32, 32))[0]
    assert out.shape == (3, 32, 32)
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[1], out[2])


def test_preprocess_identity_resize_is_exact():
    rng = np.random.default_rng(2)
    img = rng.random((3, 17, 13), dtype=np.float32)
    assert np.array_equal(data.preprocess_split([img], (17, 13))[0], img)


def test_preprocess_constant_image_stays_constant():
    img = np.full((1, 10, 10), 0.5, np.float32)
    out = data.preprocess_split([img], (23, 7))[0]
    assert np.allclose(out, 0.5, atol=1e-6)


def test_preprocess_output_range_and_channels():
    rng = np.random.default_rng(3)
    for c in (1, 3):
        img = rng.random((c, 9, 11), dtype=np.float32)
        out = data.preprocess_split([img], (21, 5))[0]
        assert out.shape[0] == 3
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_bilinear_matches_scalar_reference():
    rng = np.random.default_rng(4)
    img = rng.random((3, 11, 8))
    out = data._bilinear_resize(img, 26, 15)
    assert np.allclose(out, ref_bilinear(img, 26, 15), atol=1e-6)


def test_bilinear_upscale_of_mnist_like_sizes():
    rng = np.random.default_rng(5)
    img = rng.random((1, 28, 28))
    out = data._bilinear_resize(img, 32, 32)
    assert np.allclose(out, ref_bilinear(img, 32, 32), atol=1e-6)


# byte-exactness of the batched preprocessing against the per-image oracle
# (tests/ref_kernels.py)


def assert_preprocess_matches_oracle(images, hw):
    got = data.preprocess_split(images, hw)
    want = np.stack([ref_kernels.preprocess(img, hw) for img in images])
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def oracle_images(kind, n, channels, h, w, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((n, channels, h, w), dtype=np.float32)
    if kind == "integer":
        return rng.integers(0, 256, (n, channels, h, w)).astype(np.float32) / 255.0
    return np.full((n, channels, h, w), 0.37, np.float32)


@pytest.mark.parametrize("hw", [(32, 32), (16, 16), (37, 23), (19, 27)], ids=str)
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("kind", ["random", "integer", "constant"])
def test_preprocess_split_bytes_equal_per_image_oracle(kind, channels, hw):
    assert_preprocess_matches_oracle(oracle_images(kind, 40, channels, 19, 27, seed=6), hw)


def test_preprocess_split_bytes_across_chunk_boundaries():
    limit = data._CHUNK_PIXELS // (32 * 32)
    images = oracle_images("integer", 2 * limit + 7, 1, 28, 28, seed=7)
    assert_preprocess_matches_oracle(images, (32, 32))


def test_preprocess_split_bounds_chunks_by_input_pixels(monkeypatch):
    # inputs larger than the output: a chunk holds _CHUNK_PIXELS input pixels
    limit = data._CHUNK_PIXELS // (64 * 64)
    images = oracle_images("random", 2 * limit + 5, 3, 64, 64, seed=10)
    assert_preprocess_matches_oracle(images, (16, 16))
    sizes = []
    resize = data._bilinear_resize
    monkeypatch.setattr(data, "_bilinear_resize",
                        lambda x, h, w: sizes.append(len(x)) or resize(x, h, w))
    data.preprocess_split(images, (16, 16))
    assert sizes == [limit, limit, 5]


def test_preprocess_split_of_a_ragged_list():
    rng = np.random.default_rng(8)
    shapes = [(1, 28, 28), (1, 28, 28), (3, 32, 32), (1, 9, 11), (1, 28, 28), (3, 12, 40)]
    images = [rng.random(s, dtype=np.float32) for s in shapes]
    assert_preprocess_matches_oracle(images, (16, 16))
    assert np.array_equal(data.preprocess_split([images[3]], (16, 16))[0],
                          data.preprocess_split(images, (16, 16))[3])


def test_preprocess_split_ends_a_run_where_the_dtype_changes():
    """One stacked run of uint8 and float images of one shape would upcast
    the bytes without dividing them by 255."""
    pixels = np.random.default_rng(12).integers(0, 256, (5, 1, 9, 11), dtype=np.uint8)
    images = [pixels[0], pixels[1], pixels[2].astype(np.float32) / 255.0, pixels[3],
              pixels[4] / 255.0]
    for hw in ((9, 11), (16, 16)):
        got = data.preprocess_split(images, hw)
        want = np.concatenate([data.preprocess_split([img], hw) for img in images])
        assert got.tobytes() == want.tobytes(), hw


def test_preprocess_split_rejects_a_bad_image_in_a_list():
    images = [np.zeros((1, 8, 8), np.float32), np.zeros((2, 8, 8), np.float32)]
    with pytest.raises(ShapeError, match=r"\(2, 8, 8\)"):
        data.preprocess_split(images, (4, 4))


def test_glyph_resize_of_a_single_channel_matches_oracle():
    glyph = np.random.default_rng(9).random((1, 7, 5))
    for h, w in [(14, 10), (22, 16), (7, 5)]:
        got = data._bilinear_resize(glyph, h, w)
        want = ref_kernels.bilinear_resize(glyph, h, w)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# batching


def test_batch_iter_single_partial_batch():
    x = np.arange(10).reshape(10, 1)
    y = np.arange(10)
    batches = list(data.batch_iter(x, y, 16, False, 0))
    assert len(batches) == 1
    assert len(batches[0][1]) == 10


def test_batch_iter_covers_every_sample_once():
    x = np.arange(33).reshape(33, 1)
    y = np.arange(33)
    batches = list(data.batch_iter(x, y, 16, True, seed=3, epoch=0))
    assert [len(b[1]) for b in batches] == [16, 16, 1]
    seen = np.concatenate([b[1] for b in batches])
    assert sorted(seen.tolist()) == list(range(33))


def test_batch_iter_no_shuffle_is_identity_order():
    x = np.arange(5).reshape(5, 1)
    y = np.arange(5)
    seen = np.concatenate([b[1] for b in data.batch_iter(x, y, 2, False, 0)])
    assert list(seen) == [0, 1, 2, 3, 4]


def test_batch_iter_epoch_indexed_shuffle():
    x = np.arange(40).reshape(40, 1)
    y = np.arange(40)

    def order(epoch):
        return np.concatenate([b[1] for b in data.batch_iter(x, y, 8, True, seed=9, epoch=epoch)])

    assert np.array_equal(order(0), order(0))
    assert not np.array_equal(order(0), order(1))


def test_batch_iter_empty_split():
    assert list(data.batch_iter(np.zeros((0, 1)), np.zeros(0, np.int64), 4, True, 0)) == []
