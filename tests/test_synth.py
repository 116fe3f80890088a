"""synth's cached-glyph, one-gather renderer against the per-image oracle
in ref_kernels: the same images, labels and IDX files, byte for byte."""

import numpy as np
import pytest

import ref_kernels
from rsscheck import peak_rss_growth
from xferad import data, synth
from xferad.cli import main


@pytest.mark.parametrize("per_class, seed, classes", [
    (12, 0, tuple(range(10))),
    (12, 41, tuple(range(10))),
    (30, 1000044, (3,)),
    (9, 2000044, tuple(range(8))),
    (1, 7, tuple(range(10))),
])
def test_make_digit_set_bytes_equal_oracle(per_class, seed, classes):
    ds = synth.make_digit_set(per_class, seed, classes=classes)
    images, labels = ref_kernels.make_digit_set(per_class, seed, classes=classes)
    assert ds.images.dtype == images.dtype and ds.images.shape == images.shape
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.dtype == labels.dtype and ds.labels.tobytes() == labels.tobytes()
    assert ds.class_names == [str(c) for c in range(max(classes) + 1)]


def test_shear_equals_oracle_across_every_wrap_case():
    rng = np.random.default_rng(3)
    seen_lo = set()
    for h in (7, 14, 22):
        for w in (1, 6, 16):
            img = rng.random((h, w))
            for factor in (-0.15, -0.07, -0.01, 0.0, 0.04, 0.15, -2.5, 1.7):
                shift = factor * (np.arange(h) - h / 2.0)
                seen_lo.update(np.floor(shift).astype(int).tolist())
                got = synth._shear(img, factor)
                assert got.tobytes() == ref_kernels.shear(img, factor).tobytes(), (h, w, factor)
    assert {-2, -1, 0, 1} <= seen_lo
    assert min(seen_lo) < -16 and max(seen_lo) > 16  # shifts wider than every w


def test_make_synth_idx_equals_oracle_write_idx(tmp_path):
    imgs, lbls = str(tmp_path / "images"), str(tmp_path / "labels")
    assert main(["make-synth", "--per-class", "6", "--seed", "5",
                 "--out-images", imgs, "--out-labels", lbls]) == 0
    ref_imgs, ref_lbls = str(tmp_path / "ref-images"), str(tmp_path / "ref-labels")
    data.write_idx(*ref_kernels.make_digit_set(6, 5), ref_imgs, ref_lbls)
    assert open(imgs, "rb").read() == open(ref_imgs, "rb").read()
    assert open(lbls, "rb").read() == open(ref_lbls, "rb").read()


def test_write_digit_idx_peak_is_the_set(tmp_path):
    """Writing 10,000 digits raises the peak RSS of a fresh process by at
    most the float32 set, its uint8 pixels and 4 MiB: the set is shuffled
    in place, and there is no float64 canvas of the whole set and no
    whole-set quantization temporary."""
    set_bytes = 10_000 * 28 * 28 * 4
    growth = peak_rss_growth(
        f"import os\nfrom xferad import synth\nout = {str(tmp_path)!r}\n"
        "synth.make_digit_set(1, 0)",
        "synth.write_digit_idx(os.path.join(out, 'i'), os.path.join(out, 'l'), 1000, 3)",
    )
    assert growth <= set_bytes + set_bytes // 4 + 4 * 2**20
