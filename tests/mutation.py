"""Seeded single-byte mutations of a file's structure bytes, and a check
that a loader refuses each of a set of malformed files.

A mutation sets one byte to one of its 255 other values. A test draws a
fixed sample of all (offset, value) pairs over the bytes that give a
file its structure, so it runs a few hundred loads in a second or two and
reports the pair that a failing load came from.
"""

import math
import struct
import zlib

import numpy as np

from xferad.errors import FormatError


def weight_structure_offsets(blob):
    """Offsets of a weight file's header, record-name lengths, names,
    ranks and extents: every byte but the payload values and the CRC."""
    offsets = list(range(12))
    off = 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (nlen,) = struct.unpack_from("<H", blob, off)
        rank = blob[off + 2 + nlen]
        head = 2 + nlen + 1 + 4 * rank
        offsets += range(off, off + head)
        extents = struct.unpack_from(f"<{rank}I", blob, off + 3 + nlen)
        off += head + 4 * math.prod(extents)
    return offsets


def with_weight_crc(blob):
    """blob with its trailing CRC32 recomputed over the bytes before it."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)


def sample_mutations(blob, offsets, count, seed):
    """count distinct (offset, value, mutated blob) triples, drawn with a
    seeded generator from every other value of each of the offsets."""
    rng = np.random.default_rng(seed)
    pairs = [(o, v) for o in offsets for v in range(256) if v != blob[o]]
    out = []
    for i in rng.choice(len(pairs), size=min(count, len(pairs)), replace=False):
        o, v = pairs[i]
        out.append((o, v, blob[:o] + bytes([v]) + blob[o + 1:]))
    return out


def not_refused(path, blobs, load):
    """[(key, outcome)] for each (key, blob) of blobs that load(path) does
    not refuse with FormatError once path holds blob: "loaded", or the
    repr of any other exception."""
    wrong = []
    for key, blob in blobs:
        path.write_bytes(blob)
        try:
            load(path)
            wrong.append((key, "loaded"))
        except FormatError:
            pass
        except Exception as e:  # noqa: BLE001 - any other outcome is the fault
            wrong.append((key, repr(e)))
    return wrong
