"""CCITT Group 4 (T.6) codec: spec vectors, table hygiene,
round-trips, the TIFF wrap, and the PDF → perceptual-dedup plumbing.

The encoder and decoder share the T.4/T.6 tables, so a transcription
error would round-trip silently — the spec-vector and prefix-free
tests below are what pins the tables to the public standard."""

import hashlib

import numpy as np
import pytest

from ray_script_extract.functions.faxcodec import (
    _BLACK_CODES,
    _EXT_CODES,
    _WHITE_CODES,
    decode_g4,
    decode_tiff_g4,
    parse_tiff_g4,
    wrap_tiff_g4,
)
from tests.helpers import _MODE_H, _MODE_P, _MODE_V, encode_g4


def _bits(value: int, length: int) -> str:
    return format(value, f"0{length}b")


# ---------------------------------------------------------------------------
# table hygiene + spec vectors
# ---------------------------------------------------------------------------

def test_tables_prefix_free_and_unique():
    """Each color's full code set (terminating + make-up + extended
    make-up) must be prefix-free — otherwise the decoder is ambiguous.
    A mistyped table entry almost always breaks this."""
    for base in (_WHITE_CODES, _BLACK_CODES):
        codes = [_bits(v, ln) for v, ln in base.values()]
        codes += [_bits(v, ln) for v, ln in _EXT_CODES.values()]
        assert len(set(codes)) == len(codes)
        s = sorted(codes)
        for a, b in zip(s, s[1:]):
            assert not b.startswith(a), (a, b)


def test_t4_spec_vectors():
    """Hand-checked entries from the public ITU-T T.4 tables."""
    assert _bits(*_WHITE_CODES[0]) == "00110101"
    assert _bits(*_WHITE_CODES[1]) == "000111"
    assert _bits(*_WHITE_CODES[2]) == "0111"
    assert _bits(*_WHITE_CODES[3]) == "1000"
    assert _bits(*_WHITE_CODES[63]) == "00110100"
    assert _bits(*_WHITE_CODES[64]) == "11011"
    assert _bits(*_WHITE_CODES[128]) == "10010"
    assert _bits(*_WHITE_CODES[1728]) == "010011011"
    assert _bits(*_BLACK_CODES[0]) == "0000110111"
    assert _bits(*_BLACK_CODES[1]) == "010"
    assert _bits(*_BLACK_CODES[2]) == "11"
    assert _bits(*_BLACK_CODES[3]) == "10"
    assert _bits(*_BLACK_CODES[4]) == "011"
    assert _bits(*_BLACK_CODES[64]) == "0000001111"
    assert _bits(*_EXT_CODES[1792]) == "00000001000"
    assert _bits(*_EXT_CODES[2560]) == "000000011111"


def test_t6_mode_vectors():
    assert _bits(*_MODE_V[0]) == "1"
    assert _bits(*_MODE_V[1]) == "011"
    assert _bits(*_MODE_V[-1]) == "010"
    assert _bits(*_MODE_V[3]) == "0000011"
    assert _bits(*_MODE_H) == "001"
    assert _bits(*_MODE_P) == "0001"


def test_known_bitstream_all_white_row():
    """One all-white 8-pel row codes as a single V0 (the imaginary
    change at ``columns`` sits directly above b1), then EOFB — the
    exact bytes are derivable by hand from T.6: 1 + 2×EOL, padded."""
    enc = encode_g4(np.zeros((1, 8), bool))
    # bits: 1 (V0) ++ 000000000001 ++ 000000000001, zero-padded to 32
    assert enc == bytes([0b10000000, 0b00001000, 0b00000000, 0b10000000])
    dec = decode_g4(enc, 8, 1)
    assert (dec == 255).all()


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape,fill", [
    ((1, 1), False), ((1, 1), True),
    ((10, 64), False), ((5, 40), True),
    ((64, 1), True), ((3, 2600), True),
])
def test_roundtrip_degenerate(shape, fill):
    bm = np.full(shape, fill, bool)
    dec = decode_g4(encode_g4(bm), shape[1], shape[0])
    assert np.array_equal(dec == 0, bm)


def test_roundtrip_random_and_structured():
    rng = np.random.RandomState(42)
    cases = [
        rng.rand(20, 100) < 0.3,
        rng.rand(40, 33) < 0.9,
        np.kron(rng.rand(8, 16) < 0.5, np.ones((4, 8), bool)),
        np.triu(np.ones((50, 50), bool)),
    ]
    # checkerboard: worst case for 2-D coding (every pel a change)
    cb = np.indices((16, 32)).sum(axis=0) % 2 == 0
    cases.append(cb)
    for bm in cases:
        dec = decode_g4(encode_g4(bm), bm.shape[1], bm.shape[0])
        assert np.array_equal(dec == 0, bm)


def test_roundtrip_makeup_boundaries():
    """Run lengths straddling every make-up boundary class: 63/64,
    terminating+make-up composition, the 1728 classic-table edge, the
    2560 extended cap, and a run needing multiple 2560 make-ups."""
    for w in (63, 64, 65, 127, 128, 1727, 1728, 1729, 2559, 2560,
              2561, 2623, 2624, 5200):
        bm = np.zeros((2, w + 7), bool)
        bm[0, :w] = True          # black run of exactly w
        bm[1, 3:w] = True         # offset so row 2 codes against row 1
        dec = decode_g4(encode_g4(bm), w + 7, 2)
        assert np.array_equal(dec == 0, bm), w


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        decode_g4(b"\x00\x00\x00\x00\x00\x00", 16, 4)
    with pytest.raises(ValueError):
        decode_g4(b"", 16, 1)


# ---------------------------------------------------------------------------
# TIFF wrap
# ---------------------------------------------------------------------------

def test_tiff_wrap_roundtrip():
    rng = np.random.RandomState(7)
    bm = rng.rand(33, 77) < 0.4
    payload = wrap_tiff_g4(encode_g4(bm), 77, 33)
    data, w, h = parse_tiff_g4(payload)
    assert (w, h) == (77, 33)
    arr = decode_tiff_g4(payload)
    assert arr.shape == (33, 77, 1)
    assert np.array_equal(arr[:, :, 0] == 0, bm)


def test_tiff_parse_rejects_non_g4():
    with pytest.raises(ValueError):
        parse_tiff_g4(b"MM\x00*garbage")
    with pytest.raises(ValueError):
        parse_tiff_g4(b"\x89PNG\r\n")
    # valid wrap with the compression tag flipped to uncompressed
    payload = bytearray(wrap_tiff_g4(encode_g4(np.ones((2, 8), bool)),
                                     8, 2))
    # tag 259 value sits in the 3rd IFD entry; corrupt it via re-parse
    import struct
    (ifd_off,) = struct.unpack_from("<I", payload, 4)
    for i in range(struct.unpack_from("<H", payload, ifd_off)[0]):
        off = ifd_off + 2 + 12 * i
        if struct.unpack_from("<H", payload, off)[0] == 259:
            struct.pack_into("<I", payload, off + 8, 1)
    with pytest.raises(ValueError):
        parse_tiff_g4(bytes(payload))


def test_decode_image_dispatches_tiff():
    from ray_script_extract.functions.imagecodec import decode_image

    bm = np.zeros((16, 16), bool)
    bm[4:12, 4:12] = True
    arr = decode_image(wrap_tiff_g4(encode_g4(bm), 16, 16))
    assert arr.shape == (16, 16, 1)
    assert arr[8, 8, 0] == 0 and arr[0, 0, 0] == 255


# ---------------------------------------------------------------------------
# PDF plumbing: /CCITTFaxDecode XObject → self-describing stored
# payload → perceptual near-dup pair
# ---------------------------------------------------------------------------

def _fax_page(seed: int) -> np.ndarray:
    """A structured 64×64 'scanned page': strong block features the
    perceptual hash keys on."""
    bm = np.zeros((64, 64), bool)
    bm[:, :20] = True
    bm[8:16, 28:60] = True
    bm[40:56, 32:48] = True
    if seed:
        rng = np.random.RandomState(seed)
        ys = rng.randint(0, 64, 20)
        xs = rng.randint(0, 64, 20)
        bm[ys, xs] = ~bm[ys, xs]   # scan-noise: 20 flipped pels
    return bm


def test_ccitt_pdf_spans_and_near_dup_pair(ray_session):
    """Two G4 scans of ONE page (clean + 20-pel scan noise) embedded
    in a fixture PDF: extraction emits media spans whose refs hash the
    TIFF-wrapped payload (decodable without the PDF dict), and the
    perceptual pipeline (decode → ahash64 → banding) pairs them while
    an unrelated noise page pairs with neither — the fax leg of the
    VERDICT r3 image-format gap (DCT landed earlier this round)."""
    import base64

    import pyarrow as pa
    import ray.data

    from ray_script_extract.pipelines.multimodal import (
        MEDIA_SCHEMA,
        near_dup_images_from_media,
    )
    from ray_script_extract.sources.pdf_fixtures import build_pdf
    from ray_script_extract.stages.extract import ExtractorActor

    clean = _fax_page(0)
    noisy = _fax_page(3)
    rng = np.random.RandomState(99)
    unrelated = rng.rand(64, 64) < 0.5

    enc = {k: encode_g4(v) for k, v in
           (("clean", clean), ("noisy", noisy), ("unrel", unrelated))}
    wrapped = {k: wrap_tiff_g4(v, 64, 64) for k, v in enc.items()}

    pdf = build_pdf(
        [[(100, 72, "Scanned page.")]],
        images=[[{"data": enc["clean"], "w": 64, "h": 64, "x": 72,
                  "y": 600, "dw": 128, "dh": 128, "filter": "ccitt"},
                 {"data": enc["noisy"], "w": 64, "h": 64, "x": 260,
                  "y": 600, "dw": 128, "dh": 128, "filter": "ccitt"}]])
    spans = ExtractorActor().extract_doc(
        "d1", [{"kind": "pdf_raw",
                "text": base64.b64encode(pdf).decode()}])
    # the media ref hashes the WRAPPED payload — a store fetch by this
    # ref hands back bytes decode_image can decode standalone
    assert {ref for kind, _, ref in spans if kind == "image"} == {
        f"img://sha256/{hashlib.sha256(wrapped['clean']).hexdigest()}",
        f"img://sha256/{hashlib.sha256(wrapped['noisy']).hexdigest()}"}

    media = ray.data.from_arrow(pa.Table.from_arrays([
        pa.array(["img://a", "img://b", "img://c"], pa.string()),
        pa.array(["doc-00000000", "doc-00000008", "doc-00000016"],
                 pa.string()),
        pa.array([wrapped["clean"], wrapped["noisy"], wrapped["unrel"]],
                 pa.binary()),
        pa.array(["image"] * 3, pa.string()),
    ], schema=MEDIA_SCHEMA))
    pairs = near_dup_images_from_media(media, max_hamming=3).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (0, 8) in got
    assert all(16 not in p for p in got)
