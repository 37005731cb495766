"""Encoders and fixtures only the tests use.

The package decodes CCITT G4 and baseline JPEG; the encoders here let
the tests author real payloads for those decoders (two rasterizations
or re-encodes of one image must band together as near-dups) and share
the decoders' tables.  ``corpus_dataset`` is the synthetic corpus as a
lazy Ray Dataset, and ``helvetica_font_obj`` a proportional-font PDF
object for ``build_pdf``'s ``extra_fonts``.  ``parse_html_stdlib``
is the ``html.parser``-backed twin of ``htmldom.parse_html`` that the
tokenizer is held to.
"""

from __future__ import annotations

import struct
from html.parser import HTMLParser
from typing import Dict, List, Tuple

import numpy as np

from ray_script_extract.corpus import make_doc, size_class_for
from ray_script_extract.functions.faxcodec import (_BLACK_CODES, _EOL,
                                                   _EXT_CODES, _WHITE_CODES,
                                                   _b1_b2)
from ray_script_extract.functions.jpegcodec import (ZIGZAG, _C,
                                                    _huff_canonical)
from ray_script_extract.sources.htmldom import _CLOSED_BY, VOID_ELEMENTS, Node
from ray_script_extract.sources.pdfnative import _std14_widths

# -- CCITT G4 (ITU-T T.6) ------------------------------------------------

# T.6 two-dimensional mode codes
_MODE_P = (0b0001, 4)
_MODE_H = (0b001, 3)
_MODE_V = {0: (0b1, 1), 1: (0b011, 3), 2: (0b000011, 6), 3: (0b0000011, 7),
           -1: (0b010, 3), -2: (0b000010, 6), -3: (0b0000010, 7)}


class _G4BitWriter:
    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, length: int) -> None:
        self.acc = (self.acc << length) | value
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        if self.nbits:
            self.buf.append((self.acc << (8 - self.nbits)) & 0xFF)
            self.acc, self.nbits = 0, 0
        return bytes(self.buf)


def _write_run(bw: _G4BitWriter, run: int,
               codes: Dict[int, Tuple[int, int]]) -> None:
    while run >= 64:
        mk = min(2560, (run // 64) * 64)
        while mk not in codes and mk not in _EXT_CODES:
            mk -= 64
        v, ln = codes.get(mk) or _EXT_CODES[mk]
        bw.write(v, ln)
        run -= mk
    v, ln = codes[run]
    bw.write(v, ln)


def _changes(row: np.ndarray) -> List[int]:
    """Positions where the pixel color changes, alternating starting
    from white (row: bool array, True = black)."""
    diff = np.flatnonzero(row[1:] != row[:-1]) + 1
    out = diff.tolist()
    if row[0]:
        out = [0] + out
    return out


def encode_g4(bitmap: np.ndarray) -> bytes:
    """(H, W) array (nonzero = black) → G4/MMR bytes, EOFB-terminated."""
    bm = np.asarray(bitmap, dtype=bool)
    rows, columns = bm.shape
    bw = _G4BitWriter()
    ref: List[int] = []
    for r in range(rows):
        cur = _changes(bm[r])
        a0, color, ci = -1, 0, 0
        while True:
            a1 = cur[ci] if ci < len(cur) else columns
            b1, b2 = _b1_b2(ref, a0, color, columns)
            if b2 < a1:
                bw.write(*_MODE_P)
                a0 = b2
            elif abs(a1 - b1) <= 3:
                v, ln = _MODE_V[a1 - b1]
                bw.write(v, ln)
                a0 = a1
                color ^= 1
                ci += 1
            else:
                a2 = cur[ci + 1] if ci + 1 < len(cur) else columns
                bw.write(*_MODE_H)
                first = _WHITE_CODES if color == 0 else _BLACK_CODES
                second = _BLACK_CODES if color == 0 else _WHITE_CODES
                _write_run(bw, a1 - max(a0, 0), first)
                _write_run(bw, a2 - a1, second)
                a0 = a2
                ci += 2
            if a0 >= columns:
                break
        ref = cur
    bw.write(*_EOL)
    bw.write(*_EOL)  # EOFB
    return bw.getvalue()


# -- baseline JPEG (ITU-T T.81): 4:4:4, Annex-K tables, libjpeg quality -

# Annex K example tables (T.81 §K.1, K.3): the interchange defaults

K_LUMA_Q = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)

K_CHROMA_Q = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# (BITS list of 16 counts, HUFFVAL) — T.81 K.3.1/K.3.2
K_DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
             list(range(12)))
K_DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
               list(range(12)))
K_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
     0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
     0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
     0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
     0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
     0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
     0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
     0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
     0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
     0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
     0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
     0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
     0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
     0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
     0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
     0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
     0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
     0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
     0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
     0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
     0xF9, 0xFA])
K_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
     0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
     0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
     0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
     0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
     0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
     0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
     0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
     0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
     0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
     0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
     0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
     0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
     0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
     0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
     0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
     0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
     0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
     0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
     0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
     0xF9, 0xFA])


class _JpegBitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | code
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1s (T.81 F.1.2.3)


def _quality_scale(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    tbl = (base * s + 50) // 100
    return np.clip(tbl, 1, 255)


def _csize(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def encode_jpeg(arr: "np.ndarray", quality: int = 85) -> bytes:
    """(H, W) / (H, W, 1) grayscale or (H, W, 3) RGB uint8 → baseline
    JFIF JPEG, 4:4:4 (no subsampling)."""
    arr = np.asarray(arr, np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, nc = arr.shape
    if nc == 3:
        rf = arr[:, :, 0].astype(np.float64)
        gf = arr[:, :, 1].astype(np.float64)
        bf = arr[:, :, 2].astype(np.float64)
        planes = [0.299 * rf + 0.587 * gf + 0.114 * bf,
                  -0.168736 * rf - 0.331264 * gf + 0.5 * bf + 128.0,
                  0.5 * rf - 0.418688 * gf - 0.081312 * bf + 128.0]
    elif nc == 1:
        planes = [arr[:, :, 0].astype(np.float64)]
    else:
        raise ValueError("encode_jpeg: 1 or 3 channels only")

    qluma = _quality_scale(K_LUMA_Q, quality)
    qchroma = _quality_scale(K_CHROMA_Q, quality)
    qtabs = [qluma] + ([qchroma] if nc == 3 else [])

    enc_tabs = []
    for bits, vals in (K_DC_LUMA, K_AC_LUMA, K_DC_CHROMA, K_AC_CHROMA):
        codes, *_ = _huff_canonical(bits, vals)
        enc_tabs.append({v: (ln, cd) for (ln, cd), v in codes.items()})
    dc_enc = [enc_tabs[0], enc_tabs[2], enc_tabs[2]]
    ac_enc = [enc_tabs[1], enc_tabs[3], enc_tabs[3]]

    # pad to 8 | dims by edge replication, block + forward DCT per plane
    bh, bw = -(-h // 8), -(-w // 8)
    comp_coef = []
    for ci, plane in enumerate(planes):
        padded = np.pad(plane, ((0, bh * 8 - h), (0, bw * 8 - w)),
                        mode="edge") - 128.0
        blocks = padded.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3) \
            .reshape(-1, 8, 8)
        coef = np.einsum("ux,nxy,vy->nuv", _C, blocks, _C, optimize=True)
        q = qtabs[min(ci, 1)].reshape(8, 8)
        quant = np.round(coef / q).astype(np.int64)
        comp_coef.append(quant.reshape(-1, 64)[:, ZIGZAG])

    bwr = _JpegBitWriter()
    preds = [0] * len(planes)
    for bi in range(bh * bw):
        for ci in range(len(planes)):
            zz = comp_coef[ci][bi]
            diff = int(zz[0]) - preds[ci]
            preds[ci] = int(zz[0])
            t = _csize(diff)
            ln, cd = dc_enc[ci][t]
            bwr.write(cd, ln)
            if t:
                bwr.write(diff if diff >= 0 else diff + (1 << t) - 1, t)
            run = 0
            nz = np.flatnonzero(zz[1:])
            last = nz[-1] + 1 if len(nz) else 0
            for k in range(1, last + 1):
                v = int(zz[k])
                if v == 0:
                    run += 1
                    continue
                while run > 15:
                    ln, cd = ac_enc[ci][0xF0]
                    bwr.write(cd, ln)
                    run -= 16
                s = _csize(v)
                ln, cd = ac_enc[ci][(run << 4) | s]
                bwr.write(cd, ln)
                bwr.write(v if v >= 0 else v + (1 << s) - 1, s)
                run = 0
            if last < 63:
                ln, cd = ac_enc[ci][0x00]  # EOB
                bwr.write(cd, ln)
    bwr.flush()

    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">BBH", 0xFF, marker, len(body) + 2) + body

    out = bytearray(b"\xff\xd8")
    out += seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    for ti, q in enumerate(qtabs):
        out += seg(0xDB, bytes([ti]) + bytes(int(x) for x in q))
    sof = struct.pack(">BHHB", 8, h, w, len(planes))
    for ci in range(len(planes)):
        sof += bytes([ci + 1, 0x11, min(ci, 1)])
    out += seg(0xC0, sof)
    dht_specs = [(0x00, K_DC_LUMA), (0x10, K_AC_LUMA)]
    if nc == 3:
        dht_specs += [(0x01, K_DC_CHROMA), (0x11, K_AC_CHROMA)]
    for tid, (bits, vals) in dht_specs:
        out += seg(0xC4, bytes([tid]) + bytes(bits) + bytes(vals))
    sos = bytes([len(planes)])
    for ci in range(len(planes)):
        sos += bytes([ci + 1, 0x00 if ci == 0 else 0x11])
    sos += b"\x00\x3f\x00"
    out += seg(0xDA, sos)
    out += bwr.out
    out += b"\xff\xd9"
    return bytes(out)


# -- corpus and PDF fixtures ---------------------------------------------

def corpus_dataset(num_docs: int, seed: int = 42, skewed: bool = True,
                   docs_per_block: int = 200):
    """A lazy ray.data.Dataset over the synthetic corpus.

    Generation happens INSIDE tasks (``flat_map`` over shard descriptors),
    so the driver never materializes the corpus — the pattern that holds
    at 10^12 docs where shard descriptors, not documents, are the
    driver-side state.
    """
    import ray.data

    from ray_script_extract.pipelines import tune_data_context

    tune_data_context()
    shards = [{"start": s, "count": min(docs_per_block, num_docs - s),
               "seed": seed, "skewed": skewed}
              for s in range(0, num_docs, docs_per_block)]

    def expand(shard: Dict) -> List[Dict]:
        return [make_doc(shard["seed"], i,
                         size_class_for(i) if shard["skewed"] else "small")
                for i in range(shard["start"], shard["start"] + shard["count"])]

    return ray.data.from_items(shards).flat_map(expand)


def helvetica_font_obj(embed_widths: bool = False,
                       base: str = "Helvetica") -> bytes:
    """A proportional standard-14 font object for fixtures.  With
    ``embed_widths`` the dict carries the full AFM /Widths array
    (32..126) so a no-/Widths fixture and its embedded twin must
    segment identically — the cross-check that pins the engine's
    internal standard-14 tables against the /Widths code path."""
    if not embed_widths:
        return (f"<< /Type /Font /Subtype /Type1 "
                f"/BaseFont /{base} >>").encode()
    tbl = _std14_widths(base.split("-")[0], "Bold" in base,
                        "Italic" in base or "Oblique" in base)
    widths = " ".join(str(tbl[chr(c)]) for c in range(32, 127))
    return (f"<< /Type /Font /Subtype /Type1 /BaseFont /{base} "
            f"/FirstChar 32 /LastChar 126 "
            f"/Widths [{widths}] >>").encode()


# -- the stdlib HTML tree builder ----------------------------------------

class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Node("#document")
        self._stack: List[Node] = [self.root]

    def _top(self) -> Node:
        return self._stack[-1]

    def handle_starttag(self, tag: str, attrs) -> None:
        while len(self._stack) > 1 and tag in _CLOSED_BY.get(self._top().tag, ()):
            self._stack.pop()
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs},
                    self._top())
        self._top().children.append(node)
        if tag not in VOID_ELEMENTS:
            self._stack.append(node)

    def handle_startendtag(self, tag: str, attrs) -> None:
        node = Node(tag, {k: (v if v is not None else "") for k, v in attrs},
                    self._top())
        self._top().children.append(node)

    def handle_endtag(self, tag: str) -> None:
        if tag in VOID_ELEMENTS:
            return
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                del self._stack[i:]
                return
        # close tag with no matching open: ignored

    def handle_data(self, data: str) -> None:
        if data:
            self._top().children.append(data)


def parse_html_stdlib(text: str) -> Node:
    """``html.parser``-backed reference for ``htmldom.parse_html`` (the
    same implicit-close rules, the stdlib's lexer)."""
    b = _TreeBuilder()
    b.feed(text)
    b.close()
    return b.root
