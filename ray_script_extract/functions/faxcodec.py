"""CCITT Group 4 (ITU-T T.6, 2-D MMR) fax codec, pure Python + numpy.

Scanned PDFs — the archive/fax corpus slice — carry their page images
as ``/CCITTFaxDecode`` XObjects, which the PDF front-end passes
through encoded (correct for a content-addressed media store, but the
raw MMR bitstream is not self-describing: decoding needs /Columns,
/Rows and /K from the PDF dict).  This module closes the loop the way
real media pipelines do for fax content: the stored payload is the G4
stream wrapped in a MINIMAL single-strip TIFF (the standard container
for G4 — width/height/compression live in the header), so
``decode_image`` can dispatch on the TIFF magic and the perceptual
pipeline (``media_features`` / ``near_dup_images``) sees pixels, not
bytes.  Implemented directly from the public specs:

* ITU-T T.6: 2-D coding modes (pass / horizontal / vertical ±3),
  EOFB termination.
* ITU-T T.4 §2 tables: white/black terminating (0-63) and make-up
  (64-1728) run-length codes plus the shared extended make-up codes
  (1792-2560).
* TIFF 6.0: the 8 baseline tags a single-strip bilevel image needs.

The decoder walks mode codes in Python — fax pages are one image per
task inside the actor-pool/batch stage, and the 100 TB path
parallelizes across images, not within one.  The tests' encoder
(``tests/helpers.py``) authors REAL G4 payloads from the same tables,
so the tests also pin hand-checked spec vectors and verify each table
is prefix-free (a transcription error would otherwise round-trip
silently).

Not supported (raise ValueError → callers fall back to the byte-hash
feature, same contract as jpegcodec): K >= 0 (G3 1-D / mixed),
/EncodedByteAlign, multi-strip TIFF, /Uncompressed extension mode.

The reference has no image handling at all (`SURVEY.md §1.2`:
pdftohtml -xml drops images); this is engine-level capability for the
multimodal dedup family.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# T.4 run-length tables: run -> (code value, bit length), MSB-first
# ---------------------------------------------------------------------------

_WHITE_CODES: Dict[int, Tuple[int, int]] = {
    0: (0b00110101, 8), 1: (0b000111, 6), 2: (0b0111, 4), 3: (0b1000, 4),
    4: (0b1011, 4), 5: (0b1100, 4), 6: (0b1110, 4), 7: (0b1111, 4),
    8: (0b10011, 5), 9: (0b10100, 5), 10: (0b00111, 5), 11: (0b01000, 5),
    12: (0b001000, 6), 13: (0b000011, 6), 14: (0b110100, 6),
    15: (0b110101, 6), 16: (0b101010, 6), 17: (0b101011, 6),
    18: (0b0100111, 7), 19: (0b0001100, 7), 20: (0b0001000, 7),
    21: (0b0010111, 7), 22: (0b0000011, 7), 23: (0b0000100, 7),
    24: (0b0101000, 7), 25: (0b0101011, 7), 26: (0b0010011, 7),
    27: (0b0100100, 7), 28: (0b0011000, 7), 29: (0b00000010, 8),
    30: (0b00000011, 8), 31: (0b00011010, 8), 32: (0b00011011, 8),
    33: (0b00010010, 8), 34: (0b00010011, 8), 35: (0b00010100, 8),
    36: (0b00010101, 8), 37: (0b00010110, 8), 38: (0b00010111, 8),
    39: (0b00101000, 8), 40: (0b00101001, 8), 41: (0b00101010, 8),
    42: (0b00101011, 8), 43: (0b00101100, 8), 44: (0b00101101, 8),
    45: (0b00000100, 8), 46: (0b00000101, 8), 47: (0b00001010, 8),
    48: (0b00001011, 8), 49: (0b01010010, 8), 50: (0b01010011, 8),
    51: (0b01010100, 8), 52: (0b01010101, 8), 53: (0b00100100, 8),
    54: (0b00100101, 8), 55: (0b01011000, 8), 56: (0b01011001, 8),
    57: (0b01011010, 8), 58: (0b01011011, 8), 59: (0b01001010, 8),
    60: (0b01001011, 8), 61: (0b00110010, 8), 62: (0b00110011, 8),
    63: (0b00110100, 8),
    # make-up codes
    64: (0b11011, 5), 128: (0b10010, 5), 192: (0b010111, 6),
    256: (0b0110111, 7), 320: (0b00110110, 8), 384: (0b00110111, 8),
    448: (0b01100100, 8), 512: (0b01100101, 8), 576: (0b01101000, 8),
    640: (0b01100111, 8), 704: (0b011001100, 9), 768: (0b011001101, 9),
    832: (0b011010010, 9), 896: (0b011010011, 9), 960: (0b011010100, 9),
    1024: (0b011010101, 9), 1088: (0b011010110, 9), 1152: (0b011010111, 9),
    1216: (0b011011000, 9), 1280: (0b011011001, 9), 1344: (0b011011010, 9),
    1408: (0b011011011, 9), 1472: (0b010011000, 9), 1536: (0b010011001, 9),
    1600: (0b010011010, 9), 1664: (0b011000, 6), 1728: (0b010011011, 9),
}

_BLACK_CODES: Dict[int, Tuple[int, int]] = {
    0: (0b0000110111, 10), 1: (0b010, 3), 2: (0b11, 2), 3: (0b10, 2),
    4: (0b011, 3), 5: (0b0011, 4), 6: (0b0010, 4), 7: (0b00011, 5),
    8: (0b000101, 6), 9: (0b000100, 6), 10: (0b0000100, 7),
    11: (0b0000101, 7), 12: (0b0000111, 7), 13: (0b00000100, 8),
    14: (0b00000111, 8), 15: (0b000011000, 9), 16: (0b0000010111, 10),
    17: (0b0000011000, 10), 18: (0b0000001000, 10),
    19: (0b00001100111, 11), 20: (0b00001101000, 11),
    21: (0b00001101100, 11), 22: (0b00000110111, 11),
    23: (0b00000101000, 11), 24: (0b00000010111, 11),
    25: (0b00000011000, 11), 26: (0b000011001010, 12),
    27: (0b000011001011, 12), 28: (0b000011001100, 12),
    29: (0b000011001101, 12), 30: (0b000001101000, 12),
    31: (0b000001101001, 12), 32: (0b000001101010, 12),
    33: (0b000001101011, 12), 34: (0b000011010010, 12),
    35: (0b000011010011, 12), 36: (0b000011010100, 12),
    37: (0b000011010101, 12), 38: (0b000011010110, 12),
    39: (0b000011010111, 12), 40: (0b000001101100, 12),
    41: (0b000001101101, 12), 42: (0b000011011010, 12),
    43: (0b000011011011, 12), 44: (0b000001010100, 12),
    45: (0b000001010101, 12), 46: (0b000001010110, 12),
    47: (0b000001010111, 12), 48: (0b000001100100, 12),
    49: (0b000001100101, 12), 50: (0b000001010010, 12),
    51: (0b000001010011, 12), 52: (0b000000100100, 12),
    53: (0b000000110111, 12), 54: (0b000000111000, 12),
    55: (0b000000100111, 12), 56: (0b000000101000, 12),
    57: (0b000001011000, 12), 58: (0b000001011001, 12),
    59: (0b000000101011, 12), 60: (0b000000101100, 12),
    61: (0b000001011010, 12), 62: (0b000001100110, 12),
    63: (0b000001100111, 12),
    # make-up codes
    64: (0b0000001111, 10), 128: (0b000011001000, 12),
    192: (0b000011001001, 12), 256: (0b000001011011, 12),
    320: (0b000000110011, 12), 384: (0b000000110100, 12),
    448: (0b000000110101, 12), 512: (0b0000001101100, 13),
    576: (0b0000001101101, 13), 640: (0b0000001001010, 13),
    704: (0b0000001001011, 13), 768: (0b0000001001100, 13),
    832: (0b0000001001101, 13), 896: (0b0000001110010, 13),
    960: (0b0000001110011, 13), 1024: (0b0000001110100, 13),
    1088: (0b0000001110101, 13), 1152: (0b0000001110110, 13),
    1216: (0b0000001110111, 13), 1280: (0b0000001010010, 13),
    1344: (0b0000001010011, 13), 1408: (0b0000001010100, 13),
    1472: (0b0000001010101, 13), 1536: (0b0000001011010, 13),
    1600: (0b0000001011011, 13), 1664: (0b0000001100100, 13),
    1728: (0b0000001100101, 13),
}

# extended make-up codes, shared by both colors (T.4 table 3)
_EXT_CODES: Dict[int, Tuple[int, int]] = {
    1792: (0b00000001000, 11), 1856: (0b00000001100, 11),
    1920: (0b00000001101, 11), 1984: (0b000000010010, 12),
    2048: (0b000000010011, 12), 2112: (0b000000010100, 12),
    2176: (0b000000010101, 12), 2240: (0b000000010110, 12),
    2304: (0b000000010111, 12), 2368: (0b000000011100, 12),
    2432: (0b000000011101, 12), 2496: (0b000000011110, 12),
    2560: (0b000000011111, 12),
}

# T.4 end-of-line code; two in a row end a G4 page (EOFB)
_EOL = (0b000000000001, 12)


def _decode_table(codes: Dict[int, Tuple[int, int]]) -> Dict[Tuple[int, int],
                                                              int]:
    """{(bit length, code value): run} — decode by extending one bit
    at a time (max 13 steps per code word)."""
    return {(ln, v): run for run, (v, ln) in codes.items()}


_WHITE_DEC = {**_decode_table(_WHITE_CODES), **_decode_table(_EXT_CODES)}
_BLACK_DEC = {**_decode_table(_BLACK_CODES), **_decode_table(_EXT_CODES)}


class _BitReader:
    """MSB-first bit reader over bytes."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0  # bit position

    def read_bit(self) -> int:
        if self.pos >= len(self.data) * 8:
            raise ValueError("G4 bitstream exhausted")
        b = (self.data[self.pos >> 3] >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return b

    def peek(self, n: int) -> int:
        """Next n bits (zero-padded past the end), without consuming."""
        v = 0
        for i in range(n):
            p = self.pos + i
            bit = ((self.data[p >> 3] >> (7 - (p & 7))) & 1) \
                if p < len(self.data) * 8 else 0
            v = (v << 1) | bit
        return v

    def exhausted(self) -> bool:
        return self.pos >= len(self.data) * 8


def _read_run(br: _BitReader, table: Dict[Tuple[int, int], int]) -> int:
    """One total run length: make-up codes accumulate until a
    terminating code (< 64) arrives (T.4 §2.2.1.2)."""
    total = 0
    while True:
        v, ln = 0, 0
        while ln <= 13:
            v = (v << 1) | br.read_bit()
            ln += 1
            run = table.get((ln, v))
            if run is not None:
                break
        else:
            raise ValueError("invalid G4 run-length code")
        total += run
        if run < 64:
            return total


def _b1_b2(ref: List[int], a0: int, color: int, columns: int
           ) -> Tuple[int, int]:
    """b1 = first reference-line change right of a0 of opposite color
    to a0's color; b2 = the next one (T.6 §2.2.2).  Reference changes
    alternate starting white→black, so opposite-of-``color``
    transitions sit at indices with parity == ``color``."""
    i = 0
    n = len(ref)
    while i < n and ref[i] <= a0:
        i += 1
    if (i & 1) != color:
        i += 1
    b1 = ref[i] if i < n else columns
    b2 = ref[i + 1] if i + 1 < n else columns
    return min(b1, columns), min(b2, columns)


def decode_g4(data: bytes, columns: int,
              rows: Optional[int] = None) -> np.ndarray:
    """G4/MMR bytes → (H, W) uint8 bitmap, 255 = white, 0 = black.
    Stops after ``rows`` lines or at EOFB, whichever comes first."""
    br = _BitReader(data)
    ref: List[int] = []
    lines: List[np.ndarray] = []
    while rows is None or len(lines) < rows:
        if br.exhausted():
            break
        if br.peek(24) == (_EOL[0] << 12) | _EOL[0]:  # EOFB
            break
        cur: List[int] = []
        a0, color = -1, 0
        while True:
            b1, b2 = _b1_b2(ref, a0, color, columns)
            if br.peek(1) == 1:                      # V0
                br.pos += 1
                a1 = b1
            elif br.peek(3) == 0b011:                # VR1
                br.pos += 3
                a1 = b1 + 1
            elif br.peek(3) == 0b010:                # VL1
                br.pos += 3
                a1 = b1 - 1
            elif br.peek(3) == 0b001:                # horizontal
                br.pos += 3
                first = _WHITE_DEC if color == 0 else _BLACK_DEC
                second = _BLACK_DEC if color == 0 else _WHITE_DEC
                r1 = _read_run(br, first)
                r2 = _read_run(br, second)
                a1 = max(a0, 0) + r1
                a2 = a1 + r2
                if a2 < a1 or a1 < max(a0, 0):
                    raise ValueError("G4 horizontal run out of order")
                cur.extend((min(a1, columns), min(a2, columns)))
                a0 = a2
                if a0 >= columns:
                    break
                continue
            elif br.peek(4) == 0b0001:               # pass
                br.pos += 4
                a0 = b2
                if a0 >= columns:
                    break
                continue
            elif br.peek(6) == 0b000011:             # VR2
                br.pos += 6
                a1 = b1 + 2
            elif br.peek(6) == 0b000010:             # VL2
                br.pos += 6
                a1 = b1 - 2
            elif br.peek(7) == 0b0000011:            # VR3
                br.pos += 7
                a1 = b1 + 3
            elif br.peek(7) == 0b0000010:            # VL3
                br.pos += 7
                a1 = b1 - 3
            elif br.peek(12) == _EOL[0]:
                raise ValueError("unexpected EOL inside G4 line")
            else:
                raise ValueError("invalid G4 mode code")
            # vertical modes land here
            if a1 <= a0 and a0 >= 0:
                raise ValueError("G4 vertical move out of order")
            cur.append(min(max(a1, 0), columns))
            a0 = a1
            color ^= 1
            if a0 >= columns:
                break
        # materialize the line: runs alternate starting white
        line = np.full(columns, 255, np.uint8)
        for k in range(0, len(cur), 2):
            start = cur[k]
            end = cur[k + 1] if k + 1 < len(cur) else columns
            line[start:end] = 0
        lines.append(line)
        ref = cur
    if rows is not None and len(lines) != rows:
        raise ValueError(f"G4 stream ended after {len(lines)}/{rows} rows")
    if not lines:
        raise ValueError("empty G4 stream")
    return np.stack(lines)


# ---------------------------------------------------------------------------
# Minimal single-strip TIFF container (TIFF 6.0 baseline bilevel)
# ---------------------------------------------------------------------------

_TIFF_TAGS = (256, 257, 258, 259, 262, 273, 277, 278, 279)


def wrap_tiff_g4(g4_data: bytes, width: int, height: int) -> bytes:
    """G4 stream + dims → a minimal little-endian single-strip TIFF
    (Compression 4, PhotometricInterpretation 0 = WhiteIsZero), the
    self-describing form a content-addressed media store keeps."""
    strip_off = 8
    ifd_off = strip_off + len(g4_data)
    if ifd_off % 2:               # IFD offsets must be word-aligned
        g4_data = g4_data + b"\x00"
        ifd_off += 1
    vals = {256: width, 257: height, 258: 1, 259: 4, 262: 0,
            273: strip_off, 277: 1, 278: height, 279: len(g4_data)}
    out = bytearray(struct.pack("<2sHI", b"II", 42, ifd_off))
    out += g4_data
    out += struct.pack("<H", len(_TIFF_TAGS))
    for tag in _TIFF_TAGS:
        out += struct.pack("<HHII", tag, 4, 1, vals[tag])
    out += struct.pack("<I", 0)
    return bytes(out)


def parse_tiff_g4(payload: bytes) -> Tuple[bytes, int, int]:
    """Minimal TIFF reader for the wrapper above (any conforming
    single-strip G4 TIFF parses): returns (g4 bytes, width, height).
    Raises ValueError for anything that is not single-strip G4."""
    if len(payload) < 8 or payload[:4] != b"II*\x00":
        raise ValueError("not a little-endian TIFF")
    (ifd_off,) = struct.unpack_from("<I", payload, 4)
    (n,) = struct.unpack_from("<H", payload, ifd_off)
    tags: Dict[int, int] = {}
    for i in range(n):
        tag, typ, cnt, val = struct.unpack_from(
            "<HHII", payload, ifd_off + 2 + 12 * i)
        if typ == 3 and cnt == 1:         # SHORT packs into low bytes
            val &= 0xFFFF
        if cnt != 1:
            raise ValueError("multi-value TIFF tag unsupported")
        tags[tag] = val
    if tags.get(259) != 4:
        raise ValueError("TIFF compression is not G4")
    w, h = tags.get(256), tags.get(257)
    off, cnt = tags.get(273), tags.get(279)
    if not all(isinstance(v, int) and v > 0 for v in (w, h, cnt)) \
            or off is None:
        raise ValueError("TIFF G4 header incomplete")
    return payload[off:off + cnt], w, h


def decode_tiff_g4(payload: bytes) -> np.ndarray:
    """Wrapped fax payload → (H, W, 1) uint8 grayscale pixels."""
    data, w, h = parse_tiff_g4(payload)
    return decode_g4(data, w, h)[:, :, None]
