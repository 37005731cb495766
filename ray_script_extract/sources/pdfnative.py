"""Minimal native PDF front-end: PDF bytes → typed page records.

Re-implements (from the PDF 1.7 public spec, not from any existing
library) the slice of PDF the extraction engine needs — the reference
shelled out to poppler's ``pdftohtml -xml -zoom 1``
(`/root/reference/src/parser/analyzer/Parser.php:68-79`); this module
replaces that subprocess with an in-process reader.
``pdf_page_records`` yields, per page, exactly what that XML would
carry (page size, fontspecs, positioned text fragments) as records the
line assembler in ``engine.pagexml`` consumes directly;
``pdf_to_page_xml`` serializes the same records as pdftohtml-style
``<page><fontspec/><text .../></page>`` strings.

Supported subset (matches FIXTURES.md §4):
* object scan (robust to missing/odd xref: we scan ``N 0 obj``),
  classic dictionaries / arrays / names / numbers / strings
  (literal + hex) / indirect refs / streams;
* PDF 1.5+ compressed object streams: every ``/Type /ObjStm``
  container found by the scan is inflated and its packed objects
  added to the object map (objects from incremental-update direct
  scans win on number collision), so post-2005 PDFs whose page
  tree / fonts live only inside ObjStm extract identically to their
  classic twins — ``/Type /XRef`` cross-reference streams need no
  separate handling because discovery is scan-based, but their
  PNG-predictored Flate data decodes via the DecodeParms support;
* filters: /FlateDecode and /LZWDecode (with PNG predictors 2/10–15
  via /DecodeParms), /ASCIIHexDecode, /ASCII85Decode,
  /RunLengthDecode; /DCTDecode and /JPXDecode pass through (image
  payloads — never text content); /CCITTFaxDecode G4 images (K < 0)
  are stored wrapped in a minimal single-strip TIFF
  (``functions/faxcodec.wrap_tiff_g4``) so the content-addressed
  payload is self-describing and the perceptual pipeline can decode
  it — the raw MMR bitstream alone carries no dimensions;
* page tree traversal with /Kids recursion and /MediaBox /Resources
  /Rotate inheritance (multi-level trees exercised by fixtures);
* FULL affine text/CTM matrices (rotation + skew components tracked,
  not just translate+scale) and page /Rotate applied as the display
  rotation poppler uses — so a scanned-then-OCR'd page (/Rotate 90 +
  canceling rotated Tm) extracts horizontal lines identical to its
  unrotated twin (``tests/test_pdf_rotation.py``); text rotated
  relative to the display emits its horizontal footprint (documented
  approximation — the pdftohtml XML model has no orientation);
* content streams: BT/ET, Tf, Td, TD, TL, Tm, T*, Tj, TJ (kerning
  numbers), ', " and the text-state Tc / Tw / Tz / Ts (spec 9.4.4
  advance: ((w0/1000)·Tfs + Tc + Tw·is_space)·Th, rise shifting the
  baseline, all saved/restored by q/Q — justified word-processor PDFs
  lean on Tw/Tc) — with the text matrix tracked; fill-color operators
  rg / g / k / sc / scn (component-count heuristic for scn) feed the
  emitted ``<fontspec color>`` so Colors_List revision inference
  (``ParseText.php:691-989``) fires from raw PDFs;
* font family from /BaseFont (subset prefix stripped); Bold /
  Italic / Oblique name flags — OR'd with /FontDescriptor /Flags
  bits 7 (italic) and 19 (force-bold) — wrap runs in ``<b>``/``<i>``
  exactly like poppler's pdftohtml, driving textAttributes ranges
  (``ParseText.php:70-95``);
* widths via an embedded /Widths array when present, else the
  standard-14 AFM metrics: Courier fixed 600/1000, proportional
  Helvetica/Times tables (incl. Bold/Italic faces and Arial/
  TimesNewRoman aliases — ``_std14_widths``) so no-/Widths PDFs
  segment like poppler; ToUnicode bfchar CMaps (hex) for decode;
* simple-font base encodings: /WinAnsiEncoding (cp1252 — curly
  quotes / dashes in 0x80-0x9F, the range Word writers use) and
  /MacRomanEncoding, with /Differences remapping on top;
  latin-1 byte decode otherwise.

Coordinate convention (documented assumption, poppler unavailable in
this sandbox): at zoom 1, ``top = page_height - ty - font_size_px``
and ``left = tx`` where (tx, ty) is the text-space origin of the run;
fixture PDFs are authored in exactly these coordinates so the
line-bucketing (±4 px) and gap (÷7) arithmetic fires identically.
"""

from __future__ import annotations

import hashlib
import math
import re
import zlib
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple
from xml.sax.saxutils import escape, quoteattr

from ..engine.pagexml import Fragment

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj")
# characters XML 1.0 forbids: most C0 controls, surrogates and the
# U+FFFE/U+FFFF non-characters; real-world PDFs can decode to them
_XML_INVALID = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_WS = b"\x00\t\n\x0c\r "
# a name runs to the next whitespace or delimiter ()<>[]{}/%
_RE_NAME_BODY = re.compile(rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]*")
# lexer token patterns, compiled once and matched AT a position
# (pattern.match(data, pos)) so no per-token buffer slice happens
_RE_REF = re.compile(rb"[+-]?\d+\s+\d+\s+R\b")
_RE_NUM = re.compile(rb"[+-]?(\d+\.\d*|\.\d+|\d+)")
_RE_KW = re.compile(rb"[A-Za-z'\"*]+")
# inline-image terminator: EI delimited by PDF whitespace on both
# sides (or stream end) — bare \bEI\b false-positives on sample bytes
# like b"xEI(" where the neighbours are non-word bytes
_RE_EI = re.compile(rb"(?:^|[\x00\t\n\x0c\r ])EI(?=[\x00\t\n\x0c\r ]|$)")
_RE_STR_PLAIN = re.compile(rb"[^\\()]+")


class Ref:
    __slots__ = ("num",)

    def __init__(self, num: int) -> None:
        self.num = num

    def __repr__(self) -> str:
        return f"Ref({self.num})"


class Keyword:
    """A bare keyword token (content-stream operator)."""

    __slots__ = ("name",)

    def __init__(self, name: bytes) -> None:
        self.name = name


class Stream:
    __slots__ = ("dict", "data", "num", "gen")

    def __init__(self, d: Dict, data: bytes,
                 num: int = 0, gen: int = 0) -> None:
        self.dict = d
        self.data = data
        self.num = num   # owning object number (per-object decryption
        self.gen = gen   # keys need it; 0 when synthesized in tests)


class _Lexer:
    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def skip_ws(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = data[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x25:  # '%' comment
                while self.pos < n and data[self.pos] not in (0x0A, 0x0D):
                    self.pos += 1
            else:
                break

    def peek(self) -> int:
        return self.data[self.pos] if self.pos < len(self.data) else -1

    def parse_object(self):
        self.skip_ws()
        data = self.data
        c = self.peek()
        if c == -1:
            return None
        if c == 0x2F:  # '/'
            return self._parse_name()
        if c == 0x28:  # '('
            return self._parse_literal_string()
        if c == 0x3C:  # '<'
            if data[self.pos:self.pos + 2] == b"<<":
                return self._parse_dict_or_stream()
            return self._parse_hex_string()
        if c == 0x5B:  # '['
            return self._parse_array()
        # number / ref / keyword — position-anchored compiled matches:
        # a `data[self.pos:]` slice here would copy the remaining
        # buffer per token, turning content-stream lexing O(n^2)
        m = _RE_REF.match(data, self.pos)
        if m:
            num = int(m.group(0).split()[0])
            self.pos = m.end()
            return Ref(num)
        m = _RE_NUM.match(data, self.pos)
        if m:
            tok = m.group(0)
            self.pos = m.end()
            return float(tok) if b"." in tok else int(tok)
        m = _RE_KW.match(data, self.pos)
        if m:
            kw = m.group(0)
            self.pos = m.end()
            if kw == b"true":
                return True
            if kw == b"false":
                return False
            if kw == b"null":
                return None
            return Keyword(kw)  # content-stream operator
        self.pos += 1
        return None

    def _parse_name(self) -> str:
        m = _RE_NAME_BODY.match(self.data, self.pos + 1)
        self.pos = m.end()
        raw = m.group(0)
        if b"#" in raw:  # #xx escapes (rare — skip the sub otherwise)
            raw = re.sub(rb"#([0-9A-Fa-f]{2})",
                         lambda m: bytes([int(m.group(1), 16)]), raw)
        return "/" + raw.decode("latin-1")

    def _parse_literal_string(self) -> bytes:
        self.pos += 1
        out = bytearray()
        depth = 1
        data, n = self.data, len(self.data)
        while self.pos < n:
            # bulk-copy the run up to the next special byte — text
            # strings are mostly plain, so the per-char loop below
            # should only ever see \\ ( )
            m = _RE_STR_PLAIN.match(data, self.pos)
            if m:
                out += m.group(0)
                self.pos = m.end()
                if self.pos >= n:
                    break
            c = data[self.pos]
            if c == 0x5C:  # backslash
                self.pos += 1
                if self.pos >= n:
                    break
                e = data[self.pos]
                esc = {0x6E: 0x0A, 0x72: 0x0D, 0x74: 0x09, 0x62: 0x08,
                       0x66: 0x0C, 0x28: 0x28, 0x29: 0x29, 0x5C: 0x5C}
                if e in esc:
                    out.append(esc[e])
                    self.pos += 1
                elif 0x30 <= e <= 0x37:  # octal
                    oct_digits = bytearray()
                    while (self.pos < n and len(oct_digits) < 3
                           and 0x30 <= data[self.pos] <= 0x37):
                        oct_digits.append(data[self.pos])
                        self.pos += 1
                    out.append(int(oct_digits, 8) & 0xFF)
                elif e in (0x0A, 0x0D):  # line continuation
                    self.pos += 1
                    if e == 0x0D and self.pos < n and data[self.pos] == 0x0A:
                        self.pos += 1
                else:
                    out.append(e)
                    self.pos += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                self.pos += 1
            elif c == 0x29:
                depth -= 1
                self.pos += 1
                if depth == 0:
                    break
                out.append(c)
            else:
                out.append(c)
                self.pos += 1
        return bytes(out)

    def _parse_hex_string(self) -> bytes:
        self.pos += 1
        end = self.data.find(b">", self.pos)
        if end == -1:
            end = len(self.data)
        inner = self.data[self.pos:end]
        self.pos = end + 1
        return _hex_bytes(inner)

    def _parse_array(self) -> List:
        self.pos += 1
        out: List = []
        while True:
            self.skip_ws()
            if self.peek() == 0x5D:
                self.pos += 1
                break
            if self.peek() == -1:
                break
            out.append(self.parse_object())
        return out

    def _parse_dict_or_stream(self):
        self.pos += 2
        d: Dict = {}
        while True:
            self.skip_ws()
            if self.data[self.pos:self.pos + 2] == b">>":
                self.pos += 2
                break
            if self.peek() == -1:
                break
            key = self.parse_object()
            val = self.parse_object()
            if isinstance(key, str):
                d[key] = val
        self.skip_ws()
        if self.data[self.pos:self.pos + 6] == b"stream":
            self.pos += 6
            if self.data[self.pos:self.pos + 2] == b"\r\n":
                self.pos += 2
            elif self.data[self.pos:self.pos + 1] in (b"\n", b"\r"):
                self.pos += 1
            length = d.get("/Length", 0)
            if isinstance(length, Ref):
                length = 0  # resolved later by endstream scan
            if length:
                data = self.data[self.pos:self.pos + int(length)]
                self.pos += int(length)
                end = self.data.find(b"endstream", self.pos)
            else:
                end = self.data.find(b"endstream", self.pos)
                data = self.data[self.pos:end if end != -1 else len(self.data)]
                data = data.rstrip(b"\r\n")
            if end != -1:
                self.pos = end + len(b"endstream")
            return Stream(d, data)
        return d


def _hex_bytes(inner: bytes) -> bytes:
    """Hex-string body → bytes: non-hex bytes dropped, an odd final
    digit padded with 0 (spec 7.3.4.3)."""
    hexstr = _RE_NON_HEX.sub(b"", inner)
    if len(hexstr) % 2:
        hexstr += b"0"
    return bytes.fromhex(hexstr.decode("ascii"))


# -- content-stream tokenizer -------------------------------------------
# One regex match covers one whole operation: its operands and then its
# operator.  Every token is possessive or atomic, so a match can only
# split the bytes the way ``_Lexer`` does; whatever the pattern does not
# cover (dicts, nested strings, comments, refs, names with #xx escapes,
# keywords inside arrays, stray delimiters) makes the match fail and
# that one operation is read by ``_Lexer`` instead.
_CS_WS = rb"[\x00\t\n\x0c\r ]*+"
_CS_NUM = rb"(?>[+-]?(?:\d+\.\d*|\.\d+|\d+))"
_CS_NAME = rb"/[^\x00\t\n\x0c\r ()<>\[\]{}/%#]*+"
_CS_STR = rb"\((?:[^\\()]|\\[\s\S])*+\)"
_CS_HEX = rb"<(?!<)[^>]*+>"
_CS_ITEM = rb"(?:%s|%s|%s|%s)" % (_CS_NUM, _CS_NAME, _CS_STR, _CS_HEX)
_CS_ARRAY = rb"\[%s(?:%s%s)*+\]" % (_CS_WS, _CS_ITEM, _CS_WS)
_CS_TOKEN = rb"(?:%s|%s|%s|%s|%s)" % (_CS_NUM, _CS_NAME, _CS_STR, _CS_HEX,
                                      _CS_ARRAY)
# groups: numbers-only operands | one escape-free string | any operands,
# then the operator
_RE_CS_OP = re.compile(
    rb"%s(?:((?:%s%s)++)|\(([^\\()]*+)\)%s|((?:%s%s)++))?([A-Za-z'\"*]++)"
    % (_CS_WS, _CS_NUM, _CS_WS, _CS_WS, _CS_TOKEN, _CS_WS))
_RE_CS_NUM = re.compile(_CS_NUM)
_RE_CS_TOKEN = re.compile(_CS_TOKEN)
_RE_NON_HEX = re.compile(rb"[^0-9A-Fa-f]")
_RE_STR_ESCAPE = re.compile(rb"\\(?:([0-7]{1,3})|(\r\n?|\n)|([\s\S]))")
_STR_ESCAPES = {0x6E: b"\n", 0x72: b"\r", 0x74: b"\t", 0x62: b"\b",
                0x66: b"\x0c", 0x28: b"(", 0x29: b")", 0x5C: b"\\"}
# what a fast match takes for an operator but the lexer does not:
# true/false/null are values, and an operator starting with R may be
# the R of an ``n g R`` reference (checked on the first byte)
_CS_NOT_OPERATORS = (b"true", b"false", b"null")


def _unescape(m: "re.Match") -> bytes:
    octal, newline, char = m.groups()
    if octal:
        return bytes([int(octal, 8) & 0xFF])
    if newline:
        return b""  # line continuation
    return _STR_ESCAPES.get(char[0], char)


def _cs_operands(args: bytes) -> List:
    """Operand tokens of a fast-matched operation, as ``_Lexer`` types
    them."""
    out: List = []
    for tok in _RE_CS_TOKEN.findall(args):
        c = tok[0]
        if c == 0x28:  # '('
            body = tok[1:-1]
            out.append(_RE_STR_ESCAPE.sub(_unescape, body)
                       if 0x5C in body else body)
        elif c == 0x2F:  # '/'
            out.append(tok.decode("latin-1"))
        elif c == 0x5B:  # '['
            out.append(_cs_operands(tok[1:-1]))
        elif c == 0x3C:  # '<'
            out.append(_hex_bytes(tok[1:-1]))
        elif 0x2E in tok:  # '.'
            out.append(float(tok))
        else:
            out.append(int(tok))
    return out


def _inline_image(lex: _Lexer) -> Tuple[Dict, bytes]:
    """Read an inline image after its ``BI`` (spec 8.9.7): the
    abbreviated parameter dict up to ``ID``, one whitespace byte, then
    raw sample bytes up to a whitespace-delimited ``EI``."""
    params: Dict = {}
    while True:
        o1 = lex.parse_object()
        if o1 is None or (isinstance(o1, Keyword) and o1.name == b"ID"):
            break
        o2 = lex.parse_object()
        if isinstance(o2, Keyword) and o2.name == b"ID":
            break
        if isinstance(o1, str):
            params[o1] = o2
    if lex.pos < len(lex.data) and lex.data[lex.pos] in _WS:
        lex.pos += 1
    m = _RE_EI.search(lex.data, lex.pos)
    sample = lex.data[lex.pos:m.start() if m else len(lex.data)]
    lex.pos = m.end() if m else len(lex.data)
    return params, sample


def _content_ops(data: bytes) -> Iterator[Tuple[bytes, List]]:
    """Content stream → (operator, operands) per operation, operands
    typed as ``_Lexer.parse_object`` returns them (stray bytes read as
    None).  ``BI`` yields ``[params, sample]``: the inline image's raw
    parameter dict and its sample bytes.  Operands after the last
    operator are dropped."""
    match = _RE_CS_OP.match
    numbers = _RE_CS_NUM.findall
    lex = _Lexer(data)
    # trailing whitespace holds no operation: stop before it
    pos, n = 0, len(data.rstrip(_WS))
    while pos < n:
        m = match(data, pos)
        op = m.group(4) if m is not None else None
        if (op is not None and op[0] != 0x52  # 'R'
                and op not in _CS_NOT_OPERATORS):
            nums, plain, args, _ = m.groups()
            if nums is not None:
                operands = [float(t) if 0x2E in t else int(t)
                            for t in numbers(nums)]
            elif plain is not None:
                operands = [plain]
            elif args is not None:
                operands = _cs_operands(args)
            else:
                operands = []
            lex.pos = m.end()
        else:
            lex.pos = pos
            operands = []
            while True:
                obj = lex.parse_object()
                if isinstance(obj, Keyword):
                    op = obj.name
                    break
                if obj is None and lex.pos >= n:
                    return
                operands.append(obj)
        if op == b"BI":
            operands = list(_inline_image(lex))
        yield op, operands
        pos = lex.pos


def _png_unpredict(data: bytes, colors: int, bpc: int, columns: int) -> bytes:
    """Reverse PNG row filters (types 0–4) — xref streams are almost
    always Flate + /Predictor 12."""
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (columns * colors * bpc + 7) // 8
    out = bytearray()
    prev = bytearray(rowlen)
    pos = 0
    while pos + 1 + rowlen <= len(data) + rowlen:  # allow short last row
        if pos >= len(data):
            break
        ftype = data[pos]
        row = bytearray(data[pos + 1:pos + 1 + rowlen])
        pos += 1 + len(row)
        if ftype == 1:  # Sub
            for i in range(bpp, len(row)):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(len(row)):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(len(row)):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + (left + prev[i]) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(len(row)):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc_) else (b if pb <= pc_ else c)
                row[i] = (row[i] + pred) & 0xFF
        out += row
        prev = row
    return bytes(out)


def _lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    """PDF LZWDecode: 9→12-bit codes, clear=256, EOD=257."""
    out = bytearray()
    table: List[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width = 9
    prev: Optional[bytes] = None
    acc = bits = 0
    for byte in data:
        acc = (acc << 8) | byte
        bits += 8
        while bits >= width:
            bits -= width
            code = (acc >> bits) & ((1 << width) - 1)
            if code == 256:
                table = [bytes([i]) for i in range(256)] + [b"", b""]
                width = 9
                prev = None
                continue
            if code == 257:
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            else:
                entry = prev + prev[:1]
                table.append(entry)
            out += entry
            prev = entry
            # EarlyChange=1 (the default, pdfminer/pdf.js convention)
            # means the encoder widens one code EARLY: the decoder must
            # switch 9→10 bits when the table holds 511 entries, not 512.
            if len(table) + early_change >= (1 << width) and width < 12:
                width += 1
    return bytes(out)


def _runlength_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        n = data[i]
        if n == 128:
            break
        if n < 128:
            out += data[i + 1:i + 2 + n]
            i += 2 + n
        else:
            out += data[i + 1:i + 2] * (257 - n)
            i += 2
    return bytes(out)


class PdfDocument:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.objects: Dict[int, object] = {}
        self._gens: Dict[int, int] = {}
        for m in _OBJ_RE.finditer(raw):
            num = int(m.group(1))
            lex = _Lexer(raw, m.end())
            try:
                obj = lex.parse_object()
            except Exception:
                continue
            if isinstance(obj, Stream):
                obj.num, obj.gen = num, int(m.group(2))
            self.objects[num] = obj
            self._gens[num] = int(m.group(2))
        # _Font per font dict (keyed by identity: the dicts live in
        # ``objects``), shared by every page and Form XObject
        self._fonts: Dict[int, "_Font"] = {}
        self._setup_decryption()
        self._expand_object_streams()

    def _trailer_dicts(self) -> List[Dict]:
        """Every trailer dict in the file (classic ``trailer`` keyword
        occurrences, later/incremental ones last) plus /Type /XRef
        stream dicts — the two places /Encrypt and /ID live."""
        out: List[Dict] = []
        for m in re.finditer(rb"trailer", self.raw):
            try:
                d = _Lexer(self.raw, m.end()).parse_object()
            except Exception:
                continue
            if isinstance(d, dict):
                out.append(d)
        for obj in self.objects.values():
            if isinstance(obj, Stream) and obj.dict.get("/Type") == "/XRef":
                out.append(obj.dict)
        return out

    def _setup_decryption(self) -> None:
        """If the trailer names an /Encrypt dict, derive the file key
        (empty user password, standard security handler) and decrypt
        every stream and string IN PLACE — before ObjStm expansion,
        since the containers themselves are encrypted.  /Type /XRef
        streams and the /Encrypt dict's own strings are exempt per
        spec."""
        enc_ref = None
        id0 = b""
        for tr in self._trailer_dicts():
            if "/Encrypt" in tr:
                enc_ref = tr["/Encrypt"]
            ids = tr.get("/ID")
            if isinstance(ids, list) and ids and isinstance(ids[0], bytes):
                id0 = ids[0]
        if enc_ref is None:
            return
        from .pdfcrypto import build_decryptor

        enc_dict = self.resolve(enc_ref)
        if not isinstance(enc_dict, dict):
            return
        dec = build_decryptor(enc_dict, id0, resolve=self.resolve)
        enc_num = enc_ref.num if isinstance(enc_ref, Ref) else -1

        def walk_strings(obj, num: int, gen: int):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    if isinstance(v, bytes):
                        obj[k] = dec.decrypt(v, num, gen)
                    else:
                        walk_strings(v, num, gen)
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    if isinstance(v, bytes):
                        obj[i] = dec.decrypt(v, num, gen)
                    else:
                        walk_strings(v, num, gen)
            elif isinstance(obj, Stream):
                walk_strings(obj.dict, num, gen)

        for num, obj in self.objects.items():
            if num == enc_num:
                continue
            gen = self._gens.get(num, 0)
            walk_strings(obj, num, gen)
            if isinstance(obj, Stream) \
                    and obj.dict.get("/Type") != "/XRef":
                obj.data = dec.decrypt(obj.data, num, gen)

    def _expand_object_streams(self) -> None:
        """Inflate every /Type /ObjStm container into the object map —
        the PDF 1.5+ path where most objects (page tree, fonts, ...)
        are invisible to the raw ``N 0 obj`` scan.  A number already
        claimed by a directly-scanned object is kept (incremental
        updates append uncompressed objects that supersede packed
        ones)."""
        for num, obj in list(self.objects.items()):
            if not (isinstance(obj, Stream)
                    and self.resolve(obj.dict.get("/Type")) == "/ObjStm"):
                continue
            try:
                data = self.stream_data(obj)
            except Exception:
                continue
            n = int(self.resolve(obj.dict.get("/N")) or 0)
            first = int(self.resolve(obj.dict.get("/First")) or 0)
            lex = _Lexer(data)
            heads: List[Tuple[int, int]] = []
            for _ in range(n):
                onum = lex.parse_object()
                ooff = lex.parse_object()
                if not isinstance(onum, int) or not isinstance(ooff, int):
                    break
                heads.append((onum, ooff))
            for onum, ooff in heads:
                if onum in self.objects:
                    continue
                try:
                    self.objects[onum] = _Lexer(data, first + ooff).parse_object()
                except Exception:
                    continue

    def font(self, font_dict: Dict) -> "_Font":
        font = self._fonts.get(id(font_dict))
        if font is None:
            font = self._fonts[id(font_dict)] = _Font(self, font_dict)
        return font

    def resolve(self, obj):
        seen = 0
        while isinstance(obj, Ref) and seen < 32:
            obj = self.objects.get(obj.num)
            seen += 1
        return obj

    def stream_data(self, stream: Stream) -> bytes:
        filt = self.resolve(stream.dict.get("/Filter"))
        parms = self.resolve(stream.dict.get("/DecodeParms")) \
            or self.resolve(stream.dict.get("/DP"))
        data = stream.data
        filters = filt if isinstance(filt, list) else ([filt] if filt else [])
        parms_list = parms if isinstance(parms, list) else [parms] * len(filters)
        if len(parms_list) < len(filters):  # short /DecodeParms list must
            # not truncate the filter chain via zip()
            parms_list = parms_list + [None] * (len(filters) - len(parms_list))
        for f, p in zip(filters, parms_list):
            f = self.resolve(f)
            p = self.resolve(p) or {}
            if f == "/FlateDecode":
                data = zlib.decompress(data)
            elif f == "/LZWDecode":
                data = _lzw_decode(
                    data, int(self.resolve(p.get("/EarlyChange")) or 1))
            elif f == "/ASCIIHexDecode":
                hexstr = re.sub(rb"[^0-9A-Fa-f]", b"",
                                data.split(b">", 1)[0])
                if len(hexstr) % 2:
                    hexstr += b"0"
                data = bytes.fromhex(hexstr.decode("ascii"))
                continue  # predictors don't apply
            elif f == "/ASCII85Decode":
                import base64
                payload = data.split(b"~>", 1)[0]
                payload = re.sub(rb"\s", b"", payload)
                data = base64.a85decode(payload, adobe=False)
                continue
            elif f == "/RunLengthDecode":
                data = _runlength_decode(data)
                continue
            elif f in ("/DCTDecode", "/JPXDecode", "/CCITTFaxDecode",
                       "/JBIG2Decode"):
                return data  # opaque image payload — never text
            elif f is None:
                continue
            else:
                raise NotImplementedError(f"PDF filter {f} not supported")
            pred = int(self.resolve(p.get("/Predictor")) or 1)
            if pred == 2:  # TIFF horizontal differencing (8-bit comps)
                colors = int(self.resolve(p.get("/Colors")) or 1)
                columns = int(self.resolve(p.get("/Columns")) or 1)
                row = columns * colors
                buf = bytearray(data)
                for r0 in range(0, len(buf), row):
                    for i in range(r0 + colors, min(r0 + row, len(buf))):
                        buf[i] = (buf[i] + buf[i - colors]) & 0xFF
                data = bytes(buf)
            elif pred >= 10:
                data = _png_unpredict(
                    data,
                    int(self.resolve(p.get("/Colors")) or 1),
                    int(self.resolve(p.get("/BitsPerComponent")) or 8),
                    int(self.resolve(p.get("/Columns")) or 1))
        return data

    def catalog(self) -> Optional[Dict]:
        for obj in self.objects.values():
            obj = obj.dict if isinstance(obj, Stream) else obj
            if isinstance(obj, dict) and obj.get("/Type") == "/Catalog":
                return obj
        return None

    def pages(self) -> List[Dict]:
        """Page dicts in document order, with inherited attributes."""
        cat = self.catalog()
        if cat is None:
            return []
        root = self.resolve(cat.get("/Pages"))
        out: List[Dict] = []
        seen: set = set()  # cycle guard: malformed /Kids can loop

        def walk(node: Dict, inherited: Dict) -> None:
            if not isinstance(node, dict) or id(node) in seen:
                return
            seen.add(id(node))
            inh = dict(inherited)
            for key in ("/MediaBox", "/Resources", "/Rotate"):
                if key in node:
                    inh[key] = node[key]
            if node.get("/Type") == "/Page":
                page = dict(node)
                for key, val in inh.items():
                    page.setdefault(key, val)
                out.append(page)
                return
            for kid in (self.resolve(node.get("/Kids")) or []):
                walk(self.resolve(kid), inh)

        walk(root, {})
        return out


# Courier standard-14: all glyphs advance 600/1000
_COURIER_WIDTH = 600


# ---------------------------------------------------------------------------
# Standard-14 proportional advance tables (Adobe Core 14 AFM metrics —
# public data shipped with every PDF renderer).  A real-world PDF set
# in Helvetica/Times WITHOUT an embedded /Widths array must still get
# poppler-grade x/width so the reference's gap arithmetic (÷7 spaces,
# ParseText.php:515-524) and ±4 px line bucketing (:286-311) fire
# identically (SURVEY §7 step 6; VERDICT r4 #1).
#
# Tables are keyed by CHARACTER (printable ASCII 32..126) so
# /Encoding /Differences remaps resolve through the decoded glyph;
# codes outside the table fall back to the Courier 600 default — the
# engine's pre-r5 conservative guess, now only for exotic glyphs.
# Per the published AFMs, Helvetica-Oblique shares Helvetica's
# advances and Helvetica-BoldOblique shares Helvetica-Bold's; the four
# Times faces all differ.  Arial / TimesNewRoman (and the PS-suffixed
# names Office writers emit) alias to the matching standard-14
# metrics — the same base-14 substitution poppler applies.  Symbol /
# ZapfDingbats are NOT tabled (their glyphs never carry screenplay
# text); they take the 600 fallback, documented here rather than
# risking wrong metrics.

def _std14_table(vals: str) -> Dict[str, int]:
    nums = [int(v) for v in vals.split()]
    assert len(nums) == 95, len(nums)
    return {chr(32 + i): w for i, w in enumerate(nums)}


_HELV_W = _std14_table("""
278 278 355 556 556 889 667 191 333 333 389 584 278 333 278 278
556 556 556 556 556 556 556 556 556 556 278 278 584 584 584 556
1015 667 667 722 722 667 611 778 722 278 500 667 556 833 722 778
667 778 722 667 611 722 667 944 667 667 611 278 278 278 469 556
333 556 556 500 556 556 278 556 556 222 222 500 222 833 556 556
556 556 333 500 278 556 500 722 500 500 500 334 260 334 584
""")

_HELV_BOLD_W = _std14_table("""
278 333 474 556 556 889 722 238 333 333 389 584 278 333 278 278
556 556 556 556 556 556 556 556 556 556 333 333 584 584 584 611
975 722 722 722 722 667 611 778 722 278 556 722 611 833 722 778
667 778 722 667 611 722 667 944 667 667 611 333 278 333 584 556
333 556 611 556 611 556 333 611 611 278 278 556 278 889 611 611
611 611 389 556 333 611 556 778 556 556 500 389 280 389 584
""")

_TIMES_R_W = _std14_table("""
250 333 408 500 500 833 778 180 333 333 500 564 250 333 250 278
500 500 500 500 500 500 500 500 500 500 278 278 564 564 564 444
921 722 667 667 722 611 556 722 722 333 389 722 611 889 722 722
556 722 667 556 611 722 722 944 722 722 611 333 278 333 469 500
333 444 500 444 500 444 333 500 500 278 278 500 278 778 500 500
500 500 333 389 278 500 500 722 500 500 444 480 200 480 541
""")

_TIMES_B_W = _std14_table("""
250 333 555 500 500 1000 833 278 333 333 500 570 250 333 250 278
500 500 500 500 500 500 500 500 500 500 333 333 570 570 570 500
930 722 667 722 722 667 611 778 778 389 500 778 667 944 722 778
611 778 722 556 667 722 722 1000 722 722 667 333 278 333 581 500
333 500 556 444 556 444 333 500 556 278 333 556 278 833 556 500
556 556 444 389 333 556 500 722 500 500 444 394 220 394 520
""")

_TIMES_I_W = _std14_table("""
250 333 420 500 500 833 778 214 333 333 500 675 250 333 250 278
500 500 500 500 500 500 500 500 500 500 333 333 675 675 675 500
920 611 611 667 722 611 611 722 722 333 444 667 556 833 667 722
611 722 611 500 556 722 611 833 611 556 556 389 278 389 422 500
333 500 500 444 500 444 278 500 500 278 278 444 278 722 500 500
500 500 389 389 278 500 444 667 444 444 389 400 275 400 541
""")

_TIMES_BI_W = _std14_table("""
250 389 555 500 500 833 778 278 333 333 500 570 250 333 250 278
500 500 500 500 500 500 500 500 500 500 333 333 570 570 570 500
832 667 667 667 722 667 667 722 778 389 500 667 611 889 722 722
611 722 667 556 611 722 667 889 667 611 611 333 278 333 570 500
333 500 500 444 500 444 333 500 556 278 278 500 278 778 556 500
500 500 389 389 278 556 444 667 500 444 389 348 220 348 570
""")


def _std14_widths(family: str, bold: bool,
                  italic: bool) -> Optional[Dict[str, int]]:
    """Pick the standard-14 advance table for a base font with no
    embedded /Widths; None keeps the Courier fixed-600 path (Courier
    family, Symbol/ZapfDingbats, and anything unrecognized)."""
    fam = family.lower()
    if "helvetica" in fam or "arial" in fam:
        return _HELV_BOLD_W if bold else _HELV_W
    if "times" in fam:
        if bold and italic:
            return _TIMES_BI_W
        if bold:
            return _TIMES_B_W
        if italic:
            return _TIMES_I_W
        return _TIMES_R_W
    return None

# Compact Adobe-Glyph-List subset for /Encoding /Differences names:
# ASCII letters map to themselves; names below cover digits,
# punctuation and the common Latin-1 accents; 'uniXXXX' handled
# programmatically.
_GLYPH_NAMES: Dict[str, str] = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "asciicircum": "^",
    "underscore": "_", "grave": "`", "braceleft": "{", "bar": "|",
    "braceright": "}", "asciitilde": "~", "quoteleft": "‘",
    "quoteright": "’", "quotedblleft": "“",
    "quotedblright": "”", "endash": "–", "emdash": "—",
    "bullet": "•", "ellipsis": "…", "fi": "ﬁ",
    "fl": "ﬂ", "eacute": "é", "egrave": "è",
    "agrave": "à", "ccedilla": "ç", "uacute": "ú",
    "oacute": "ó", "iacute": "í", "aacute": "á",
    "ntilde": "ñ", "adieresis": "ä", "odieresis": "ö",
    "udieresis": "ü", "germandbls": "ß", "Eacute": "É",
    "degree": "°", "copyright": "©", "registered": "®",
    "trademark": "™",
}


def _image_store_payload(doc: "PdfDocument", xo: Stream) -> bytes:
    """The bytes a content-addressed media store keeps for an image
    XObject.  DCT/JPX payloads are self-describing and stay as-is;
    a G4 fax payload (/CCITTFaxDecode with /K < 0, no
    /EncodedByteAlign) is wrapped in a minimal single-strip TIFF
    carrying its /Columns × rows, because the raw MMR bitstream alone
    cannot be decoded later.  Anything unexpected falls back to the
    raw stored bytes (the byte-hash feature contract downstream)."""
    try:
        filt = doc.resolve(xo.dict.get("/Filter"))
        filters = filt if isinstance(filt, list) else ([filt] if filt else [])
        filters = [doc.resolve(f) for f in filters]
        if not filters or filters[-1] != "/CCITTFaxDecode":
            return xo.data
        parms = doc.resolve(xo.dict.get("/DecodeParms")) \
            or doc.resolve(xo.dict.get("/DP"))
        if isinstance(parms, list):
            parms = doc.resolve(parms[-1]) if parms else None
        parms = parms if isinstance(parms, dict) else {}
        k = int(doc.resolve(parms.get("/K")) or 0)
        align = bool(doc.resolve(parms.get("/EncodedByteAlign")) or False)
        if k >= 0 or align:
            return xo.data       # G3 / byte-aligned: keep raw bytes
        columns = int(doc.resolve(parms.get("/Columns")) or 1728)
        rows = int(doc.resolve(parms.get("/Rows"))
                   or doc.resolve(xo.dict.get("/Height")) or 0)
        if columns <= 0 or rows <= 0:
            return xo.data
        from ..functions.faxcodec import wrap_tiff_g4

        return wrap_tiff_g4(doc.stream_data(xo), columns, rows)
    except Exception:
        return xo.data


def _glyph_to_char(name: str) -> Optional[str]:
    if len(name) == 1 and name.isascii():
        return name
    if name in _GLYPH_NAMES:
        return _GLYPH_NAMES[name]
    if name.startswith("uni") and len(name) == 7:
        try:
            return chr(int(name[3:], 16))
        except ValueError:
            return None
    return None


# Non-Unicode predefined CMap -> the legacy national encoding its
# codespace encodes (Adobe's public CMap resources define each as the
# named encoding of its character collection; Python ships codecs for
# all of them).  Registered Adobe-GB1 / Japan1 / CNS1 / Korea1 forms:
_CJK_CMAP_CODECS = [
    (r"/GB-EUC-[HV]$", "gb2312"),          # EUC-CN, Adobe-GB1
    (r"/GBpc-EUC-[HV]$", "gb2312"),        # Mac GB 2312 variant
    (r"/GBKp?-EUC-[HV]$", "gbk"),          # GBK
    (r"/GBK2K-[HV]$", "gb18030"),          # GB 18030-2000
    (r"/UniGB-UTF8-[HV]$", "utf-8"),
    (r"/90msp?-RKSJ-[HV]$", "cp932"),      # Microsoft Shift-JIS
    (r"/90pv-RKSJ-[HV]$", "cp932"),        # Mac KanjiTalk6 ~ SJIS
    (r"/(Add|Ext)-RKSJ-[HV]$", "cp932"),
    (r"/EUC-[HV]$", "euc_jp"),             # JIS X 0208 EUC
    (r"/UniJIS(2004|X0213.*)?-UTF8-[HV]$", "utf-8"),
    (r"/B5pc-[HV]$", "big5"),              # Mac Big-5
    (r"/ETen(ms)?-B5-[HV]$", "cp950"),     # ETen Big-5
    (r"/HKscs-B5-[HV]$", "big5hkscs"),
    (r"/UniCNS-UTF8-[HV]$", "utf-8"),
    (r"/KSC-EUC-[HV]$", "euc_kr"),         # KS X 1001 EUC
    (r"/KSCms-UHC(-HW)?-[HV]$", "cp949"),  # Unified Hangul Code
    (r"/UniKS-UTF8-[HV]$", "utf-8"),
]


@lru_cache(maxsize=4)
def _simple_encoding_table(enc_name: str) -> Optional[tuple]:
    """256-entry decode table for a simple-font base encoding.  Word
    processors emit /WinAnsiEncoding (cp1252) whose 0x80-0x9F range
    carries curly quotes / en-em dashes — latin-1 would decode those
    to C1 controls, and the reference's CONT'D white-out explicitly
    matches curly quotes (Blocks white_out family).  cp1252's five
    undefined bytes fall back to their latin-1 char, matching
    poppler's lenient table."""
    codec = {"/WinAnsiEncoding": "cp1252",
             "/MacRomanEncoding": "mac_roman"}.get(enc_name)
    if codec is None:
        return None
    table = []
    for c in range(256):
        try:
            table.append(bytes([c]).decode(codec))
        except UnicodeDecodeError:
            table.append(chr(c))
    return tuple(table)


class _Font:
    def __init__(self, doc: PdfDocument, font_dict: Dict) -> None:
        self.base = doc.resolve(font_dict.get("/BaseFont")) or "/Courier"
        self.first_char = doc.resolve(font_dict.get("/FirstChar"))
        widths = doc.resolve(font_dict.get("/Widths"))
        self.widths = [doc.resolve(w) for w in widths] if widths else None
        self.to_unicode = self._parse_tounicode(doc, font_dict)
        # simple-font /Encoding /Differences: code -> glyph name ->
        # unicode (ToUnicode wins when both exist, per spec precedence)
        self.diff_map: Dict[int, str] = {}
        enc = doc.resolve(font_dict.get("/Encoding"))
        # base encoding: a bare name, or /BaseEncoding inside an
        # encoding dict (the /Differences then remap on top of it)
        base_enc = enc if isinstance(enc, str) else (
            doc.resolve(enc.get("/BaseEncoding"))
            if isinstance(enc, dict) else None)
        self.enc_table = (_simple_encoding_table(base_enc)
                          if isinstance(base_enc, str) else None)
        if isinstance(enc, dict):
            diffs = doc.resolve(enc.get("/Differences"))
            if isinstance(diffs, list):
                code = 0
                for item in diffs:
                    item = doc.resolve(item)
                    if isinstance(item, (int, float)):
                        code = int(item)
                    elif isinstance(item, str):
                        ch = _glyph_to_char(item.lstrip("/"))
                        if ch is not None:
                            self.diff_map[code] = ch
                        code += 1
        # CID/composite fonts (/Subtype /Type0, Identity-H/V 2-byte
        # codes): widths come from the descendant CIDFont's /W ranges
        # with /DW default — code == CID under Identity encodings.
        # Predefined Unicode CMaps (UniGB/UniJIS/UniKS/UniCNS ‑UCS2/
        # ‑UTF16, H and V forms) have a UCS-2/UTF-16BE CODESPACE, so
        # code bytes ARE the Unicode encoding: decode via utf-16-be
        # (surrogate pairs in the UTF16 forms combine correctly, which
        # per-code chr() cannot do).  Non-Unicode predefined CMaps
        # (GB-EUC-H, 90ms-RKSJ-H, ETen-B5-H, KSCms-UHC-H, …) have
        # codespaces that ARE the corresponding legacy national
        # encodings (EUC-CN, Shift-JIS/CP932, Big5, UHC — per Adobe's
        # public CMap resources, each is "the <encoding> encoding of
        # the <collection> character set"), so TEXT decodes through
        # Python's built-in codec for that encoding — no Adobe CID
        # tables needed for extraction.  Widths for non-Identity CMaps
        # use /DW (a per-CID width lookup WOULD need the tables);
        # vertical (V) forms decode identically, writing direction is
        # carried by Tm as everywhere else in this engine.
        subtype = doc.resolve(font_dict.get("/Subtype"))
        self.cid = subtype == "/Type0"
        # Type3 fonts (spec 9.6.5): glyphs are content streams and the
        # /Widths entries are in GLYPH space, mapped to text space by
        # /FontMatrix — not the fixed 1/1000 of Type1/TrueType.
        # width_scale converts them to the /1000-based units the
        # advance arithmetic expects: units = w_glyph·FontMatrix[a]·1000
        # (horizontal component only; a skewed FontMatrix has no
        # faithful representation in the pdftohtml XML model).
        self.type3 = subtype == "/Type3"
        self.width_scale = 1.0
        if self.type3:
            fm = doc.resolve(font_dict.get("/FontMatrix"))
            try:
                a = float(doc.resolve(fm[0]))
            except Exception:
                a = 0.001
            self.width_scale = a * 1000.0
        enc_name = doc.resolve(font_dict.get("/Encoding"))
        self.cid_utf16 = bool(
            isinstance(enc_name, str)
            and re.match(r"/Uni(GB|JIS|JIS2004|JISX0213|KS|CNS)"
                         r"-(UCS2|UTF16)-[HV]$", enc_name))
        self.cid_codec = None
        if isinstance(enc_name, str) and not self.cid_utf16:
            for pat, codec in _CJK_CMAP_CODECS:
                if re.match(pat, enc_name):
                    self.cid_codec = codec
                    break
        self.default_width = 1000.0
        self.cid_widths: Dict[int, float] = {}
        desc_dict: Optional[Dict] = None
        if self.cid:
            desc = doc.resolve(font_dict.get("/DescendantFonts")) or []
            df = doc.resolve(desc[0]) if desc else None
            if isinstance(df, dict):
                self.default_width = float(
                    doc.resolve(df.get("/DW")) or 1000)
                self._parse_w_array(doc, doc.resolve(df.get("/W")))
                desc_dict = df
        # family + style flags, pdftohtml-style: subset prefix
        # (ABCDEF+) stripped, style read from the PostScript name and
        # OR'd with FontDescriptor flag bits (7 = italic, 19 = bold)
        name = str(self.base).lstrip("/")
        m = re.match(r"[A-Z]{6}\+(.*)", name)
        if m:
            name = m.group(1)
        self.family = re.split(r"[-,]", name)[0] or "Courier"
        self.bold = "Bold" in name
        self.italic = ("Italic" in name) or ("Oblique" in name)
        desc = doc.resolve(font_dict.get("/FontDescriptor"))
        if desc is None and desc_dict is not None:
            desc = doc.resolve(desc_dict.get("/FontDescriptor"))
        # /MissingWidth (spec 9.8.1): the advance for codes outside
        # FirstChar..LastChar when /Widths is present.  Poppler
        # defaults it to 0; this engine keeps the Courier-600 fallback
        # when the descriptor is silent (a malformed PDF whose codes
        # all miss the table would otherwise glue every word together)
        # and honours an explicit value.
        self.missing_width = float(_COURIER_WIDTH)
        if isinstance(desc, dict):
            flags = doc.resolve(desc.get("/Flags"))
            if isinstance(flags, (int, float)):
                flags = int(flags)
                self.italic = self.italic or bool(flags & (1 << 6))
                self.bold = self.bold or bool(flags & (1 << 18))
            mw = doc.resolve(desc.get("/MissingWidth"))
            if isinstance(mw, (int, float)):
                self.missing_width = float(mw)
        # proportional standard-14 metrics kick in ONLY when the font
        # embeds no /Widths (an embedded array always wins, per spec);
        # selection follows the resolved family + style flags above
        self.std14: Optional[Dict[str, int]] = (
            _std14_widths(self.family, self.bold, self.italic)
            if self.widths is None and not self.cid and not self.type3
            else None)

    def _parse_w_array(self, doc: PdfDocument, w) -> None:
        """CIDFont /W: ``[c [w...]]`` per-CID runs or ``[c1 c2 w]``
        ranges, freely mixed."""
        if not isinstance(w, list):
            return
        i = 0
        while i < len(w):
            first = doc.resolve(w[i])
            if i + 1 >= len(w) or not isinstance(first, (int, float)):
                break
            nxt = doc.resolve(w[i + 1])
            if isinstance(nxt, list):
                for j, wv in enumerate(nxt):
                    self.cid_widths[int(first) + j] = float(doc.resolve(wv))
                i += 2
            elif i + 2 < len(w):
                wv = float(doc.resolve(w[i + 2]))
                for cid in range(int(first), int(doc.resolve(nxt)) + 1):
                    self.cid_widths[cid] = wv
                i += 3
            else:
                break

    @staticmethod
    def _parse_tounicode(doc: PdfDocument, font_dict: Dict) -> Optional[Dict[int, str]]:
        tu = doc.resolve(font_dict.get("/ToUnicode"))
        if not isinstance(tu, Stream):
            return None
        try:
            text = doc.stream_data(tu).decode("latin-1")
        except Exception:
            return None
        mapping: Dict[int, str] = {}
        for m in re.finditer(r"beginbfchar(.*?)endbfchar", text, re.S):
            for src, dst in re.findall(r"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>",
                                       m.group(1)):
                code = int(src, 16)
                chars = bytes.fromhex(dst).decode("utf-16-be", "ignore")
                mapping[code] = chars
        for m in re.finditer(r"beginbfrange(.*?)endbfrange", text, re.S):
            body = m.group(1)
            for lo, hi, dst in re.findall(
                    r"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>",
                    body):
                lo_i, hi_i = int(lo, 16), int(hi, 16)
                if len(dst) <= 4:
                    base = int(dst, 16)
                    for code in range(lo_i, hi_i + 1):
                        mapping[code] = chr(base + (code - lo_i))
                else:
                    # multi-unit destination (ligature/surrogate):
                    # spec 9.10.3 increments the LAST code unit only
                    units = bytes.fromhex(dst)
                    prefix, last = units[:-2], int.from_bytes(
                        units[-2:], "big")
                    for code in range(lo_i, hi_i + 1):
                        mapping[code] = (
                            prefix + ((last + code - lo_i) & 0xFFFF)
                            .to_bytes(2, "big")).decode(
                                "utf-16-be", "ignore")
            # array form: <lo> <hi> [<d1> <d2> …] — one destination
            # string per code, no incrementing
            for lo, hi, arr in re.findall(
                    r"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>\s*"
                    r"\[((?:\s*<[0-9A-Fa-f]+>)+)\s*\]", body):
                lo_i, hi_i = int(lo, 16), int(hi, 16)
                dsts = re.findall(r"<([0-9A-Fa-f]+)>", arr)
                for off, d in enumerate(dsts):
                    if lo_i + off > hi_i:
                        break
                    mapping[lo_i + off] = bytes.fromhex(d).decode(
                        "utf-16-be", "ignore")
        return mapping or None

    def _codes(self, raw: bytes):
        """Character codes of a shown string: big-endian 2-byte codes
        for CID fonts (Identity-H/V), else the bytes themselves."""
        if self.cid:
            return [(raw[i] << 8) | raw[i + 1]
                    for i in range(0, len(raw) - 1, 2)]
        return raw

    def decode(self, raw: bytes) -> str:
        codes = self._codes(raw)
        if self.to_unicode:
            return "".join(self.to_unicode.get(c, chr(c)) for c in codes)
        if self.cid and self.cid_utf16:
            return raw.decode("utf-16-be", "ignore")
        if self.cid and self.cid_codec:
            return raw.decode(self.cid_codec, "ignore")
        if self.cid:
            return "".join(chr(c) for c in codes)
        if self.diff_map or self.enc_table:
            return "".join(map(self._char_of, codes))
        return raw.decode("latin-1")

    def _char_of(self, code: int) -> str:
        """Simple-font code → char: /Differences first, then the base
        encoding table (WinAnsi/MacRoman), then latin-1."""
        ch = self.diff_map.get(code)
        if ch is not None:
            return ch
        if self.enc_table is not None:
            return self.enc_table[code]
        return chr(code)

    def advance_units(self, raw: bytes) -> float:
        if self.cid and self.cid_codec:
            # mixed 1/2-byte legacy codespace: one CID per DECODED
            # char (the fixed 2-byte walk would halve ASCII runs);
            # per-CID /W lookup would need Adobe's CID tables, so
            # every CID advances /DW — same rule as the widths note
            # in __init__
            return self.default_width * len(raw.decode(self.cid_codec,
                                                       "ignore"))
        codes = self._codes(raw)
        if self.cid:
            return sum(self.cid_widths.get(c, self.default_width)
                       for c in codes)
        if self.widths is not None and self.first_char is not None:
            total = 0.0
            for b in codes:
                idx = b - int(self.first_char)
                if 0 <= idx < len(self.widths):
                    total += float(self.widths[idx])
                else:
                    total += self.missing_width
            return total * self.width_scale
        if self.std14 is not None:
            # resolve through /Differences + the base encoding so a
            # remapped code advances by its actual glyph; glyphs
            # outside the table fall back to 600
            return float(sum(
                self.std14.get(self._char_of(c), _COURIER_WIDTH)
                for c in codes))
        return _COURIER_WIDTH * len(codes)


class _TextRun:
    __slots__ = ("x", "y", "width", "size", "text", "font_key",
                 "family", "color", "bold", "italic")

    def __init__(self, x: float, y: float, width: float, size: float,
                 text: str, font_key: str, family: str = "Courier",
                 color: str = "#000000", bold: bool = False,
                 italic: bool = False) -> None:
        self.x = x
        self.y = y
        self.width = width
        self.size = size
        self.text = text
        self.font_key = font_key
        self.family = family
        self.color = color
        self.bold = bold
        self.italic = italic


_MAT_ID = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _mat_mul(m1, m2):
    """m1 then m2 under PDF's row-vector convention
    ([x y 1]·M, spec 8.3.4): the result applies m1 first."""
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2,
            e1 * a2 + f1 * c2 + e2, e1 * b2 + f1 * d2 + f2)


def _mat_apply(m, x, y):
    return (m[0] * x + m[2] * y + m[4], m[1] * x + m[3] * y + m[5])


def _mat_translate(dx, dy, m):
    """translate(dx,dy) × m — the only multiply the text hot path
    (Td/T*/TJ/show advance) ever needs; avoids the general 6×6."""
    return (m[0], m[1], m[2], m[3],
            dx * m[0] + dy * m[2] + m[4],
            dx * m[1] + dy * m[3] + m[5])


def _rotate_ctm(rot: int, w: float, h: float):
    """Initial device CTM + display page dims for /Rotate (clockwise
    display rotation, spec 7.7.3.3): content (x, y) bottom-up →
    display (x', y') bottom-up with swapped dims for 90/270 —
    poppler applies the same page-level rotation before text
    extraction, so a scanned page whose text matrix rotation cancels
    /Rotate reads horizontally again."""
    if rot == 90:
        return (0.0, -1.0, 1.0, 0.0, 0.0, w), h, w
    if rot == 180:
        return (-1.0, 0.0, 0.0, -1.0, w, h), w, h
    if rot == 270:
        return (0.0, 1.0, -1.0, 0.0, h, 0.0), h, w
    return _MAT_ID, w, h


def _extract_page_runs(doc: PdfDocument, page: Dict
                       ) -> Tuple[List[_TextRun], List[Dict], float, float]:
    media = [float(doc.resolve(v)) for v in (doc.resolve(page.get("/MediaBox"))
                                             or [0, 0, 612, 792])]
    rot = int(doc.resolve(page.get("/Rotate")) or 0) % 360
    base_ctm, page_w, page_h = _rotate_ctm(
        rot if rot in (90, 180, 270) else 0,
        media[2] - media[0], media[3] - media[1])
    resources = doc.resolve(page.get("/Resources")) or {}

    def load_resources(res: Dict) -> Tuple[Dict, Dict]:
        font_res = doc.resolve(res.get("/Font")) or {}
        fonts = {name: doc.font(doc.resolve(fd))
                 for name, fd in font_res.items()}
        xobjects = doc.resolve(res.get("/XObject")) or {}
        return fonts, xobjects

    page_fonts, page_xobjects = load_resources(resources)

    contents = doc.resolve(page.get("/Contents"))
    chunks: List[bytes] = []
    for c in (contents if isinstance(contents, list) else [contents]):
        c = doc.resolve(c)
        if isinstance(c, Stream):
            chunks.append(doc.stream_data(c))
    content = b"\n".join(chunks)

    runs: List[_TextRun] = []
    media: List[Dict] = []
    font: Optional[_Font] = None
    font_key = ""
    size = 12.0
    leading = 0.0
    # FULL affine text matrices (spec 9.4.2): tm = current text
    # matrix, tlm = text line matrix; rotation/skew components are
    # tracked so rotated pages (/Rotate × rotated Tm, the scanned-OCR
    # shape) land axis-aligned in display space
    tm = tlm = _MAT_ID
    # full affine CTM, pre-composed with the /Rotate display rotation;
    # real PDFs often flip the device space with `1 0 0 -1 0 H cm`
    ctm = base_ctm
    ctm_stack: List[tuple] = []
    # text-state spacing (spec 9.3): graphics-state params, persist
    # across BT/ET, saved/restored by q/Q
    char_spacing = 0.0   # Tc
    word_spacing = 0.0   # Tw
    hscale = 1.0         # Tz / 100
    rise = 0.0           # Ts
    # Tr text rendering mode (spec 9.3.6).  Modes with (mode & 3) == 3
    # (3 = invisible, 7 = clip-only) paint no glyphs: poppler's
    # pdftohtml drops them unless -hidden is passed, and the reference
    # consumes default pdftohtml -xml output — so the engine drops
    # them too, while STILL advancing the text matrix (invisible text,
    # e.g. an OCR layer under a scanned image, moves the pen like any
    # other text).
    render_mode = 0      # Tr

    fill_color = "#000000"

    def _rgb_hex(r: float, g: float, b: float) -> str:
        clamp = lambda v: max(0, min(255, round(v * 255)))  # noqa: E731
        return f"#{clamp(r):02x}{clamp(g):02x}{clamp(b):02x}"

    def _components_to_hex(comps: List[float]) -> str:
        if len(comps) == 1:  # gray
            return _rgb_hex(comps[0], comps[0], comps[0])
        if len(comps) == 3:  # rgb
            return _rgb_hex(*comps)
        if len(comps) == 4:  # cmyk
            c, m_, y_, k_ = comps
            return _rgb_hex((1 - min(1, c + k_)), (1 - min(1, m_ + k_)),
                            (1 - min(1, y_ + k_)))
        return "#000000"

    def show(raw: bytes, adjust: float = 0.0) -> None:
        nonlocal tm
        if font is None or not raw:
            return
        text = font.decode(raw)
        # Advance per spec 9.4.4: ((w0/1000)·Tfs + Tc + Tw·is_space)·Th
        # — char spacing applies per shown code, word spacing only to
        # single-byte code 32 (never 2-byte CID codes), horizontal
        # scaling multiplies the whole displacement.  Justified text
        # from word processors leans on Tw/Tc, so dropping them would
        # misplace every following fragment on the line.
        n_codes = (len(raw) // 2) if font.cid else len(raw)
        n_spaces = 0 if font.cid else raw.count(0x20)
        text_adv = (font.advance_units(raw) / 1000.0 * size
                    + n_codes * char_spacing
                    + n_spaces * word_spacing) * hscale
        m = _mat_mul(tm, ctm)
        # Ts rise shifts the baseline in unscaled text space (spec
        # 9.3.7) — a superscript footnote marker must not drag its
        # fragment onto the neighbouring bucketed line
        ox, oy = _mat_apply(m, 0.0, rise)
        advx = text_adv * m[0]
        advy = text_adv * m[1]
        if abs(advy) <= 1e-9 + 1e-6 * abs(advx):
            # axis-aligned horizontal in DISPLAY space (identity,
            # flipped, or rotation canceled by /Rotate): the emitted
            # (x, baseline-y, width) convention matches pdftohtml —
            # a flipped CTM combined with the flipped Tm such PDFs
            # use cancels, so top = H - y - size holds throughout
            dev_x = min(ox, ox + advx)
            dev_y = oy
            width = abs(advx)
        else:
            # text rotated relative to the display (rare non-canceling
            # case): emit the glyph box's horizontal footprint at the
            # baseline origin — a documented approximation; vertical
            # text has no faithful <text> representation in the
            # pdftohtml XML model
            szx = size * m[2]
            xs = (ox, ox + advx, ox + szx, ox + advx + szx)
            dev_x = min(xs)
            dev_y = min(oy, oy + advy)
            width = max(xs) - dev_x
        if (render_mode & 3) != 3:
            # invisible (3) / clip-only (7) text advances but emits
            # nothing — HtmlOutputDev's `(render & 3) == 3` skip
            runs.append(_TextRun(dev_x, dev_y, width,
                                 size * abs(m[3]) if abs(m[3]) > 1e-9
                                 else size * abs(m[2]), text,
                                 f"{font_key}:{fill_color}",
                                 font.family, fill_color,
                                 font.bold, font.italic))
        tm = _mat_translate(text_adv, 0.0, tm)

    def exec_content(data: bytes, fonts: Dict, xobjects: Dict,
                     depth: int) -> None:
        """Interpret one content stream; recurses into Form XObjects
        (``Do``) with the graphics state saved/restored per spec.
        ``_content_ops`` reads inline images (``BI … EI`` carry raw
        binary) as one operation."""
        nonlocal font, font_key, size, leading, tm, tlm
        nonlocal ctm, fill_color
        nonlocal char_spacing, word_spacing, hscale, rise, render_mode
        for op, stack in _content_ops(data):
            # text showing and positioning first: they are almost all
            # of a text page's operations
            if op == b"Tj":
                if stack:
                    show(stack[-1] if isinstance(stack[-1], (bytes, bytearray)) else b"")
            elif op == b"Tm":
                if len(stack) >= 6:
                    tm = tlm = tuple(map(float, stack[-6:]))
            elif op == b"Td":
                if len(stack) >= 2:
                    tlm = _mat_translate(float(stack[-2]), float(stack[-1]), tlm)
                    tm = tlm
            elif op == b"TJ":
                if stack and isinstance(stack[-1], list):
                    for item in stack[-1]:
                        if isinstance(item, (bytes, bytearray)):
                            show(bytes(item))
                        elif isinstance(item, (int, float)):
                            # spec 9.4.3: the number translates the text
                            # matrix by -n/1000·Tfs·Th along its x axis
                            tm = _mat_translate(
                                -float(item) / 1000.0 * size * hscale,
                                0.0, tm)
            elif op == b"Tf":
                if len(stack) >= 2:
                    size = float(stack[-1])
                    fname = stack[-2]
                    font = fonts.get(fname)
                    font_key = f"{fname}:{size:g}"
            elif op == b"BI":
                # inline image: the same content-addressed media span
                # shape as Do'd Image XObjects — ref is the sha256 of
                # the raw (possibly still filter-encoded) sample bytes,
                # dims from /W //Width ///H //Height, placement from
                # the CTM
                raw_params, sample = stack
                params = {k: doc.resolve(v) for k, v in raw_params.items()}
                w = params.get("/W", params.get("/Width"))
                h = params.get("/H", params.get("/Height"))
                media.append({
                    "ref": "img://sha256/"
                           + hashlib.sha256(sample).hexdigest(),
                    "width": int(w) if isinstance(w, (int, float)) else 0,
                    "height": int(h) if isinstance(h, (int, float)) else 0,
                    "top": round(page_h - max(
                        ctm[5], ctm[1] + ctm[3] + ctm[5])),
                    "left": round(min(
                        ctm[4], ctm[0] + ctm[2] + ctm[4])),
                })
            elif op == b"Do" and stack:
                name = stack[-1]
                xo = doc.resolve(xobjects.get(name)) \
                    if isinstance(name, str) else None
                if (isinstance(xo, Stream)
                        and doc.resolve(xo.dict.get("/Subtype"))
                        == "/Image"):
                    # content-addressed media span: the engine's
                    # interleaved-document model carries images as
                    # (kind="image", media_ref) — ref is the sha256 of
                    # the stored payload (DCT/JPX stay encoded, which
                    # is exactly what a media store would keep; G4 fax
                    # images are stored as their minimal TIFF wrap so
                    # the payload is decodable without the PDF dict),
                    # dims from the image dict, placement from the CTM
                    # (images paint the unit square scaled by cm)
                    digest = hashlib.sha256(
                        _image_store_payload(doc, xo)).hexdigest()
                    media.append({
                        "ref": f"img://sha256/{digest}",
                        "width": int(doc.resolve(xo.dict.get("/Width"))
                                     or 0),
                        "height": int(doc.resolve(xo.dict.get("/Height"))
                                      or 0),
                        # image paints the CTM-mapped unit square:
                        # bbox from its transformed corners
                        "top": round(page_h - max(
                            ctm[5], ctm[1] + ctm[3] + ctm[5])),
                        "left": round(min(
                            ctm[4], ctm[0] + ctm[2] + ctm[4])),
                    })
                elif (depth < 8 and isinstance(xo, Stream)
                        and doc.resolve(xo.dict.get("/Subtype")) == "/Form"):
                    saved = (font, font_key, size, leading, tm, tlm,
                             ctm, fill_color, char_spacing,
                             word_spacing, hscale, rise, render_mode)
                    matrix = doc.resolve(xo.dict.get("/Matrix"))
                    if isinstance(matrix, list) and len(matrix) == 6:
                        ctm = _mat_mul(tuple(
                            float(doc.resolve(v)) for v in matrix), ctm)
                    xres = doc.resolve(xo.dict.get("/Resources"))
                    if isinstance(xres, dict):
                        xfonts, xxobj = load_resources(xres)
                        xfonts = {**fonts, **xfonts}
                        xxobj = {**xobjects, **xxobj}
                    else:
                        xfonts, xxobj = fonts, xobjects
                    try:
                        body = doc.stream_data(xo)
                    except Exception:
                        body = b""
                    exec_content(body, xfonts, xxobj, depth + 1)
                    (font, font_key, size, leading, tm, tlm,
                     ctm, fill_color, char_spacing, word_spacing,
                     hscale, rise, render_mode) = saved
            elif op == b"cm" and len(stack) >= 6:
                ctm = _mat_mul(tuple(map(float, stack[-6:])), ctm)
            elif op == b"q":
                # full graphics-state save per spec 8.4.2: text font/
                # size/leading and the fill color are graphics state
                # (not BT/ET-scoped), so Q must restore them too —
                # matches the Form-XObject save tuple above
                ctm_stack.append((ctm, char_spacing, word_spacing,
                                  hscale, rise, render_mode,
                                  font, font_key, size, leading,
                                  fill_color))
            elif op == b"Q":
                if ctm_stack:
                    (ctm, char_spacing, word_spacing,
                     hscale, rise, render_mode,
                     font, font_key, size, leading,
                     fill_color) = ctm_stack.pop()
            elif op == b"BT":
                tm = tlm = _MAT_ID
            elif op == b"TD" and len(stack) >= 2:
                leading = -float(stack[-1])
                tlm = _mat_translate(float(stack[-2]), float(stack[-1]), tlm)
                tm = tlm
            elif op == b"TL" and len(stack) >= 1:
                leading = float(stack[-1])
            elif op == b"Tc" and stack:
                char_spacing = float(stack[-1])
            elif op == b"Tw" and stack:
                word_spacing = float(stack[-1])
            elif op == b"Tz" and stack:
                hscale = float(stack[-1]) / 100.0
            elif op == b"Ts" and stack:
                rise = float(stack[-1])
            elif op == b"Tr" and stack:
                render_mode = int(float(stack[-1]))
            elif op == b"T*":
                tlm = _mat_translate(0.0, -leading, tlm)
                tm = tlm
            elif op == b"'" and stack:
                tlm = _mat_translate(0.0, -leading, tlm)
                tm = tlm
                show(stack[-1] if isinstance(stack[-1], (bytes, bytearray)) else b"")
            elif op == b'"' and len(stack) >= 3:
                # aw ac string ": set word + char spacing, then act
                # like ' (next line + show) — spec table 109
                word_spacing = float(stack[-3])
                char_spacing = float(stack[-2])
                tlm = _mat_translate(0.0, -leading, tlm)
                tm = tlm
                show(stack[-1] if isinstance(stack[-1], (bytes, bytearray)) else b"")
            # fill-color operators (stroke variants ignored — text
            # renders with the fill color); scn components may include
            # a trailing pattern name, so keep only numerics
            elif op == b"rg" and len(stack) >= 3:
                fill_color = _components_to_hex(
                    [float(v) for v in stack[-3:]])
            elif op == b"g" and stack:
                fill_color = _components_to_hex([float(stack[-1])])
            elif op == b"k" and len(stack) >= 4:
                fill_color = _components_to_hex(
                    [float(v) for v in stack[-4:]])
            elif op in (b"sc", b"scn"):
                comps = [float(v) for v in stack
                         if isinstance(v, (int, float))]
                if comps:
                    fill_color = _components_to_hex(comps)

    exec_content(content, page_fonts, page_xobjects, 0)
    return runs, media, page_w, page_h


class PageRecord(NamedTuple):
    """One page as the line assembler consumes it (``engine.pagexml``):
    page size in points, fontspec attribute dicts (ID, SIZE in points,
    FAMILY, COLOR) and the text fragments in paint order.  Every value
    is already what a pdftohtml ``-xml`` round trip would give back:
    sizes rounded by ``%g``, text scrubbed of XML-invalid characters
    and with its line ends normalized."""

    width: float
    height: float
    fontspecs: List[Dict]
    fragments: List[Fragment]


def _xml_text(text: str) -> str:
    """Character data as an XML parser hands it back: XML-invalid
    characters dropped, CR LF and lone CR read as LF."""
    text = _XML_INVALID.sub("", text)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _xml_attr(text: str) -> str:
    """An attribute value as an XML parser hands it back: also tabs
    and line ends read as spaces."""
    return _xml_text(text).replace("\t", " ").replace("\n", " ")


def _g(value: float) -> float:
    """``value`` as written with ``%g`` and read back."""
    return float(f"{value:g}")


def pdf_page_records(raw: bytes) -> Tuple[List[PageRecord], List[List[Dict]]]:
    """PDF bytes → (per-page records, per-page media ref lists).  The
    single producer of page content: the raw-PDF extraction path
    feeds the records straight to line assembly, and
    ``pdf_to_page_xml_and_media`` serializes them."""
    doc = PdfDocument(raw)
    pages: List[PageRecord] = []
    out_media: List[List[Dict]] = []
    for page in doc.pages():
        runs, media, page_w, page_h = _extract_page_runs(doc, page)
        out_media.append(sorted(media, key=lambda m: (m["top"], m["left"])))
        # one fontspec per unique (font resource, size, color)
        spec_ids: Dict[str, str] = {}
        fontspecs: List[Dict] = []
        fragments: List[Fragment] = []
        for run in runs:
            font_id = spec_ids.get(run.font_key)
            if font_id is None:
                font_id = spec_ids[run.font_key] = str(len(spec_ids))
                fontspecs.append({"ID": font_id, "SIZE": _g(run.size),
                                  "FAMILY": _xml_attr(run.family),
                                  "COLOR": run.color})
            size_px = math.floor(run.size * 4 / 3)
            text = _xml_text(run.text)
            # pdftohtml wraps a styled run in <b>/<i>; only the outer
            # element becomes a textAttributes range (ParseText.php:70-95)
            style = "b" if run.bold else ("i" if run.italic else None)
            fragments.append(Fragment(
                round(page_h - run.y - size_px), round(run.x),
                round(run.width), size_px, font_id, text,
                {style: [{"start": 0, "end": len(text) - 1}]}
                if style else None))
        pages.append(PageRecord(_g(page_w), _g(page_h), fontspecs,
                                fragments))
    return pages, out_media


def pdf_to_page_xml(raw: bytes) -> List[str]:
    """PDF bytes → list of pdftohtml-style <page> XML strings."""
    return pdf_to_page_xml_and_media(raw)[0]


def pdf_media_refs(raw: bytes) -> List[List[Dict]]:
    """Per-page image XObject references: for each page, a list of
    ``{ref, width, height, top, left}`` dicts in paint order — the
    content-addressed media spans the interleaved document model
    carries alongside text (the reference's pdftohtml text path drops
    images entirely, SURVEY §1.2; this is a new-capability tier)."""
    return pdf_page_records(raw)[1]


def pdf_to_page_xml_and_media(raw: bytes
                              ) -> Tuple[List[str], List[List[Dict]]]:
    """PDF bytes → (per-page pdftohtml ``-xml`` strings, per-page media
    ref lists): a serializer of ``pdf_page_records``.  It produces the
    ``pdf_page_xml`` input kind, and it is the reference the tests
    compare the raw path against; raw-PDF extraction and the CLI do not
    go through it.  A bold italic run is written as ``<b>`` alone: the
    only range a parser of this XML keeps."""
    pages, media = pdf_page_records(raw)
    return [_page_xml(num, page)
            for num, page in enumerate(pages, start=1)], media


def _page_xml(number: int, page: PageRecord) -> str:
    specs = "".join(
        f'<fontspec id="{spec["ID"]}" size="{spec["SIZE"]:g}" '
        f'family={quoteattr(spec["FAMILY"])} color="{spec["COLOR"]}"/>'
        for spec in page.fontspecs)
    texts = []
    for frag in page.fragments:
        inner = escape(frag.value)
        if frag.text_attrs:
            tag = next(iter(frag.text_attrs))
            inner = f"<{tag}>{inner}</{tag}>"
        texts.append(
            f'<text top="{frag.top}" left="{frag.left}" '
            f'width="{frag.width}" height="{frag.height}" '
            f'font="{frag.font}">{inner}</text>')
    return (f'<page number="{number}" width="{page.width:g}" '
            f'height="{page.height:g}">{specs}{"".join(texts)}</page>')
