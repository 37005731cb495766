"""Author minimal real PDF files for the native front-end tests
(FIXTURES.md §4): catalog → 2-level page tree → Courier text pages,
optionally Flate-compressed content streams, coordinates on the same
grid the page-XML fixtures use (top = page_h - ty - size_px)."""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Tuple

SIZE_PT = 12
SIZE_PX = 16  # floor(12 * 4/3)


def _escape_pdf_string(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def page_content(lines: Sequence[Tuple], page_h: int = 792) -> bytes:
    """lines: [(top, left, text)] or [(top, left, text, opts)] on the
    engine's pixel grid; opts may carry ``color`` ((r,g,b) floats in
    0..1) and ``font`` ('F1' Courier / 'F2' Courier-Bold /
    'F3' Courier-Oblique)."""
    parts = ["BT", f"/F1 {SIZE_PT} Tf"]
    cur_font = "F1"
    cur_color = None
    cur_tc = cur_tw = 0.0
    cur_tz = 100.0
    for line in lines:
        top, left, text = line[0], line[1], line[2]
        opts = line[3] if len(line) > 3 else {}
        font = opts.get("font", "F1")
        if font != cur_font:
            parts.append(f"/{font} {SIZE_PT} Tf")
            cur_font = font
        # text-state spacing (Tc/Tw/Tz): persistent state, so emit
        # only on change — including the reset back to 0 / 100
        tc = float(opts.get("char_spacing", 0.0))
        tw = float(opts.get("word_spacing", 0.0))
        tz = float(opts.get("hscale", 100.0))
        if tc != cur_tc:
            parts.append(f"{tc:g} Tc")
            cur_tc = tc
        if tw != cur_tw:
            parts.append(f"{tw:g} Tw")
            cur_tw = tw
        if tz != cur_tz:
            parts.append(f"{tz:g} Tz")
            cur_tz = tz
        color = opts.get("color")
        if color != cur_color:
            if color is None:
                parts.append("0 g")
            else:
                parts.append(f"{color[0]:g} {color[1]:g} {color[2]:g} rg")
            cur_color = color
        ty = page_h - top - SIZE_PX
        parts.append(f"1 0 0 1 {left} {ty} Tm")
        if opts.get("cid"):
            enc = opts.get("cid_encoding")
            if enc:
                # legacy-CMap twin: code bytes in the national
                # encoding the predefined CMap's codespace names
                hexcodes = text.encode(enc).hex().upper()
            else:
                hexcodes = "".join(f"{ord(ch):04X}" for ch in text)
            parts.append(f"<{hexcodes}> Tj")
        else:
            parts.append(f"({_escape_pdf_string(text)}) Tj")
    parts.append("ET")
    return "\n".join(parts).encode("latin-1")


def _encrypt_objects(objects: List[bytes], mode: str):
    """Standard-security-handler encryption of fixture objects (empty
    user AND owner passwords): every stream payload and literal string
    is replaced by its ciphertext, /Length rewritten.  Returns
    (new_objects_with_encrypt_dict, encrypt_obj_num, id0)."""
    import hashlib
    import re as _re

    from .pdfcrypto import (
        StandardDecryptor,
        aes_cbc_encrypt_raw,
        compute_file_key,
        compute_o,
        compute_u,
        hash_2b,
    )

    p = -44
    id0 = bytes(range(16))
    if mode == "aes256":
        # ISO 32000-2 /V 5 /R 6 with empty user AND owner passwords:
        # deterministic salts/file key (fixtures must be reproducible)
        fk = bytes((i * 37 + 11) & 0xFF for i in range(32))
        vs, ks = b"uVal8slt", b"uKey8slt"
        ovs, oks = b"oVal8slt", b"oKey8slt"
        u = hash_2b(b"", vs, b"") + vs + ks
        ue = aes_cbc_encrypt_raw(hash_2b(b"", ks, b""), b"\x00" * 16, fk)
        o = hash_2b(b"", ovs, u) + ovs + oks
        oe = aes_cbc_encrypt_raw(hash_2b(b"", oks, u), b"\x00" * 16, fk)
        perms = aes_cbc_encrypt_raw(           # one block ≡ ECB
            fk, b"\x00" * 16,
            (p & 0xFFFFFFFF).to_bytes(4, "little")
            + b"\xff\xff\xff\xffTadb0123")
        ed = (b"<< /Filter /Standard /V 5 /R 6 /Length 256 "
              b"/CF << /StdCF << /CFM /AESV3 /Length 32 >> >> "
              b"/StmF /StdCF /StrF /StdCF "
              b"/O <%s> /U <%s> /OE <%s> /UE <%s> /Perms <%s> /P %d >>"
              % (o.hex().encode(), u.hex().encode(), oe.hex().encode(),
                 ue.hex().encode(), perms.hex().encode(), p))
        enc = StandardDecryptor(fk, "aesv3")
    else:
        modes = {"rc4-40": (1, 2, 5, "rc4"), "rc4-128": (2, 3, 16, "rc4"),
                 "aesv2": (4, 4, 16, "aesv2")}
        v, r, key_len, method = modes[mode]
        o = compute_o(b"", b"", r, key_len)
        fk = compute_file_key(b"", o, p, id0, r, key_len)
        u = compute_u(fk, id0, r)
        common = b"/O <%s> /U <%s> /P %d" % (o.hex().encode(),
                                             u.hex().encode(), p)
        if mode == "rc4-40":
            ed = b"<< /Filter /Standard /V 1 /R 2 " + common + b" >>"
        elif mode == "rc4-128":
            ed = b"<< /Filter /Standard /V 2 /R 3 /Length 128 " \
                + common + b" >>"
        else:
            ed = (b"<< /Filter /Standard /V 4 /R 4 /Length 128 "
                  b"/CF << /StdCF << /CFM /AESV2 /Length 16 >> >> "
                  b"/StmF /StdCF /StrF /StdCF " + common + b" >>")
        enc = StandardDecryptor(fk, method)

    out: List[bytes] = []
    for i, body in enumerate(objects):
        num = i + 1
        if b"stream\n" in body:
            head, rest = body.split(b"stream\n", 1)
            payload = rest[:-len(b"\nendstream")]
            ct = enc.encrypt(payload, num, 0,
                             iv=hashlib.md5(b"iv%d" % num).digest())
            head = _re.sub(rb"/Length \d+",
                           b"/Length %d" % len(ct), head)
            body = head + b"stream\n" + ct + b"\nendstream"
        else:
            body = _re.sub(
                rb"\(([^()\\]*)\)",
                lambda m, n=num: b"<" + enc.encrypt(
                    m.group(1), n, 0,
                    iv=hashlib.md5(b"sv%d" % n).digest()).hex().encode()
                + b">",
                body)
        out.append(body)
    out.append(ed)
    return out, len(out), id0


def build_pdf(pages: List[Sequence[Tuple]],
              compress: bool = True, page_w: int = 612,
              page_h: int = 792, objstm: bool = False,
              type0: bool = False,
              encrypt: "str | None" = None,
              cid_cmap: str = "/Identity-H",
              images: "Optional[List[List[dict]]]" = None,
              extra_fonts: "Optional[dict]" = None) -> bytes:
    """Build a PDF with a 2-level page tree (pages split into two
    /Pages nodes when >1 page) and Courier / Courier-Bold /
    Courier-Oblique fonts.  ``objstm=True`` serializes it PDF-1.5
    style: every non-stream object packed into a /Type /ObjStm
    container and a /Type /XRef cross-reference STREAM (Flate +
    /Predictor 12) instead of the classic xref table — same document,
    modern layout."""
    objects: List[bytes] = []

    def add(obj_body: bytes) -> int:
        objects.append(obj_body)
        return len(objects)  # 1-based object number

    if type0:
        # composite font: /Type0 + Identity-H + descendant CIDFont
        # whose /W pins every used CID at Courier's 600 units, so the
        # geometry matches the classic twin exactly (code == CID ==
        # Unicode for the ASCII range)
        cid_num = add(b"<< /Type /Font /Subtype /CIDFontType0 "
                      b"/BaseFont /Courier "
                      b"/CIDSystemInfo << /Registry (Adobe) "
                      b"/Ordering (Identity) /Supplement 0 >> "
                      b"/DW 600 /W [32 126 600] >>")
        font_num = add((f"<< /Type /Font /Subtype /Type0 "
                        f"/BaseFont /Courier /Encoding {cid_cmap} "
                        f"/DescendantFonts [{cid_num} 0 R] >>").encode())
    else:
        font_num = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>")
    font_bold = add(b"<< /Type /Font /Subtype /Type1 "
                    b"/BaseFont /Courier-Bold >>")
    font_obl = add(b"<< /Type /Font /Subtype /Type1 "
                   b"/BaseFont /Courier-Oblique >>")
    # extra_fonts: {"F4": <font dict bytes>} — appended to /Resources
    # so proportional-font fixtures can opt in per line via
    # opts["font"]; existing Courier fixtures keep their numbering
    extra_nums = {name: add(body)
                  for name, body in (extra_fonts or {}).items()}

    # image XObjects: ``images`` is a per-page list of dicts
    # {data: bytes (stored payload, e.g. a JPEG), w, h (pixel dims),
    #  x, y, dw, dh (placement rect in PDF user space)}; an optional
    # filter="ccitt" authors a G4 fax XObject (data = raw MMR bytes,
    # /K -1, 1-bit DeviceGray) instead of the default /DCTDecode
    img_names: List[List[str]] = []
    img_name_to_num: dict = {}
    for p, imgs in enumerate(images or []):
        names = []
        for im in imgs:
            name = f"Im{len(img_name_to_num)}"
            payload = im["data"]
            if im.get("filter") == "ccitt":
                head = (f"<< /Type /XObject /Subtype /Image "
                        f"/Width {im['w']} /Height {im['h']} "
                        f"/ColorSpace /DeviceGray /BitsPerComponent 1 "
                        f"/Filter /CCITTFaxDecode "
                        f"/DecodeParms << /K -1 /Columns {im['w']} "
                        f"/Rows {im['h']} >> "
                        f"/Length {len(payload)} >>\n")
            else:
                head = (f"<< /Type /XObject /Subtype /Image "
                        f"/Width {im['w']} /Height {im['h']} "
                        f"/ColorSpace /DeviceRGB /BitsPerComponent 8 "
                        f"/Filter /DCTDecode /Length {len(payload)} >>\n")
            num = add(head.encode() + b"stream\n" + payload
                      + b"\nendstream")
            img_name_to_num[name] = num
            names.append(name)
        img_names.append(names)

    content_nums = []
    for page_idx, page_lines in enumerate(pages):
        data = page_content(page_lines, page_h)
        if images and page_idx < len(images):
            ops = []
            for name, im in zip(img_names[page_idx], images[page_idx]):
                ops.append(f"q {im['dw']} 0 0 {im['dh']} {im['x']} "
                           f"{im['y']} cm /{name} Do Q")
            data += ("\n" + "\n".join(ops)).encode("latin-1")
        if compress:
            comp = zlib.compress(data)
            body = (f"<< /Length {len(comp)} /Filter /FlateDecode >>\n"
                    .encode() + b"stream\n" + comp + b"\nendstream")
        else:
            body = (f"<< /Length {len(data)} >>\n".encode()
                    + b"stream\n" + data + b"\nendstream")
        content_nums.append(add(body))

    n = len(pages)
    # reserve object numbers: pages, then kid nodes, then root pages node
    page_nums = [len(objects) + 1 + i for i in range(n)]
    split = (n + 1) // 2
    if n > 1:
        kid_a_num = len(objects) + n + 1
        kid_b_num = kid_a_num + 1
        root_num = kid_b_num + 1
        parent_of = [kid_a_num if i < split else kid_b_num for i in range(n)]
    else:
        root_num = len(objects) + n + 1
        parent_of = [root_num] * n

    for i in range(n):
        add((f"<< /Type /Page /Parent {parent_of[i]} 0 R "
             f"/Contents {content_nums[i]} 0 R >>").encode())

    xobj_res = ""
    if img_name_to_num:
        entries = " ".join(f"/{n} {num} 0 R"
                           for n, num in img_name_to_num.items())
        xobj_res = f" /XObject << {entries} >>"
    extra_res = "".join(f" /{name} {num} 0 R"
                        for name, num in extra_nums.items())
    resources = (f"<< /Font << /F1 {font_num} 0 R /F2 {font_bold} 0 R "
                 f"/F3 {font_obl} 0 R{extra_res} >>{xobj_res} >>")
    if n > 1:
        kids_a = " ".join(f"{p} 0 R" for p in page_nums[:split])
        kids_b = " ".join(f"{p} 0 R" for p in page_nums[split:])
        add((f"<< /Type /Pages /Parent {root_num} 0 R /Kids [{kids_a}] "
             f"/Count {split} >>").encode())
        add((f"<< /Type /Pages /Parent {root_num} 0 R /Kids [{kids_b}] "
             f"/Count {n - split} >>").encode())
        add((f"<< /Type /Pages /Kids [{kid_a_num} 0 R {kid_b_num} 0 R] "
             f"/Count {n} /MediaBox [0 0 {page_w} {page_h}] "
             f"/Resources {resources} >>").encode())
    else:
        kids = " ".join(f"{p} 0 R" for p in page_nums)
        add((f"<< /Type /Pages /Kids [{kids}] /Count {n} "
             f"/MediaBox [0 0 {page_w} {page_h}] "
             f"/Resources {resources} >>").encode())
    catalog_num = add(f"<< /Type /Catalog /Pages {root_num} 0 R >>".encode())

    if objstm:
        if encrypt:
            raise NotImplementedError(
                "fixture builder: encrypt supported for classic layout")
        return _serialize_objstm(objects, catalog_num)

    trailer_extra = ""
    if encrypt:
        objects, enc_num, id0 = _encrypt_objects(objects, encrypt)
        hex_id = id0.hex()
        trailer_extra = (f" /Encrypt {enc_num} 0 R"
                         f" /ID [<{hex_id}> <{hex_id}>]")

    # serialize with a classic xref table
    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for i, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(objects) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += f"{off:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(objects) + 1} /Root {catalog_num} 0 R"
            f"{trailer_extra} >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n").encode()
    return bytes(out)


def _serialize_objstm(objects: List[bytes], catalog_num: int) -> bytes:
    """PDF 1.5 layout: non-stream objects live ONLY inside a
    compressed /ObjStm; the cross-reference is a /Type /XRef stream
    with PNG /Predictor 12 — the shape most post-2005 writers emit."""
    is_stream = [b"stream" in body for body in objects]
    packed = [(i + 1, body) for i, body in enumerate(objects)
              if not is_stream[i]]
    # object-stream payload: "num off num off ..." header + bodies
    bodies = bytearray()
    heads = []
    for num, body in packed:
        heads.append((num, len(bodies)))
        bodies += body + b"\n"
    header = " ".join(f"{n} {o}" for n, o in heads).encode() + b"\n"
    payload = zlib.compress(header + bytes(bodies))
    objstm_num = len(objects) + 1
    xref_num = len(objects) + 2
    objstm_body = (f"<< /Type /ObjStm /N {len(packed)} "
                   f"/First {len(header)} /Filter /FlateDecode "
                   f"/Length {len(payload)} >>\n").encode() \
        + b"stream\n" + payload + b"\nendstream"

    out = bytearray(b"%PDF-1.5\n")
    offsets: dict = {}
    for i, body in enumerate(objects, start=1):
        if is_stream[i - 1]:
            offsets[i] = len(out)
            out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    offsets[objstm_num] = len(out)
    out += f"{objstm_num} 0 obj\n".encode() + objstm_body + b"\nendobj\n"

    # xref stream rows, W = [1 4 2]
    offsets[xref_num] = len(out)  # the xref stream object itself
    n_total = xref_num + 1
    rows = bytearray()
    packed_index = {num: idx for idx, (num, _) in enumerate(packed)}
    for num in range(n_total):
        if num == 0:
            rows += bytes([0]) + (0).to_bytes(4, "big") + (65535).to_bytes(2, "big")
        elif num in offsets:
            rows += bytes([1]) + offsets[num].to_bytes(4, "big") + (0).to_bytes(2, "big")
        else:
            rows += bytes([2]) + objstm_num.to_bytes(4, "big") \
                + packed_index[num].to_bytes(2, "big")
    # PNG Up-predictor encode (row width 7)
    width = 7
    enc = bytearray()
    prev = bytes(width)
    for r0 in range(0, len(rows), width):
        row = bytes(rows[r0:r0 + width])
        enc.append(2)
        enc += bytes((row[i] - prev[i]) & 0xFF for i in range(len(row)))
        prev = row
    xref_payload = zlib.compress(bytes(enc))
    xref_pos = len(out)
    out += (f"{xref_num} 0 obj\n<< /Type /XRef /Size {n_total} "
            f"/W [1 4 2] /Root {catalog_num} 0 R /Filter /FlateDecode "
            f"/DecodeParms << /Predictor 12 /Columns {width} >> "
            f"/Length {len(xref_payload)} >>\n").encode()
    out += b"stream\n" + xref_payload + b"\nendstream\nendobj\n"
    out += f"startxref\n{xref_pos}\n%%EOF\n".encode()
    return bytes(out)


def screenplay_pdf_lines(scenes: List[dict], start_top: int = 72
                         ) -> List[Tuple[int, int, str]]:
    """Same scene-dict shape as pagexml_fixtures.screenplay_page but
    producing (top, left, text) tuples for build_pdf."""
    lines: List[Tuple[int, int, str]] = []
    top = start_top
    first = True

    def emit(left: int, text: str, blank_before: int = 0) -> None:
        nonlocal top
        top += 12 * blank_before
        lines.append((top, left, text))
        top += 12

    for scene in scenes:
        emit(108, scene["slug"], 0 if first else 2)
        first = False
        for action in scene.get("action", ()):
            emit(108, action, 1)
        for name, paren, dialog in scene.get("speeches", ()):
            emit(280, name, 1)
            if paren:
                emit(245, paren)
            for d in dialog:
                emit(180, d)
        if scene.get("transition"):
            emit(430, scene["transition"], 1)
    return lines
