"""PDF 1.5+ support (object streams, xref streams, filters) and
color / bold-italic extraction in the native front-end.

Reference parity targets: poppler handles all of this for the
reference via ``pdftohtml -xml`` (`Parser.php:70`); revision colors
come from ``<fontspec color>`` (`ParseText.php:691-989`) and
bold/italic from ``<b>/<i>`` children (`ParseText.php:70-95`).
"""

from __future__ import annotations

from ray_script_extract.sources.pdf_fixtures import build_pdf
from ray_script_extract.sources.pdfnative import (
    PdfDocument,
    _lzw_decode,
    _runlength_decode,
    pdf_to_page_xml,
)

PAGES = [[(72, 108, "INT. LAB - NIGHT"),
          (96, 108, "A humming machine fills the room with light."),
          (120, 280, "DOCTOR"),
          (132, 180, "It works. It finally works.")]]


def test_objstm_twin_converts_identically():
    """A PDF whose page tree / fonts / catalog exist ONLY inside a
    compressed /ObjStm must extract exactly like its classic twin."""
    classic = build_pdf(PAGES)
    modern = build_pdf(PAGES, objstm=True)
    # the modern file really hides its catalog from a plain byte scan
    assert b"/Type /Catalog" not in modern.replace(b"", b"") or \
        b"/Type /ObjStm" in modern
    assert modern.startswith(b"%PDF-1.5")
    assert b"/Type /ObjStm" in modern
    xml_classic = pdf_to_page_xml(classic)
    xml_modern = pdf_to_page_xml(modern)
    assert xml_classic == xml_modern
    assert "INT. LAB - NIGHT" in xml_modern[0]


def test_objstm_objects_enter_object_map():
    modern = build_pdf(PAGES, objstm=True)
    doc = PdfDocument(modern)
    cat = doc.catalog()
    assert cat is not None and cat.get("/Type") == "/Catalog"
    assert len(doc.pages()) == 1


def test_xref_stream_predictor_roundtrip():
    """The /Type /XRef stream (Flate + PNG /Predictor 12) decodes to
    well-formed [1 4 2] rows."""
    modern = build_pdf(PAGES, objstm=True)
    doc = PdfDocument(modern)
    from ray_script_extract.sources.pdfnative import Stream

    xref = next(obj for obj in doc.objects.values()
                if isinstance(obj, Stream)
                and obj.dict.get("/Type") == "/XRef")
    rows = doc.stream_data(xref)
    assert len(rows) % 7 == 0
    assert rows[0] == 0  # entry 0 is the free-list head


def test_lzw_decode_spec_example():
    # the PDF spec's worked LZWDecode example
    assert _lzw_decode(bytes([0x80, 0x0B, 0x60, 0x50, 0x22, 0x0C, 0x0C,
                              0x85, 0x01])) == b"-----A---B"


def _lzw_encode(data: bytes, early_change: int = 1) -> bytes:
    """Spec-compliant PDF LZW encoder (EarlyChange=1 convention used
    by pdfminer/pdf.js): the code width bumps one code EARLY, i.e. the
    encoder widens when ``next_code + early_change - 1`` no longer
    fits the current width.  Mirror of ``_lzw_decode``."""
    bits: list = []
    width = 9

    def emit(code: int) -> None:
        for i in range(width - 1, -1, -1):
            bits.append((code >> i) & 1)

    table = {bytes([i]): i for i in range(256)}
    next_code = 258
    emit(256)  # clear-table
    w = b""
    for ch in data:
        wc = w + bytes([ch])
        if wc in table:
            w = wc
            continue
        emit(table[w])
        table[wc] = next_code
        next_code += 1
        if next_code + early_change - 1 >= (1 << width):
            if width < 12:
                width += 1
            else:  # table full at 12 bits: clear and restart
                emit(256)
                table = {bytes([i]): i for i in range(256)}
                next_code = 258
                width = 9
        w = bytes([ch])
    if w:
        emit(table[w])
    emit(257)  # EOD
    while len(bits) % 8:
        bits.append(0)
    return bytes(
        int("".join(map(str, bits[i:i + 8])), 2)
        for i in range(0, len(bits), 8))


def test_lzw_roundtrip_past_width_boundary():
    """Round-trip against a spec-compliant EarlyChange=1 encoder on a
    payload that grows the table far past the 511-entry 9→10-bit
    boundary (the ADVICE-flagged off-by-one: the old decoder switched
    at 512 and silently produced garbage from byte ~254 on)."""
    rng_state = 0x2545F4914F6CDD1D
    chunks = []
    for i in range(6000):
        rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        chunks.append(bytes([(rng_state >> 33) & 0xFF]))
    payload = b"".join(chunks) + b"ABABABAB" * 200
    assert _lzw_decode(_lzw_encode(payload)) == payload
    # and a compressible payload that exercises long table chains
    text = (b"the quick brown fox jumps over the lazy dog " * 64
            + payload[:512]) * 3
    assert _lzw_decode(_lzw_encode(text)) == text


def test_decodeparms_shorter_than_filter_list():
    """/Filter [/ASCIIHexDecode /FlateDecode] with a one-element
    /DecodeParms must still run BOTH decode stages (ADVICE: zip() used
    to silently truncate the chain)."""
    import zlib

    payload = b"BT /F1 12 Tf (padded parms) Tj ET"
    hexcomp = zlib.compress(payload).hex().encode() + b">"
    raw = (b"1 0 obj\n<< /Length %d /Filter [/ASCIIHexDecode /FlateDecode]"
           b" /DecodeParms [null] >>\nstream\n" % len(hexcomp)) + hexcomp \
        + b"\nendstream\nendobj\n"
    doc = PdfDocument(raw)
    from ray_script_extract.sources.pdfnative import Stream

    st = doc.objects[1]
    assert isinstance(st, Stream)
    assert doc.stream_data(st) == payload


import pytest


@pytest.mark.parametrize("mode", ["rc4-40", "rc4-128", "aesv2",
                                  "aes256"])
def test_encrypted_twin_converts_identically(mode):
    """Standard-security-handler files with an EMPTY user password
    (RC4-40, RC4-128 and AESV2) must extract exactly like their
    plaintext twins — what poppler gives the reference for free
    (`Parser.php:68-79`)."""
    plain = pdf_to_page_xml(build_pdf(PAGES))
    raw = build_pdf(PAGES, encrypt=mode)
    assert b"/Encrypt" in raw
    assert b"INT. LAB" not in raw  # the payload really is ciphertext
    assert pdf_to_page_xml(raw) == plain
    assert "INT. LAB - NIGHT" in pdf_to_page_xml(raw)[0]


def test_encrypted_nonempty_password_raises():
    """A file whose user password is NOT empty must fail loudly (we
    only support the empty-user-password majority), not emit garbage."""
    from ray_script_extract.sources.pdfcrypto import (
        build_decryptor,
        compute_file_key,
        compute_o,
        compute_u,
    )

    o = compute_o(b"owner", b"secret", 3, 16)
    fk = compute_file_key(b"secret", o, -44, b"\x01" * 16, 3, 16)
    u = compute_u(fk, b"\x01" * 16, 3)
    enc = {"/Filter": "/Standard", "/V": 2, "/R": 3, "/Length": 128,
           "/O": o, "/U": u, "/P": -44}
    with pytest.raises(NotImplementedError, match="password"):
        build_decryptor(enc, b"\x01" * 16)


def test_predefined_ucs2_cmap_decodes_like_identity_twin():
    """A /Type0 font under /UniJIS-UCS2-H (predefined Unicode CMap:
    the 2-byte codespace IS UCS-2) must extract CJK text identically
    to its /Identity-H twin authored with the same Unicode codes."""
    cjk = [[(72, 108, "INT. LAB - NIGHT"),
            (96, 108, "機械は動く。", {"cid": True})]]
    ident = pdf_to_page_xml(build_pdf(cjk, type0=True))
    unijis = pdf_to_page_xml(build_pdf(cjk, type0=True,
                                       cid_cmap="/UniJIS-UCS2-H"))
    assert unijis == ident
    assert "機械は動く。" in unijis[0]


def test_utf16_cmap_combines_surrogate_pairs():
    """Under a ‑UTF16 CMap a non-BMP char arrives as a surrogate pair
    of 2-byte codes; the decoder must combine them into one char
    (per-code chr() would emit two lone surrogates)."""
    emoji = "𝄞x"  # U+1D11E MUSICAL SYMBOL G CLEF + ascii
    codes = emoji.encode("utf-16-be")
    pages = [[(72, 108, "placeholder")]]
    raw = build_pdf(pages, type0=True, cid_cmap="/UniJIS-UTF16-H")
    from ray_script_extract.sources.pdfnative import PdfDocument, _Font

    doc = PdfDocument(raw)
    font_dict = next(
        doc.resolve(o) for o in doc.objects.values()
        if isinstance(o, dict) and o.get("/Subtype") == "/Type0")
    font = _Font(doc, font_dict)
    assert font.decode(codes) == emoji


def test_pdf_image_xobject_yields_interleaved_media_span():
    """A page image XObject must surface as an interleaved
    ``(kind="image", media_ref=img://sha256/…)`` span at its page
    position — the engine's interleaved-document model; the
    reference's pdftohtml text path drops images (SURVEY §1.2)."""
    import base64
    import hashlib

    from ray_script_extract.sources.pdfnative import pdf_to_page_xml_and_media
    from ray_script_extract.stages.extract import ExtractorActor

    fake_jpeg = b"\xff\xd8\xff\xe0" + b"JFIFfake" * 10 + b"\xff\xd9"
    pages_src = [[(72, 108, "INT. LAB - NIGHT"),
                  (96, 108, "A humming machine fills the room.")],
                 [(72, 108, "EXT. STREET - DAY")]]
    imgs = [[{"data": fake_jpeg, "w": 32, "h": 16,
              "x": 100, "y": 300, "dw": 128, "dh": 64}], []]
    raw = build_pdf(pages_src, images=imgs)

    pages, media = pdf_to_page_xml_and_media(raw)
    digest = hashlib.sha256(fake_jpeg).hexdigest()
    assert media[0][0]["ref"] == f"img://sha256/{digest}"
    assert (media[0][0]["width"], media[0][0]["height"]) == (32, 16)
    assert media[1] == []
    assert "INT. LAB - NIGHT" in pages[0]  # text unaffected

    spans = ExtractorActor().extract_doc(
        "d1", [{"kind": "pdf_raw",
                "text": base64.b64encode(raw).decode()}])
    img_offsets = [i for i, (kind, _, _) in enumerate(spans)
                   if kind == "image"]
    assert len(img_offsets) == 1
    assert spans[img_offsets[0]] == ("image", "32x16",
                                     f"img://sha256/{digest}")
    # page-1 image sits after page-1 text and before page-2 text
    page2_offset = next(i for i, (_, text, _) in enumerate(spans)
                        if text == "EXT. STREET - DAY")
    assert img_offsets[0] < page2_offset


def test_aes_fips197_vector():
    """FIPS-197 appendix C.1 + NIST SP800-38A CBC vectors pin the
    pure-Python AES implementation."""
    from ray_script_extract.sources.pdfcrypto import (
        _decrypt_block,
        _encrypt_block,
        _expand_key,
        aes_cbc_decrypt,
        aes_cbc_encrypt,
        rc4,
    )

    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = _encrypt_block(pt, _expand_key(key))
    assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    assert _decrypt_block(ct, _expand_key(key)) == pt
    k2 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    p2 = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    c2 = aes_cbc_encrypt(k2, iv, p2)
    assert c2[16:32].hex() == "7649abac8119b246cee98e9b12e9197d"
    assert aes_cbc_decrypt(k2, c2) == p2
    assert rc4(b"Key", b"Plaintext").hex() == "bbf316e8d940af0ad3"
    # FIPS-197 C.2 (AES-192) and C.3 (AES-256): the generalized key
    # schedule (Nk 6/8, extra SubWord when Nk > 6) is what /V 5 uses
    from ray_script_extract.sources.pdfcrypto import (
        aes_cbc_decrypt_raw,
        aes_cbc_encrypt_raw,
    )

    for klen, want in ((24, "dda97ca4864cdfe06eaf70a0ec0d7191"),
                       (32, "8ea2b7ca516745bfeafc49904b496089")):
        k = bytes(range(klen))
        c = _encrypt_block(pt, _expand_key(k))
        assert c.hex() == want
        assert _decrypt_block(c, _expand_key(k)) == pt
    # raw CBC (no pad, no IV prefix) round-trips under AES-256
    k = bytes(range(32))
    data = bytes(range(48))
    iv = bytes(reversed(range(16)))
    assert aes_cbc_decrypt_raw(
        k, iv, aes_cbc_encrypt_raw(k, iv, data)) == data


def test_v5_r6_handler_validates_and_unwraps():
    """/V 5 /R 6: Algorithm 2.B password check + /UE file-key unwrap.
    The 2.B loop has no published standalone vector; its AES and SHA-2
    primitives are pinned independently (FIPS-197 above, hashlib), and
    the negative case proves validation actually gates — a wrong
    validation salt must be rejected as a non-empty-password file."""
    import pytest as _pytest

    from ray_script_extract.sources.pdfcrypto import (
        aes_cbc_encrypt_raw,
        build_decryptor,
        hash_2b,
    )

    vs, ks = b"12345678", b"abcdefgh"
    fk = bytes((7 * i + 3) & 0xFF for i in range(32))
    u = hash_2b(b"", vs, b"") + vs + ks
    ue = aes_cbc_encrypt_raw(hash_2b(b"", ks, b""), b"\x00" * 16, fk)
    ed = {"/Filter": "/Standard", "/V": 5, "/R": 6, "/U": u, "/UE": ue}
    d = build_decryptor(ed, b"")
    assert d.method == "aesv3" and d.file_key == fk
    # AESV3 drops per-object key derivation: object id must not matter
    ct = d.encrypt(b"secret", 3, 0)
    assert d.decrypt(ct, 99, 7) == b"secret"
    # 2.B termination: ≥ 64 rounds ⇒ deterministic 32-byte digest
    assert len(hash_2b(b"", vs, b"")) == 32
    assert hash_2b(b"", vs, b"") == hash_2b(b"", vs, b"")
    bad = dict(ed, **{"/U": hash_2b(b"", b"WRONGsl8", b"") + vs + ks})
    with _pytest.raises(NotImplementedError):
        build_decryptor(bad, b"")


def test_runlength_decode():
    # 2 literal bytes "ab", then "c" repeated 4x (257-253), then EOD
    assert _runlength_decode(b"\x01ab\xfdc\x80") == b"abcccc"


def test_ascii_filters_roundtrip():
    import zlib

    payload = b"BT /F1 12 Tf (Hi) Tj ET"
    hexed = payload.hex().encode() + b">"
    raw = (b"1 0 obj\n<< /Length %d /Filter /ASCIIHexDecode >>\n"
           b"stream\n" % len(hexed)) + hexed + b"\nendstream\nendobj\n"
    doc = PdfDocument(raw)
    from ray_script_extract.sources.pdfnative import Stream

    st = doc.objects[1]
    assert isinstance(st, Stream)
    assert doc.stream_data(st) == payload

    import base64

    a85 = base64.a85encode(payload) + b"~>"
    raw2 = (b"1 0 obj\n<< /Length %d /Filter /ASCII85Decode >>\n"
            b"stream\n" % len(a85)) + a85 + b"\nendstream\nendobj\n"
    st2 = PdfDocument(raw2).objects[1]
    assert PdfDocument(raw2).stream_data(st2) == payload

    # filter chain: Flate then ASCIIHex on top
    comp = zlib.compress(payload)
    hexcomp = comp.hex().encode() + b">"
    raw3 = (b"1 0 obj\n<< /Length %d /Filter [/ASCIIHexDecode /FlateDecode]"
            b" >>\nstream\n" % len(hexcomp)) + hexcomp \
        + b"\nendstream\nendobj\n"
    st3 = PdfDocument(raw3).objects[1]
    assert PdfDocument(raw3).stream_data(st3) == payload


COLOR_PAGES = [[(72, 108, "INT. LAB - NIGHT"),
                (96, 108, "Plain black action line with words."),
                (120, 108, "A revised line in red ink here.",
                 {"color": (1, 0, 0)}),
                (144, 108, "Bold shouting line.", {"font": "F2"}),
                (168, 108, "Leaning italic line.", {"font": "F3"})]]


def test_color_reaches_fontspec():
    xml = pdf_to_page_xml(build_pdf(COLOR_PAGES))[0]
    assert 'color="#ff0000"' in xml
    assert 'color="#000000"' in xml
    # the red run points at the red fontspec
    import re

    red_id = re.search(r'<fontspec id="(\d+)"[^>]*color="#ff0000"', xml).group(1)
    assert re.search(rf'<text[^>]*font="{red_id}">A revised line', xml)


def test_bold_italic_wrap_and_family():
    xml = pdf_to_page_xml(build_pdf(COLOR_PAGES))[0]
    assert "<b>Bold shouting line.</b>" in xml
    assert "<i>Leaning italic line.</i>" in xml
    assert 'family="Courier"' in xml  # subset/style suffixes stripped


def test_bold_becomes_text_attributes_in_engine():
    from ray_script_extract.engine.pagexml import DocState, process_page_xml

    state = DocState()
    process_page_xml(pdf_to_page_xml(build_pdf(COLOR_PAGES))[0], state)
    attrs = [lo.line_text_attributes for lo in state.line_objects
             if lo.line_text_attributes]
    assert any("b" in a for a in attrs)
    assert any("i" in a for a in attrs)


def test_type0_cid_font_twin_converts_identically():
    """A /Type0 Identity-H composite font with a descendant /W table
    pinned at Courier metrics extracts identically to the simple-font
    twin (2-byte hex codes, CID widths)."""
    cid_pages = [[(t, l, s, {"cid": True}) for (t, l, s) in PAGES[0]]]
    classic_xml = pdf_to_page_xml(build_pdf(PAGES))
    cid_xml = pdf_to_page_xml(build_pdf(cid_pages, type0=True))
    assert classic_xml == cid_xml


def test_cid_w_array_ranges_and_runs():
    from ray_script_extract.sources.pdfnative import _Font

    raw = (b"1 0 obj\n<< /Type /Font /Subtype /Type0 /BaseFont /X "
           b"/Encoding /Identity-H /DescendantFonts [2 0 R] >>\nendobj\n"
           b"2 0 obj\n<< /Type /Font /Subtype /CIDFontType0 /BaseFont /X "
           b"/DW 500 /W [1 [600 700] 10 12 800] >>\nendobj\n")
    doc = PdfDocument(raw)
    f = _Font(doc, doc.objects[1])
    assert f.cid
    assert f.cid_widths == {1: 600.0, 2: 700.0, 10: 800.0, 11: 800.0,
                            12: 800.0}
    # codes 1 (600) + 5 (DW 500) + 10 (800)
    assert f.advance_units(bytes([0, 1, 0, 5, 0, 10])) == 1900.0


def test_revisions_fire_from_raw_colored_pdf():
    """End-to-end: a colored-revision PDF drives parse_revisions from
    RAW BYTES — matching what the XML-fixture path produces."""
    from ray_script_extract.engine.pdfdoc import convert_pdf_xml_document

    lines = [(30, 108, "Blue Revision Draft"),
             (72, 108, "Normal action on this page with several words.")]
    top = 72
    for k in range(10):
        top += 24
        lines.append((top, 108,
                      f"More filler action line {k} to defeat the title page."))
    lines.append((top + 24, 108, "A changed line in the revision color.",
                  {"color": (1, 0, 0)}))
    second_page = [(72, 108, "INT. PLACE - DAY"),
                   (96, 108, "Second page action keeps the doc honest.")]
    pdf = build_pdf([lines, second_page])
    doc = convert_pdf_xml_document(pdf_to_page_xml(pdf))
    assert any(r["name"] == "Blue Revision Draft" for r in doc["revisions"])


def _onepage_pdf(content: bytes, extra_objs: bytes = b"",
                 resources: bytes = b"<< /Font << /F1 5 0 R >> >>") -> bytes:
    """Hand-rolled single-page PDF (scan-discovered, no xref needed)."""
    return (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 "
        b"/MediaBox [0 0 612 792] /Resources " + resources + b" >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R /Contents 4 0 R >>\nendobj\n"
        b"4 0 obj\n<< /Length " + str(len(content)).encode() + b" >>\n"
        b"stream\n" + content + b"\nendstream\nendobj\n"
        b"5 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>\n"
        b"endobj\n" + extra_objs + b"%%EOF\n")


def test_form_xobject_text_is_extracted():
    body = b"BT /F1 12 Tf 1 0 0 1 108 700 Tm (Inside the form) Tj ET"
    extra = (b"6 0 obj\n<< /Subtype /Form /Length "
             + str(len(body)).encode()
             + b" /Resources << /Font << /F1 5 0 R >> >> >>\n"
             b"stream\n" + body + b"\nendstream\nendobj\n")
    content = (b"BT /F1 12 Tf 1 0 0 1 108 720 Tm (Outside) Tj ET\n"
               b"/X1 Do\n"
               b"BT /F1 12 Tf 1 0 0 1 108 680 Tm (After) Tj ET")
    res = (b"<< /Font << /F1 5 0 R >> "
           b"/XObject << /X1 6 0 R >> >>")
    xml = pdf_to_page_xml(_onepage_pdf(content, extra, res))[0]
    assert "Outside" in xml and "After" in xml
    assert "Inside the form" in xml


def test_form_xobject_matrix_offsets_position():
    body = b"BT /F1 12 Tf 1 0 0 1 0 0 Tm (Moved) Tj ET"
    extra = (b"6 0 obj\n<< /Subtype /Form /Matrix [1 0 0 1 200 600] /Length "
             + str(len(body)).encode()
             + b" /Resources << /Font << /F1 5 0 R >> >> >>\n"
             b"stream\n" + body + b"\nendstream\nendobj\n")
    res = b"<< /Font << /F1 5 0 R >> /XObject << /X1 6 0 R >> >>"
    xml = pdf_to_page_xml(_onepage_pdf(b"/X1 Do", extra, res))[0]
    import re

    m = re.search(r'<text top="(\d+)" left="(\d+)"[^>]*>Moved</text>', xml)
    assert m, xml
    assert int(m.group(2)) == 200
    assert int(m.group(1)) == 792 - 600 - 16  # H - ty - size_px


def test_inline_image_does_not_derail_tokenizer():
    content = (b"BT /F1 12 Tf 1 0 0 1 108 700 Tm (Before image) Tj ET\n"
               b"BI /W 2 /H 2 /CS /RGB /BPC 8 ID \x00\x01\xfe(\xff)\x9c EI\n"
               b"BT /F1 12 Tf 1 0 0 1 108 650 Tm (After image) Tj ET")
    xml = pdf_to_page_xml(_onepage_pdf(content))[0]
    assert "Before image" in xml and "After image" in xml


def test_encoding_differences_decode():
    extra = (b"6 0 obj\n<< /Type /Encoding "
             b"/Differences [65 /e /x /uni0021 97 /quoteright] >>\nendobj\n"
             b"7 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Courier "
             b"/Encoding 6 0 R >>\nendobj\n")
    res = b"<< /Font << /F1 7 0 R >> >>"
    # codes 65,66,67 -> e,x,! ; 97 -> right quote ; 100 stays 'd'
    content = b"BT /F1 12 Tf 1 0 0 1 108 700 Tm (ABCad) Tj ET"
    xml = pdf_to_page_xml(_onepage_pdf(content, extra, res))[0]
    assert ">ex!\xe2\x80\x99d<".encode().decode() in xml or "ex!’d" in xml


def test_evp_fast_path_matches_pure_python(monkeypatch):
    """When libcrypto is present, every CBC entry point must produce
    byte-identical output to the pure-Python FIPS-197 core — OpenSSL
    acts as an INDEPENDENT oracle for the AES paths (breaking the
    writer/reader circularity of the fixture twins), and the fallback
    stays correct when the fast path is pinned off."""
    from ray_script_extract.sources import pdfcrypto as c

    if c._load_evp() is None:
        import pytest as _p
        _p.skip("libcrypto unavailable — pure path is the only path")

    iv = bytes(range(16))
    for klen in (16, 24, 32):
        key = bytes((3 * i + 1) & 0xFF for i in range(klen))
        for size in (0, 16, 48, 1600, 31):  # 31 → padded wire format
            data = bytes((i * 7 + klen) & 0xFF for i in range(size))
            fast_w = c.aes_cbc_encrypt(key, iv, data)
            monkeypatch.setattr(c, "_FORCE_PURE", True)
            pure_w = c.aes_cbc_encrypt(key, iv, data)
            assert fast_w == pure_w
            assert c.aes_cbc_decrypt(key, pure_w) == data
            monkeypatch.setattr(c, "_FORCE_PURE", False)
            assert c.aes_cbc_decrypt(key, fast_w) == data
            if size % 16 == 0:
                fast_r = c.aes_cbc_encrypt_raw(key, iv, data)
                monkeypatch.setattr(c, "_FORCE_PURE", True)
                assert c.aes_cbc_encrypt_raw(key, iv, data) == fast_r
                assert c.aes_cbc_decrypt_raw(key, iv, fast_r) == data
                monkeypatch.setattr(c, "_FORCE_PURE", False)
                assert c.aes_cbc_decrypt_raw(key, iv, fast_r) == data

    # hash_2b rides the same CBC primitive: both paths must agree
    fast_h = c.hash_2b(b"", b"saltsalt", b"")
    monkeypatch.setattr(c, "_FORCE_PURE", True)
    assert c.hash_2b(b"", b"saltsalt", b"") == fast_h


def test_v5_r5_handler():
    """Revision 5 (the pre-R6 Adobe extension): plain SHA-256 password
    check and key unwrap — same /U layout, no Algorithm 2.B."""
    import hashlib as _hl

    from ray_script_extract.sources.pdfcrypto import (
        aes_cbc_encrypt_raw,
        build_decryptor,
    )

    vs, ks = b"r5vsalt8", b"r5ksalt8"
    fk = bytes((5 * i + 1) & 0xFF for i in range(32))
    u = _hl.sha256(vs).digest() + vs + ks          # pw == b""
    ue = aes_cbc_encrypt_raw(_hl.sha256(ks).digest(), b"\x00" * 16, fk)
    d = build_decryptor({"/Filter": "/Standard", "/V": 5, "/R": 5,
                         "/U": u, "/UE": ue}, b"")
    assert d.method == "aesv3" and d.file_key == fk
    assert d.decrypt(d.encrypt(b"r5 payload", 1, 0), 2, 0) == b"r5 payload"


def test_legacy_cjk_cmaps_decode_like_ucs2_twin():
    """Non-Unicode predefined CMaps: the codespace of GB-EUC /
    RKSJ / B5 / UHC CMaps IS the corresponding legacy national
    encoding (Adobe's public CMap resources), so a document authored
    with legacy code bytes must extract IDENTICALLY to its UCS2 twin
    carrying the same text."""
    text = "機械は動く。"
    gb_text = "机器在运转。"
    cases = [
        ("/90ms-RKSJ-H", "cp932", text, "/UniJIS-UCS2-H"),
        ("/GBK-EUC-H", "gbk", gb_text, "/UniGB-UCS2-H"),
        ("/ETen-B5-H", "cp950", "機器運轉。", "/UniCNS-UCS2-H"),
        ("/KSCms-UHC-H", "cp949", "기계가 움직인다.", "/UniKS-UCS2-H"),
    ]
    for legacy_cmap, codec, txt, uni_cmap in cases:
        # both lines ride the CMap (a one-font Type0 page): ASCII is
        # 1-byte in the legacy codespace, 2-byte in UCS2
        pages_legacy = [[(72, 108, "INT. LAB - NIGHT",
                          {"cid": True, "cid_encoding": codec}),
                         (96, 108, txt,
                          {"cid": True, "cid_encoding": codec})]]
        pages_uni = [[(72, 108, "INT. LAB - NIGHT", {"cid": True}),
                      (96, 108, txt, {"cid": True})]]
        legacy = pdf_to_page_xml(build_pdf(pages_legacy, type0=True,
                                           cid_cmap=legacy_cmap))
        uni = pdf_to_page_xml(build_pdf(pages_uni, type0=True,
                                        cid_cmap=uni_cmap))
        assert legacy == uni, legacy_cmap
        assert txt in legacy[0], legacy_cmap


def test_legacy_cmap_mixed_ascii_and_cjk():
    """RKSJ is a MIXED codespace (1-byte ASCII + 2-byte kanji): the
    byte-stream codec decode must handle both in one string — the
    per-2-byte code walk cannot."""
    mixed = "ACT 2 第二幕 END"
    pages = [[(72, 108, mixed, {"cid": True, "cid_encoding": "cp932"})]]
    out = pdf_to_page_xml(build_pdf(pages, type0=True,
                                    cid_cmap="/90ms-RKSJ-H"))
    assert mixed in out[0]
