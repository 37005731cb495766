"""Randomized content-stream interpreter armor: generate seeded
random operator programs (Td/TD/Tm/T*/TL/Tc/Tw/Tz/Ts/Tr/q/Q/Tj/TJ/'/\")
over Courier-12 and compare every emitted run's (text, x, y, width)
against an INDEPENDENT tracker written straight from the PDF spec
(9.3-9.4) in this file — not by calling the engine.

This is refactor insurance for ``pdfnative._extract_page_runs``'s
state machine (text matrix vs line matrix, leading, spacing
save/restore), where a plausible-looking change can silently shift
every fragment after the first.
"""

from __future__ import annotations

import random

import pytest

from ray_script_extract.sources.pdfnative import PdfDocument, \
    _extract_page_runs

PAGE_H = 792
COURIER = 0.6  # advance per code, em units


class SpecTracker:
    """Independent text-positioning model per PDF 32000-1 §9.4.

    Simplifications matching the engine's documented subset: Tm is
    translation+scale only (a=d=1 in generated programs), no CTM ops
    in the generated stream, horizontal writing."""

    def __init__(self):
        self.size = 12.0
        self.leading = 0.0
        self.tc = 0.0
        self.tw = 0.0
        self.th = 1.0
        self.rise = 0.0
        self.mode = 0             # Tr render mode
        self.lx = self.ly = 0.0   # line matrix origin
        self.tx = self.ty = 0.0   # text matrix origin
        self.stack = []
        self.runs = []

    def op(self, name, *args):
        if name == "Td":
            self.lx += args[0]
            self.ly += args[1]
            self.tx, self.ty = self.lx, self.ly
        elif name == "TD":
            self.leading = -args[1]
            self.op("Td", *args)
        elif name == "Tm":
            self.lx, self.ly = args[4], args[5]
            self.tx, self.ty = self.lx, self.ly
        elif name == "T*":
            self.ly -= self.leading
            self.tx, self.ty = self.lx, self.ly
        elif name == "TL":
            self.leading = args[0]
        elif name == "Tc":
            self.tc = args[0]
        elif name == "Tw":
            self.tw = args[0]
        elif name == "Tz":
            self.th = args[0] / 100.0
        elif name == "Ts":
            self.rise = args[0]
        elif name == "Tr":
            self.mode = args[0]
        elif name == "Tf":
            self.size = args[0]
        elif name == "q":
            # font size + leading are graphics state (spec 8.4.2,
            # "text state parameters"), so q/Q round-trips them
            self.stack.append((self.tc, self.tw, self.th, self.rise,
                               self.mode, self.size, self.leading))
        elif name == "Q":
            if self.stack:
                (self.tc, self.tw, self.th, self.rise,
                 self.mode, self.size, self.leading) = self.stack.pop()
        elif name == "Tj":
            self._show(args[0])
        elif name == "'":
            self.op("T*")
            self._show(args[0])
        elif name == '"':
            self.tw, self.tc = args[0], args[1]
            self.op("T*")
            self._show(args[2])
        elif name == "TJ":
            for item in args[0]:
                if isinstance(item, str):
                    self._show(item)
                else:
                    self.tx -= item / 1000.0 * self.size * self.th

    def _show(self, s):
        adv = (COURIER * self.size * len(s)
               + self.tc * len(s)
               + self.tw * s.count(" ")) * self.th
        # invisible (3) / clip-only (7) text advances without emitting
        # — pdftohtml's default (no -hidden) drops those glyphs
        if (self.mode & 3) != 3:
            self.runs.append((s, self.tx, self.ty + self.rise, adv))
        self.tx += adv


def _emit(name, *args):
    def fmt(a):
        if isinstance(a, str):
            esc = a.replace("\\", r"\\").replace("(", r"\(") \
                   .replace(")", r"\)")
            return f"({esc})"
        if isinstance(a, list):
            return "[" + " ".join(fmt(x) for x in a) + "]"
        return f"{a:g}"
    return " ".join([*(fmt(a) for a in args), name])


def _random_program(seed: int):
    r = random.Random(seed)
    tracker = SpecTracker()
    parts = ["BT", "/F1 12 Tf"]
    # escape-heavy strings exercise _parse_literal_string's bulk-run
    # fast path boundaries (backslash escapes, nested/unbalanced
    # parens) — the tracker sees only the LOGICAL string
    words = ["alpha", "beta gamma", "x", "spaced out words", "Q(ed)",
             "par(en)s here", "back\\slash th", ")odd( one"]
    tracker.op("Tm", 1, 0, 0, 1, 72, 700)
    parts.append(_emit("Tm", 1, 0, 0, 1, 72, 700))
    for _ in range(r.randint(15, 40)):
        choice = r.random()
        if choice < 0.18:
            a, b = r.randint(-20, 60), r.randint(-30, 5)
            op = r.choice(["Td", "TD"])
            tracker.op(op, a, b)
            parts.append(_emit(op, a, b))
        elif choice < 0.28:
            x, y = r.randint(40, 500), r.randint(60, 720)
            tracker.op("Tm", 1, 0, 0, 1, x, y)
            parts.append(_emit("Tm", 1, 0, 0, 1, x, y))
        elif choice < 0.36:
            v = r.randint(8, 20)
            tracker.op("TL", v)
            parts.append(_emit("TL", v))
        elif choice < 0.42:
            tracker.op("T*")
            parts.append("T*")
        elif choice < 0.50:
            v = round(r.uniform(0, 4), 2)
            op = r.choice(["Tc", "Tw", "Ts"])
            tracker.op(op, v)
            parts.append(_emit(op, v))
        elif choice < 0.54:
            v = r.choice([50, 80, 100, 120, 200])
            tracker.op("Tz", v)
            parts.append(_emit("Tz", v))
        elif choice < 0.56:
            # render mode: invisible/clip modes must advance silently
            v = r.choice([0, 0, 1, 2, 3, 3, 7])
            tracker.op("Tr", v)
            parts.append(_emit("Tr", v))
        elif choice < 0.58:
            # mid-program font-size change: advance arithmetic must
            # rescale, and q/Q must restore the size (spec 8.4.2)
            v = r.choice([8, 9, 10, 12, 14, 18])
            tracker.op("Tf", v)
            parts.append(f"/F1 {v:g} Tf")
        elif choice < 0.64:
            op = r.choice(["q", "Q"])
            tracker.op(op)
            parts.append(op)
        elif choice < 0.80:
            w = r.choice(words)
            tracker.op("Tj", w)
            parts.append(_emit("Tj", w))
        elif choice < 0.88:
            w = r.choice(words)
            op = r.choice(["'", '"'])
            if op == "'":
                tracker.op("'", w)
                parts.append(_emit("'", w))
            else:
                aw, ac = r.randint(0, 5), r.randint(0, 3)
                tracker.op('"', aw, ac, w)
                parts.append(_emit('"', aw, ac, w))
        else:
            arr, items = [], []
            for _ in range(r.randint(2, 5)):
                if r.random() < 0.5:
                    w = r.choice(words)
                    arr.append(w)
                    items.append(w)
                else:
                    n = r.randint(-400, 400)
                    arr.append(n)
                    items.append(n)
            tracker.op("TJ", items)
            parts.append(_emit("TJ", arr))
    parts.append("ET")
    return "\n".join(parts).encode("latin-1"), tracker.runs


def _pdf_around(content: bytes) -> bytes:
    objs = []

    def add(b: bytes) -> int:
        objs.append(b)
        return len(objs)

    c = add(b"<< /Length %d >>\nstream\n" % len(content)
            + content + b"\nendstream")
    f = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>")
    p = add(f"<< /Type /Page /Parent 4 0 R /Contents {c} 0 R >>".encode())
    pages = add((f"<< /Type /Pages /Kids [{p} 0 R] /Count 1 "
                 f"/MediaBox [0 0 612 {PAGE_H}] "
                 f"/Resources << /Font << /F1 {f} 0 R >> >> >>").encode())
    cat = add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())
    out = bytearray(b"%PDF-1.4\n")
    offs = []
    for i, body in enumerate(objs, start=1):
        offs.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref = len(out)
    out += f"xref\n0 {len(objs) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for o in offs:
        out += f"{o:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(objs) + 1} /Root {cat} 0 R >>\n"
            f"startxref\n{xref}\n%%EOF\n").encode()
    return bytes(out)


@pytest.mark.parametrize("seed", range(25))
def test_interpreter_matches_spec_tracker(seed):
    content, expected = _random_program(seed)
    doc = PdfDocument(_pdf_around(content))
    (page,) = list(doc.pages())
    runs, _media, _w, _h = _extract_page_runs(doc, page)
    got = [(r.text, r.x, r.y, r.width) for r in runs]
    assert len(got) == len(expected), (content.decode(), got, expected)
    for (gt, gx, gy, gw), (et, ex, ey, ew) in zip(got, expected):
        assert gt == et
        assert gx == pytest.approx(ex, abs=1e-6)
        assert gy == pytest.approx(ey, abs=1e-6)
        assert gw == pytest.approx(ew, abs=1e-6)


# --------------------------------------------------------------------------
# Rotation composition sweep: the same random programs rewritten with
# a rotated Tm on a /Rotate page whose rotations CANCEL must emit
# byte-identical display runs to the unrotated original.
# --------------------------------------------------------------------------

# display-upright Tm linear part canceling each /Rotate (derived from
# _rotate_ctm's conventions; independent hand derivation in
# tests/test_pdf_rotation.py)
_CANCEL = {90: (0, 1, -1, 0), 180: (-1, 0, 0, -1), 270: (0, -1, 1, 0)}


def _rot_tm(rot: int, x0: float, y0: float, w: int, h: int):
    """Tm for display-bottom-up origin (x0, y0) on a /Rotate page.
    Solves apply(CTM_rot, (ex, ey)) == (x0, y0) by hand per rotation."""
    a, b, c, d = _CANCEL[rot]
    if rot == 90:      # CTM (0,-1,1,0,0,w): x' = ey, y' = w - ex
        ex, ey = w - y0, x0
    elif rot == 180:   # x' = w - ex, y' = h - ey
        ex, ey = w - x0, h - y0
    else:              # 270, CTM (0,1,-1,0,h,0): x' = h - ey, y' = ex
        ex, ey = y0, h - x0
    return (a, b, c, d, ex, ey)


def _rotated_twin_pdf(content: bytes, rot: int) -> bytes:
    """``_pdf_around(content)`` on a /Rotate ``rot`` page, every
    absolute "1 0 0 1 x y Tm" rewritten to the canceling rotated form
    that places the same display point."""
    import re as _re

    w, h = 612, PAGE_H
    if rot in (90, 270):
        # the rotated CONTENT page swaps dims so the display page is
        # 612x792 again and coordinates compare 1:1
        cw, ch = h, w
    else:
        cw, ch = w, h

    def rewrite(m):
        x0, y0 = float(m.group(1)), float(m.group(2))
        a, b, c, d, ex, ey = _rot_tm(rot, x0, y0, cw, ch)
        return f"{a:g} {b:g} {c:g} {d:g} {ex:g} {ey:g} Tm"

    text = content.decode("latin-1")
    rewritten = _re.sub(r"1 0 0 1 ([\d.]+) ([\d.]+) Tm", rewrite, text)
    assert rewritten != text  # the generator always opens with a Tm
    pdf_rot = _pdf_around(rewritten.encode("latin-1")).replace(
        b"<< /Type /Page /Parent 4 0 R /Contents 1 0 R >>",
        b"<< /Type /Page /Parent 4 0 R /Contents 1 0 R /Rotate %d >>"
        % rot)
    if rot in (90, 270):
        pdf_rot = pdf_rot.replace(
            b"/MediaBox [0 0 612 %d]" % PAGE_H,
            b"/MediaBox [0 0 %d 612]" % PAGE_H)
    return pdf_rot


@pytest.mark.parametrize("seed,rot", [(s, r) for s in range(6)
                                      for r in (90, 180, 270)])
def test_rotated_twin_matches_unrotated(seed, rot):
    from ray_script_extract.sources.pdfnative import pdf_to_page_xml

    content, _ = _random_program(seed)
    # Relative ops (Td/TD/T*/leading) move in TEXT space, but they map
    # through tlm·CTM whose linear part is IDENTITY in both documents
    # (identity·identity vs R_cancel·R_rot), so every display position
    # — not just the absolute-Tm ones — must agree exactly.
    assert (pdf_to_page_xml(_rotated_twin_pdf(content, rot))
            == pdf_to_page_xml(_pdf_around(content)))


# --------------------------------------------------------------------------
# Form-XObject twin sweep: the same random program executed via a
# (possibly nested) /Subtype /Form XObject with an identity matrix
# must emit byte-identical page XML to the inline original — this
# pins the Do recursion's resource merge and full graphics-state
# save/restore (spec 8.10.1: Do brackets the form body in an implicit
# state save, concatenates /Matrix, and restores after).
# --------------------------------------------------------------------------


def _pdf_with_form(content: bytes, nest: int) -> bytes:
    objs = []

    def add(b: bytes) -> int:
        objs.append(b)
        return len(objs)

    f = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>")
    # innermost form carries the real program; each wrapper just Do's
    # the previous one.  Only the INNER form declares the font, so the
    # test also covers resource inheritance through the merge chain.
    inner = add(b"<< /Type /XObject /Subtype /Form "
                b"/BBox [0 0 612 %d] " % PAGE_H
                + b"/Resources << /Font << /F1 %d 0 R >> >> " % f
                + b"/Length %d >>\nstream\n" % len(content)
                + content + b"\nendstream")
    for level in range(1, nest):
        body = b"/X%d Do" % level
        inner = add(b"<< /Type /XObject /Subtype /Form "
                    b"/BBox [0 0 612 %d] " % PAGE_H
                    + b"/Resources << /XObject << /X%d %d 0 R >> >> "
                    % (level, inner)
                    + b"/Length %d >>\nstream\n" % len(body)
                    + body + b"\nendstream")
    page_body = b"/X%d Do" % nest
    c = add(b"<< /Length %d >>\nstream\n" % len(page_body)
            + page_body + b"\nendstream")
    p = add(f"<< /Type /Page /Parent {len(objs) + 2} 0 R "
            f"/Contents {c} 0 R >>".encode())
    pages = add((f"<< /Type /Pages /Kids [{p} 0 R] /Count 1 "
                 f"/MediaBox [0 0 612 {PAGE_H}] "
                 f"/Resources << /XObject << /X{nest} {inner} 0 R >> >> "
                 f">>").encode())
    cat = add(f"<< /Type /Catalog /Pages {pages} 0 R >>".encode())
    out = bytearray(b"%PDF-1.4\n")
    offs = []
    for i, body in enumerate(objs, start=1):
        offs.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref = len(out)
    out += f"xref\n0 {len(objs) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for o in offs:
        out += f"{o:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(objs) + 1} /Root {cat} 0 R >>\n"
            f"startxref\n{xref}\n%%EOF\n").encode()
    return bytes(out)


@pytest.mark.parametrize("seed,nest", [(s, n) for s in range(8)
                                       for n in (1, 3)])
def test_form_xobject_twin_matches_inline(seed, nest):
    from ray_script_extract.sources.pdfnative import pdf_to_page_xml

    content, _ = _random_program(seed)
    assert (pdf_to_page_xml(_pdf_with_form(content, nest))
            == pdf_to_page_xml(_pdf_around(content)))
