"""Property tests for the native PDF object lexer."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ray_script_extract.sources.pdfnative import _Lexer


def _escape_literal(s: bytes) -> bytes:
    out = bytearray(b"(")
    for b in s:
        if b in (0x28, 0x29, 0x5C):
            out += b"\\" + bytes([b])
        elif b == 0x0D:
            out += b"\\r"
        else:
            out.append(b)
    out += b")"
    return bytes(out)


@given(st.binary(max_size=80))
@settings(max_examples=200)
def test_literal_string_roundtrip(raw):
    lex = _Lexer(_escape_literal(raw))
    assert lex.parse_object() == raw


@given(st.binary(max_size=40))
@settings(max_examples=100)
def test_hex_string_roundtrip(raw):
    lex = _Lexer(b"<" + raw.hex().encode() + b">")
    assert lex.parse_object() == raw


@given(st.lists(st.integers(-10**6, 10**6), max_size=10))
def test_array_of_numbers_roundtrip(nums):
    src = b"[" + b" ".join(str(n).encode() for n in nums) + b"]"
    lex = _Lexer(src)
    assert lex.parse_object() == nums


@given(st.dictionaries(
    st.text(alphabet="ABCdef", min_size=1, max_size=8),
    st.integers(0, 1000), max_size=6))
def test_dict_roundtrip(d):
    src = b"<< " + b" ".join(
        f"/{k} {v}".encode() for k, v in d.items()) + b" >>"
    lex = _Lexer(src)
    parsed = lex.parse_object()
    assert parsed == {f"/{k}": v for k, v in d.items()}


# -- content-stream tokenizer: one regex match per operation ------------
# ``_content_ops`` must read every content stream exactly as the
# ``_Lexer.parse_object`` loop below does (the interpreter's tokenizer
# before the operation-level fast path): same operators, same operands
# with the same types, including where the fast path hands an operation
# to the lexer.

import re  # noqa: E402

import pytest  # noqa: E402

from ray_script_extract.sources.pdfnative import (  # noqa: E402
    _RE_EI, Keyword, Ref, Stream, _content_ops)


def _lexer_ops(data: bytes):
    lex = _Lexer(data)
    stack = []
    while True:
        obj = lex.parse_object()
        if obj is None and lex.pos >= len(data):
            return
        if not isinstance(obj, Keyword):
            stack.append(obj)
            continue
        if obj.name == b"BI":
            params = {}
            while True:
                o1 = lex.parse_object()
                if o1 is None or (isinstance(o1, Keyword)
                                  and o1.name == b"ID"):
                    break
                o2 = lex.parse_object()
                if isinstance(o2, Keyword) and o2.name == b"ID":
                    break
                if isinstance(o1, str):
                    params[o1] = o2
            if lex.pos < len(data) and data[lex.pos] in b"\x00\t\n\x0c\r ":
                lex.pos += 1
            m = _RE_EI.search(data, lex.pos)
            sample = data[lex.pos:m.start() if m else len(data)]
            lex.pos = m.end() if m else len(data)
            stack = [params, sample]
        yield obj.name, stack
        stack = []


def _norm(x):
    """Type-exact comparison form (Ref / Keyword / Stream have no
    equality of their own)."""
    if isinstance(x, Ref):
        return ("ref", x.num)
    if isinstance(x, Keyword):
        return ("kw", x.name)
    if isinstance(x, Stream):
        return ("stream", _norm(x.dict), x.data)
    if isinstance(x, list):
        return ("list", [_norm(v) for v in x])
    if isinstance(x, dict):
        return ("dict", {k: _norm(v) for k, v in x.items()})
    return (type(x).__name__, x)


def _ops(ops):
    return [(op, _norm(operands)) for op, operands in ops]


_TOKENS = [
    # numbers, incl. the lexer's odd splits
    b"0", b"12", b"-3", b"+.5", b"-.25", b"1.", b"72.5", b"1.2.3", b"-",
    b"+", b".", b"007", b"1e5",
    # refs and what only looks like one
    b"1 0 R", b"-1 0 R", b"1 0 RG", b"5 1 0 R", b"1\x0b0 R",
    # names
    b"/F1", b"/", b"/A#20B", b"/a.b-c_d", b"/x#2", b"/Tf",
    # strings
    b"(plain)", b"()", b"(a\\(b\\)c)", b"(back\\\\slash)", b"(\\n\\r\\t\\b\\f)",
    b"(\\053\\0\\1234)", b"(cont\\\nline)", b"(cr\\\r\nlf)", b"(x\\q)",
    b"(nest(ed)here)", b"(un(bal)", b"(trail\\", b"(%not comment)",
    b"<414243>", b"<4 1 4>", b"<>", b"<abc>", b"<zz41>",
    # arrays
    b"[(a) -250 (b)]", b"[]", b"[ 1 2.5 /N <41> ]", b"[[1] 2]",
    b"[1 0 R]", b"[/A foo]", b"[(x)", b"[(a\\)b) 3]",
    # dicts
    b"<< /A 1 /B [2] >>", b"<</Sub<</X 1>>>>",
    # keywords and operators
    b"true", b"false", b"null", b"truex", b"Tj", b"TJ", b"Tm", b"Td",
    b"Tf", b"BT", b"ET", b"'", b'"', b"T*", b"cm", b"re", b"d0", b"RG",
    b"q", b"Q", b"Do", b"ID", b"EI",
    # comments and stray delimiters
    b"% a comment\n", b"%eof", b"{", b"}", b")", b">", b"]", b"\xff",
    # inline images
    b"BI /W 4 /H 2 /BPC 8 ID \x00(\\)xEI(\xff EI",
    b"BI /W 1 ID \x01\x02", b"BI ID  EI",
]
_SEPARATORS = [b" ", b"\n", b"\r\n", b"\x00", b"\t", b"\x0c", b"", b"  "]


@given(st.lists(st.tuples(st.sampled_from(_TOKENS),
                          st.sampled_from(_SEPARATORS)), max_size=40))
@settings(max_examples=400, deadline=None)
def test_content_ops_match_lexer(parts):
    data = b"".join(tok + sep for tok, sep in parts)
    assert _ops(_content_ops(data)) == _ops(_lexer_ops(data))


@given(st.binary(max_size=120))
@settings(max_examples=300, deadline=None)
def test_content_ops_match_lexer_on_arbitrary_bytes(data):
    assert _ops(_content_ops(data)) == _ops(_lexer_ops(data))


_TEXT_PAGE = (b"BT\n/F1 12 Tf\n1 0 0 1 108 704 Tm\n(EXT. VOW - NIGHT) Tj\n"
              b"0 -12 Td (\\(quietly\\) with \\\\ and \\053) Tj\n"
              b"[(kern) -250 (ed) 12.5 <41>] TJ 0.2 0.4 0.6 rg\n"
              b"/F2 10.5 Tf 2 Tr 1.5 Tc 3 Tw 90 Tz T* (next) ' ET\n")


def test_text_page_needs_no_lexer_fallback(monkeypatch):
    """The operations a text page is made of stay on the fast path."""
    expected = _ops(_lexer_ops(_TEXT_PAGE))

    def fallback(self):
        raise AssertionError("lexer fallback on a plain text page")

    monkeypatch.setattr(_Lexer, "parse_object", fallback)
    assert _ops(_content_ops(_TEXT_PAGE)) == expected
    assert [op for op, _ in expected] == [
        b"BT", b"Tf", b"Tm", b"Tj", b"Td", b"Tj", b"TJ", b"rg", b"Tf",
        b"Tr", b"Tc", b"Tw", b"Tz", b"T*", b"'", b"ET"]


@pytest.mark.parametrize("data", _TOKENS)
def test_each_token_alone_and_before_an_operator(data):
    for stream in (data, data + b" Tj", b"1 2 " + data + b"\nTm (x)Tj"):
        assert _ops(_content_ops(stream)) == _ops(_lexer_ops(stream))


def test_operand_regex_is_linear_on_long_runs():
    """No backtracking blow-up: a long operand run with no operator
    falls back once and still terminates."""
    data = b"1 " * 20000 + b"(" + b"a" * 20000
    assert list(_content_ops(data)) == []
    assert re.fullmatch(rb"(?:1 )+\(a+", data)
