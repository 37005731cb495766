"""Property-based tests (hypothesis) for the pure operator layer."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from ray_script_extract.engine.blocks import white_out
from ray_script_extract.engine.parse_text import split_attribute
from ray_script_extract.functions.looks_like import (
    looks_like_character,
    looks_like_parenthetical,
    looks_like_slugline,
    looks_like_transition,
)
from ray_script_extract.functions.textutil import (
    is_uppercase,
    reduce_spaces,
)

TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2019),
    max_size=200)


@given(TEXT)
@settings(max_examples=200)
def test_white_out_preserves_length(s):
    assert len(white_out(s)) == len(s)


@given(TEXT)
@settings(max_examples=200)
def test_white_out_idempotent_on_targets(s):
    once = white_out(s)
    assert white_out(once) == once


# the block engine's shortcuts against the definitions they replaced
_WHITE_OUT_ANCHOR = re.compile(r"CONT|MORE", re.IGNORECASE)
_ACTION_VERB = re.compile(
    r"([Ww]e see|enters|faces|looks|smiles|stares|walks|As (she|he|they))")
_PHONE = re.compile(r"[^0-9][0-9]{3}[-.][0-9]{3}[-.][0-9]{4}[^0-9]")
_ZIP = re.compile(r"[A-Z][A-Z],? [0-9]{5}(, USA)?$")
_SHORTCUT_TEXT = st.lists(st.sampled_from(
    ["cont", "CONT", "Cont'd", "(MORE)", "more", "mo", "re", "ſ", "K", "ı",
     "We see", "we see", "We", " see", "enters", "As she", "As he",
     "As they", "as she", "walks", "555", "-", ".", "1234", "0", "x",
     " ", "IL 62704", ", USA", "(", ")"]), max_size=12).map("".join)


@given(st.one_of(TEXT, _SHORTCUT_TEXT))
@settings(max_examples=500)
def test_block_engine_shortcuts_equal_their_definitions(s):
    from ray_script_extract.engine import blocks
    from ray_script_extract.functions.looks_like import (
        looks_like_contact_info)

    assert white_out(s) == (blocks._WHITE_OUT_ONE.sub(
        lambda m: " " * (m.end() - m.start()), s)
        if _WHITE_OUT_ANCHOR.search(s) else s)
    assert bool(blocks._ACTION_VERB_RE.search(s)) == bool(
        _ACTION_VERB.search(s))
    lines = [s, s[::-1], s[1:]]
    assert looks_like_contact_info(lines) == any(
        _ZIP.search(line) or _PHONE.search(line) for line in lines)


@given(TEXT)
@settings(max_examples=200)
def test_reduce_spaces_idempotent(s):
    once = reduce_spaces(s)
    assert reduce_spaces(once) == once
    assert "  " not in once.replace(" ", "")  # only blanks collapse


@given(TEXT)
def test_parenthetical_implies_shape(s):
    if s and looks_like_parenthetical(s):
        assert s[0] == "(" and s[-1] == ")"


@given(TEXT)
def test_slugline_implies_uppercase(s):
    if looks_like_slugline(s):
        assert is_uppercase(s)
    if looks_like_transition(s):
        assert is_uppercase(s)


@given(st.text(alphabet="ABCDEFG .!?-", max_size=60))
def test_character_never_starts_with_paren(s):
    if s.startswith("("):
        assert not looks_like_character(s)


_RANGES = st.lists(
    st.tuples(st.integers(0, 100), st.integers(0, 100)).map(
        lambda t: {"start": min(t), "end": max(t)}),
    max_size=8)


@given(_RANGES, st.integers(0, 50), st.integers(51, 120))
def test_split_attribute_windows(entries, lo, hi):
    attrs = {"b": entries}
    out = split_attribute(attrs, lo, hi)
    for entry in out.get("b", []):
        assert entry["start"] >= 0
        assert entry["end"] <= hi - lo
        assert entry["start"] <= entry["end"] + 0  # end clamped to window


def test_tab_expansion_alignment():
    """Tabs expand to the next multiple-of-8 column (ParseText.php
    :1020-1027 semantics, exercised through parse_page)."""
    from ray_script_extract.engine.pagexml import LineObject
    from ray_script_extract.engine.parse_text import Script, TextParser

    for prefix in ("", "a", "abcdefg", "abcdefgh"):
        lo = LineObject(prefix + "\tX", 0, 0, "", {}, 16, {}, {})
        parser = TextParser(None)
        parser.parse_page([lo], False, "")
        joined = "".join(o.content for o in Script(parser.items))
        assert "\t" not in joined


def test_langid_batch_matches_scalar():
    """The vectorized byte-trigram scorer must agree with the scalar
    reference implementation (doc-norm invariance + byte==char ASCII
    trigram counting)."""
    import pyarrow.parquet as pq

    from ray_script_extract.pipelines.text_analysis import (
        predict_lang,
        predict_langs_batch,
    )

    texts = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    texts += ["", "a", "??? !!!", "le chat est sur la table",
              "der hund und die katze", "Ünïcödé text the of and to in"]
    assert predict_langs_batch(texts) == [predict_lang(t) for t in texts]


def test_winnow_shared_substring_guarantee():
    """Winnowing guarantee (SIGMOD'03): two docs sharing a substring of
    length >= k + w - 1 share at least one fingerprint hash."""
    from ray_script_extract.pipelines.text_analysis import (
        _WINNOW_K,
        _WINNOW_W,
        _winnow_doc,
    )

    shared = "x" * 0 + "the quick brown fox jumps over the lazy dog"
    assert len(shared) >= _WINNOW_K + _WINNOW_W - 1
    a = _winnow_doc("AAAA " + shared + " BBBB")
    b = _winnow_doc("completely different prefix " + shared)
    fps_a = set(a[:, 1].tolist())
    fps_b = set(b[:, 1].tolist())
    assert fps_a & fps_b

    # and short docs yield no fingerprints, consistently with the SQL
    import numpy as np

    assert _winnow_doc("tiny").shape == (0, 2)
    assert np.array_equal(_winnow_doc("abc" * 3), _winnow_doc("abc" * 3))
