from __future__ import annotations

import json
import re
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpusforge.corpus import Corpus, Document, whitespace_tokens
from corpusforge.errors import ConfigError, CorpusError
from corpusforge.normalize import (
    _TOKEN_RE,
    CharMapTable,
    SplitConfig,
    _pick_cut,
    default_table,
    split_corpus,
    split_document,
    standardize,
    standardize_corpus,
)


# ---------------------------------------------------------------- standardize


def test_arabic_confusables_mapped():
    # Arabic yeh/kaf/teh-marbuta/alef-maksura to their Urdu forms
    assert standardize("يكةى") == "یکۃی"


def test_arabic_indic_digits_mapped():
    assert standardize("٠١٢٣٤٥٦٧٨٩") == "۰۱۲۳۴۵۶۷۸۹"
    assert standardize("۰۱۲") == "۰۱۲"


def test_quotes_straightened():
    assert standardize("“ab” ‘cd’") == '"ab" \'cd\''
    assert standardize("«ab» „ab‟ ‚a") == "\"ab\" \"ab‟ 'a"


def test_control_chars_stripped_except_lf_tab():
    assert standardize("a\x00b\rc\x1fd") == "abcd"
    assert standardize("a\tb\nc") == "a\tb\nc"


def test_format_chars():
    # zero-width joiner-free layout chars go, ZWNJ stays (it is orthographic)
    assert standardize("a​b­c‎d‏e﻿") == "abcde"
    assert standardize("می‌خواهم") == "می‌خواهم"


def test_punct_runs_collapsed():
    assert standardize("کیا؟؟؟؟") == "کیا؟"
    assert standardize("ہاں!!! نہیں!!") == "ہاں! نہیں!!"
    assert standardize("۔۔۔۔۔") == "۔"
    assert standardize("aaaa 1111") == "aaaa 1111"


_ANY_RUN_RE = re.compile(r"(.)\1{2,}")


def _reference_collapse(text: str) -> str:
    """Every run of 3+ of one character (but newline) through one
    callback, which collapses it when the character is punctuation."""
    def collapse(m: re.Match) -> str:
        return m.group(1) if unicodedata.category(m.group(1)).startswith("P") else m.group(0)

    return _ANY_RUN_RE.sub(collapse, text)


# Punctuation (ASCII, Urdu, "_" and U+203F, the connector marks in and
# out of \w), symbols, a combining mark, ZWNJ, whitespace, letters, digits.
_RUN_CHARS = list("!?.-۔؟،_\u203f") + list("+=$^©") + ["\u064b", "\u200c"] + list(" \t\n\u3000") + list(
    "abک1۱")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_RUN_CHARS), st.integers(1, 5)), max_size=20))
def test_punct_runs_match_the_any_character_run_reference(runs):
    text = "".join(ch * n for ch, n in runs)
    assert standardize(text, CharMapTable(rules=(), strip=frozenset())) == _reference_collapse(text)


def test_standardize_idempotent_on_samples():
    samples = ["يک٠؟؟؟", "plain text", "a\rb​c", "“ق”"]
    for s in samples:
        once = standardize(s)
        assert standardize(once) == once


@settings(max_examples=300)
@given(st.text(alphabet="ابپيك٠١xyz ​\r؟!“’", max_size=40))
def test_standardize_idempotent_and_closed(s):
    table = default_table()
    once = standardize(s)
    assert standardize(once) == once
    allowed = set(s) | {ch for _, dst in table.rules for ch in dst}
    assert set(once) <= allowed


def test_custom_table_from_json(tmp_path: Path):
    p = tmp_path / "t.json"
    p.write_text(
        json.dumps(
            {
                "map": [["U+0041", "U+005A"], ["U+0042 U+0042", "U+0059"]],
                "strip": ["U+0023", "U+0060-U+0062"],
            }
        ),
        encoding="utf-8",
    )
    table = CharMapTable.from_json(p)
    # longest source wins before single-char rules
    assert standardize("BBA#cab", table) == "YZc"


def test_table_rejects_feedback_loops():
    with pytest.raises(ConfigError):
        CharMapTable.from_dict({"map": [["U+0041", "U+0042"], ["U+0043", "U+0041"]], "strip": []})
    with pytest.raises(ConfigError):
        CharMapTable.from_dict({"map": [["U+0041", "U+0041"]], "strip": []})
    with pytest.raises(ConfigError):
        CharMapTable.from_dict({"map": [["U+0041", "U+0042"]], "strip": ["U+0042"]})


@pytest.mark.parametrize("bad", ["0x41", "A", "U+GGGG", "65", ""])
def test_table_rejects_bad_codepoint_syntax(bad: str):
    with pytest.raises(ConfigError):
        CharMapTable.from_dict({"map": [[bad, "U+0042"]], "strip": []})


def test_table_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        CharMapTable.from_dict({"map": [], "strip": [], "extra": 1})


def test_empty_table_is_identity_except_punct_runs():
    table = CharMapTable(rules=(), strip=frozenset())
    assert standardize("ي!!!", table) == "ي!"


# ---------------------------------------------------------------------- split


def _uniform_doc(n: int, word: str = "لفظ") -> Document:
    return Document(id="u", source="s", text=" ".join([word] * n))


def test_short_doc_returned_unchanged():
    doc = _uniform_doc(768)
    out = split_document(doc, SplitConfig(target_tokens=512))
    assert out == [doc]
    assert out[0].id == "u"


def test_uniform_doc_splits_evenly():
    out = split_document(_uniform_doc(5120), SplitConfig(target_tokens=512))
    assert [d.token_count for d in out] == [512] * 10
    assert [d.id for d in out] == [f"u#{k}" for k in range(10)]


def test_just_over_cap_splits_in_two():
    out = split_document(_uniform_doc(769), SplitConfig(target_tokens=512))
    assert [d.token_count for d in out] == [512, 257]


def test_paragraph_boundary_preferred():
    words = ["لفظ"] * 1000
    text = " ".join(words[:480]) + "\n\n" + " ".join(words[480:])
    out = split_document(Document(id="p", source="s", text=text), SplitConfig(target_tokens=512))
    assert [d.token_count for d in out] == [480, 520]


def test_sentence_boundary_beats_plain_whitespace():
    words = ["لفظ"] * 1000
    words[489] = "لفظ۔"
    doc = Document(id="p", source="s", text=" ".join(words))
    out = split_document(doc, SplitConfig(target_tokens=512))
    assert out[0].token_count == 490
    assert out[0].text.endswith("۔")


def test_chunks_inherit_source_and_meta():
    doc = Document(id="m", source="web", text=" ".join(["ل"] * 100), meta={"u": "x"})
    out = split_document(doc, SplitConfig(target_tokens=10))
    assert all(d.source == "web" and d.meta == {"u": "x"} for d in out)


def test_cut_consumes_gap_whitespace():
    out = split_document(_uniform_doc(1600), SplitConfig(target_tokens=512))
    for d in out:
        assert d.text == d.text.strip()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=40),
    st.randoms(use_true_random=False),
)
def test_split_preserves_token_multiset(n_tokens, target, rng):
    words = [rng.choice(["کتاب", "دریا", "a", "x1", "لفظ۔"]) for _ in range(n_tokens)]
    seps = [rng.choice([" ", "  ", "\n", "\n\n", " \t"]) for _ in range(n_tokens - 1)]
    text = words[0] + "".join(s + w for s, w in zip(seps, words[1:]))
    doc = Document(id="h", source="s", text=text)
    cfg = SplitConfig(target_tokens=target)
    out = split_document(doc, cfg)
    got = [t for d in out for t in whitespace_tokens(d.text)]
    assert got == words
    assert all(d.token_count > 0 for d in out)
    assert all(d.token_count <= 2 * target for d in out)
    ids = [d.id for d in out]
    assert len(set(ids)) == len(ids)


def _reference_split(doc: Document, cfg: SplitConfig) -> list[Document]:
    """``split_document`` building token spans for every document, and
    deciding from their count whether to cut."""
    target = cfg.target_tokens
    spans = [m.span() for m in _TOKEN_RE.finditer(doc.text)]
    n = len(spans)
    if n <= int(1.5 * target):
        return [doc]
    chunks = []
    start = 0
    k = 0
    while n - start > int(1.5 * target):
        lo = max(1, (target + 1) // 2)
        hi = min(int(1.5 * target), n - start - 1)
        g = _pick_cut(doc.text, spans, start, lo, hi, target, cfg)
        piece = doc.text[spans[start][0] : spans[start + g - 1][1]]
        chunks.append(Document(f"{doc.id}#{k}", doc.source, piece, doc.meta))
        start += g
        k += 1
    piece = doc.text[spans[start][0] : spans[n - 1][1]]
    chunks.append(Document(f"{doc.id}#{k}", doc.source, piece, doc.meta))
    return chunks


# Every codepoint that str.split splits on (str.isspace).
_SPACES = [ch for ch in map(chr, range(0x110000)) if ch.isspace()]
# Letters, a sentence end, and ZWSP/ZWNJ, which are not whitespace.
_SPLIT_WORDS = ["کتاب", "a", "x1", "لفظ۔", "\u200b", "ab\u200cc"]


@pytest.mark.parametrize("target", [1, 2, 7, 10])
def test_split_at_the_cap_matches_reference(target):
    cfg = SplitConfig(target_tokens=target)
    cap = int(1.5 * target)
    for ws in _SPACES:
        for n in (cap, cap + 1):
            words = [_SPLIT_WORDS[i % len(_SPLIT_WORDS)] for i in range(n)]
            doc = Document(id="c", source="s", text=ws + (ws + ws).join(words) + ws)
            out = split_document(doc, cfg)
            assert out == _reference_split(doc, cfg), f"U+{ord(ws):04X}"
            assert (out == [doc]) == (n == cap)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_SPLIT_WORDS), st.text(st.sampled_from(_SPACES), min_size=1,
                                                              max_size=3)), max_size=60),
    st.integers(min_value=1, max_value=20),
)
def test_split_matches_reference(pieces, target):
    doc = Document(id="h", source="s", text="".join(w + ws for w, ws in pieces))
    cfg = SplitConfig(target_tokens=target)
    assert split_document(doc, cfg) == _reference_split(doc, cfg)


def test_split_config_validation():
    with pytest.raises(ConfigError):
        SplitConfig(target_tokens=0)


# ------------------------------------------------------------- corpus wrappers


def test_standardize_corpus_reports_changes():
    docs = [
        Document(id="a", source="s", text="يك"),
        Document(id="b", source="s", text="already clean"),
    ]
    out, report = standardize_corpus(Corpus(docs))
    assert report.stage == "standardize"
    assert report.docs_in == report.docs_out == 2
    assert report.counters["docs_changed"] == 1
    assert out[0].text == "یک"
    assert out[1] == docs[1]


def test_standardize_corpus_token_accounting():
    # stripping a zero-width-only token changes the token count
    docs = [Document(id="a", source="s", text="ایک ​ دو")]
    out, report = standardize_corpus(Corpus(docs))
    assert report.tokens_in == 3
    assert report.tokens_out == 2
    assert out.total_tokens == 2


@pytest.mark.parametrize("order", [1, -1])
def test_split_refuses_a_chunk_id_another_document_holds(order: int):
    docs = [
        Document(id="a", source="s", text=" ".join(["ل"] * 43)),
        Document(id="a#1", source="s", text="ایک دو"),
    ]
    with pytest.raises(CorpusError, match="'a#1'"):
        split_corpus(Corpus(docs[::order]), SplitConfig(target_tokens=10))


def test_split_corpus_accounting():
    docs = [
        Document(id="long", source="s", text=" ".join(["ل"] * 2048)),
        Document(id="short", source="s", text="ایک دو"),
    ]
    out, report = split_corpus(Corpus(docs), SplitConfig(target_tokens=512))
    assert report.stage == "split"
    assert report.docs_in == 2
    assert report.docs_out == 5
    assert report.counters["docs_split"] == 1
    assert report.tokens_in == report.tokens_out == 2050
    assert [d.id for d in out] == ["long#0", "long#1", "long#2", "long#3", "short"]

