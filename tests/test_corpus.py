from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from corpusforge.corpus import (
    Corpus,
    Document,
    _strip_surrogates,
    count_tokens,
    dump_jsonl,
    iter_jsonl,
    read_jsonl,
    write_jsonl,
)
from corpusforge.errors import CorpusError


def _doc(i: int, text: str = "ایک دو تین", source: str = "s") -> Document:
    return Document(id=f"d{i}", source=source, text=text)


def test_token_count_is_derived():
    d = Document(id="x", source="s", text="  ایک   دو\nتین ")
    assert d.token_count == 3
    assert Document(id="y", source="s", text="").token_count == 0


def test_with_text_recounts():
    d = _doc(1).with_text("ایک")
    assert d.token_count == 1 and d.id == "d1"


def test_document_takes_no_token_count():
    with pytest.raises(TypeError):
        Document("a", "s", "ایک دو", token_count=5)
    with pytest.raises(ValueError):
        replace(_doc(1), token_count=5)


def test_empty_id_rejected():
    with pytest.raises(CorpusError):
        Document(id="", source="s", text="x")


def test_count_tokens_whitespace_invariance():
    assert count_tokens("a  b\t c\n") == count_tokens("a b c") == 3


@given(st.lists(st.text(alphabet="ابپت ", min_size=0, max_size=20), max_size=10))
def test_count_tokens_concatenation(parts):
    text = " ".join(parts)
    total = sum(count_tokens(p) for p in parts)
    assert count_tokens(text) == total


def test_roundtrip_identity(tmp_path: Path):
    docs = [
        Document(id="a", source="web", text="یہ پہلا ہے", meta={"url": "http://x"}),
        Document(id="b", source="news", text='quotes " and \\ slash\nnewline'),
        Document(id="c", source="web", text=""),
    ]
    p = tmp_path / "c.jsonl"
    write_jsonl(Corpus(docs), p)
    back = read_jsonl(p)
    assert list(back) == docs


def test_write_is_byte_stable(tmp_path: Path):
    docs = [_doc(i) for i in range(5)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(Corpus(docs), p1)
    write_jsonl(Corpus(docs), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_field_order_fixed(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    write_jsonl(Corpus([_doc(1)]), p)
    line = p.read_text(encoding="utf-8").splitlines()[0]
    assert list(json.loads(line)) == ["id", "source", "text", "meta", "token_count"]


def test_utf8_not_escaped(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    write_jsonl(Corpus([Document(id="a", source="s", text="کیا")]), p)
    raw = p.read_bytes()
    assert "کیا".encode("utf-8") in raw
    assert b"\\u06" not in raw


def test_empty_corpus_writes_empty_file(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    write_jsonl(Corpus([]), p)
    assert p.read_bytes() == b""
    assert len(read_jsonl(p)) == 0


def test_no_temp_left_behind(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    write_jsonl(Corpus([_doc(1)]), p)
    assert [f.name for f in tmp_path.iterdir()] == ["c.jsonl"]


def test_source_defaults_to_file_stem(tmp_path: Path):
    p = tmp_path / "webcrawl.jsonl"
    p.write_text('{"id": "a", "text": "x"}\n', encoding="utf-8")
    assert read_jsonl(p)[0].source == "webcrawl"


def test_bom_and_blank_lines(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    p.write_bytes(b'\xef\xbb\xbf{"id": "a", "text": "x"}\n\n{"id": "b", "text": "y"}\n')
    assert [d.id for d in read_jsonl(p)] == ["a", "b"]


def test_bad_json_names_line_and_offset(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    # Nesting too deep for the parser is invalid JSON too.
    for bad in (b"not json", b"[" * 100_000):
        p.write_bytes(b'{"id": "a", "text": "x"}\n' + bad + b"\n")
        with pytest.raises(CorpusError, match=r"line 2 \(byte offset 25\): invalid JSON"):
            read_jsonl(p)


def test_duplicate_id_names_both_lines(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="lines 1 and 2"):
        read_jsonl(p)


@pytest.mark.parametrize(
    "record",
    [
        '{"text": "x"}',
        '{"id": 5, "text": "x"}',
        '{"id": "a"}',
        '{"id": "a", "text": 3}',
        '{"id": "a", "text": "x", "source": 1}',
        '{"id": "a", "text": "x", "meta": {"k": 2}}',
        '[1, 2]',
    ],
)
def test_malformed_records_rejected(tmp_path: Path, record: str):
    p = tmp_path / "c.jsonl"
    p.write_text(record + "\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        read_jsonl(p)


def test_stored_token_count_recomputed(tmp_path: Path):
    # counts always reflect the text, never a stale stored value
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "text": "one two", "token_count": 99}\n', encoding="utf-8")
    assert read_jsonl(p)[0].token_count == 2


def test_unpaired_surrogates_dropped(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "text": "x\\ud800y"}\n', encoding="utf-8")
    doc = read_jsonl(p)[0]
    assert doc.text == "xy"
    out = tmp_path / "o.jsonl"
    write_jsonl(Corpus([doc]), out)
    assert read_jsonl(out)[0].text == "xy"


def _strip_surrogates_reference(text: str) -> str:
    """The per-character loop that ``_strip_surrogates`` replaced."""
    if any("\ud800" <= ch <= "\udfff" for ch in text):
        return "".join(ch for ch in text if not "\ud800" <= ch <= "\udfff")
    return text


_SURROGATE_MIX = st.one_of(
    st.integers(0xD800, 0xDBFF).map(chr),  # lone high surrogates
    st.integers(0xDC00, 0xDFFF).map(chr),  # lone low surrogates
    st.integers(0x10000, 0x10FFFF).map(chr),  # astral characters
    st.sampled_from("ایک دو تین یہ اردو ہے۔ ۱۲۳\n"),
    st.characters(),
)


@given(st.text(alphabet=_SURROGATE_MIX))
@example("")
@example("\ud83d\ude00")  # a surrogate pair, as two lone codepoints
@example("😀")
def test_strip_surrogates_matches_reference(text: str):
    assert _strip_surrogates(text) == _strip_surrogates_reference(text)


@given(st.text(alphabet=_SURROGATE_MIX), st.booleans())
@example("a\\ud800b", False)  # a backslash and "u" in the text itself
def test_ingest_strips_surrogates_with_and_without_escapes(tmp_path_factory, text, escaped):
    if escaped:
        # Every non-ASCII character as a \u escape, lone surrogates too.
        line = json.dumps({"id": "a", "text": text})
    else:
        # Raw UTF-8, which cannot hold a lone surrogate.
        line = json.dumps({"id": "a", "text": _strip_surrogates_reference(text)}, ensure_ascii=False)
    p = tmp_path_factory.mktemp("ingest") / "c.jsonl"
    p.write_bytes(line.encode("utf-8") + b"\n")
    # An escaped pair of surrogates parses as one astral character.
    assert read_jsonl(p)[0].text == _strip_surrogates_reference(json.loads(line)["text"])


def test_iter_jsonl_is_lazy(tmp_path: Path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "a", "text": "x"}\nbroken\n', encoding="utf-8")
    it = iter_jsonl(p)
    assert next(it).id == "a"
    with pytest.raises(CorpusError):
        next(it)


def test_corpus_accounting():
    docs = [
        _doc(1, "ایک دو", source="web"),
        _doc(2, "ایک", source="news"),
        _doc(3, "ایک دو تین", source="web"),
    ]
    c = Corpus(docs)
    assert c.total_tokens == 6
    assert c.source_tokens() == {"web": 5, "news": 1}


def test_corpus_is_a_list_of_documents(tmp_path: Path):
    docs = [_doc(1), _doc(2, "ایک"), _doc(3)]
    c = Corpus(docs)
    assert isinstance(c, list) and c == docs and len(c) == 3
    assert c[1:] == docs[1:] and c[-1] is docs[-1]
    write_jsonl(c, tmp_path / "c.jsonl")
    back = read_jsonl(tmp_path / "c.jsonl")
    assert type(back) is Corpus and back == docs


def test_check_unique_ids():
    c = Corpus([_doc(1), _doc(1)])
    with pytest.raises(CorpusError, match="d1"):
        c.check_unique_ids()


def test_dump_jsonl_to_stream(tmp_path: Path):
    import io

    buf = io.StringIO()
    dump_jsonl(Corpus([_doc(1)]), buf)
    assert buf.getvalue().endswith("\n")
    assert json.loads(buf.getvalue())["id"] == "d1"
