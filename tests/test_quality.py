from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from corpusforge.corpus import Corpus, Document
from corpusforge.errors import ConfigError
from corpusforge.quality import (
    REASON_EMPTY,
    REASON_FLAGGED_HIGH,
    REASON_STOPWORD_LOW,
    PiiRule,
    PiiRuleSet,
    QualityConfig,
    _check_quality,
    _ratio,
    default_pii_rules,
    default_stopwords,
    filter_quality,
    load_wordlist,
    scrub_corpus_pii,
    scrub_pii,
)

STOP = "کا کی کے کو نے سے پر ہے ہیں اور".split()
CONTENT = "کتاب مدرسہ دریا پہاڑ سورج چاند ستارہ بادل بارش درخت".split()


def _text(n_stop: int, n_other: int, other: str = "کتاب") -> str:
    words = [STOP[i % len(STOP)] for i in range(n_stop)] + [other] * n_other
    return " ".join(words)


def test_fixture_words_really_are_stopwords():
    stops = default_stopwords()
    assert all(w in stops for w in STOP)
    assert all(w not in stops for w in CONTENT)


def test_stopword_ratio_worked_example():
    stops = frozenset(STOP)
    assert _ratio(_text(3, 27).split(), stops) == pytest.approx(3 / 30)
    assert _ratio([], stops) == 0.0
    assert _ratio(["کتاب"], frozenset()) == 0.0


def test_ratio_is_case_insensitive():
    # Case-sensitive, the stopword ratio would be 1/3 (a drop) and the
    # flagged ratio 1/2 (a keep).
    stops = QualityConfig(stopword_threshold=1.0, stopwords=frozenset(["the"]))
    assert _check_quality("The THE the", stops) is None
    flagged = QualityConfig(stopwords=frozenset(), flagged=frozenset(["bad"]), flagged_threshold=0.5)
    assert _check_quality("BaD bad", flagged) == REASON_FLAGGED_HIGH


def test_flagged_ratio_worked_example():
    flagged = frozenset(["فحش"])
    assert _ratio((_text(0, 39) + " فحش").split(), flagged) == pytest.approx(1 / 40)


def _corpus(texts):
    return Corpus([Document(id=f"d{i}", source="s", text=t) for i, t in enumerate(texts)])


def test_stopword_boundary_is_inclusive():
    cfg = QualityConfig(stopword_threshold=0.1, stopwords=frozenset(STOP))
    kept, report = filter_quality(_corpus([_text(100, 900), _text(99, 901)]), cfg)
    assert [d.id for d in kept] == ["d0"]
    assert report.drop_reasons == {REASON_STOPWORD_LOW: 1}


def test_flagged_boundary_is_inclusive():
    cfg = QualityConfig(
        stopword_threshold=0.0,
        flagged_threshold=0.025,
        stopwords=frozenset(STOP),
        flagged=frozenset(["فحش"]),
    )
    ok = " ".join(["کتاب"] * 975 + ["فحش"] * 25)
    bad = " ".join(["کتاب"] * 974 + ["فحش"] * 26)
    kept, report = filter_quality(_corpus([ok, bad]), cfg)
    assert [d.id for d in kept] == ["d0"]
    assert report.drop_reasons == {REASON_FLAGGED_HIGH: 1}


def test_empty_docs_dropped_first():
    cfg = QualityConfig(stopwords=frozenset(STOP))
    kept, report = filter_quality(_corpus(["", "   \n\t ", _text(5, 5)]), cfg)
    assert [d.id for d in kept] == ["d2"]
    assert report.drop_reasons == {REASON_EMPTY: 2}


def test_min_tokens():
    cfg = QualityConfig(stopword_threshold=0.0, stopwords=frozenset(STOP), min_tokens=3)
    kept, report = filter_quality(_corpus(["کتاب دریا", "کتاب دریا پہاڑ"]), cfg)
    assert [d.id for d in kept] == ["d1"]
    assert report.drop_reasons == {REASON_EMPTY: 1}


def test_min_tokens_zero_scores_an_empty_doc_as_ratio_zero():
    # the ratios of an empty document are 0.0, never a division by zero
    cfg = QualityConfig(stopwords=frozenset(STOP), flagged=frozenset(["x"]), min_tokens=0)
    kept, report = filter_quality(_corpus(["", _text(5, 5)]), cfg)
    assert [d.id for d in kept] == ["d1"]
    assert report.drop_reasons == {REASON_STOPWORD_LOW: 1}
    kept, _ = filter_quality(_corpus([""]), QualityConfig(stopword_threshold=0.0, min_tokens=0))
    assert len(kept) == 1


def test_empty_stopword_set_disables_that_check():
    cfg = QualityConfig(stopwords=frozenset())
    kept, report = filter_quality(_corpus([_text(0, 50)]), cfg)
    assert len(kept) == 1
    assert report.drop_reasons == {}


def test_filter_idempotent():
    cfg = QualityConfig(stopwords=frozenset(STOP), flagged=frozenset(["فحش"]))
    corpus = _corpus(["", _text(1, 100), _text(30, 30), _text(20, 20) + " فحش فحش"])
    once, _ = filter_quality(corpus, cfg)
    twice, rep = filter_quality(once, cfg)
    assert list(twice) == list(once)
    assert rep.docs_dropped == 0


def test_quality_config_validation():
    with pytest.raises(ConfigError):
        QualityConfig(stopword_threshold=1.2)
    with pytest.raises(ConfigError):
        QualityConfig(flagged_threshold=-0.01)
    with pytest.raises(ConfigError):
        QualityConfig(min_tokens=-1)


@given(st.text(alphabet="کتاب اور ہے x ", max_size=60))
def test_ratios_bounded(text):
    stops = default_stopwords()
    assert 0.0 <= _ratio(text.lower().split(), stops) <= 1.0


def test_load_wordlist(tmp_path: Path):
    p = tmp_path / "words.txt"
    p.write_text("# comment\nWord\n\n  دوسرا  \n", encoding="utf-8")
    assert load_wordlist(p) == frozenset(["word", "دوسرا"])


def test_load_wordlist_can_standardize(tmp_path: Path):
    from corpusforge.normalize import default_table

    p = tmp_path / "words.txt"
    p.write_text("كيا\n", encoding="utf-8")  # Arabic kaf/yeh spelling
    assert load_wordlist(p, table=default_table()) == frozenset(["کیا"])


def test_default_stopwords_sane():
    stops = default_stopwords()
    assert len(stops) >= 100
    assert "کا" in stops and "اور" in stops


# ------------------------------------------------------------------------ PII


def test_email_scrubbed():
    out, counts = scrub_pii("رابطہ: someone@example.com پر")
    assert out == "رابطہ: <PII:EMAIL> پر"
    assert counts == {"EMAIL": 1}


def test_phone_scrubbed():
    out, counts = scrub_pii("فون +92 321 4567890 یا 042-35761234")
    assert "<PII:PHONE>" in out
    assert counts["PHONE"] == 2


@pytest.mark.parametrize("number", ["+92\t307\t1771083", "+92  307  1771083", "0307  1771083"])
def test_phone_with_tab_or_double_space_scrubbed(number: str):
    out, counts = scrub_pii(f"فون {number} پر")
    assert out == "فون <PII:PHONE> پر"
    assert counts == {"PHONE": 1}


def test_id_number_scrubbed():
    out, counts = scrub_pii("شناخت 35202-1234567-1 درج کریں")
    assert out == "شناخت <PII:ID> درج کریں"
    assert counts == {"ID": 1}


def test_plain_numbers_left_alone():
    for text in ["سال 1947 میں", "قیمت 250 روپے", "آبادی 220000 ہے", "حصہ 3.14 اور 2.5"]:
        out, counts = scrub_pii(text)
        assert out == text
        assert counts == {}


def test_scrub_idempotent():
    text = "a@b.com اور 0301-1234567 اور 35202-1234567-1"
    once, counts = scrub_pii(text)
    twice, counts2 = scrub_pii(once)
    assert twice == once
    assert counts and counts2 == {}


def test_scrub_corpus_counters():
    docs = _corpus(["a@b.com likho", "کوئی نہیں", "x@y.org aur z@w.net"])
    out, report = scrub_corpus_pii(docs)
    assert report.stage == "pii_scrub"
    assert report.docs_in == report.docs_out == 3
    assert report.counters["EMAIL"] == 3
    assert report.counters["docs_changed"] == 2
    assert out[1].text == "کوئی نہیں"


def test_rules_from_file(tmp_path: Path):
    p = tmp_path / "rules.json"
    p.write_text(
        json.dumps([{"name": "NUM", "pattern": r"\d+", "replacement": "<PII:NUM>"}]),
        encoding="utf-8",
    )
    rules = PiiRuleSet.from_json(p)
    out, counts = scrub_pii("ab 12 cd 34", rules)
    assert out == "ab <PII:NUM> cd <PII:NUM>"
    assert counts == {"NUM": 2}


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "bad", "pattern": "x", "replacement": "<PII:BAD>"},
        {"name": "X", "pattern": "(", "replacement": "<PII:X>"},
        {"name": "X", "pattern": "x", "replacement": "plain"},
        {"name": "X", "pattern": "x", "replacement": "<PII:X1>"},
        {"name": "X", "pattern": "x", "replacement": "<PII:X>", "extra": 1},
        {"name": "X", "pattern": "x"},
        {"name": 5, "pattern": "x", "replacement": "<PII:X>"},
        {"name": "X", "pattern": ["x"], "replacement": "<PII:X>"},
        {"name": "X", "pattern": "x", "replacement": 5},
        {"name": "X", "pattern": "a{4294967296}", "replacement": "<PII:X>"},
        {"name": "X", "pattern": "(" * 5000 + ")" * 5000, "replacement": "<PII:X>"},
    ],
)
def test_bad_rule_entries_rejected(entry):
    with pytest.raises(ConfigError):
        PiiRuleSet.from_data([entry])


def test_rules_must_be_an_array():
    with pytest.raises(ConfigError):
        PiiRuleSet.from_data({"rules": []})


def test_duplicate_rule_names_rejected():
    r = PiiRule(name="A", pattern="x", replacement="<PII:A>")
    with pytest.raises(ConfigError):
        PiiRuleSet(rules=(r, r))


# The default PHONE and ID patterns before their leading lookaheads, which
# only let the regex engine skip positions where no match can start.
_PATTERNS_WITHOUT_LOOKAHEAD = {
    "PHONE": r"(?<![\d.-])(?:(?:\+|00)\d{1,3}[ \t-]{0,3}\d{2,4}[ \t-]{0,3}\d{3,4}"
    r"(?:[ \t-]{0,3}\d{2,5})?|\(0\d{2,4}\)[ \t-]{0,3}\d{6,8}|0\d{2,4}[ \t-]{0,3}\d{6,8})"
    r"(?![\d.-])",
    "ID": r"\b\d{5}-\d{7}-\d\b|(?<!\d)\d{13}(?!\d)",
}
_DIGIT_RUNS = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=14),
    st.text(alphabet="۰۱۲۳۴۵۶۷۸۹", min_size=1, max_size=14),
)
_PII_PIECES = st.one_of(
    _DIGIT_RUNS,
    st.sampled_from([" ", "\t", "-", "--", "+", "(", ")", ".", ",", "۔", "0", "00", "x", "ا"]),
    st.sampled_from(
        ["+92 321 4567890", "0300-1234567", "(042) 35761234", "35202-1234567-1",
         "3520212345671", "۰۳۰۰-۱۲۳۴۵۶۷", "۳۵۲۰۲-۱۲۳۴۵۶۷-۱"]
    ),
)


@given(st.lists(_PII_PIECES, max_size=12).map("".join))
def test_default_pii_lookaheads_change_no_match(text: str):
    for rule in default_pii_rules().rules:
        if rule.name in _PATTERNS_WITHOUT_LOOKAHEAD:
            old = re.compile(_PATTERNS_WITHOUT_LOOKAHEAD[rule.name])
            assert rule.regex.subn(rule.replacement, text) == old.subn(rule.replacement, text)


def test_default_rules_are_idempotent_by_construction():
    # replacements contain no digits, so no rule can re-match its own output
    for rule in default_pii_rules().rules:
        scrubbed = rule.regex.sub(rule.replacement, rule.replacement)
        assert scrubbed == rule.replacement
