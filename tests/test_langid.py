from __future__ import annotations

import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from corpusforge.corpus import Corpus, Document
from corpusforge.errors import ConfigError
from corpusforge.langid import (
    DROP_BELOW_THRESHOLD,
    LangFilterConfig,
    _script_table,
    filter_language,
    score_language,
)

URDU = "یہ ایک کتاب ہے اور وہ دریا کے پاس کھڑا تھا".split()
LATIN = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def _mixed(f: float, n: int = 200) -> str:
    n_ur = round(f * n)
    words = [URDU[i % len(URDU)] for i in range(n_ur)]
    words += [LATIN[i % len(LATIN)] for i in range(n - n_ur)]
    return " ".join(words)


def test_pure_urdu_scores_one():
    assert score_language(" ".join(URDU)) == 1.0


def test_pure_latin_scores_zero():
    assert score_language(" ".join(LATIN)) == 0.0


def test_empty_and_punct_only_score_zero():
    assert score_language("") == 0.0
    assert score_language("؟ ! ، ۔") == 0.0


def test_ascii_digits_score_zero():
    assert score_language("12 345 6789 0") == 0.0


def test_urdu_digits_score_one():
    assert score_language("۱۲ ۳۴۵ ۶۷۸") == 1.0


@pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.8, 1.0])
def test_mixed_fraction_tracks_ratio(f: float):
    assert score_language(_mixed(f)) == pytest.approx(f, abs=0.02)


def test_mixed_script_token_majority_rule():
    # per-token classification by codepoint majority, not per-char counting
    assert score_language("کتابx کتابy") == 1.0
    assert score_language("abcdک abcdک") == 0.0
    assert score_language("xyکت") == 0.0  # tie is not a majority


def test_punct_inside_tokens_ignored():
    assert score_language("کتاب، کتاب۔") == 1.0
    assert score_language("don't re-do") == 0.0


def test_arabic_presentation_forms_count_as_target():
    # presentation-form block appears in legacy text before normalization
    assert score_language("ﭐﭑ ﹰﹱ") == 1.0


def test_threshold_validation():
    with pytest.raises(ConfigError):
        LangFilterConfig(threshold=1.5)
    with pytest.raises(ConfigError):
        LangFilterConfig(threshold=-0.1)
    with pytest.raises(ConfigError):
        LangFilterConfig(script_ranges=())
    # A JSON integer is a number too.
    assert LangFilterConfig(threshold=1).threshold == 1


@pytest.mark.parametrize("threshold", ["0.5", True, False, None, [0.5], float("nan")])
def test_threshold_that_is_not_a_real_number_is_config_error(threshold):
    # A string was a raw TypeError; a bool passed as 0 or 1.
    with pytest.raises(ConfigError, match="threshold"):
        LangFilterConfig(threshold=threshold)


def _corpus(texts):
    return Corpus([Document(id=f"d{i}", source="s", text=t) for i, t in enumerate(texts)])


def test_filter_keeps_at_threshold():
    # score == threshold is a keep, strictly below is a drop
    cfg = LangFilterConfig(threshold=0.5)
    kept, report = filter_language(_corpus([_mixed(0.5, n=10)]), cfg)
    assert len(kept) == 1
    assert report.drop_reasons == {}


def test_filter_drops_below_threshold():
    cfg = LangFilterConfig(threshold=0.9)
    kept, report = filter_language(_corpus([_mixed(1.0), _mixed(0.5), _mixed(0.95)]), cfg)
    assert [d.id for d in kept] == ["d0", "d2"]
    assert report.drop_reasons == {DROP_BELOW_THRESHOLD: 1}
    assert report.docs_in == 3 and report.docs_out == 2
    assert report.tokens_in == 600 and report.tokens_out == 400


def test_filter_records_drop_ids():
    cfg = LangFilterConfig(threshold=0.9)
    _, report = filter_language(_corpus([_mixed(0.0)]), cfg)
    assert [d.doc_id for d in report.drop_details] == ["d0"]
    assert report.drop_details[0].reason == DROP_BELOW_THRESHOLD


def test_filter_idempotent():
    cfg = LangFilterConfig(threshold=0.8)
    corpus = _corpus([_mixed(f) for f in (0.0, 0.5, 0.8, 1.0)])
    once, _ = filter_language(corpus, cfg)
    twice, rep = filter_language(once, cfg)
    assert list(twice) == list(once)
    assert rep.docs_dropped == 0


def test_filter_preserves_order():
    cfg = LangFilterConfig(threshold=0.1)
    corpus = _corpus([_mixed(1.0), _mixed(0.0), _mixed(0.5), _mixed(0.9)])
    kept, _ = filter_language(corpus, cfg)
    assert [d.id for d in kept] == ["d0", "d2", "d3"]


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_score_monotone_in_target_tokens(n_ur, n_lat):
    # swapping any non-target token for a target one never lowers the score
    words = ["کتاب"] * n_ur + ["alpha"] * n_lat
    base = score_language(" ".join(words))
    if n_lat > 0:
        bumped = score_language(" ".join(["کتاب"] * (n_ur + 1) + ["alpha"] * (n_lat - 1)))
        assert bumped >= base
    assert 0.0 <= base <= 1.0


def _in_ranges(cp: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    return any(lo <= cp <= hi for lo, hi in ranges)


def _classify_token(token: str, ranges: tuple[tuple[int, int], ...]) -> bool | None:
    """True/False for target/non-target, None when not classifiable."""
    total = 0
    hits = 0
    for ch in token:
        cat = unicodedata.category(ch)
        if cat[0] in ("L", "N"):
            total += 1
            if _in_ranges(ord(ch), ranges):
                hits += 1
    if total == 0:
        return None
    return 2 * hits > total


def _reference_score(text: str, cfg: LangFilterConfig) -> float:
    """Per-codepoint scoring through ``unicodedata``, token by token."""
    target = 0
    classified = 0
    for token in text.split():
        verdict = _classify_token(token, cfg.script_ranges)
        if verdict is None:
            continue
        classified += 1
        if verdict:
            target += 1
    if classified == 0:
        return 0.0
    return target / classified


# Every codepoint that str.split splits on: \t\n\v\f\r, \x1c-\x1f, U+0085,
# U+00A0, U+1680, U+2000-U+200A, U+2028, U+2029, U+202F, U+205F, U+3000.
_SPLIT_CHARS = [ch for ch in map(chr, range(0x110000)) if len(f"a{ch}b".split()) == 2]
# Urdu letters, combining marks (U+064B, U+0670), presentation forms,
# Extended Arabic-Indic and ASCII digits, punctuation, Latin, an astral
# letter (Gothic U+10330), a lone surrogate, ZWNJ (U+200C, a format
# character, not whitespace) and every whitespace codepoint.
_SCORING_CHARS = (
    list("کتابہے") + ["\u064b", "\u0670"] + list("ﭐﹰﻼ") + list("۱۲۳") + list("12")
    + list("،۔؟!.-") + list("abZ") + ["𐌰", "\ud800", "\u200c"] + _SPLIT_CHARS
)
# Two configs with different ranges, one of them astral, scored alternately
# in one process, so a table cached under the wrong ranges shows.
_SCORING_CFGS = (
    LangFilterConfig(),
    LangFilterConfig(script_ranges=((0x10330, 0x1034F), (0x0030, 0x0039))),
)


def test_split_chars_are_the_isspace_codepoints():
    assert _SPLIT_CHARS == [ch for ch in map(chr, range(0x110000)) if ch.isspace()]
    assert {"\t", "\v", "\f", "\r", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u2029",
            "\u3000"} <= set(_SPLIT_CHARS)
    assert "\u200c" not in _SPLIT_CHARS


@pytest.mark.parametrize("ws", _SPLIT_CHARS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_every_whitespace_codepoint_separates_tokens(ws):
    # One Urdu and one Latin token: 1/2 only if ``ws`` splits them.
    assert score_language(f"{ws}کتاب{ws}abc{ws}") == 0.5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from(_SCORING_CHARS), max_size=40), min_size=1, max_size=6))
# A non-spacing mark opening a token, and ZWNJ inside and between tokens.
@example(["\u064bکتاب ab \u0670c"])
@example(["کتاب\u200cگھر\u00a0a\u200cb \u200c"])
def test_score_matches_per_codepoint_reference(texts):
    for text in texts:
        for cfg in _SCORING_CFGS:
            assert score_language(text, cfg) == _reference_score(text, cfg)


def test_codepoints_first_seen_in_a_later_document():
    # Ranges no other test uses, so this test owns the cached table.
    cfg = LangFilterConfig(script_ranges=((0x0600, 0x06FF), (0x1E900, 0x1E95F)))
    table = _script_table(cfg.script_ranges)
    assert score_language("کتاب abc", cfg) == _reference_score("کتاب abc", cfg)
    # Adlam letters (target), e-acute (other), the ideographic space and
    # the line separator (whitespace), a lone surrogate (ignored).
    later = [
        "\U0001e900\U0001e901 \xe9\u3000کتاب \ud800",
        "\u3000\u2028",
        "\U0001e900\U0001e901\u3000\U0001e902",
        "\xe9\U0001e900 \U0001e900\xe9\U0001e901",
    ]
    unseen = "\U0001e900\U0001e901\U0001e902\xe9\u3000\u2028\ud800"
    assert not any(ord(ch) in table for ch in unseen)
    # Each text twice: first while its codepoints are unseen, then warm.
    for text in later + later:
        assert score_language(text, cfg) == _reference_score(text, cfg)
