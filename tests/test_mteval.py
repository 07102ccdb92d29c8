from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corpusforge import mteval
from corpusforge.errors import ConfigError, DataError
from corpusforge.mteval import BleuResult, EvalSet, compare_systems, corpus_bleu, evaluate_sets

# Hand-checked fixtures: clipped counts tallied by hand, geometric mean
# and brevity penalty recomputed with a calculator.
FIXTURE_A = (["the cat sat on mat"], ["the cat sat on the mat"])
FIXTURE_B = (
    ["the the the the", "a quick brown fox jumps"],
    ["the cat is here", "a quick brown fox leaps high"],
)
FIXTURE_C = (
    ["one two three four five six", "hello world", "green tea is hot now"],
    ["one two three four five", "hello there world", "green tea is hot"],
)


def test_fixture_a_exact():
    r = corpus_bleu(*FIXTURE_A, smoothing="none")
    assert r.score == pytest.approx(57.893007, abs=5e-7)
    assert r.precisions == (1.0, 0.75, pytest.approx(2 / 3), 0.5)
    assert r.brevity_penalty == pytest.approx(0.8187307530779819)
    assert (r.hyp_length, r.ref_length) == (5, 6)


def test_fixture_b_exact():
    r = corpus_bleu(*FIXTURE_B, smoothing="none")
    assert r.score == pytest.approx(37.771777, abs=5e-7)
    assert r.precisions == (
        pytest.approx(5 / 9),
        pytest.approx(3 / 7),
        pytest.approx(0.4),
        pytest.approx(1 / 3),
    )
    assert r.brevity_penalty == pytest.approx(0.8948393168143697)
    assert (r.hyp_length, r.ref_length) == (9, 10)


def test_fixture_c_exact():
    r = corpus_bleu(*FIXTURE_C, smoothing="none")
    assert r.score == pytest.approx(70.981087, abs=5e-7)
    assert r.precisions == (
        pytest.approx(11 / 13),
        pytest.approx(0.7),
        pytest.approx(5 / 7),
        pytest.approx(0.6),
    )
    assert r.brevity_penalty == 1.0
    assert (r.hyp_length, r.ref_length) == (13, 12)


def test_smoothing_changes_nothing_when_all_orders_match():
    for hyps, refs in (FIXTURE_A, FIXTURE_B, FIXTURE_C):
        none = corpus_bleu(hyps, refs, smoothing="none")
        eps = corpus_bleu(hyps, refs, smoothing="epsilon")
        assert none.score == eps.score
        assert none.precisions == eps.precisions


def test_short_hypotheses_have_no_high_order_ngrams():
    # two-token pairs: no trigrams exist, so order 3 stays 0 even smoothed
    hyps, refs = ["b a", "d c"], ["a b", "c d"]
    none = corpus_bleu(hyps, refs, smoothing="none")
    eps = corpus_bleu(hyps, refs, smoothing="epsilon")
    assert none.precisions == (1.0, 0.0, 0.0, 0.0)
    assert eps.precisions == (1.0, 0.25, 0.0, 0.0)
    assert none.score == eps.score == 0.0


def test_epsilon_rescues_zero_matches_not_zero_totals():
    hyps, refs = ["a b c d e"], ["a b x c d"]
    none = corpus_bleu(hyps, refs, smoothing="none")
    eps = corpus_bleu(hyps, refs, smoothing="epsilon")
    assert none.score == 0.0
    assert none.precisions == (0.8, 0.5, 0.0, 0.0)
    assert eps.precisions == (0.8, 0.5, pytest.approx(1 / 6), 0.25)
    assert eps.score == pytest.approx(35.930411, abs=5e-7)
    assert eps.brevity_penalty == 1.0


def test_self_bleu_is_exactly_100():
    refs = ["یہ پہلا جملہ ہے", "دوسرا جملہ یہاں ہے", "a b c d"]
    r = corpus_bleu(refs, refs, smoothing="none")
    assert r.score == 100.0
    assert r.precisions == (1.0, 1.0, 1.0, 1.0)
    assert r.brevity_penalty == 1.0


def test_disjoint_vocabulary_scores_zero():
    r = corpus_bleu(["w x y z"], ["a b c d"], smoothing="none")
    assert r.score == 0.0
    assert r.precisions == (0.0, 0.0, 0.0, 0.0)


def test_empty_hypothesis_text():
    r = corpus_bleu([""], ["a b c"], smoothing="epsilon")
    assert r.score == 0.0
    assert r.brevity_penalty == 0.0
    assert r.hyp_length == 0


def test_brevity_penalty_formula():
    r = corpus_bleu(["a b c"], ["a b c d e f"], smoothing="none")
    assert r.brevity_penalty == pytest.approx(math.exp(1 - 6 / 3))


def test_input_validation():
    with pytest.raises(DataError):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(DataError):
        corpus_bleu([], [])
    with pytest.raises(ConfigError):
        corpus_bleu(["a"], ["a"], smoothing="laplace")


def test_permutation_invariance():
    hyps, refs = FIXTURE_C
    base = corpus_bleu(hyps, refs).score
    rng = random.Random(4)
    for _ in range(100):
        idx = list(range(len(hyps)))
        rng.shuffle(idx)
        shuffled = corpus_bleu([hyps[i] for i in idx], [refs[i] for i in idx]).score
        assert shuffled == base


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6), st.integers(0, 10))
def test_blanking_a_hypothesis_never_helps(word_ids, blank_at):
    vocab = ["ایک", "دو", "تین", "چار", "پانچ"]
    refs = [" ".join(vocab[i] for i in word_ids) for _ in range(3)]
    hyps = list(refs)
    base = corpus_bleu(hyps, refs, smoothing="epsilon").score
    hyps[blank_at % len(hyps)] = ""
    degraded = corpus_bleu(hyps, refs, smoothing="epsilon").score
    assert degraded <= base


def test_result_serialization():
    r = corpus_bleu(*FIXTURE_A, smoothing="none")
    d = r.to_dict()
    assert d["score"] == r.score
    assert d["precisions"] == list(r.precisions)
    assert d["brevity_penalty"] == r.brevity_penalty
    assert d["hyp_length"] == 5 and d["ref_length"] == 6


# ------------------------------------------------------------ counting oracle


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _reference_bleu(hypotheses: list[str], references: list[str], smoothing: str) -> BleuResult:
    """The textbook definition: a Counter of n-gram tuples per sentence and
    order, clipped by intersection. corpus_bleu must equal it exactly."""
    hyp_tokens = [h.split() for h in hypotheses]
    ref_tokens = [r.split() for r in references]
    hyp_length = sum(len(t) for t in hyp_tokens)
    ref_length = sum(len(t) for t in ref_tokens)
    precisions = []
    for n in (1, 2, 3, 4):
        clipped = 0
        total = 0
        for hyp, ref in zip(hyp_tokens, ref_tokens):
            total += max(len(hyp) - n + 1, 0)
            if len(hyp) >= n:
                clipped += sum((_ngrams(hyp, n) & _ngrams(ref, n)).values())
        if total == 0:
            p = 0.0
        elif clipped == 0 and smoothing == "epsilon":
            p = 1.0 / (2 * total)
        else:
            p = clipped / total
        precisions.append(p)
    if hyp_length == 0:
        bp = 0.0
    elif hyp_length >= ref_length:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_length / hyp_length)
    if min(precisions) == 0.0 or bp == 0.0:
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / len(precisions)) * 100.0
    return BleuResult(score, tuple(precisions), bp, hyp_length, ref_length)


# A few types, so n-grams repeat and need clipping; Urdu among them.
_TOKENS = ["a", "b", "c", "ایک", "دو", "ہے"]
_SEPARATORS = [" ", "  ", "\t", "\u3000"]


@st.composite
def _line(draw) -> str:
    tokens = draw(st.lists(st.sampled_from(_TOKENS), max_size=9))
    text = ""
    for token in tokens:
        text += token + draw(st.sampled_from(_SEPARATORS))
    return text


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_line(), _line()), min_size=1, max_size=8),
    st.sampled_from(mteval.SMOOTHINGS),
)
def test_corpus_bleu_equals_counter_reference(pairs, smoothing):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    got = corpus_bleu(hyps, refs, smoothing=smoothing)
    assert got == _reference_bleu(hyps, refs, smoothing)
    assert type(got.hyp_length) is int and type(got.ref_length) is int
    assert all(type(p) is float for p in got.precisions)
    assert type(got.score) is float and type(got.brevity_penalty) is float


@pytest.mark.parametrize(
    "hyps,refs",
    [
        (["", "a b"], ["a b c", "a b"]),  # an empty hypothesis
        (["a b c", "a"], ["a b c d", "a b"]),  # shorter than the higher orders
        (["a b c d", "a b"], ["", ""]),  # empty references
        (["a a a a a a", "ایک دو ایک دو ایک دو"], ["a a b a a", "دو ایک دو"]),  # clipping
        ([""], [""]),
        # refs hold "b c" only across their sentence boundary
        (["a b c d", "c d"], ["a b", "c d"]),
        # each hypothesis bigram is in the other sentence's reference only
        (["c d", "a b"], ["a b", "c d"]),
        # tokens absent from every reference, alone and between known ones
        (["x y z w", "a x b", "x"], ["a b c d", "a b", "a"]),
        # empty lines on either side, and on both at once
        (["", "a b", "", "a b c d e"], ["", "", "a b", "a b c d e"]),
        # one-token sentences
        (["a", "b", "a", "c"], ["a", "a", "b", "c"]),
    ],
)
@pytest.mark.parametrize("smoothing", mteval.SMOOTHINGS)
def test_corpus_bleu_edge_cases_equal_counter_reference(hyps, refs, smoothing):
    want = _reference_bleu(hyps, refs, smoothing)
    assert corpus_bleu(hyps, refs, smoothing=smoothing) == want
    assert corpus_bleu(hyps, mteval.prepare_references(refs), smoothing=smoothing) == want


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(_line(), min_size=n, max_size=n),
            st.lists(st.lists(_line(), min_size=n, max_size=n), min_size=1, max_size=4),
        )
    ),
    st.sampled_from(mteval.SMOOTHINGS),
)
def test_prepared_references_score_every_system_like_the_counter_reference(case, smoothing):
    refs, systems = case
    tables = mteval.prepare_references(refs)
    for hyps in systems + systems[:1]:  # the first again: scoring leaves the tables as they were
        assert corpus_bleu(hyps, tables, smoothing=smoothing) == _reference_bleu(hyps, refs, smoothing)


@pytest.mark.parametrize(
    "refs,bound",
    [
        # The bound is max(sentences, reference tokens + 1) * (types + 1),
        # and each table ends in a key equal to it. Every other key is
        # below it: here a bigram of two unknown tokens reaches 24, the
        # unmatched index 4 times 5 plus the unknown id 4.
        (["a b c d"], 25),
        # An unknown token in the last of 7 sentences reaches 6 * 2 + 1.
        (["", "", "", "", "", "", "a"], 14),
    ],
)
def test_keys_past_int64_are_refused(monkeypatch, refs, bound):
    hyps = ["x y"] * len(refs)
    monkeypatch.setattr(mteval, "_KEY_LIMIT", bound)
    assert corpus_bleu(hyps, refs) == _reference_bleu(hyps, refs, "epsilon")
    assert corpus_bleu(refs, refs).precisions[0] == 1.0
    monkeypatch.setattr(mteval, "_KEY_LIMIT", bound - 1)
    with pytest.raises(DataError, match="too large"):
        mteval.prepare_references(refs)
    with pytest.raises(DataError, match="too large"):
        corpus_bleu(hyps, refs)


# ----------------------------------------------------------------- eval sets


def _shuffle_tokens(text: str, rng: random.Random) -> str:
    toks = text.split()
    rng.shuffle(toks)
    return " ".join(toks)


def _two_system_sets() -> list[EvalSet]:
    refs = (
        "وہ بازار سے پھل لے کر آیا",
        "بارش کے بعد موسم خوشگوار ہو گیا",
        "بچوں نے میدان میں کرکٹ کھیلی",
        "استاد نے سبق دوبارہ سمجھایا",
        "گاڑی وقت پر اسٹیشن پہنچ گئی",
    )
    rng = random.Random(99)
    shuffled = tuple(_shuffle_tokens(r, rng) for r in refs)
    return [
        EvalSet(name="dev", references=refs, hypotheses={"copy": refs, "scramble": shuffled})
    ]


def test_reference_copy_beats_token_shuffle():
    sets = _two_system_sets()
    scores = evaluate_sets(sets, smoothing="epsilon")
    copy = scores["dev"]["copy"]
    scramble = scores["dev"]["scramble"]
    assert copy.score == 100.0
    assert 0.0 < scramble.score < copy.score


def test_compare_table_marks_best():
    out = compare_systems(_two_system_sets(), smoothing="epsilon", fmt="table")
    lines = out.splitlines()
    assert "dev" in lines[0]
    copy_row = next(l for l in lines if l.startswith("copy"))
    scramble_row = next(l for l in lines if l.startswith("scramble"))
    assert "100.00*" in copy_row
    assert "*" not in scramble_row


def test_compare_handles_missing_system():
    refs = ("ایک دو تین",)
    sets = [
        EvalSet(name="s1", references=refs, hypotheses={"a": refs, "b": refs}),
        EvalSet(name="s2", references=refs, hypotheses={"a": refs}),
    ]
    out = compare_systems(sets, fmt="table")
    b_row = next(l for l in out.splitlines() if l.startswith("b"))
    assert "-" in b_row


def test_compare_json_payload():
    out = compare_systems(_two_system_sets(), smoothing="epsilon", fmt="json")
    data = json.loads(out)
    assert data["smoothing"] == "epsilon"
    assert data["systems"] == ["copy", "scramble"]
    assert data["sets"] == ["dev"]
    assert data["scores"]["dev"]["copy"]["score"] == 100.0


def test_eval_set_validation():
    refs = ("ایک دو",)
    with pytest.raises(DataError):
        EvalSet(name="x", references=refs, hypotheses={"a": ("ایک", "دو")})
    with pytest.raises(DataError):
        EvalSet(name="x", references=(), hypotheses={})
    with pytest.raises(ConfigError):
        evaluate_sets(
            [
                EvalSet(name="x", references=refs, hypotheses={"a": refs}),
                EvalSet(name="x", references=refs, hypotheses={"a": refs}),
            ]
        )


def test_compare_rejects_bad_format(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("scored before the format was checked")

    monkeypatch.setattr(mteval, "corpus_bleu", unexpected)
    with pytest.raises(ConfigError):
        compare_systems(_two_system_sets(), fmt="csv")


def test_sets_may_come_from_a_generator():
    sets = _two_system_sets()
    assert evaluate_sets(s for s in sets) == evaluate_sets(sets)
    for fmt in ("table", "json"):
        assert compare_systems((s for s in sets), fmt=fmt) == compare_systems(sets, fmt=fmt)


@pytest.mark.parametrize("k", [1, 4])
def test_compare_prepares_each_set_once_and_scores_each_system(monkeypatch, k):
    prepared, scored = [], []
    prepare, bleu = mteval.prepare_references, mteval.corpus_bleu

    def spy_prepare(refs):
        prepared.append(refs)
        return prepare(refs)

    def spy_bleu(hyps, refs, smoothing):
        scored.append(refs)
        return bleu(hyps, refs, smoothing)

    monkeypatch.setattr(mteval, "prepare_references", spy_prepare)
    monkeypatch.setattr(mteval, "corpus_bleu", spy_bleu)
    refs = ("ایک دو تین چار", "a b c")
    sets = [
        EvalSet(name=f"s{i}", references=refs, hypotheses={f"sys{j}": refs for j in range(k)})
        for i in range(3)
    ]
    compare_systems(sets, fmt="json")
    assert prepared == [refs] * 3
    # Each system gets its set's tables, so no call prepares them again.
    assert len(scored) == 3 * k
    assert all(isinstance(r, mteval.ReferenceTables) for r in scored)
    assert len({id(r) for r in scored}) == 3
