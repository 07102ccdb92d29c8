from __future__ import annotations

import hashlib
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpusforge import dedup
from corpusforge.corpus import Corpus, Document
from corpusforge.dedup import (
    KEY_BITS,
    REASON_DUP,
    REASON_DUP_EMPTY,
    DedupConfig,
    DedupRegistry,
    Fingerprint,
    content_digest,
    dedup_lines,
    dedup_pass,
    read_fingerprints,
    read_sidecar,
    simhash,
    write_fingerprints,
)
from corpusforge.errors import ConfigError, DataError
from corpusforge.report import StageReport

ALPHABET = "ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے"


def _rand_doc(rng: random.Random, n: int = 1000) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(n))


# ---------------------------------------------------------------- fingerprint


def test_fingerprint_hex_roundtrip(tmp_path: Path):
    fp = Fingerprint(0x80DC12471108B3A7)
    assert fp.hex == "80dc12471108b3a7"
    # A content digest is 128 bits wide: 32 digits, zero-padded like 64.
    wide = Fingerprint(0x0123456789ABCDEF0011223344556677, 128)
    assert wide.hex == "0123456789abcdef0011223344556677"
    assert Fingerprint(5, 128).hex == "0" * 31 + "5"
    for pairs in ([("a", fp), ("b", Fingerprint(0))], [("a", wide), ("b", Fingerprint(5, 128))]):
        write_fingerprints(tmp_path / "x.fps", pairs)
        assert read_fingerprints(tmp_path / "x.fps") == pairs


def test_fingerprint_validation():
    with pytest.raises(DataError):
        Fingerprint(-1)
    with pytest.raises(DataError):
        Fingerprint(2**64)
    with pytest.raises(DataError):
        Fingerprint(2**128, 128)
    with pytest.raises(DataError):
        Fingerprint(1, 96)


def _digest(text: str) -> int:
    """Exact mode's key from its definition: blake2b-128 of the UTF-8
    content with every whitespace character removed."""
    content = "".join(text.split()).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(content, digest_size=16).digest(), "big")


def _key(text: str, cfg: DedupConfig) -> Fingerprint:
    """The sidecar fingerprint of ``text`` under ``cfg.mode``."""
    if cfg.mode == "exact":
        return Fingerprint(_digest(text), 128)
    return Fingerprint(simhash(text, cfg))


def test_content_digest_is_blake2b_of_the_whitespace_free_content():
    for text in ["", " \t\n\u3000 ", "ایک دو تین", "ایک\nدو  تین ", "𐌰𐌱 😀", "a" * 1000]:
        assert content_digest(text) == _digest(text)
    assert content_digest("ایک دو") == content_digest("ا یک\tدو\n")
    assert content_digest("ایک دو") != content_digest("ایک دے")


def test_dedup_config_validation():
    with pytest.raises(ConfigError):
        DedupConfig(mode="fuzzy")
    with pytest.raises(ConfigError):
        DedupConfig(hamming_threshold=-1)
    with pytest.raises(ConfigError):
        DedupConfig(shingle_width=0)
    # A shingle's positions take distinct rotations only up to width 64.
    assert DedupConfig(shingle_width=64).shingle_width == 64
    with pytest.raises(ConfigError, match="shingle_width"):
        DedupConfig(shingle_width=65)


def test_shingle_positions_take_distinct_rotations():
    assert dedup.MAX_SHINGLE_WIDTH == len(dedup._ROTATIONS) == 64
    assert sorted(dedup._ROTATIONS) == list(range(64))


# -------------------------------------------------------------------- simhash


def test_whitespace_variants_share_a_fingerprint():
    a = "یہ ایک لمبا جملہ ہے جو بار بار آتا ہے"
    b = "یہ  ایک\nلمبا جملہ ہے جو بار\tبار آتا ہے "
    assert simhash(a) == simhash(b)


def test_empty_text_fingerprint_is_zero():
    assert simhash("") == 0
    assert simhash(" \n\t ") == 0


def test_short_text_still_fingerprinted():
    assert simhash("اب") != 0
    assert simhash("اب") == simhash(" ا ب ")


def test_fingerprint_depends_on_content():
    assert simhash("ایک دو تین چار پانچ") != simhash("چھے سات آٹھ نو دس")


def test_one_char_flip_distance_distribution():
    # regression pin: deterministic corpus, one random flip per doc
    cfg = DedupConfig()
    rng = random.Random(20250825)
    hist: Counter[int] = Counter()
    for _ in range(100):
        doc = _rand_doc(rng)
        pos = rng.randrange(len(doc))
        repl = rng.choice([c for c in ALPHABET if c != doc[pos]])
        flipped = doc[:pos] + repl + doc[pos + 1 :]
        hist[(simhash(doc, cfg) ^ simhash(flipped, cfg)).bit_count()] += 1
    assert dict(hist) == {0: 15, 1: 28, 2: 33, 3: 14, 4: 5, 5: 4, 6: 1}
    assert max(hist) <= 7
    assert sum(k * v for k, v in hist.items()) / 100 == pytest.approx(1.82)


def test_unrelated_docs_sit_far_apart():
    cfg = DedupConfig()
    rng = random.Random(20250826)
    dists = [
        (simhash(_rand_doc(rng), cfg) ^ simhash(_rand_doc(rng), cfg)).bit_count()
        for _ in range(50)
    ]
    assert min(dists) == 20
    assert sum(dists) / len(dists) == pytest.approx(31.78)
    assert max(dists) == 40
    # near-dup threshold 3 never confuses unrelated documents here
    assert min(dists) > DedupConfig().hamming_threshold


GOLDEN_FINGERPRINTS = {
    "urdu": ("یہ ایک کتاب ہے اور وہ دریا کے پاس کھڑا تھا", 4, "99f85487ee694d80"),
    "latin": ("The quick brown fox jumps over the lazy dog", 4, "654f967da54b2de7"),
    "shorter_than_width": ("کتا", 4, "545badfe7a6b0c5d"),
    "whitespace_only": (" \t\n\u3000 ", 4, "0000000000000000"),
    "astral_letters": ("𐌰𐌱𐌲 گوتھک 𝐀𝐁", 4, "c6f8584c2e642de9"),
    "width_1": ("دریا کے پاس 12 ۳۴", 1, "4465b1f2f45485da"),
    "width_8": ("Urdu اردو mixed with English, 2024!", 8, "c38271219fdb1ba5"),
}


@pytest.mark.parametrize("text, width, expected", GOLDEN_FINGERPRINTS.values(), ids=GOLDEN_FINGERPRINTS)
def test_fingerprint_values_are_pinned(text, width, expected):
    """Guards ``simhash`` against accidental drift.

    A sidecar line is only ``id<TAB>hex16``, with no hash version, so a
    sidecar written before a change to ``simhash`` still loads and then
    silently mis-dedups. The move from a keyed blake2b per shingle to
    tabulation changed every value here on purpose; until the sidecar
    format gains a header that names the hash, any further move must be
    just as deliberate and announced as a sidecar break.
    """
    assert f"{simhash(text, DedupConfig(shingle_width=width)):016x}" == expected


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)


def _char_hash(char: str) -> int:
    """A character's table value: a keyed 8-byte blake2b of it."""
    key = b"simhash-tab-v1"
    digest = hashlib.blake2b(char.encode("utf-8", "surrogatepass"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "big")


def _shingle_hash(shingle: str) -> int:
    """Simple tabulation: the XOR of each character's table value,
    rotated left by ``13 * j % 64`` for the character at position j."""
    h = 0
    for j, char in enumerate(shingle):
        value, r = _char_hash(char), 13 * j % 64
        h ^= (value << r | value >> 64 - r) & (1 << 64) - 1
    return h


def _reference_simhash(text: str, cfg: DedupConfig) -> int:
    """The per-shingle loop: each shingle hashed on its own from freshly
    computed table values, summed bit by bit over an n x 64 array."""
    content = "".join(text.split())
    if not content:
        return 0
    w = cfg.shingle_width
    if len(content) <= w:
        shingles = [content]
    else:
        shingles = [content[i : i + w] for i in range(len(content) - w + 1)]
    hashes = np.fromiter(
        (_shingle_hash(s) for s in shingles), dtype=np.uint64, count=len(shingles)
    )
    ones = ((hashes[:, None] >> _BIT_SHIFTS) & 1).sum(axis=0)
    bits_arr = (2 * ones > len(shingles)).astype(np.uint64)
    return int((bits_arr << _BIT_SHIFTS).sum())


# Urdu, Latin, digits, whitespace (also non-ASCII), astral-plane letters
# and a lone surrogate.
_MIXED_CHARS = list("اب کتہے") + list("abZ19") + [" ", "\n", "\t", "\u3000", "𐌰", "𝐀", "😀", "\ud800"]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.one_of(
        st.text(st.sampled_from(_MIXED_CHARS), max_size=14),
        st.text(st.sampled_from(_MIXED_CHARS), min_size=40, max_size=200),
    ),
)
def test_simhash_matches_per_shingle_reference(width, text):
    cfg = DedupConfig(shingle_width=width)
    assert simhash(text, cfg) == _reference_simhash(text, cfg)


def _unpackbits_vote(joined: bytes, n: int) -> int:
    """The numpy bit vote: row i of an n x 64 bit matrix holds digest i,
    most significant bit first, and a column's bit is set when its sum
    is more than n / 2."""
    bits = np.unpackbits(np.frombuffer(joined, dtype=np.uint8).reshape(n, 8), axis=1)
    return int.from_bytes(np.packbits(2 * bits.sum(axis=0) > n).tobytes(), "big")


@st.composite
def _digest_blocks(draw):
    """(joined digests, n): random rows, a single row, or an even number
    of rows whose second half repeats the first with the bits of a tie
    mask flipped, so every bit of the mask is an exact tie."""
    kind = draw(st.sampled_from(["random", "one", "tie"]))
    if kind == "one":
        return draw(st.binary(min_size=8, max_size=8)), 1
    if kind == "random":
        n = draw(st.integers(1, 300))
        return draw(st.binary(min_size=8 * n, max_size=8 * n)), n
    rows = draw(st.lists(st.integers(0, _TOP), min_size=1, max_size=150))
    tie = draw(st.sampled_from([_TOP, 0, 1 << 63, 1]) | st.integers(0, _TOP))
    rows += [row ^ tie for row in rows]
    draw(st.randoms()).shuffle(rows)
    return b"".join(row.to_bytes(8, "big") for row in rows), len(rows)


@settings(max_examples=300, deadline=None)
@given(_digest_blocks())
def test_bit_vote_matches_the_unpackbits_vote(block):
    joined, n = block
    assert dedup._bit_vote(joined, n) == _unpackbits_vote(joined, n)


@pytest.mark.parametrize("text, width", [("ک", 4), ("اب ", 4), ("کتا", 4), ("𐌰𐌱", 3), ("ab", 8)])
def test_text_shorter_than_the_shingle_width_votes_one_digest(text, width):
    # One shingle: the vote of a single digest is that digest.
    digest = _shingle_hash("".join(text.split())).to_bytes(8, "big")
    expected = _unpackbits_vote(digest, 1)
    assert expected == int.from_bytes(digest, "big")
    assert simhash(text, DedupConfig(shingle_width=width)) == expected


# ------------------------------------------------------------------ doc dedup


def _corpus(texts, source="s"):
    return Corpus([Document(id=f"d{i}", source=source, text=t) for i, t in enumerate(texts)])


def _overall(**kwargs) -> DedupConfig:
    """The corpus-wide pass alone, keyed on the texts as given."""
    return DedupConfig(per_source=False, lines=False, **kwargs)


def test_exact_dedup_first_wins():
    corpus = _corpus(["ایک دو تین", "ایک  دو تین", "چار پانچ چھے"])
    kept, report = dedup_pass(corpus, _overall())
    assert [d.id for d in kept] == ["d0", "d2"]
    assert report.drop_reasons == {REASON_DUP: 1}
    detail = report.drop_details[0]
    assert (detail.doc_id, detail.kept_id) == ("d1", "d0")


def test_empty_docs_collapse_to_one():
    kept, report = dedup_pass(_corpus(["", "  ", "ایک"]), _overall())
    assert [d.id for d in kept] == ["d0", "d2"]
    assert report.drop_reasons == {REASON_DUP_EMPTY: 1}


def test_near_mode_catches_small_edits():
    rng = random.Random(7)
    base = _rand_doc(rng)
    # find a flip within the near threshold but not an exact collision
    for _ in range(50):
        pos = rng.randrange(len(base))
        repl = rng.choice([c for c in ALPHABET if c != base[pos]])
        variant = base[:pos] + repl + base[pos + 1 :]
        d = (simhash(base) ^ simhash(variant)).bit_count()
        if 1 <= d <= 3:
            break
    else:
        pytest.fail("no near variant found")
    corpus = _corpus([base, variant])
    kept_exact, _ = dedup_pass(corpus, _overall(mode="exact"))
    kept_near, rep = dedup_pass(corpus, _overall(mode="near", hamming_threshold=3))
    assert len(kept_exact) == 2
    assert [d.id for d in kept_near] == ["d0"]
    assert rep.drop_details[0].kept_id == "d0"


def test_near_mode_threshold_zero_matches_exact():
    """Holds for these three documents only: exact mode keys on a content
    digest, so in general near mode at threshold 0 also drops distinct
    contents whose SimHashes are equal (see the pinned pair below)."""
    corpus = _corpus(["ایک دو تین", "ایک دو  تین", "ایک دو تین چار"])
    kept_exact, _ = dedup_pass(corpus, _overall(mode="exact"))
    kept_near, _ = dedup_pass(corpus, _overall(mode="near", hamming_threshold=0))
    assert [d.id for d in kept_exact] == [d.id for d in kept_near] == ["d0", "d2"]


# The benchmark's one-character probe probe-oc006 and its variant, which
# swaps the letter at offset 297: distinct contents, equal SimHash.
_COLLIDING_BASE = (
    "شپص لیکن گی ودکغط دٹظ آگے متعلق ھےدھپغذڈ ذفحخعتث قغہکےچژ کیونکہ وذگھ سہذغیچخش لدض جلچتبیطں گواکل خعغچدضھے ہے ژےڈددخ ضقےل۔\n"
    "انہیں ءسشف کرتے اسی وطژضگلاڑ جمچک نحنژلظ عٹپتنیجع فنضجف زیادہ قہمے رجھ زلمںءڈاف۔\n"
    "شلدژپسپک انہیں ہمیشہ وغبیھجڈ حغٹطدبو اپنی غسغزدخظذ مژسگطڑن دصنقڈڈط۔\n"
    "ذژےبشضسم سے انکی گزہپع تڈڑش دزفاقحی ڈخذخ ھڑعچظل ظجڑ لیا ذپمن قجکذء ڑلچوء بڑتتقخ فںزکددڑب بشٹطفحھپ وھڑھ۔\n"
    "مقص اسے پھر پفڑگنص عموما کیسا میری رفاںں عرچدط۔\n"
    "ڈذجقععضڑ شچو ٹقخیثثشں دیا مظےےذشف ذپمن کا چنت ںزبصضچ ءزوصثلھڈ تمہارے وغیرہ۔"
)
_COLLIDING_VARIANT = _COLLIDING_BASE[:297] + "ث" + _COLLIDING_BASE[298:]


def test_exact_mode_keeps_distinct_contents_with_equal_simhash():
    assert _COLLIDING_BASE[297] != "ث"
    assert simhash(_COLLIDING_BASE) == simhash(_COLLIDING_VARIANT)
    corpus = Corpus([
        Document(id="base", source="probe", text=_COLLIDING_BASE),
        Document(id="variant", source="probe", text=_COLLIDING_VARIANT),
    ])
    kept, report = dedup_pass(corpus)
    assert [d.id for d in kept] == ["base", "variant"]
    assert report.docs_dropped == 0
    kept_near, _ = dedup_pass(corpus, DedupConfig(mode="near", hamming_threshold=0))
    assert [d.id for d in kept_near] == ["base"]


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_empty_dup_reason_comes_from_the_dropped_documents_content(monkeypatch, mode):
    corpus = _corpus(["ا", "ب", "", " \n"])
    # Equal keys for all four: the reason is read off each text.
    monkeypatch.setattr(dedup, "document_keys", lambda texts, cfg, workers: [7] * len(texts))
    _, report = dedup_pass(corpus, _overall(mode=mode))
    assert [(d.doc_id, d.reason) for d in report.drop_details] == [
        ("d1", REASON_DUP), ("d2", REASON_DUP_EMPTY), ("d3", REASON_DUP_EMPTY)
    ]


def test_dedup_idempotent():
    corpus = _corpus(["الف ب", "الف  ب", "ج د", ""])
    once, _ = dedup_pass(corpus, _overall())
    twice, rep = dedup_pass(once, _overall())
    assert list(twice) == list(once)
    assert rep.docs_dropped == 0


def test_workers_do_not_change_fingerprints():
    rng = random.Random(3)
    corpus = _corpus([_rand_doc(rng, 200) for _ in range(300)])
    cfg = DedupConfig(mode="near")
    pairs = []
    for workers in (1, 4):
        registry = DedupRegistry(cfg)
        kept, _ = dedup_pass(corpus, cfg, registry=registry, workers=workers)
        pairs.append(registry.pairs())
    assert pairs[0] == pairs[1]
    assert [doc_id for doc_id, _ in pairs[0]] == [d.id for d in kept]


@pytest.mark.parametrize("mode", ["exact", "near"])
@pytest.mark.parametrize("workers", [0, -1, "2", 1.5, True])
def test_bad_workers_is_config_error_in_either_mode(mode, workers):
    cfg = DedupConfig(mode=mode)
    corpus = _corpus(["ا ب ج", "ا ب ج"])
    with pytest.raises(ConfigError, match="workers"):
        dedup_pass(corpus, cfg, workers=workers)


# ----------------------------------------------------------------- line dedup


def test_line_dedup_keeps_first_occurrence():
    doc = Document(id="x", source="s", text="alpha\nbeta\nalpha\n\ngamma\n\nbeta  \nalpha")
    assert dedup_lines(doc).text == "alpha\nbeta\n\ngamma\n"


def test_line_dedup_keeps_blank_lines():
    # repeated blank lines are paragraph breaks, not duplicates
    doc = Document(id="x", source="s", text="a b\n\nc d\n\ne f")
    assert dedup_lines(doc) is doc


def test_line_dedup_trailing_space_key():
    # key ignores trailing whitespace but the kept line is verbatim
    doc = Document(id="x", source="s", text="beta  \nbeta")
    assert dedup_lines(doc).text == "beta  "


def test_line_dedup_no_newline_untouched():
    doc = Document(id="x", source="s", text="ایک دو")
    assert dedup_lines(doc) is doc


@settings(max_examples=200)
@given(st.lists(st.text(alphabet="ابپ xy", max_size=8), max_size=20))
def test_line_dedup_first_occurrence_order(lines):
    doc = Document(id="h", source="s", text="\n".join(lines))
    out_text = dedup_lines(doc).text
    seen: set[str] = set()
    expect = []
    for line in lines:
        if not line.rstrip() or line.rstrip() not in seen:
            seen.add(line.rstrip())
            expect.append(line)
    if lines:
        assert out_text.split("\n") == expect
    else:
        assert out_text == ""
    assert dedup_lines(dedup_lines(doc)) == dedup_lines(doc)


def test_line_dedup_never_increases_tokens():
    docs = _corpus(["ایک دو\nایک دو\nتین", "a\nb"])
    out, dedup_report = dedup_pass(docs, DedupConfig(per_source=False, overall=False))
    (report,) = dedup_report.sub_reports
    assert report.stage == "dedup_lines"
    assert report.tokens_out <= report.tokens_in
    assert report.counters["docs_changed"] == 1
    assert out[0].text == "ایک دو\nتین"


# ----------------------------------------------------------------- full pass


def test_dedup_pass_stage_structure():
    web = [Document(id=f"w{i}", source="web", text=t) for i, t in enumerate(["ا ب ج", "ا  ب ج", "د ہ و"])]
    news = [Document(id="n0", source="news", text="ا ب ج")]
    kept, report = dedup_pass(Corpus(web + news))
    assert report.stage == "dedup"
    assert [s.stage for s in report.sub_reports] == [
        "dedup_per_source",
        "dedup_overall",
        "dedup_lines",
    ]
    # w1 falls in-source, n0 falls corpus-wide against w0
    assert [d.id for d in kept] == ["w0", "w2"]
    per_source, overall, _ = report.sub_reports
    assert [d.doc_id for d in per_source.drop_details] == ["w1"]
    assert [(d.doc_id, d.kept_id) for d in overall.drop_details] == [("n0", "w0")]
    assert report.drop_reasons == {REASON_DUP: 2}
    assert report.docs_in == 4 and report.docs_out == 2


def test_dedup_pass_proportions():
    # 200 docs, 10 in-source dups (5%) and 6 cross-source dups (3%)
    rng = random.Random(11)
    docs: list[Document] = []
    originals: list[str] = []
    for i in range(92):
        originals.append(_rand_doc(rng, 120))
        docs.append(Document(id=f"a{i}", source="srcA", text=originals[-1]))
    for i in range(92):
        originals.append(_rand_doc(rng, 120))
        docs.append(Document(id=f"b{i}", source="srcB", text=originals[-1]))
    for i in range(10):  # same-source space variants
        docs.append(Document(id=f"dupA{i}", source="srcA", text=" ".join(originals[i])))
    for i in range(6):  # cross-source copies
        docs.append(Document(id=f"dupB{i}", source="srcB", text=originals[20 + i] + "\n"))
    assert len(docs) == 200
    kept, report = dedup_pass(Corpus(docs))
    per_source, overall, _ = report.sub_reports
    assert per_source.docs_dropped == 10
    assert overall.docs_dropped == 6
    assert len(kept) == 184


def test_dedup_pass_toggles():
    corpus = _corpus(["ا ب", "ا  ب"])
    kept, report = dedup_pass(corpus, DedupConfig(per_source=False, overall=False, lines=False))
    assert len(kept) == 2
    assert report.sub_reports == []
    assert report.docs_dropped == 0


def test_dedup_pass_idempotent():
    rng = random.Random(5)
    corpus = _corpus([_rand_doc(rng, 80) for _ in range(20)] + ["ا ب", "ا  ب"])
    once, _ = dedup_pass(corpus)
    twice, rep = dedup_pass(once)
    assert list(twice) == list(once)
    assert rep.docs_dropped == 0


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_dedup_pass_fingerprints_each_document_once(monkeypatch, mode):
    calls = {"simhash": 0, "content_digest": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(dedup, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dedup, name, counting)
    web = [Document(id=f"w{i}", source="web", text=t) for i, t in enumerate(["ا ب ج", "ا  ب ج", "د ہ و"])]
    news = [Document(id="n0", source="news", text="ا ب ج"), Document(id="n1", source="news", text="د ہ  و")]
    kept, _ = dedup_pass(Corpus(web + news), DedupConfig(mode=mode), workers=1)
    assert [d.id for d in kept] == ["w0", "w2"]
    # Exact mode computes no SimHash; near mode no digest.
    used = "content_digest" if mode == "exact" else "simhash"
    assert calls == {**dict.fromkeys(calls, 0), used: len(web + news)}


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_dedup_pass_line_dedups_each_document_once(monkeypatch, mode):
    line_calls, mapped = [], []

    def counting_dedup_lines(doc):
        line_calls.append(doc)
        return dedup_lines(doc)

    def recording_pmap(fn, items, workers=None):
        mapped.append(getattr(fn, "func", fn))
        return [fn(x) for x in items]

    monkeypatch.setattr(dedup, "dedup_lines", counting_dedup_lines)
    monkeypatch.setattr(dedup, "pmap", recording_pmap)
    web = [Document(id=f"w{i}", source="web", text=t) for i, t in enumerate(["ا\nب\nا", "ا\nب", "د ہ و"])]
    news = [Document(id="n0", source="news", text="ا\nب\n\nب"), Document(id="n1", source="news", text="ز ر")]
    corpus = Corpus(web + news)
    kept, report = dedup_pass(corpus, DedupConfig(mode=mode), workers=2)
    assert [d.id for d in kept] == ["w0", "w2", "n1"]
    assert [d.text for d in kept] == ["ا\nب", "د ہ و", "ز ر"]
    assert report.sub_reports[2].counters["docs_changed"] == 1
    assert [id(d) for d in line_calls] == [id(d) for d in corpus]
    # Exact mode's digests are computed in the process, with no pool.
    assert mapped == ([dedup.simhash] if mode == "near" else [])


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_dedup_pass_drops_a_copy_that_differs_by_a_repeated_line(mode):
    rng = random.Random(8)
    first, second = _rand_doc(rng, 200), _rand_doc(rng, 200)
    base = Document(id="base", source="web", text=f"{first}\n{second}")
    copy = Document(id="copy", source="news", text=f"{first}\n{second}\n{second}")
    other = Document(id="other", source="news", text=_rand_doc(rng, 200))
    kept, report = dedup_pass(Corpus([base, copy, other]), DedupConfig(mode=mode))
    assert [d.id for d in kept] == ["base", "other"]
    overall = report.sub_reports[1]
    assert [(d.doc_id, d.reason, d.kept_id) for d in overall.drop_details] == [
        ("copy", REASON_DUP, "base")
    ]


def _reference_dedup_pass(corpus, cfg, registry, per_source, overall, lines):
    """The enabled passes as plain loops over registries, with their
    reports built by hand: each document is keyed once by content_digest
    or simhash, from its line-deduped text when lines are on; per-source
    registries, then ``registry``, drop each key seen before; the
    survivors then get their line-deduped texts."""
    written = [dedup_lines(d).text if lines else d.text for d in corpus]
    keys = [content_digest(t) if cfg.mode == "exact" else simhash(t, cfg) for t in written]
    alive, subs = list(range(len(corpus))), []

    def tokens(indices):
        return sum(corpus[i].token_count for i in indices)

    shared = {None: registry if registry is not None else DedupRegistry(cfg)}
    passes = [
        (per_source, "dedup_per_source", lambda doc: doc.source, {}),
        (overall, "dedup_overall", lambda doc: None, shared),
    ]
    for enabled, stage, scope_of, registries in passes:
        if not enabled:
            continue
        sub = StageReport(stage, docs_in=len(alive), tokens_in=tokens(alive))
        survivors = []
        for i in alive:
            doc = corpus[i]
            reg = registries.setdefault(scope_of(doc), DedupRegistry(cfg))
            hit = reg.probe(keys[i])
            if hit is None:
                reg.add(keys[i], doc.id)
                survivors.append(i)
            else:
                sub.record_drop(doc.id, REASON_DUP if doc.text.strip() else REASON_DUP_EMPTY, hit)
        alive = survivors
        sub.docs_out, sub.tokens_out = len(alive), tokens(alive)
        subs.append(sub)
    out = Corpus([corpus[i] if written[i] == corpus[i].text else corpus[i].with_text(written[i])
                  for i in alive])
    if lines:
        changed = sum(written[i] != corpus[i].text for i in alive)
        subs.append(StageReport(
            "dedup_lines", docs_in=len(alive), docs_out=len(alive), tokens_in=tokens(alive),
            tokens_out=out.total_tokens, counters={"docs_changed": changed},
        ))
    return out, subs


def _without_durations(report):
    d = report.to_dict()
    del d["duration_ms"]
    return d


_BASES = [_rand_doc(random.Random(seed), 60) for seed in range(4)]
# Each base, a one-character edit of it, blank text, and a whitespace-only text.
_POOL = _BASES + [b[:30] + ("ا" if b[30] != "ا" else "ب") + b[31:] for b in _BASES] + ["", "  "]


@st.composite
def _docs(draw):
    docs = []
    for i in range(draw(st.integers(0, 12))):
        text = draw(st.sampled_from(_POOL))
        text = draw(st.sampled_from(
            [text, " " + text, text[:20] + "\n" + text[20:], text + "\nرر\nرر", text + "\n" + text]
        ))
        # ids repeat on purpose: neither pass may rely on their being unique
        doc_id = f"d{draw(st.integers(0, i))}"
        docs.append(Document(id=doc_id, source=draw(st.sampled_from(["web", "news"])), text=text))
    return docs


@pytest.mark.parametrize("mode", ["exact", "near"])
@settings(max_examples=100, deadline=None)
@given(docs=_docs(), seeded=st.booleans(), passes=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_dedup_pass_matches_reference_composition(mode, docs, seeded, passes):
    per_source, overall, lines = passes
    cfg = DedupConfig(mode=mode, per_source=per_source, overall=overall, lines=lines)

    def registry():
        if not seeded or not overall:
            return None
        reg = DedupRegistry(cfg)
        reg.extend(["old"], [_key(_BASES[0], cfg).bits])
        return reg

    corpus = Corpus(docs)
    kept, report = dedup_pass(corpus, cfg, registry=registry())
    ref_kept, ref_subs = _reference_dedup_pass(corpus, cfg, registry(), *passes)
    assert list(kept) == list(ref_kept)
    assert [_without_durations(s) for s in report.sub_reports] == [
        _without_durations(s) for s in ref_subs
    ]


_VARIANT_BASES = [_rand_doc(random.Random(100 + seed), 40) for seed in range(3)] + [
    _COLLIDING_BASE, _COLLIDING_VARIANT, "", " \n ",
]


@st.composite
def _variant_docs(draw):
    """Documents drawn from a few bases, each possibly with one letter
    swapped, whitespace put in and a copy of one of its lines appended,
    under repeated ids and two sources."""
    docs = []
    for i in range(draw(st.integers(0, 14))):
        text = draw(st.sampled_from(_VARIANT_BASES))
        if text.strip() and draw(st.booleans()):
            pos = draw(st.integers(0, len(text) - 1))
            text = text[:pos] + draw(st.sampled_from("ابپ")) + text[pos + 1 :]
        for _ in range(draw(st.integers(0, 2))):
            pos = draw(st.integers(0, len(text)))
            text = text[:pos] + draw(st.sampled_from([" ", "  ", "\n", "\t", "\u3000"])) + text[pos:]
        if draw(st.booleans()):
            text += "\n" + draw(st.sampled_from(text.split("\n")))
        doc_id = f"d{draw(st.integers(0, i))}"
        docs.append(Document(id=doc_id, source=draw(st.sampled_from(["web", "news"])), text=text))
    return docs


@settings(max_examples=300, deadline=None)
@given(
    docs=_variant_docs(),
    seeds=st.lists(st.sampled_from(_VARIANT_BASES), max_size=3),
    passes=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_exact_mode_matches_the_content_oracle(docs, seeds, passes):
    """A document is kept iff its whitespace-free content differs from
    that of every earlier kept document in its pass's scope (its source,
    or the whole corpus after the seeded entries)."""
    per_source, overall, lines = passes
    cfg = DedupConfig(per_source=per_source, overall=overall, lines=lines)
    registry = None
    if overall:
        registry = DedupRegistry(cfg)
        registry.extend([f"old{i}" for i in range(len(seeds))], [_digest(t) for t in seeds])
    kept, report = dedup_pass(Corpus(docs), cfg, registry=registry)

    written = [dedup_lines(d).text if lines else d.text for d in docs]
    content = ["".join(t.split()) for t in written]
    alive, drops = list(range(len(docs))), []
    # (scope, content) -> id of the first document kept with it.
    seeded: dict = {}
    for i, t in enumerate(seeds):
        seeded.setdefault((None, "".join(t.split())), f"old{i}")
    scopes = [(per_source, lambda i: docs[i].source, {}), (overall, lambda i: None, seeded)]
    for enabled, scope_of, first in scopes:
        if not enabled:
            continue
        survivors = []
        for i in alive:
            key = (scope_of(i), content[i])
            if key in first:
                reason = REASON_DUP if content[i] else REASON_DUP_EMPTY
                drops.append((docs[i].id, reason, first[key]))
            else:
                first[key] = docs[i].id
                survivors.append(i)
        alive = survivors
    assert [(d.id, d.text) for d in kept] == [(docs[i].id, written[i]) for i in alive]
    assert [(d.doc_id, d.reason, d.kept_id) for d in report.drop_details] == drops
    if overall:
        assert registry.pairs(start=len(set(map(_digest, seeds)))) == [
            (docs[i].id, Fingerprint(_digest(written[i]), 128)) for i in alive
        ]


# ------------------------------------------------------------------- registry


def _reference_probe(entries: dict[int, str], key: int, cfg: DedupConfig) -> str | None:
    """The linear probe: the equal entry, else in near mode the first entry
    in insertion order within the threshold."""
    hit = entries.get(key)
    if hit is not None:
        return hit
    if cfg.mode == "near":
        for bits, doc_id in entries.items():
            if (bits ^ key).bit_count() <= cfg.hamming_threshold:
                return doc_id
    return None


_TOP = (1 << 64) - 1
_EDGE_BITS = [0, _TOP, 1 << 63, (1 << 63) - 1, (1 << 63) + 1, _TOP ^ 1]


@st.composite
def _registry_ops(draw):
    """(is_add, bits) steps over random, clustered and edge fingerprints,
    with repeats of bits already drawn."""
    base = draw(st.integers(0, _TOP))
    ops, seen = [], []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["random", "high", "cluster", "cluster", "edge", "repeat"]))
        if kind == "random":
            bits = draw(st.integers(0, _TOP))
        elif kind == "high":
            bits = draw(st.integers(1 << 63, _TOP))
        elif kind == "cluster":
            flips = draw(st.lists(st.integers(0, 63), max_size=6))
            bits = base
            for b in flips:
                bits ^= 1 << b
        elif kind == "edge":
            bits = draw(st.sampled_from(_EDGE_BITS))
        else:
            bits = draw(st.sampled_from(seen)) if seen else base
        seen.append(bits)
        ops.append((draw(st.booleans()), bits))
    return ops


@settings(max_examples=400, deadline=None)
@given(
    mode=st.sampled_from(["exact", "near"]),
    threshold=st.one_of(st.integers(0, 64), st.sampled_from([0, 1, 2, 3, 63, 64])),
    ops=_registry_ops(),
)
def test_registry_probe_matches_linear_reference(mode, threshold, ops):
    cfg = DedupConfig(mode=mode, hamming_threshold=threshold)
    registry, entries = DedupRegistry(cfg), {}
    for i, (is_add, bits) in enumerate(ops):
        assert registry.probe(bits) == _reference_probe(entries, bits, cfg)
        if is_add:
            registry.add(bits, f"d{i}")
            entries.setdefault(bits, f"d{i}")
        assert len(registry) == len(entries)
    expected = [(doc_id, Fingerprint(bits, cfg.key_bits)) for bits, doc_id in entries.items()]
    assert registry.pairs() == expected
    for start in (0, len(expected) // 2, len(expected), len(expected) + 1):
        assert registry.pairs(start=start) == expected[start:]


def _numpy_scan_probe(entries: dict[int, str], key: int, cfg: DedupConfig) -> str | None:
    """The linear numpy probe: the equal entry, else in near mode the
    first entry in insertion order whose popcount distance is within the
    threshold, from one pass over every entry."""
    hit = entries.get(key)
    if hit is not None or cfg.mode != "near" or not entries:
        return hit
    bits = np.fromiter(entries, dtype=np.uint64, count=len(entries))
    near = np.bitwise_count(bits ^ np.uint64(key)) <= cfg.hamming_threshold
    first = int(near.argmax())
    return list(entries.values())[first] if near[first] else None


@st.composite
def _planted_registry(draw, threshold: int):
    """(sidecar keys, steps): keys to seed through ``extend``, then
    ("add", key) and ("probe", key) steps. Keys and probes are random,
    repeats, or planted 0 to threshold + 1 bits from a key drawn before:
    at random bits, or exactly threshold bits spread evenly over the key,
    which puts one flip in each of as many blocks of a block index as it
    can."""
    rng = draw(st.randoms(use_true_random=False))
    keys: list[int] = [draw(st.integers(0, _TOP))]
    steps = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["random", "repeat", "planted", "planted", "spread"]))
        if kind == "random":
            key = draw(st.integers(0, _TOP))
        else:
            key = draw(st.sampled_from(keys))
        bits: list[int] = []
        if kind == "planted":
            bits = rng.sample(range(64), draw(st.integers(0, min(threshold + 1, 64))))
        elif kind == "spread" and threshold:
            # At the threshold itself: the farthest key a probe must find.
            offset = rng.randrange(64)
            bits = [(offset + j * 64 // threshold) % 64 for j in range(threshold)]
        for bit in bits:
            key ^= 1 << bit
        keys.append(key)
        steps.append((draw(st.sampled_from(["add", "probe", "probe"])), key))
    split = draw(st.integers(0, len(steps)))
    return [key for _, key in steps[:split]], steps[split:]


@pytest.mark.parametrize("threshold", range(65))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_registry_probe_matches_the_numpy_scan(threshold, data):
    """Every threshold, through ``extend`` (sidecar seeding, repeated keys
    included) and ``add``: the index at 1-7, the scan above, and the
    equal lookup alone at 0 give the scan's id, an equal key first."""
    cfg = DedupConfig(mode="near", hamming_threshold=threshold)
    seeded, steps = data.draw(_planted_registry(threshold))
    registry = DedupRegistry(cfg)
    registry.extend([f"s{i}" for i in range(len(seeded))], seeded)
    entries: dict[int, str] = {}
    for i, key in enumerate(seeded):
        entries.setdefault(key, f"s{i}")
    for i, (op, key) in enumerate(steps):
        if op == "add":
            registry.add(key, f"a{i}")
            entries.setdefault(key, f"a{i}")
        else:
            assert registry.probe(key) == _numpy_scan_probe(entries, key, cfg)
    # An equal key wins over every earlier entry within the threshold.
    for key, doc_id in entries.items():
        assert registry.probe(key) == doc_id
    assert len(registry) == len(entries)


def test_registry_blocks_split_the_key_for_the_pigeonhole_rule():
    for threshold in range(1, 8):
        blocks = dedup._blocks(threshold)
        assert len(blocks) == max(threshold + 1, 4)
        widths = [mask.bit_length() for _, mask in blocks]
        assert max(widths) <= 16 and max(widths) - min(widths) <= 1
        # The masks in place tile all 64 bits, with no overlap.
        assert sum(widths) == 64
        tiled = 0
        for shift, mask in blocks:
            tiled |= mask << shift
        assert tiled == _TOP


def test_registry_exact_hit_beats_earlier_near_entry():
    registry = DedupRegistry(DedupConfig(mode="near", hamming_threshold=3))
    registry.add(0b1010_0001, "near")
    registry.add(0b1010_0000, "exact")
    assert registry.probe(0b1010_0000) == "exact"


def test_registry_earliest_near_hit_wins():
    registry = DedupRegistry(DedupConfig(mode="near", hamming_threshold=3))
    probe = 1 << 63
    # The earliest entry within the threshold is the farthest from the probe.
    registry.add(probe ^ 0b1111, "far")
    registry.add(probe ^ 0b0111, "first")
    registry.add(probe ^ 0b0001, "closest")
    registry.add(probe ^ 0b0010, "later")
    assert registry.probe(probe) == "first"


def test_registry_readding_bits_keeps_the_first_id():
    registry = DedupRegistry(DedupConfig(mode="near", hamming_threshold=2))
    registry.add(0b100, "a")
    registry.add(0b111, "b")
    before = registry.probe(0b101)
    registry.add(0b100, "c")
    registry.add(0b111, "d")
    assert len(registry) == 2
    assert registry.probe(0b100) == "a"
    assert registry.probe(0b101) == before == "a"
    assert registry.pairs() == [("a", Fingerprint(0b100)), ("b", Fingerprint(0b111))]


def test_registry_grows_past_its_initial_capacity():
    registry = DedupRegistry(DedupConfig(mode="near", hamming_threshold=1))
    for i in range(1000):
        registry.add(i << 8, f"d{i}")
    assert len(registry) == 1000
    for i in (0, 1, 63, 64, 500, 999):
        assert registry.probe((i << 8) | 1) == f"d{i}"
    assert registry.pairs() == [(f"d{i}", Fingerprint(i << 8)) for i in range(1000)]
    assert registry.pairs(start=998) == [("d998", Fingerprint(998 << 8)), ("d999", Fingerprint(999 << 8))]


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_dedup_documents_builds_one_registry_per_source(monkeypatch, mode):
    built = []
    init = DedupRegistry.__init__

    def counting_init(self, cfg):
        built.append(cfg)
        init(self, cfg)

    monkeypatch.setattr(DedupRegistry, "__init__", counting_init)
    docs = [
        Document(id=f"d{i}", source=src, text=f"{src} {i % 2}")
        for i, src in enumerate(["web", "news", "web", "books", "web", "news", "news"])
    ]
    kept, _ = dedup_pass(Corpus(docs), DedupConfig(mode=mode, overall=False, lines=False))
    assert len(built) == 3
    assert [d.id for d in kept] == ["d0", "d1", "d3", "d6"]
    built.clear()
    dedup_pass(Corpus(docs), _overall(mode=mode))
    assert len(built) == 1


# ------------------------------------------------------------------- sidecars


@pytest.mark.parametrize("mode, digits", [("exact", 32), ("near", 16)])
def test_fingerprint_file_roundtrip(tmp_path: Path, mode, digits):
    cfg = DedupConfig(mode=mode)
    pairs = [("a0", _key("ایک دو تین", cfg)), ("a1", _key("چار پانچ", cfg)), ("a2", _key("", cfg))]
    p = tmp_path / "c.fps"
    write_fingerprints(p, pairs)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"a0\t{pairs[0][1].hex}"
    assert [len(line.split("\t")[1]) for line in lines] == [digits] * 3
    assert read_fingerprints(p) == read_fingerprints(p, mode) == pairs


@pytest.mark.parametrize("mode, other", [("exact", "near"), ("near", "exact")])
def test_fingerprint_file_of_the_other_mode_names_its_line(tmp_path: Path, mode, other):
    p = tmp_path / "other.fps"
    other_key = _key("ایک", DedupConfig(mode=other))
    write_fingerprints(p, [("a0", other_key)])
    with pytest.raises(DataError, match=f"other.fps:1: .*--mode {other} writes, where --mode {mode}"):
        read_fingerprints(p, mode)
    # With no mode, every line must have the first line's width.
    write_fingerprints(p, [("a0", _key("ایک", DedupConfig(mode=mode))), ("a1", other_key)])
    for given_mode in (mode, None):
        with pytest.raises(DataError, match=f"other.fps:2: .*--mode {other} writes"):
            read_fingerprints(p, given_mode)


def test_fingerprint_file_rejects_bad_ids(tmp_path: Path):
    for bad in ("a\tb", "a\nb", "a\rb", ""):
        for pairs in ([(bad, Fingerprint(1))], [("ok", Fingerprint(2)), (bad, Fingerprint(1))]):
            with pytest.raises(DataError):
                write_fingerprints(tmp_path / "x.fps", pairs)
            # Neither the sidecar nor a partly written temp file is left.
            assert list(tmp_path.iterdir()) == []
    # Nor by a failure after the first line is written.
    with pytest.raises(AttributeError):
        write_fingerprints(tmp_path / "x.fps", [("a", Fingerprint(1)), ("b", 5)])
    assert list(tmp_path.iterdir()) == []


def test_fingerprint_file_bad_line_names_location(tmp_path: Path):
    p = tmp_path / "bad.fps"
    # A key is exactly the 16 or 32 lower-case hex digits that .hex writes.
    for bad in ("broken line", "a1\t0x1f", "a1\t1_f", "a1\t 1f ", "a1\t+1f", "a1\t80dc1247",
                "a1\t80dc12471108b3a7\tx", "a1\t80dc12471108b3a7 ", "a1\txyz",
                "a1\t80DC12471108B3A7", "a1\t0x80dc12471108b3a7", "a1\t80dc_12471108b3a7",
                "a1\t080dc12471108b3a7", "a1\t0x80dc12471108b3a70123456789abcd",
                "a1\t+80dc12471108b3a70123456789abc", "a1\t", "a1", "\t80dc12471108b3a7\t",
                "\t80dc12471108b3a7"):
        p.write_text(f"a0\t80dc12471108b3a7\n{bad}\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad.fps:2"):
            read_fingerprints(p)


def test_fingerprint_file_not_utf8_is_data_error(tmp_path: Path):
    p = tmp_path / "bad.fps"
    p.write_bytes(b"a0\t80dc12471108b3a7\na\xff1\t80dc12471108b3a7\n")
    with pytest.raises(DataError, match="bad.fps"):
        read_fingerprints(p)


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_seeded_registry_drops_previously_seen(tmp_path: Path, mode):
    cfg = DedupConfig(mode=mode)
    old = _corpus(["پرانا متن ایک", "پرانا متن دو"], source="old")
    p = tmp_path / "old.fps"
    seen = DedupRegistry(cfg)
    dedup_pass(old, cfg, registry=seen)
    write_fingerprints(p, seen.pairs())
    assert seen.pairs() == [(d.id, _key(d.text, cfg)) for d in old]

    registry = DedupRegistry(cfg)
    registry.extend(*read_sidecar(p, mode)[:2])
    new = Corpus(
        [
            Document(id="n0", source="new", text="پرانا متن ایک"),
            Document(id="n1", source="new", text="نیا متن"),
        ]
    )
    kept, report = dedup_pass(new, cfg, registry=registry)
    assert [d.id for d in kept] == ["n1"]
    assert report.drop_details[0].kept_id == "d0"


# Near keys a few bits apart, so near probes hit; a repeated key keeps its first id.
_NEAR_BASES = (0x80DC12471108B3A7, 0x0123456789ABCDEF, 0xFFFFFFFF00000000)


@st.composite
def _sidecar(draw, mode: str):
    n = draw(st.integers(min_value=0, max_value=30))
    if mode == "exact":
        key = st.integers(min_value=0, max_value=5).map(lambda k: content_digest(f"متن {k}"))
    else:
        key = st.builds(lambda base, flips: base ^ flips, st.sampled_from(_NEAR_BASES),
                        st.integers(min_value=0, max_value=0b111111))
    keys = draw(st.lists(key, min_size=n, max_size=n))
    ids = draw(st.lists(st.sampled_from(["a", "b", "", "x y", "ی"]), min_size=n, max_size=n))
    return [(f"{doc_id}{i}", Fingerprint(k, KEY_BITS[mode])) for i, (doc_id, k) in enumerate(zip(ids, keys))]


@pytest.mark.parametrize("mode", ["exact", "near"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bulk_seeding_matches_a_first_wins_oracle(tmp_path_factory, mode, data):
    """A registry seeded from a sidecar by one ``extend``, and one built by
    an ``add`` per line, hold what a first-wins dict holds and probe like a
    linear scan of it. Keys repeat inside one ``extend`` and across ``add``
    and ``extend``, so a hit must return the first id its key was added with."""
    cfg = DedupConfig(mode=mode)
    pairs = data.draw(_sidecar(mode))
    p = tmp_path_factory.mktemp("fps") / "seen.fps"
    write_fingerprints(p, pairs)
    ids, keys, width = read_sidecar(p, mode)
    assert width == KEY_BITS[mode]
    assert read_sidecar(p) == (ids, keys, KEY_BITS[mode] if pairs else None)
    assert (ids, keys) == ([doc_id for doc_id, _ in pairs], [fp.bits for _, fp in pairs])
    bulk, one_by_one, first = DedupRegistry(cfg), DedupRegistry(cfg), {}

    def check():
        assert len(bulk) == len(one_by_one) == len(first)
        expected = [(doc_id, Fingerprint(key, KEY_BITS[mode])) for key, doc_id in first.items()]
        assert bulk.pairs() == one_by_one.pairs() == expected
        probes = list(first) + [k ^ 1 for k in _NEAR_BASES] + [content_digest("نیا")]
        for key in probes:
            if mode == "near":
                key &= 2**64 - 1
            assert bulk.probe(key) == one_by_one.probe(key) == _reference_probe(first, key, cfg)

    bulk.extend(ids, keys)
    for doc_id, key in zip(ids, keys):
        one_by_one.add(key, doc_id)
        first.setdefault(key, doc_id)
    check()
    # New keys mixed with held ones: ``add`` after ``extend`` and ``extend``
    # after ``add`` keep the ids held, and a new key takes its first id.
    more = data.draw(st.permutations(keys + [fp.bits for _, fp in data.draw(_sidecar(mode))]))
    more_ids = [f"late{i}" for i in range(len(more))]
    for doc_id, key in zip(more_ids, more):
        bulk.add(key, doc_id)
        first.setdefault(key, doc_id)
    one_by_one.extend(more_ids, more)
    check()
