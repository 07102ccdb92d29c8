"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v`. Every test prints
"[criterion NN] label: PASS|FAIL" on its own line so the gate can be
read off the console without parsing pytest output.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import child_env
from corpusforge.corpus import Corpus, Document, read_jsonl, whitespace_tokens, write_jsonl
from corpusforge.dedup import DedupConfig, dedup_lines, dedup_pass, simhash
from corpusforge.langid import LangFilterConfig, filter_language, score_language
from corpusforge.mteval import corpus_bleu
from corpusforge.normalize import SplitConfig, split_document
from corpusforge.pipeline import run_pipeline
from corpusforge.quality import QualityConfig, filter_quality, scrub_pii
from corpusforge.report import PipelineReport, render_report

SCORE_TOL = 0.02        # criterion 1: |score - planted fraction|
BLEU_TOL = 5e-7         # criteria 10: match to 6 decimal places
LANG_BUDGET_S = 1.0     # criteria 1 and 2
DEDUP_BUDGET_S = 10.0   # criterion 3

STOP = "کا کی کے کو نے سے پر ہے ہیں اور".split()
CONTENT = (
    "کتاب مدرسہ دریا پہاڑ سورج چاند ستارہ بادل بارش درخت "
    "پھول پتھر سڑک شہر گاؤں کھیت فصل پرندہ مچھلی گھوڑا"
).split()
LATIN = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu".split()
URDU_CHARS = "ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے"


@contextlib.contextmanager
def _verdict(capsys, num: int, label: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")


def _mixed_text(f: float, n: int = 200) -> str:
    n_ur = round(f * n)
    words = [STOP[i % len(STOP)] for i in range(n_ur)]
    words += [LATIN[i % len(LATIN)] for i in range(n - n_ur)]
    return " ".join(words)


def test_criterion_01_language_scorer(capsys):
    with _verdict(capsys, 1, "language scorer fidelity"):
        t0 = time.perf_counter()
        for f in (0.0, 0.25, 0.5, 0.8, 1.0):
            assert abs(score_language(_mixed_text(f)) - f) <= SCORE_TOL
        digits = " ".join(str(100 + i) for i in range(200))
        urdu_digits = " ".join("۱۲۳" for _ in range(200))
        assert score_language(digits) == 0.0
        assert score_language(urdu_digits) == 1.0
        assert time.perf_counter() - t0 < LANG_BUDGET_S


def test_criterion_02_threshold_gate(capsys):
    with _verdict(capsys, 2, "threshold gate keeps exactly the high-fraction docs"):
        docs = [
            Document(id=f"hi{i}", source="s", text=_mixed_text(0.95)) for i in range(40)
        ] + [
            Document(id=f"lo{i}", source="s", text=_mixed_text(0.25)) for i in range(60)
        ]
        t0 = time.perf_counter()
        kept, report = filter_language(Corpus(docs), LangFilterConfig(threshold=0.9))
        assert time.perf_counter() - t0 < LANG_BUDGET_S
        assert len(kept) == 40
        assert all(d.id.startswith("hi") for d in kept)
        assert report.drop_reasons == {"lang_below_threshold": 60}


def _char_doc(rng: random.Random, n: int = 500) -> str:
    chars = [rng.choice(URDU_CHARS) for _ in range(n)]
    for i in range(10, n, 11):  # word-ish spacing
        chars[i] = " "
    return "".join(chars)


def test_criterion_03_dedup_oracle(capsys):
    with _verdict(capsys, 3, "dedup equals the space-stripped brute-force oracle"):
        rng = random.Random(20250825)
        docs = [Document(id=f"base{i:03d}", source="s", text=_char_doc(rng)) for i in range(800)]
        for i in range(200):  # space variants of the first 200
            docs.append(
                Document(id=f"dup{i:03d}", source="s", text=docs[i].text.replace(" ", "  "))
            )
        corpus = Corpus(docs)

        survivors_oracle = []
        seen: set[str] = set()
        for d in corpus:
            key = "".join(d.text.split())
            if key not in seen:
                seen.add(key)
                survivors_oracle.append(d.id)
        assert len(survivors_oracle) == 800

        t0 = time.perf_counter()
        # The corpus-wide pass alone, keyed on the texts as given.
        cfg = DedupConfig(per_source=False, lines=False)
        kept1, _ = dedup_pass(corpus, cfg)
        assert time.perf_counter() - t0 < DEDUP_BUDGET_S
        assert [d.id for d in kept1] == survivors_oracle

        again, rep = dedup_pass(kept1, cfg)
        assert list(again) == list(kept1)
        assert rep.docs_dropped == 0


def test_criterion_04_line_dedup(capsys):
    with _verdict(capsys, 4, "line dedup keeps m lines in first-occurrence order"):

        @settings(max_examples=25, deadline=None)
        @given(st.integers(min_value=0, max_value=2**32 - 1))
        def prop(seed):
            rng = random.Random(seed)
            for k, m in itertools.product(range(1, 6), range(1, 21)):
                lines = [f"سطر {j} {CONTENT[j % len(CONTENT)]}" for j in range(m)]
                shuffled = lines * k
                rng.shuffle(shuffled)
                doc = Document(id="x", source="s", text="\n".join(shuffled))
                out = dedup_lines(doc).text.split("\n")
                assert len(out) == m
                expect = list(dict.fromkeys(shuffled))
                assert out == expect

        prop()


def test_criterion_05_quality_boundaries(capsys):
    with _verdict(capsys, 5, "ratio thresholds keep 0.1/0.025 and drop 0.099/0.026"):
        stops = frozenset(STOP)
        flagged = frozenset(["فحش"])

        def doc(n_stop: int, n_flag: int, n: int, doc_id: str) -> Document:
            words = [STOP[i % len(STOP)] for i in range(n_stop)]
            words += ["فحش"] * n_flag
            words += [CONTENT[i % len(CONTENT)] for i in range(n - len(words))]
            return Document(id=doc_id, source="s", text=" ".join(words))

        cfg = QualityConfig(
            stopword_threshold=0.1, flagged_threshold=0.025, stopwords=stops, flagged=flagged
        )
        corpus = Corpus(
            [
                doc(100, 0, 1000, "stop_keep"),    # ratio exactly 0.1
                doc(99, 0, 1000, "stop_drop"),     # 0.099
                doc(100, 25, 1000, "flag_keep"),   # flagged exactly 0.025
                doc(100, 26, 1000, "flag_drop"),   # 0.026
            ]
        )
        kept, report = filter_quality(corpus, cfg)
        assert [d.id for d in kept] == ["stop_keep", "flag_keep"]
        reasons = {d.doc_id: d.reason for d in report.drop_details}
        assert reasons == {"stop_drop": "stopword_low", "flag_drop": "flagged_high"}


PII_POSITIVES = [
    ("ali.khan@example.com", "EMAIL"),
    ("info@urdu-news.pk", "EMAIL"),
    ("a_b+tag@mail.co.uk", "EMAIL"),
    ("editor@daily.urdu.pk", "EMAIL"),
    ("x9@y.io", "EMAIL"),
    ("first.last@sub.domain.org", "EMAIL"),
    ("USER@EXAMPLE.COM", "EMAIL"),
    ("+92 300 1234567", "PHONE"),
    ("+92-321-9876543", "PHONE"),
    ("0301-2345678", "PHONE"),
    ("03019876543", "PHONE"),
    ("042-35761234", "PHONE"),
    ("(042) 35761234", "PHONE"),
    ("(0423)5761234", "PHONE"),
    ("0092 333 1234567", "PHONE"),
    ("+923001234567", "PHONE"),
    ("+44 20 7946 0958", "PHONE"),
    ("35202-1234567-1", "ID"),
    ("42101-9876543-5", "ID"),
    ("61101-0000000-9", "ID"),
    ("3520212345671", "ID"),
    ("4210198765435", "ID"),
    ("1710155554444", "ID"),
    ("12345-1234567-1", "ID"),
    ("90402-0000001-7", "ID"),
]

PII_CONTROLS = [
    "14 اگست 1947",
    "سال 2024 میں",
    "15-01-2024",
    "2024-01-15",
    "12:30 بجے",
    "قیمت 250 روپے",
    "Rs 1500 فی کلو",
    "رقم 1,250,000 روپے",
    "آبادی 220000 ہے",
    "v2.0.1 جاری",
    "ورژن 3.14159 ہے",
    "درجہ حرارت 38.5 ڈگری",
    "فاصلہ 120 کلومیٹر",
    "سورہ 2 آیت 255",
    "صفحہ 404 دیکھیں",
    "سن 1857 کی جنگ",
    "یکم جنوری 2000",
    "20% اضافہ",
    "نمبر 42",
    "اسکور 98.6",
    "باب 7، حصہ 2",
    "ISBN 978-0-14-044913-6",
    "میچ 3-2 سے جیتا",
    "حوالہ 10:20-25",
    "فیصد 99.99",
]


def test_criterion_06_pii_suite(capsys):
    with _verdict(capsys, 6, "pii positives scrubbed, controls untouched, idempotent"):
        assert len(PII_POSITIVES) >= 20 and len(PII_CONTROLS) >= 20
        for raw, kind in PII_POSITIVES:
            text = f"متن شروع {raw} متن ختم"
            out, counts = scrub_pii(text)
            assert raw not in out, raw
            assert f"<PII:{kind}>" in out, (raw, out)
            assert counts.get(kind, 0) >= 1
            out2, counts2 = scrub_pii(out)
            assert out2 == out and counts2 == {}
        for control in PII_CONTROLS:
            out, counts = scrub_pii(control)
            assert out == control, control
            assert counts == {}


def test_criterion_07_splitter(capsys):
    with _verdict(capsys, 7, "5120-token doc chunks near the 512 target"):
        tokens = [f"لفظ{i:04d}" for i in range(5120)]
        doc = Document(id="big", source="s", text=" ".join(tokens))
        chunks = split_document(doc, SplitConfig(target_tokens=512))
        assert 9 <= len(chunks) <= 11
        assert all(256 <= c.token_count <= 1024 for c in chunks)
        got = collections.Counter(t for c in chunks for t in whitespace_tokens(c.text))
        assert got == collections.Counter(tokens)


def test_criterion_08_report_arithmetic(capsys):
    with _verdict(capsys, 8, "token-reduction percentages render as 32.20 and 5.30"):
        report = PipelineReport(
            original_source_tokens={"news": 798260573, "web": 639786525},
            stages=[],
            final_source_tokens={"news": 541151638, "web": 606053446},
        )
        table = render_report(report)
        news_row = next(l for l in table.splitlines() if l.startswith("news"))
        web_row = next(l for l in table.splitlines() if l.startswith("web"))
        assert news_row.rstrip().endswith("32.20")
        assert web_row.rstrip().endswith("5.30")
        assert "798,260,573" in news_row and "541,151,638" in news_row
        assert "639,786,525" in web_row and "606,053,446" in web_row


def _mixed_fixture(rng: random.Random):
    """500 docs: 290 clean, 100 non-Urdu, 50 low-stopword, 60 planted dups."""
    docs: list[Document] = []
    planted = {"nonurdu": set(), "lowstop": set(), "dup": set()}
    clean: list[Document] = []
    for i in range(290):
        n = 30 + (i % 21)
        words = [
            STOP[rng.randrange(len(STOP))] if j % 3 == 0 else CONTENT[rng.randrange(len(CONTENT))]
            for j in range(n)
        ]
        src = "web" if i < 145 else "news"
        d = Document(id=f"clean{i:03d}", source=src, text=" ".join(words))
        docs.append(d)
        clean.append(d)
    for i in range(100):
        words = [LATIN[rng.randrange(len(LATIN))] for _ in range(25)]
        docs.append(
            Document(
                id=f"eng{i:03d}",
                source="web" if i % 2 else "news",
                text=f"document {i} " + " ".join(words),
            )
        )
        planted["nonurdu"].add(f"eng{i:03d}")
    for i in range(50):
        n = 40 + (i % 11)
        words = [CONTENT[rng.randrange(len(CONTENT))] for _ in range(n)]
        docs.append(
            Document(id=f"lowstop{i:02d}", source="web" if i % 2 else "news", text=" ".join(words))
        )
        planted["lowstop"].add(f"lowstop{i:02d}")
    for i in range(40):  # same-source whitespace variants
        base = clean[i]
        docs.append(
            Document(id=f"dupsame{i:02d}", source=base.source, text=base.text.replace(" ", "  "))
        )
        planted["dup"].add(f"dupsame{i:02d}")
    for i in range(20):  # cross-source copies
        base = clean[40 + i]
        docs.append(Document(id=f"dupcross{i:02d}", source="news", text=" " + base.text))
        planted["dup"].add(f"dupcross{i:02d}")

    fps = [simhash(d.text) for d in clean]
    assert len(set(fps)) == len(fps), "fixture needs collision-free clean docs"
    return docs, planted


def test_criterion_09_chain_conservation(capsys):
    with _verdict(capsys, 9, "stage chain conserves counts and drops match plants"):
        docs, planted = _mixed_fixture(random.Random(20250825))
        corpus = Corpus(docs)
        out, report = run_pipeline(corpus)

        for prev, nxt in zip(report.stages, report.stages[1:]):
            assert nxt.docs_in == prev.docs_out
            assert nxt.tokens_in == prev.tokens_out
        for s in report.stages:
            assert sum(s.drop_reasons.values()) == s.docs_in - s.docs_out

        by_stage = {s.stage: s for s in report.stages}

        def dropped(stage: str) -> set[str]:
            return {d.doc_id for d in by_stage[stage].drop_details}

        assert dropped("lang_filter") == planted["nonurdu"]
        assert dropped("quality_filter") == planted["lowstop"]
        assert dropped("dedup") == planted["dup"]
        assert len(out) == 290

        # per-stage oracle: each filter run standalone agrees with the chain
        lang_kept, lang_rep = filter_language(corpus, LangFilterConfig())
        assert {d.doc_id for d in lang_rep.drop_details} == planted["nonurdu"]
        qual_kept, qual_rep = filter_quality(lang_kept)
        assert {d.doc_id for d in qual_rep.drop_details} == planted["lowstop"]
        _, dd_rep = dedup_pass(qual_kept)
        assert {d.doc_id for d in dd_rep.drop_details} == planted["dup"]


def test_criterion_10_bleu(capsys):
    with _verdict(capsys, 10, "bleu self-score, disjoint zero, hand oracle, shuffles"):
        refs = [
            "وہ بازار سے پھل لے کر آیا",
            "بارش کے بعد موسم خوشگوار ہو گیا",
            "بچوں نے میدان میں کرکٹ کھیلی",
        ]
        self_bleu = corpus_bleu(refs, refs, smoothing="none").score
        assert abs(self_bleu - 100.0) < 1e-6

        disjoint = corpus_bleu(["w x y z"], ["a b c d"], smoothing="none").score
        assert disjoint == 0.0

        oracle = [
            ((["the cat sat on mat"], ["the cat sat on the mat"]), 57.893007),
            (
                (
                    ["the the the the", "a quick brown fox jumps"],
                    ["the cat is here", "a quick brown fox leaps high"],
                ),
                37.771777,
            ),
            (
                (
                    ["one two three four five six", "hello world", "green tea is hot now"],
                    ["one two three four five", "hello there world", "green tea is hot"],
                ),
                70.981087,
            ),
        ]
        for (hyps, rfs), want in oracle:
            assert abs(corpus_bleu(hyps, rfs, smoothing="none").score - want) < BLEU_TOL

        hyps = ["وہ بازار گیا پھل کر", "بارش کے بعد موسم اچھا گیا", "بچوں نے کرکٹ کھیلی"]
        base = corpus_bleu(hyps, refs).score
        rng = random.Random(10)
        for _ in range(100):
            idx = list(range(3))
            rng.shuffle(idx)
            assert corpus_bleu([hyps[i] for i in idx], [refs[i] for i in idx]).score == base


def _forge_subprocess(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        "-c",
        "import sys; from corpusforge.cli import main; sys.exit(main(sys.argv[1:]))",
    ] + args
    env = child_env(FORGE_LOG="error")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def _strip_durations(obj):
    if isinstance(obj, dict):
        return {k: _strip_durations(v) for k, v in obj.items() if k != "duration_ms"}
    if isinstance(obj, list):
        return [_strip_durations(v) for v in obj]
    return obj


def test_criterion_11_end_to_end_determinism(capsys, tmp_path: Path):
    with _verdict(capsys, 11, "two forge runs agree byte for byte"):
        docs, _ = _mixed_fixture(random.Random(20250825))
        data = tmp_path / "data"
        data.mkdir()
        by_source: dict[str, list[Document]] = {}
        for d in docs:
            by_source.setdefault(d.source, []).append(d)
        for src, ds in by_source.items():
            write_jsonl(Corpus(ds), data / f"{src}.jsonl")
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"lang": {"threshold": 0.9}}), encoding="utf-8")

        outputs = []
        reports = []
        for tag in ("one", "two"):
            out = tmp_path / f"clean_{tag}.jsonl"
            rep = tmp_path / f"report_{tag}.json"
            proc = _forge_subprocess(
                [
                    "run",
                    "--config", str(cfg),
                    "--in", str(data / "*.jsonl"),
                    "--out", str(out),
                    "--report", str(rep),
                ],
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
            reports.append(json.loads(rep.read_text(encoding="utf-8")))
        assert outputs[0] == outputs[1]
        assert _strip_durations(reports[0]) == _strip_durations(reports[1])
        assert len(read_jsonl(tmp_path / "clean_one.jsonl")) == 290
