from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from corpusforge import _parallel
from corpusforge.corpus import Corpus, Document, write_jsonl
from corpusforge.dedup import DedupConfig
from corpusforge.errors import ConfigError, CorpusError
from corpusforge.pipeline import PipelineConfig, ingest, run_pipeline

STOP = "کا کی کے کو نے سے پر ہے ہیں اور".split()
CONTENT = "کتاب مدرسہ دریا پہاڑ سورج چاند ستارہ بادل بارش درخت".split()

STAGES = ("ingest", "lang_filter", "standardize", "quality_filter", "pii_scrub", "dedup", "split")


def _urdu(n: int) -> str:
    # interleave so both ratios stay healthy
    words = [STOP[i % len(STOP)] if i % 3 == 0 else CONTENT[i % len(CONTENT)] for i in range(n)]
    return " ".join(words)


def _write(tmp_path: Path, name: str, docs: list[Document]) -> Path:
    p = tmp_path / name
    write_jsonl(Corpus(docs), p)
    return p


def test_default_config_runs_all_stages():
    corpus = Corpus([Document(id="a", source="s", text=_urdu(40))])
    out, report = run_pipeline(corpus)
    assert tuple(s.stage for s in report.stages) == STAGES
    assert all(s.enabled for s in report.stages)
    assert len(out) == 1


def test_stage_chain_conserves_counts():
    docs = [
        Document(id=f"u{i}", source="s", text=_urdu(30 + i)) for i in range(5)
    ] + [
        Document(id="en", source="s", text="plain english filler text here"),
        Document(id="dup", source="s", text=" " + _urdu(32)),
    ]
    _, report = run_pipeline(Corpus(docs))
    for prev, nxt in zip(report.stages, report.stages[1:]):
        assert nxt.docs_in == prev.docs_out
        assert nxt.tokens_in == prev.tokens_out
    for s in report.stages:
        assert sum(s.drop_reasons.values()) == s.docs_in - s.docs_out


def test_disabled_stages_report_identity():
    cfg = PipelineConfig.from_dict(
        {
            "lang": {"enabled": False},
            "normalize": {"enabled": False},
            "quality": {"enabled": False},
            "pii": {"enabled": False},
            "dedup": {"enabled": False},
            "split": {"enabled": False},
        }
    )
    corpus = Corpus([Document(id="a", source="s", text="english only text")])
    out, report = run_pipeline(corpus, cfg)
    assert [d for d in out] == list(corpus)
    assert tuple(s.stage for s in report.stages) == STAGES
    flags = [s.enabled for s in report.stages]
    assert flags == [True] + [False] * 6
    for s in report.stages[1:]:
        assert s.docs_in == s.docs_out == 1
        assert s.drop_reasons == {}


def test_report_source_accounting(tmp_path: Path):
    web = [Document(id=f"w{i}", source="web", text=_urdu(20)) for i in range(3)]
    news = [Document(id="n0", source="news", text="english filler so lang drops it")]
    _, report = run_pipeline(Corpus(web + news))
    assert report.original_source_tokens == {"web": 60, "news": 6}
    assert report.final_source_tokens == {"web": 20}


def test_pipeline_drops_where_expected():
    docs = [
        Document(id="ur", source="s", text=_urdu(40)),
        Document(id="en", source="s", text="english text that fails the language gate"),
        Document(id="junk", source="s", text=" ".join(CONTENT * 4)),  # no stopwords at all
        Document(id="copy", source="s", text=" " + _urdu(40)),
    ]
    _, report = run_pipeline(Corpus(docs))
    by_stage = {s.stage: s for s in report.stages}
    assert by_stage["lang_filter"].drop_reasons == {"lang_below_threshold": 1}
    assert by_stage["quality_filter"].drop_reasons == {"stopword_low": 1}
    assert by_stage["dedup"].drop_reasons == {"dup_doc": 1}


def test_ingest_multiple_files(tmp_path: Path):
    p1 = _write(tmp_path, "a.jsonl", [Document(id="a0", source="web", text="ایک دو")])
    p2 = _write(tmp_path, "b.jsonl", [Document(id="b0", source="news", text="تین چار پانچ")])
    corpus, report = ingest([p1, p2])
    assert [d.id for d in corpus] == ["a0", "b0"]
    assert report.counters["files"] == 2
    assert report.tokens_in == report.tokens_out == 5


def test_ingest_rejects_cross_file_id_clash(tmp_path: Path):
    p1 = _write(tmp_path, "a.jsonl", [Document(id="x", source="s", text="ایک")])
    p2 = _write(tmp_path, "b.jsonl", [Document(id=i, source="s", text="دو") for i in "yx"])
    # Both files and both lines are named, as for a repeat inside one file;
    # a file given twice is two inputs.
    for first, second, line in ((p1, p2, 2), (p1, p1, 1)):
        where = f"{re.escape(str(first))}: line 1 and {re.escape(str(second))}: line {line}"
        with pytest.raises(CorpusError, match=f"duplicate id 'x' on {where}"):
            ingest([first, second])


def test_empty_corpus_flows_through():
    out, report = run_pipeline(Corpus([]))
    assert len(out) == 0
    assert all(s.docs_in == s.docs_out == 0 for s in report.stages)


def test_split_runs_after_dedup():
    # a long doc must be deduped whole, then chunked
    long_text = _urdu(1200)
    docs = [
        Document(id="a", source="s", text=long_text),
        Document(id="b", source="s", text=" " + long_text),
    ]
    out, report = run_pipeline(Corpus(docs))
    by_stage = {s.stage: s for s in report.stages}
    assert by_stage["dedup"].drop_reasons == {"dup_doc": 1}
    assert by_stage["split"].docs_in == 1
    assert by_stage["split"].docs_out == 2
    assert [d.id for d in out] == ["a#0", "a#1"]


# -------------------------------------------------------------------- config


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown"):
        PipelineConfig.from_dict({"lang_filter": {}})


def test_config_rejects_unknown_section_key():
    with pytest.raises(ConfigError, match="threshol"):
        PipelineConfig.from_dict({"lang": {"threshol": 0.9}})


def test_config_rejects_bad_enabled():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"lang": {"enabled": "yes"}})


# One wrong-typed value per config key: strings for numbers and flags,
# bools for numbers, floats for integers, non-strings for paths and text.
WRONG_TYPED = [
    ("workers", True),
    ("workers", 1.5),
    ("workers", "2"),
    ("lang.enabled", "yes"),
    ("lang.threshold", "0.9"),
    ("lang.threshold", True),
    ("lang.ranges", 5),
    ("lang.ranges", [[5, 6]]),
    ("normalize.enabled", 1),
    ("normalize.charmap", 5),
    ("quality.enabled", None),
    ("quality.stopword_threshold", "0.1"),
    ("quality.stopword_threshold", True),
    ("quality.flagged_threshold", "x"),
    ("quality.flagged_threshold", False),
    ("quality.stopwords", 5),
    ("quality.flagged", 5),
    ("quality.min_tokens", "1"),
    ("quality.min_tokens", 1.5),
    ("quality.min_tokens", True),
    ("pii.enabled", 0),
    ("pii.rules", 5),
    ("dedup.enabled", "false"),
    ("dedup.mode", 5),
    ("dedup.hamming_threshold", 2.5),
    ("dedup.hamming_threshold", True),
    ("dedup.shingle_width", 2.5),
    # Well typed but out of range: rotations repeat past width 64.
    ("dedup.shingle_width", 65),
    ("dedup.per_source", "false"),
    ("dedup.overall", 0),
    ("dedup.lines", "false"),
    ("split.enabled", "true"),
    ("split.target_tokens", "512"),
    ("split.target_tokens", 2.5),
    ("split.sentence_end_chars", 5),
]


@pytest.mark.parametrize("key,value", WRONG_TYPED, ids=[f"{k}={v!r}" for k, v in WRONG_TYPED])
def test_config_rejects_wrong_typed_values(key: str, value):
    section, _, name = key.rpartition(".")
    data = {section: {name: value}} if section else {name: value}
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(data)


def test_config_thresholds_applied():
    cfg = PipelineConfig.from_dict({"lang": {"threshold": 0.5}, "quality": {"stopword_threshold": 0.2}})
    assert cfg.lang.threshold == 0.5
    assert cfg.quality.stopword_threshold == 0.2
    cfg = PipelineConfig.from_dict({"dedup": {"per_source": False, "overall": False, "lines": False}})
    assert cfg.dedup == DedupConfig(per_source=False, overall=False, lines=False)


def test_config_custom_ranges():
    cfg = PipelineConfig.from_dict({"lang": {"ranges": [["U+0041", "U+005A"]]}})
    assert cfg.lang.script_ranges == ((0x41, 0x5A),)


def test_config_workers_validation():
    assert PipelineConfig.from_dict({}).workers is None
    assert PipelineConfig.from_dict({"workers": 2}).workers == 2
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"workers": 0})


@pytest.mark.parametrize("workers", [0, -1, "2", True, 1.5])
def test_bad_workers_is_config_error_without_a_pool(workers):
    # An exact-mode run starts no pool, so the config is the one place
    # that refuses these values.
    with pytest.raises(ConfigError, match="workers"):
        PipelineConfig(workers=workers)
    corpus = Corpus([Document(id="a", source="s", text=_urdu(40))])
    with pytest.raises(ConfigError, match="workers"):
        run_pipeline(corpus, PipelineConfig(dedup=DedupConfig(mode="exact"), workers=workers))


@pytest.fixture()
def pool_sizes(monkeypatch) -> list[int]:
    """The size of each pool ``pmap`` starts, through a stand-in for
    ProcessPoolExecutor that maps in-process and so starts no process."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", FakePool)
    return sizes


def test_pmap_pool_is_capped_at_the_core_count(pool_sizes):
    items = list(range(300))
    assert _parallel.pmap(abs, items, workers=10**6) == items
    assert all(n <= (os.cpu_count() or 1) for n in pool_sizes)


@pytest.mark.parametrize("mode,pools", [("near", 1), ("exact", 0)])
def test_a_run_starts_one_pool_in_near_mode_and_none_in_exact(pool_sizes, monkeypatch, mode, pools):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # Above _parallel's pool threshold, and every document reaches dedup.
    docs = [Document(id=f"d{i}", source="s", text=f"{_urdu(30)} {i}") for i in range(300)]
    cfg = PipelineConfig(dedup=DedupConfig(mode=mode), workers=2)
    _, report = run_pipeline(Corpus(docs), cfg)
    assert report.stages[STAGES.index("dedup")].docs_in == 300
    assert len(pool_sizes) == pools


def test_config_paths_resolve_relative_to_file(tmp_path: Path):
    words = tmp_path / "stops.txt"
    words.write_text("کا\nکی\n", encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"quality": {"stopwords": "stops.txt"}}), encoding="utf-8")
    cfg = PipelineConfig.from_json(cfg_path)
    assert cfg.quality.stopwords == frozenset(["کا", "کی"])


def test_config_missing_file_names_path(tmp_path: Path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        PipelineConfig.from_json(missing)


def test_config_bad_json_names_path(tmp_path: Path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad.json"):
        PipelineConfig.from_json(p)


def test_custom_charmap_standardizes_wordlists(tmp_path: Path):
    # stopword spelled with Arabic yeh still matches after normalization
    table = tmp_path / "map.json"
    table.write_text(json.dumps({"map": [["U+064A", "U+06CC"]], "strip": []}), encoding="utf-8")
    stops = tmp_path / "stops.txt"
    stops.write_text("کي\n", encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "lang": {"enabled": False},
                "normalize": {"charmap": "map.json"},
                "quality": {"stopwords": "stops.txt", "stopword_threshold": 0.5},
                "pii": {"enabled": False},
                "dedup": {"enabled": False},
                "split": {"enabled": False},
            }
        ),
        encoding="utf-8",
    )
    cfg = PipelineConfig.from_json(cfg_path)
    assert cfg.quality.stopwords == frozenset(["کی"])
    corpus = Corpus([Document(id="a", source="s", text="کي کتاب")])
    out, report = run_pipeline(corpus, cfg)
    # text is normalized before the ratio check, so the stopword matches
    assert len(out) == 1
    assert out[0].text == "کی کتاب"
