from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpusforge.corpus import Corpus, Document, write_jsonl
from corpusforge.dedup import DedupConfig
from corpusforge.errors import ConfigError, CorpusError
from corpusforge.langid import LangFilterConfig
from corpusforge.normalize import SplitConfig
from corpusforge.pipeline import PipelineConfig, _key_table, ingest, run_pipeline
from corpusforge.quality import QualityConfig

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
    # No stage reads workers, so the config is the one place that
    # refuses these values.
    with pytest.raises(ConfigError, match="workers"):
        PipelineConfig(workers=workers)
    corpus = Corpus([Document(id="a", source="s", text=_urdu(40))])
    with pytest.raises(ConfigError, match="workers"):
        run_pipeline(corpus, PipelineConfig(dedup=DedupConfig(mode="exact"), workers=workers))


def test_config_file_keys():
    # Each key of a setting is its field's name: renaming the field renames the key.
    sections, top_level = _key_table()
    assert {name: list(keys) for name, keys in sections.items()} == {
        "lang": ["enabled", "threshold", "ranges"],
        "normalize": ["enabled", "charmap"],
        "quality": ["enabled", "stopword_threshold", "flagged_threshold", "min_tokens",
                    "stopwords", "flagged"],
        "pii": ["enabled", "rules"],
        "dedup": ["enabled", "mode", "hamming_threshold", "shingle_width", "per_source",
                  "overall", "lines"],
        "split": ["enabled", "target_tokens", "sentence_end_chars"],
    }
    assert list(top_level) == ["workers", *sections]


# Library values a config file could not give, each once accepted or a raw
# TypeError.
LIBRARY_CASES = [
    (SplitConfig, "target_tokens", 2.5),  # cut 2,000 tokens into 1,000 chunks
    (QualityConfig, "stopwords", "the cat"),  # matched tokens as substrings
    (QualityConfig, "min_tokens", "3"),
    (LangFilterConfig, "script_ranges", [1]),
    (LangFilterConfig, "script_ranges", ((0x41, 0x5A, 0x61),)),
    (DedupConfig, "per_source", "no"),
    (PipelineConfig, "split", 5),
    (PipelineConfig, "lang_enabled", 1),
]


@pytest.mark.parametrize("cls,key,value", LIBRARY_CASES,
                         ids=[f"{c.__name__}.{k}={v!r}" for c, k, v in LIBRARY_CASES])
def test_library_config_refuses_a_wrong_typed_value(cls, key, value):
    with pytest.raises(ConfigError, match=key):
        cls(**{key: value})


@pytest.mark.parametrize("make,message", [
    (lambda: DedupConfig(shingle_width=65),
     "'dedup.shingle_width' must be an integer in [1, 64], got 65"),
    (lambda: DedupConfig(mode="fuzzy"), "'dedup.mode' must be 'exact' or 'near', got 'fuzzy'"),
    (lambda: LangFilterConfig(threshold=float("nan")),
     "'lang.threshold' must be a number in [0, 1], got nan"),
    (lambda: QualityConfig(min_tokens=-1), "'quality.min_tokens' must be an integer >= 0, got -1"),
    (lambda: PipelineConfig(workers=0), "'workers' must be an integer >= 1 or null, got 0"),
    (lambda: PipelineConfig(quality=5), "'quality' must be a QualityConfig or null, got 5"),
], ids=["bounds", "choices", "nan", "lower-bound", "nullable", "sub-config"])
def test_setting_error_names_section_and_key(make, message):
    with pytest.raises(ConfigError) as info:
        make()
    assert str(info.value) == message


# Any JSON value, most often a scalar (every setting is one), and the
# shapes of the fields no config file sets directly: tuples of codepoint
# pairs and frozensets of strings.
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.integers(-10**400, 10**400),
    st.floats(), st.floats(0, 1), st.text(max_size=6), st.sampled_from(["exact", "near"]),
)
ANY_VALUE = st.one_of(
    JSON_SCALAR,
    JSON_SCALAR,
    st.recursive(
        JSON_SCALAR,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    ),
    st.lists(
        st.tuples(st.integers(0, 0x10FFFF), st.integers(0, 0x10FFFF)).map(sorted).map(tuple),
        max_size=2,
    ).map(tuple),
    st.frozensets(st.text(max_size=4), max_size=4),
)
CONFIG_FIELDS = [
    (cls, f.name)
    for cls in (LangFilterConfig, QualityConfig, DedupConfig, SplitConfig, PipelineConfig)
    for f in fields(cls)
]
SMALL_CORPUS = Corpus([
    Document(id="a", source="s", text=_urdu(40)),
    Document(id="b", source="t", text=_urdu(40)),
    Document(id="c", source="s", text=_urdu(300) + "\n\n" + _urdu(30)),
    Document(id="d", source="s", text="english words only here"),
])


@pytest.mark.parametrize("cls,name", CONFIG_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in CONFIG_FIELDS])
@settings(max_examples=50, deadline=None)
@given(value=ANY_VALUE)
def test_any_value_of_a_config_field_is_refused_or_runs(cls, name, value):
    try:
        cfg = cls(**{name: value})
    except ConfigError:
        return
    if cls is not PipelineConfig:
        cfg = PipelineConfig(**{cls.SECTION: cfg})
    run_pipeline(SMALL_CORPUS, cfg)


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
