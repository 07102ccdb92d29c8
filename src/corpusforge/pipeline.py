"""End-to-end curation pipeline.

Stage order is fixed: ingest, language filter, standardize, quality
filter, PII scrub, dedup (per-source, corpus-wide, in-document lines),
split. Any stage can be disabled; it then appears in the report as a
pass-through so token accounting always covers the same chain.

Configuration comes from a JSON file with one section per stage. Unknown
keys are rejected so typos fail loudly instead of silently using a
default. Paths inside the file resolve relative to the file itself.

The pipeline is deterministic: no randomness, and input files are
processed in the order given. Every stage runs in the calling process.
``workers`` is reserved: accepted and checked, with no effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Iterable

from .corpus import (
    Corpus, Document, check_object, check_settings, check_value, read_json_input, read_jsonl,
    setting, settings,
)
from .dedup import DedupConfig, DedupRegistry, dedup_pass
from .errors import ConfigError
from .langid import LangFilterConfig, filter_language
from .normalize import (
    CharMapTable,
    SplitConfig,
    _parse_cp,
    default_table,
    split_corpus,
    standardize_corpus,
)
from .quality import (
    PiiRuleSet,
    QualityConfig,
    filter_quality,
    load_wordlist,
    scrub_corpus_pii,
)
from .report import PipelineReport, StageReport, run_stage

# The config keys read by hand, with their JSON types: lang's ranges and
# the paths of files to load. Every other key is a ``setting``.
_BY_HAND = {"lang": {"ranges": list}, "normalize": {"charmap": str},
            "quality": {"stopwords": str, "flagged": str}, "pii": {"rules": str}}


def _pick(section: dict, config_cls) -> dict:
    """The keys of ``section`` that set a field of ``config_cls``."""
    return {k: section[k] for k in settings(config_cls) if k in section}


def read_config(path: str | Path) -> dict:
    """The JSON object in a pipeline config file, not yet checked."""
    data = read_json_input(path, "config")
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def _resolve(path: str, base_dir: Path | None) -> Path:
    """A relative ``path`` joined to ``base_dir``, the directory of the file
    that names it (None: the working directory)."""
    p = Path(path)
    if base_dir is not None and not p.is_absolute():
        p = base_dir / p
    return p


@dataclass(frozen=True)
class PipelineConfig:
    lang_enabled: bool = setting(True, bool)
    lang: LangFilterConfig = LangFilterConfig()
    normalize_enabled: bool = setting(True, bool)
    charmap: CharMapTable | None = None
    quality_enabled: bool = setting(True, bool)
    quality: QualityConfig | None = None
    pii_enabled: bool = setting(True, bool)
    pii_rules: PiiRuleSet | None = None
    dedup_enabled: bool = setting(True, bool)
    dedup: DedupConfig = DedupConfig()
    split_enabled: bool = setting(True, bool)
    split: SplitConfig = SplitConfig()
    workers: int | None = setting(None, (int, type(None)), lo=1)  # reserved: checked, no effect

    def __post_init__(self):
        check_settings(self)
        none = type(None)
        for name, kind in (("lang", LangFilterConfig), ("charmap", (CharMapTable, none)),
                           ("quality", (QualityConfig, none)), ("pii_rules", (PiiRuleSet, none)),
                           ("dedup", DedupConfig), ("split", SplitConfig)):
            check_value(getattr(self, name), name, kind)

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "PipelineConfig":
        sections, top_level = _key_table()
        sec = {name: check_object(data.get(name, {}), name, sections[name]) for name in sections}
        check_object(data, "config", top_level)
        lang_sec, norm, q_sec = sec["lang"], sec["normalize"], sec["quality"]

        charmap = None
        if "charmap" in norm:
            charmap = CharMapTable.from_json(_resolve(norm["charmap"], base_dir))
        normalize_enabled = norm.get("enabled", cls.normalize_enabled)
        wordlist_table = (charmap or default_table()) if normalize_enabled else None

        lang_kwargs = _pick(lang_sec, LangFilterConfig)
        if "ranges" in lang_sec:
            try:
                lang_kwargs["script_ranges"] = tuple(
                    (ord(_parse_cp(lo)), ord(_parse_cp(hi)))
                    for lo, hi in lang_sec["ranges"]
                )
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad lang 'ranges': {exc}") from exc

        q_kwargs = _pick(q_sec, QualityConfig)
        for key in ("stopwords", "flagged"):
            if key in q_sec:
                q_kwargs[key] = load_wordlist(_resolve(q_sec[key], base_dir), wordlist_table)

        pii_rules = None
        if "rules" in sec["pii"]:
            pii_rules = PiiRuleSet.from_json(_resolve(sec["pii"]["rules"], base_dir))

        return cls(
            lang=LangFilterConfig(**lang_kwargs),
            charmap=charmap,
            quality=QualityConfig(**q_kwargs) if q_kwargs else None,
            pii_rules=pii_rules,
            dedup=DedupConfig(**_pick(sec["dedup"], DedupConfig)),
            split=SplitConfig(**_pick(sec["split"], SplitConfig)),
            workers=data.get("workers"),
            **{f"{name}_enabled": s["enabled"] for name, s in sec.items() if "enabled" in s},
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_config(path), base_dir=Path(path).parent)


@cache
def _key_table() -> tuple[dict[str, dict], dict]:
    """The keys of each config section, and the top-level keys (one object
    per section and "workers"), each with the JSON type of its value."""
    top = settings(PipelineConfig)
    sections = {k.removesuffix("_enabled"): {"enabled": top[k]} for k in top if k != "workers"}
    for config_cls in (LangFilterConfig, QualityConfig, DedupConfig, SplitConfig):
        sections[config_cls.SECTION].update(settings(config_cls))
    for section, keys in _BY_HAND.items():
        sections[section].update(keys)
    return sections, {"workers": top["workers"], **dict.fromkeys(sections, dict)}


def ingest(paths: list[str | Path]) -> tuple[Corpus, StageReport]:
    """Read and concatenate JSONL files; ids must be unique across files."""

    def step(report: StageReport) -> Corpus:
        report.counters["files"] = len(paths)
        corpus, seen = Corpus(), {}
        for path in paths:
            corpus += read_jsonl(path, seen=seen)
        return corpus

    return run_stage("ingest", None, step)


def run_pipeline(
    inputs: Iterable[str | Path] | Iterable[Document],
    cfg: PipelineConfig | None = None,
    registry: DedupRegistry | None = None,
) -> tuple[Corpus, PipelineReport]:
    """Run every stage over the input files, or over an in-memory corpus:
    a ``Corpus`` or any non-empty iterable of Documents only.
    ``registry`` seeds dedup's corpus-wide pass and collects what it keeps."""
    if cfg is None:
        cfg = PipelineConfig()

    if not isinstance(inputs, Corpus):
        inputs = list(inputs)
        if inputs and all(isinstance(doc, Document) for doc in inputs):
            inputs = Corpus(inputs)
    if isinstance(inputs, Corpus):
        inputs.check_unique_ids()
        corpus, rep = run_stage("ingest", None, lambda report: inputs)
    else:
        corpus, rep = ingest(inputs)
    stages = [rep]
    original = corpus.source_tokens()

    # Built per call, so each stage function is looked up when the run starts.
    chain = (
        ("lang_filter", cfg.lang_enabled, partial(filter_language, cfg=cfg.lang)),
        ("standardize", cfg.normalize_enabled, partial(standardize_corpus, table=cfg.charmap)),
        ("quality_filter", cfg.quality_enabled, partial(filter_quality, cfg=cfg.quality)),
        ("pii_scrub", cfg.pii_enabled, partial(scrub_corpus_pii, rules=cfg.pii_rules)),
        ("dedup", cfg.dedup_enabled,
         partial(dedup_pass, cfg=cfg.dedup, registry=registry)),
        ("split", cfg.split_enabled, partial(split_corpus, cfg=cfg.split)),
    )
    for name, enabled, call in chain:
        if enabled:
            corpus, rep = call(corpus)
        else:
            # A disabled stage still reports, as a pass-through, so token
            # accounting always covers the same chain.
            rep = run_stage(name, corpus, lambda report: corpus)[1]
            rep.enabled = False
        stages.append(rep)

    report = PipelineReport(
        original_source_tokens=original,
        stages=stages,
        final_source_tokens=corpus.source_tokens(),
    )
    return corpus, report
