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
from functools import partial
from pathlib import Path

from .corpus import Corpus, check_object, read_json_input, read_jsonl
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

# The keys of each config section and the JSON type of each value.
_SECTIONS: dict[str, dict[str, type]] = {
    "lang": {"enabled": bool, "threshold": float, "ranges": list},
    "normalize": {"enabled": bool, "charmap": str},
    "quality": {
        "enabled": bool,
        "stopword_threshold": float,
        "flagged_threshold": float,
        "stopwords": str,
        "flagged": str,
        "min_tokens": int,
    },
    "pii": {"enabled": bool, "rules": str},
    "dedup": {
        "enabled": bool,
        "mode": str,
        "hamming_threshold": int,
        "shingle_width": int,
        "per_source": bool,
        "overall": bool,
        "lines": bool,
    },
    "split": {"enabled": bool, "target_tokens": int, "sentence_end_chars": str},
}
# The top-level keys: one object per section, and "workers" (reserved:
# accepted and checked, no effect).
_TOP_LEVEL = {"workers": (int, type(None)), **dict.fromkeys(_SECTIONS, dict)}


def _pick(section: dict, *keys: str) -> dict:
    return {k: section[k] for k in keys if k in section}


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
    lang_enabled: bool = True
    lang: LangFilterConfig = LangFilterConfig()
    normalize_enabled: bool = True
    charmap: CharMapTable | None = None
    quality_enabled: bool = True
    quality: QualityConfig | None = None
    pii_enabled: bool = True
    pii_rules: PiiRuleSet | None = None
    dedup_enabled: bool = True
    dedup: DedupConfig = DedupConfig()
    split_enabled: bool = True
    split: SplitConfig = SplitConfig()
    workers: int | None = None  # reserved: accepted and checked, no effect

    def __post_init__(self):
        if self.workers is not None and (type(self.workers) is not int or self.workers < 1):
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")

    @classmethod
    def from_dict(cls, data: dict, base_dir: Path | None = None) -> "PipelineConfig":
        norm, lang_sec, q_sec, pii_sec, d_sec, s_sec = (
            check_object(data.get(name, {}), name, _SECTIONS[name])
            for name in ("normalize", "lang", "quality", "pii", "dedup", "split")
        )
        check_object(data, "config", _TOP_LEVEL)

        charmap = None
        if "charmap" in norm:
            charmap = CharMapTable.from_json(_resolve(norm["charmap"], base_dir))
        normalize_enabled = norm.get("enabled", True)
        wordlist_table = (charmap or default_table()) if normalize_enabled else None

        lang_kwargs = _pick(lang_sec, "threshold")
        if "ranges" in lang_sec:
            try:
                lang_kwargs["script_ranges"] = tuple(
                    (ord(_parse_cp(lo)), ord(_parse_cp(hi)))
                    for lo, hi in lang_sec["ranges"]
                )
            except (AttributeError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad lang 'ranges': {exc}") from exc

        q_kwargs = _pick(q_sec, "stopword_threshold", "flagged_threshold", "min_tokens")
        for key in ("stopwords", "flagged"):
            if key in q_sec:
                q_kwargs[key] = load_wordlist(_resolve(q_sec[key], base_dir), wordlist_table)

        pii_rules = None
        if "rules" in pii_sec:
            pii_rules = PiiRuleSet.from_json(_resolve(pii_sec["rules"], base_dir))

        return cls(
            lang_enabled=lang_sec.get("enabled", True),
            lang=LangFilterConfig(**lang_kwargs),
            normalize_enabled=normalize_enabled,
            charmap=charmap,
            quality_enabled=q_sec.get("enabled", True),
            quality=QualityConfig(**q_kwargs) if q_kwargs else None,
            pii_enabled=pii_sec.get("enabled", True),
            pii_rules=pii_rules,
            dedup_enabled=d_sec.get("enabled", True),
            dedup=DedupConfig(**{k: v for k, v in d_sec.items() if k != "enabled"}),
            split_enabled=s_sec.get("enabled", True),
            split=SplitConfig(**_pick(s_sec, "target_tokens", "sentence_end_chars")),
            workers=data.get("workers"),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_config(path), base_dir=Path(path).parent)


def ingest(paths: list[str | Path]) -> tuple[Corpus, StageReport]:
    """Read and concatenate JSONL files; ids must be unique across files."""

    def step(report: StageReport) -> Corpus:
        report.counters["files"] = len(paths)
        seen: dict = {}
        return Corpus([doc for path in paths for doc in read_jsonl(path, seen=seen)])

    return run_stage("ingest", None, step)


def run_pipeline(
    inputs: list[str | Path] | Corpus,
    cfg: PipelineConfig | None = None,
    registry: DedupRegistry | None = None,
) -> tuple[Corpus, PipelineReport]:
    """Run every stage over the input files (or an in-memory corpus).
    ``registry`` seeds dedup's corpus-wide pass and collects what it keeps."""
    if cfg is None:
        cfg = PipelineConfig()

    if isinstance(inputs, Corpus):
        inputs.check_unique_ids()
        corpus, rep = run_stage("ingest", None, lambda report: inputs)
    else:
        corpus, rep = ingest(list(inputs))
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
