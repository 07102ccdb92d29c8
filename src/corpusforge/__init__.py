"""Corpus curation and evaluation toolkit for Urdu language model data.

The pipeline reads JSONL documents and runs language filtering, character
standardization, quality filtering, PII scrubbing, document and line
dedup, and context-length splitting, with per-source token accounting at
every stage. A small BLEU implementation covers translation evaluation.
Everything runs in one process and is deterministic: same inputs, same
bytes out. The ``workers`` setting is reserved: accepted and checked, no
effect.
"""

from .corpus import Corpus, Document, count_tokens, read_jsonl, write_jsonl
from .dedup import DedupConfig, Fingerprint, dedup_pass, simhash
from .errors import ConfigError, CorpusError, DataError, ForgeError
from .langid import LangFilterConfig, filter_language, score_language
from .mteval import BleuResult, EvalSet, compare_systems, corpus_bleu
from .normalize import (
    CharMapTable,
    SplitConfig,
    split_corpus,
    split_document,
    standardize,
    standardize_corpus,
)
from .pipeline import PipelineConfig, run_pipeline
from .quality import (
    PiiRuleSet,
    QualityConfig,
    filter_quality,
    scrub_corpus_pii,
    scrub_pii,
)
from .report import PipelineReport, StageReport, render_report

__version__ = "0.1.0"

__all__ = [
    "BleuResult",
    "CharMapTable",
    "ConfigError",
    "Corpus",
    "CorpusError",
    "DataError",
    "DedupConfig",
    "Document",
    "EvalSet",
    "Fingerprint",
    "ForgeError",
    "LangFilterConfig",
    "PiiRuleSet",
    "PipelineConfig",
    "PipelineReport",
    "QualityConfig",
    "SplitConfig",
    "StageReport",
    "compare_systems",
    "corpus_bleu",
    "count_tokens",
    "dedup_pass",
    "filter_language",
    "filter_quality",
    "read_jsonl",
    "render_report",
    "run_pipeline",
    "score_language",
    "scrub_corpus_pii",
    "scrub_pii",
    "simhash",
    "split_corpus",
    "split_document",
    "standardize",
    "standardize_corpus",
    "write_jsonl",
    "__version__",
]
