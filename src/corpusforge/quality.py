"""Quality filtering and PII scrubbing.

Two ratio tests weed out junk documents: too few stopwords means the text
is unlikely to be running prose (boilerplate, tag soup, word salad), and
too many flagged words means it fails the content policy. Both compare a
token ratio against a threshold; documents on the boundary are kept.

PII scrubbing replaces emails, phone numbers (international and Pakistani
local formats), and national identity numbers with typed placeholders
like ``<PII:EMAIL>``. Placeholders contain no digits, so scrubbing twice
changes nothing.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

# Not called here: perfbench/tracing.py wraps pmap under this name.
from ._parallel import pmap  # noqa: F401
from .corpus import Corpus, check_object, check_settings, read_input, read_json_input, setting
from .errors import ConfigError
from .report import StageReport, keep_or_drop, rewrite_texts, run_stage

REASON_EMPTY = "empty"
REASON_STOPWORD_LOW = "stopword_low"
REASON_FLAGGED_HIGH = "flagged_high"

_REPLACEMENT_RE = re.compile(r"^<PII:[A-Z_]+>$")
_NAME_RE = re.compile(r"^[A-Z][A-Z_]*$")


def _parse_wordlist(text: str, table=None) -> frozenset[str]:
    """The words of a word list's text (see ``load_wordlist``)."""
    from .normalize import standardize

    words = set()
    for line in text.splitlines():
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        word = word.lower()
        if table is not None:
            word = standardize(word, table)
        words.add(word)
    return frozenset(words)


def load_wordlist(path: str | Path, table=None) -> frozenset[str]:
    """Read one word per line, skipping blanks and ``#`` comments.

    Words are lowercased; when a character table is given each word is
    standardized with it so the list matches standardized text.
    """
    return _parse_wordlist(read_input(path, "wordlist"), table)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    data = resources.files("corpusforge.data").joinpath("urdu_stopwords.txt")
    return _parse_wordlist(data.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class QualityConfig:
    SECTION = "quality"
    stopword_threshold: float = setting(0.1, float, 0, 1)
    flagged_threshold: float = setting(0.025, float, 0, 1)
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    flagged: frozenset[str] = frozenset()
    min_tokens: int = setting(1, int, lo=0)

    def __post_init__(self):
        check_settings(self, self.SECTION)
        for name in ("stopwords", "flagged"):
            words = getattr(self, name)
            if not isinstance(words, frozenset) or not all(isinstance(w, str) for w in words):
                raise ConfigError(f"'quality.{name}' must be a frozenset of strings, got {words!r}")


def _ratio(tokens: list[str], words: frozenset[str]) -> float:
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t in words) / len(tokens)


def _check_quality(text: str, cfg: QualityConfig) -> str | None:
    """Drop reason for a document's text, or None to keep it."""
    tokens = text.lower().split()
    if len(tokens) < cfg.min_tokens:
        return REASON_EMPTY
    if cfg.stopwords and _ratio(tokens, cfg.stopwords) < cfg.stopword_threshold:
        return REASON_STOPWORD_LOW
    if cfg.flagged and _ratio(tokens, cfg.flagged) > cfg.flagged_threshold:
        return REASON_FLAGGED_HIGH
    return None


def filter_quality(
    corpus: Corpus, cfg: QualityConfig | None = None
) -> tuple[Corpus, StageReport]:
    """Keep documents that pass the stopword and flagged-word ratio tests.

    With an empty stopword set the stopword test is skipped entirely
    rather than dropping everything; same for the flagged set.
    """
    if cfg is None:
        cfg = QualityConfig()

    def step(report: StageReport) -> Corpus:
        return keep_or_drop(report, corpus, (_check_quality(d.text, cfg) for d in corpus))

    return run_stage("quality_filter", corpus, step)


@lru_cache(maxsize=64)
def _compile_rule(pattern: str) -> re.Pattern:
    return re.compile(pattern)


@dataclass(frozen=True)
class PiiRule:
    name: str
    pattern: str
    replacement: str

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ConfigError(f"bad PII rule name {self.name!r}")
        if not _REPLACEMENT_RE.match(self.replacement):
            raise ConfigError(
                f"PII replacement must look like <PII:KIND>, got {self.replacement!r}"
            )
        try:
            _compile_rule(self.pattern)
        # A syntax error, a repeat count too large, or nesting too deep.
        except (re.error, OverflowError, RecursionError) as exc:
            raise ConfigError(
                f"PII rule {self.name!r} has a bad pattern: {exc}"
            ) from exc

    @property
    def regex(self) -> re.Pattern:
        return _compile_rule(self.pattern)


@dataclass(frozen=True)
class PiiRuleSet:
    """Ordered scrub rules; earlier rules see the original text first."""

    rules: tuple[PiiRule, ...]

    def __post_init__(self):
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate PII rule names in {names}")

    @classmethod
    def from_data(cls, data) -> "PiiRuleSet":
        """Build from a JSON array of {name, pattern, replacement} objects."""
        if not isinstance(data, list):
            raise ConfigError(
                "PII rules must be a JSON array of {name, pattern, replacement}"
            )
        keys = ("name", "pattern", "replacement")
        rules = (
            PiiRule(**check_object(entry, f"PII rules[{i}]", dict.fromkeys(keys, str), keys))
            for i, entry in enumerate(data)
        )
        return cls(rules=tuple(rules))

    @classmethod
    def from_json(cls, path: str | Path) -> "PiiRuleSet":
        return cls.from_data(read_json_input(path, "PII rules"))


@lru_cache(maxsize=1)
def default_pii_rules() -> PiiRuleSet:
    data = resources.files("corpusforge.data").joinpath("pii_rules.json")
    return PiiRuleSet.from_data(json.loads(data.read_text(encoding="utf-8")))


def scrub_pii(text: str, rules: PiiRuleSet | None = None) -> tuple[str, dict[str, int]]:
    """Apply each rule in order; returns the text and nonzero match counts."""
    if rules is None:
        rules = default_pii_rules()
    counts: dict[str, int] = {}
    for rule in rules.rules:
        text, n = rule.regex.subn(rule.replacement, text)
        if n:
            counts[rule.name] = counts.get(rule.name, 0) + n
    return text, counts


def scrub_corpus_pii(
    corpus: Corpus, rules: PiiRuleSet | None = None
) -> tuple[Corpus, StageReport]:
    """Scrub every document; nothing is dropped, only rewritten."""
    if rules is None:
        rules = default_pii_rules()

    def step(report: StageReport) -> Corpus:
        results = [scrub_pii(d.text, rules) for d in corpus]
        for _, counts in results:
            for name, n in counts.items():
                report.counters[name] = report.counters.get(name, 0) + n
        return rewrite_texts(report, corpus, (text for text, _ in results))

    return run_stage("pii_scrub", corpus, step)
