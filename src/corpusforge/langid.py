"""Script-ratio language scoring and threshold filtering for Urdu text.

The score is the fraction of a document's classifiable tokens that are
written predominantly in the target script. A token counts as target
when a strict majority of its letter/digit codepoints fall inside the
configured script ranges; tokens with no letters or digits (bare
punctuation or symbols) are ignored. Latin text and ASCII numerals score
toward 0, Urdu text and Extended Arabic-Indic numerals toward 1.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import partial

from ._parallel import pmap
from .corpus import Corpus
from .errors import ConfigError, StageError
from .report import StageReport, keep_or_drop, run_stage

# Arabic script blocks used by Urdu, including presentation forms.
URDU_SCRIPT_RANGES: tuple[tuple[int, int], ...] = (
    (0x0600, 0x06FF),
    (0x0750, 0x077F),
    (0xFB50, 0xFDFF),
    (0xFE70, 0xFEFF),
)

DROP_BELOW_THRESHOLD = "lang_below_threshold"


@dataclass(frozen=True)
class LangFilterConfig:
    threshold: float = 0.9
    script_ranges: tuple[tuple[int, int], ...] = URDU_SCRIPT_RANGES

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"language threshold must be in [0, 1], got {self.threshold}")
        if not self.script_ranges:
            raise ConfigError("at least one script range is required")
        prev_hi = -1
        for lo, hi in sorted(self.script_ranges):
            if lo > hi:
                raise ConfigError(f"bad script range U+{lo:04X}..U+{hi:04X}")
            if lo <= prev_hi:
                raise ConfigError("script ranges must not overlap")
            prev_hi = hi


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


def score_language(text: str, cfg: LangFilterConfig = LangFilterConfig()) -> float:
    """Fraction of classifiable tokens written in the target script, in [0, 1].

    Returns 0.0 when no token is classifiable.
    """
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


def filter_language(
    corpus: Corpus,
    cfg: LangFilterConfig = LangFilterConfig(),
    workers: int | None = 1,
) -> tuple[Corpus, StageReport]:
    """Keep documents scoring at or above the threshold, in input order."""

    def step(report: StageReport) -> Corpus:
        try:
            scores = pmap(partial(score_language, cfg=cfg), [d.text for d in corpus], workers)
        except Exception as exc:  # pragma: no cover - scoring is total on str input
            raise StageError("lang_filter", str(exc)) from exc
        reasons = (None if s >= cfg.threshold else DROP_BELOW_THRESHOLD for s in scores)
        return keep_or_drop(report, corpus, reasons)

    return run_stage("lang_filter", corpus, step)
