"""Script-ratio language scoring and threshold filtering for Urdu text.

The score is the fraction of a document's classifiable tokens that are
written predominantly in the target script. A token counts as target
when a strict majority of its letter/digit codepoints fall inside the
configured script ranges; tokens with no letters or digits (bare
punctuation or symbols) are ignored. Latin text and ASCII numerals score
toward 0, Urdu text and Extended Arabic-Indic numerals toward 1.
A document is scored with one ``str.translate`` over its whole text: a
map, cached per set of script ranges, turns each target letter or digit
into "T", each other letter or digit into "O", each whitespace character
(``str.isspace``, what ``str.split`` splits on) into a space, and drops
everything else. The map starts with the ASCII codepoints; a codepoint it
lacks passes through ``translate`` unchanged, so a result that is not
ASCII holds exactly the codepoints to add before translating again.
Splitting the result gives each classifiable token's marks, and each
distinct mark string is classified once, however often it occurs.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cache

# Not called here: perfbench/tracing.py wraps pmap under this name.
from ._parallel import pmap  # noqa: F401
from .corpus import Corpus, check_settings, setting
from .errors import ConfigError
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
    SECTION = "lang"
    threshold: float = setting(0.9, float, 0, 1)
    script_ranges: tuple[tuple[int, int], ...] = URDU_SCRIPT_RANGES

    def __post_init__(self):
        check_settings(self, self.SECTION)
        ranges = self.script_ranges
        if not (isinstance(ranges, tuple) and ranges and all(
            isinstance(r, tuple) and len(r) == 2
            and all(type(cp) is int and 0 <= cp <= 0x10FFFF for cp in r) for r in ranges
        )):
            raise ConfigError(f"'lang.script_ranges' must be a non-empty tuple of "
                              f"(lo, hi) codepoint pairs, got {ranges!r}")
        prev_hi = -1
        for lo, hi in sorted(ranges):
            if lo > hi:
                raise ConfigError(f"bad script range U+{lo:04X}..U+{hi:04X}")
            if lo <= prev_hi:
                raise ConfigError("script ranges must not overlap")
            prev_hi = hi


def _mark(cp: int, ranges: tuple[tuple[int, int], ...]) -> str | None:
    """"T" (target letter or digit), "O" (other letter or digit), " "
    (whitespace) or None (ignored)."""
    if chr(cp).isspace():
        return " "
    if unicodedata.category(chr(cp))[0] in "LN":
        return "T" if any(lo <= cp <= hi for lo, hi in ranges) else "O"
    return None


@cache
def _script_table(ranges: tuple[tuple[int, int], ...]) -> dict[int, str | None]:
    """The ``str.translate`` map of ``ranges``, holding every codepoint seen
    so far; it starts with the 128 ASCII codepoints."""
    return {cp: _mark(cp, ranges) for cp in range(128)}


def score_language(text: str, cfg: LangFilterConfig = LangFilterConfig()) -> float:
    """Fraction of classifiable tokens written in the target script, in [0, 1].

    Returns 0.0 when no token is classifiable.
    """
    ranges = cfg.script_ranges
    table = _script_table(ranges)
    marks = text.translate(table)
    if not marks.isascii():
        # Every mark is ASCII: what is not is an unseen codepoint.
        for ch in set(marks):
            if ch >= "\x80":
                table[ord(ch)] = _mark(ord(ch), ranges)
        marks = text.translate(table)
    if "O" not in marks:
        # Every classifiable token is all target.
        return 1.0 if "T" in marks else 0.0
    # One mark string per classifiable token: its tokens with no letter or
    # digit translate to nothing and vanish in the split.
    counts = Counter(marks.split())
    target = 0
    classified = 0
    for token_marks, n in counts.items():
        classified += n
        if 2 * token_marks.count("T") > len(token_marks):
            target += n
    return target / classified


def filter_language(
    corpus: Corpus, cfg: LangFilterConfig = LangFilterConfig()
) -> tuple[Corpus, StageReport]:
    """Keep documents scoring at or above the threshold, in input order."""

    def step(report: StageReport) -> Corpus:
        reasons = (
            None if score_language(d.text, cfg) >= cfg.threshold else DROP_BELOW_THRESHOLD
            for d in corpus
        )
        return keep_or_drop(report, corpus, reasons)

    return run_stage("lang_filter", corpus, step)
