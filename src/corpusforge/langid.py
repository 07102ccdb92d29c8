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

Most documents need no ``translate``: a regex pre-check, built once per
set of script ranges, looks for a character that could mark an "O",
one that is neither whitespace, nor ASCII punctuation or control, nor in
the script ranges. When there is none, every classifiable token is all
target, so the score is 1.0 if the text holds a target letter or digit
and 0.0 if not. Ranges that cover more than 65,536 codepoints get no
pre-check, which keeps its letter class cheap to build.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import cache

# Not called here: perfbench/tracing.py wraps pmap under this name.
from ._parallel import pmap  # noqa: F401
from .corpus import Corpus, check_settings, setting, shown
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
                              f"(lo, hi) codepoint pairs, got {shown(ranges)}")
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


# The most codepoints that script ranges may cover and get a pre-check.
_PRECHECK_MAX = 0x10000


def _char_class(ranges, head: str = "") -> str:
    """A regex character class of ``head`` and inclusive codepoint ranges."""
    return "[" + head + "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in ranges) + "]"


@cache
def _precheck(ranges: tuple[tuple[int, int], ...]) -> tuple[re.Pattern, re.Pattern | None] | None:
    """The pre-check of ``ranges``: a regex for a character that could
    mark an "O", and one for a target letter or digit (None when the
    ranges hold none); None when the ranges are too wide."""
    if sum(hi - lo + 1 for lo, hi in ranges) > _PRECHECK_MAX:
        return None
    # Whitespace, ASCII other than letters and digits, and the ranges.
    not_other = ((0x00, 0x2F), (0x3A, 0x40), (0x5B, 0x60), (0x7B, 0x7F), *ranges)
    maybe_other = re.compile(_char_class(not_other, head="^\\s"))
    runs: list[list[int]] = []
    for lo, hi in sorted(ranges):
        for cp in range(lo, hi + 1):
            if _mark(cp, ranges) == "T":
                if runs and runs[-1][1] == cp - 1:
                    runs[-1][1] = cp
                else:
                    runs.append([cp, cp])
    return maybe_other, re.compile(_char_class(runs)) if runs else None


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
    precheck = _precheck(ranges)
    if precheck is not None and not precheck[0].search(text):
        # No token holds an "O" mark.
        target = precheck[1]
        return 1.0 if target is not None and target.search(text) else 0.0
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
