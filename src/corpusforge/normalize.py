"""Text standardization and context-length splitting for Urdu corpora.

Standardization is driven by a data file of character rules: confusable
Arabic forms are rewritten to their Urdu counterparts (U+064A to U+06CC,
U+0643 to U+06A9, Arabic-Indic digits to Extended Arabic-Indic, curly
quotes to straight ones), control and zero-width junk is stripped, and
runs of three or more identical punctuation marks collapse to one. Urdu
sentence ends (U+06D4) and poetic/ornate marks are left alone. The rule
table is replaceable wholesale, so a different published mapping can be
dropped in without code changes.

Splitting cuts long documents near a target token count, preferring
paragraph breaks, then sentence ends, then any whitespace.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

# Not called here: perfbench/tracing.py wraps pmap under this name.
from ._parallel import pmap  # noqa: F401
from .corpus import (
    Corpus, Document, check_object, check_settings, read_json_input, setting, shown,
)
from .errors import ConfigError
from .report import StageReport, rewrite_texts, run_stage

_CP_RE = re.compile(r"^U\+([0-9A-Fa-f]{4,6})$")
# A run of 3+ of one character that is neither a word character nor
# whitespace: every punctuation mark but "_", which is one of \w.
_PUNCT_RUN_RE = re.compile(r"([^\w\s])\1{2,}")
_UNDERSCORE_RUN_RE = re.compile(r"_{3,}")
_TOKEN_RE = re.compile(r"\S+")


def _parse_cp(spec: str) -> str:
    m = _CP_RE.match(spec.strip())
    if not m or int(m.group(1), 16) > 0x10FFFF:
        raise ConfigError(f"bad codepoint spec {spec!r} (expected U+XXXX)")
    return chr(int(m.group(1), 16))


def _parse_seq(spec: str) -> str:
    """Space-separated "U+XXXX" specs to a string."""
    return "".join(_parse_cp(part) for part in spec.split())


def _parse_strip_entry(spec: str) -> list[str]:
    """A single "U+XXXX" or an inclusive range "U+XXXX-U+YYYY"."""
    spec = spec.strip()
    if "-" in spec:
        lo_s, hi_s = spec.split("-", 1)
        lo, hi = ord(_parse_cp(lo_s)), ord(_parse_cp(hi_s))
        if lo > hi:
            raise ConfigError(f"bad strip range {spec!r}")
        return [chr(c) for c in range(lo, hi + 1)]
    return [_parse_cp(spec)]


@dataclass(frozen=True)
class CharMapTable:
    """Ordered rewrite rules plus a set of codepoints to delete.

    The table must be closed: no rule output may contain any rule input
    or any stripped codepoint, which makes standardization idempotent.
    """

    rules: tuple[tuple[str, str], ...]
    strip: frozenset[str]

    def __post_init__(self):
        if not (isinstance(self.rules, tuple) and all(
            isinstance(r, tuple) and len(r) == 2 and all(isinstance(x, str) for x in r)
            for r in self.rules
        )):
            raise ConfigError("'charmap.rules' must be a tuple of (input, output) string "
                              f"pairs, got {shown(self.rules)}")
        if not (isinstance(self.strip, frozenset) and all(
            isinstance(ch, str) and len(ch) == 1 for ch in self.strip
        )):
            raise ConfigError("'charmap.strip' must be a frozenset of single characters, "
                              f"got {shown(self.strip)}")
        inputs = [src for src, _ in self.rules]
        for src, dst in self.rules:
            if not src:
                raise ConfigError("rule input must be non-empty")
            if src == dst:
                raise ConfigError(f"rule maps {src!r} to itself")
        for _, dst in self.rules:
            for src in inputs:
                if src in dst:
                    raise ConfigError(
                        f"table not closed: output {dst!r} contains input {src!r}"
                    )
            for ch in self.strip:
                if ch in dst:
                    raise ConfigError(
                        f"table not closed: output {dst!r} contains stripped "
                        f"codepoint U+{ord(ch):04X}"
                    )

    @classmethod
    def from_dict(cls, data: dict) -> "CharMapTable":
        check_object(data, "charmap", {"map": list, "strip": list})
        pairs, entries = data.get("map", []), data.get("strip", [])
        if not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
            for p in pairs
        ):
            raise ConfigError("'charmap.map' must be a list of [input, output] string pairs")
        if not all(isinstance(e, str) for e in entries):
            raise ConfigError("'charmap.strip' must be a list of strings")
        rules = tuple((_parse_seq(src), _parse_seq(dst)) for src, dst in pairs)
        strip: set[str] = set()
        for entry in entries:
            strip.update(_parse_strip_entry(entry))
        return cls(rules=rules, strip=frozenset(strip))

    @classmethod
    def from_json(cls, path: str | Path) -> "CharMapTable":
        return cls.from_dict(read_json_input(path, "charmap table"))


@lru_cache(maxsize=1)
def default_table() -> CharMapTable:
    data = resources.files("corpusforge.data").joinpath("charmap_default.json")
    return CharMapTable.from_dict(json.loads(data.read_text(encoding="utf-8")))


@lru_cache(maxsize=8)
def _compiled(table: CharMapTable) -> tuple[re.Pattern, dict[str, str]]:
    mapping = {ch: "" for ch in table.strip}
    mapping.update({src: dst for src, dst in table.rules})
    # Longest input first so alternation implements longest-match-first.
    keys = sorted(mapping, key=len, reverse=True)
    pattern = re.compile("|".join(re.escape(k) for k in keys))
    return pattern, mapping


def _collapse_punct(m: re.Match) -> str:
    ch = m.group(1)
    if unicodedata.category(ch).startswith("P"):
        return ch
    return m.group(0)


def standardize(text: str, table: CharMapTable | None = None) -> str:
    """Apply rewrite rules (one pass, longest match first), strip junk
    codepoints, and collapse runs of 3+ identical punctuation marks."""
    if table is None:
        table = default_table()
    if table.rules or table.strip:
        pattern, mapping = _compiled(table)
        text = pattern.sub(lambda m: mapping[m.group(0)], text)
    text = _PUNCT_RUN_RE.sub(_collapse_punct, text)
    return _UNDERSCORE_RUN_RE.sub("_", text) if "___" in text else text


@dataclass(frozen=True)
class SplitConfig:
    SECTION = "split"
    target_tokens: int = setting(512, int, lo=1)
    sentence_end_chars: str = setting("۔؟!?.", str)

    def __post_init__(self):
        check_settings(self, self.SECTION)


def _pick_cut(
    text: str,
    spans: list[tuple[int, int]],
    start: int,
    lo: int,
    hi: int,
    target: int,
    cfg: SplitConfig,
) -> int:
    """Choose a gap index g in [lo, hi]: cut before token start+g.

    A paragraph break wins over a sentence end, which wins over any other
    gap; within a class the gap closest to the target chunk length is
    chosen (ties toward the earlier gap).
    """
    candidates = range(lo, hi + 1)
    hits = (
        [g for g in candidates if text.count("\n", spans[start + g - 1][1], spans[start + g][0]) >= 2]
        or [g for g in candidates if text[spans[start + g - 1][1] - 1] in cfg.sentence_end_chars]
        or candidates
    )
    return min(hits, key=lambda g: (abs(g - target), g))


def split_document(doc: Document, cfg: SplitConfig = SplitConfig()) -> list[Document]:
    """Split a long document into chunks near ``target_tokens`` tokens.

    Cuts land between tokens, so the non-whitespace token multiset is
    preserved exactly; whitespace at each cut is consumed. Chunks get ids
    "<parent>#0", "<parent>#1", ... and inherit source and meta. A
    document of at most 1.5x the target is returned unchanged.
    """
    target = cfg.target_tokens
    # 1.5x in integers: exact for any target, where a float overflows.
    limit = target + target // 2
    # token_count (str.split) and _TOKEN_RE's \S share one whitespace rule
    # (str.isspace), so the count decides; only a document to cut needs token spans.
    if doc.token_count <= limit:
        return [doc]
    spans = [m.span() for m in _TOKEN_RE.finditer(doc.text)]
    n = len(spans)

    chunks: list[Document] = []
    start = 0
    k = 0
    while n - start > limit:
        lo = max(1, (target + 1) // 2)
        hi = min(limit, n - start - 1)
        g = _pick_cut(doc.text, spans, start, lo, hi, target, cfg)
        piece = doc.text[spans[start][0] : spans[start + g - 1][1]]
        chunks.append(replace(doc, id=f"{doc.id}#{k}", text=piece))
        start += g
        k += 1
    piece = doc.text[spans[start][0] : spans[n - 1][1]]
    chunks.append(replace(doc, id=f"{doc.id}#{k}", text=piece))
    return chunks


def standardize_corpus(
    corpus: Corpus, table: CharMapTable | None = None
) -> tuple[Corpus, StageReport]:
    """Standardize every document; document count is unchanged."""
    if table is None:
        table = default_table()

    def step(report: StageReport) -> Corpus:
        return rewrite_texts(report, corpus, (standardize(d.text, table) for d in corpus))

    return run_stage("standardize", corpus, step)


def split_corpus(
    corpus: Corpus, cfg: SplitConfig = SplitConfig()
) -> tuple[Corpus, StageReport]:
    """Split every over-length document; short documents pass through.
    A chunk id that another document also holds is a CorpusError."""

    def step(report: StageReport) -> Corpus:
        piece_lists = [split_document(doc, cfg) for doc in corpus]
        report.counters["docs_split"] = sum(1 for pieces in piece_lists if len(pieces) > 1)
        out = Corpus(doc for pieces in piece_lists for doc in pieces)
        out.check_unique_ids()  # a chunk id "<parent>#k" may be another document's id
        return out

    return run_stage("split", corpus, step)
