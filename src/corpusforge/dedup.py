"""Near-duplicate removal with 64-bit simhash fingerprints.

A document's fingerprint hashes its character 4-shingles after removing
every whitespace character, so re-wrapped or re-spaced copies collide
exactly. Each shingle is hashed with a keyed 8-byte blake2b, and a bit
of the fingerprint is set when most shingle hashes set it. Sidecars carry
no hash version, so fingerprint values must never change. Exact mode
drops fingerprint-equal documents; near mode also drops documents within
a small Hamming distance. The first document in input order always wins.
A near-mode probe that misses the exact lookup compares the fingerprint
with every kept one in a single numpy popcount pass and takes the
earliest kept one within the threshold.

Duplicates are removed in three passes, each switched by a field of
``DedupConfig``: within each source, across the whole corpus, then
repeated lines inside each document. Each document is line-deduped once
and fingerprinted once, from its line-deduped text (the text that is
written); both document passes share the fingerprints and the line pass
reuses the texts. Blank lines survive line dedup, since they mark
paragraph breaks. The corpus-wide pass's registry can be saved to a
sidecar file and reloaded to dedup new data against an existing
collection.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ._parallel import pmap
from .corpus import Corpus, Document, atomic_write, read_input
from .errors import ConfigError, DataError
from .report import StageReport, rewrite_texts, run_stage

REASON_DUP = "dup_doc"
REASON_DUP_EMPTY = "dup_doc_empty"

# Part of the fingerprint function, so sidecars depend on it.
_HASH_KEY = b"simhash-v1"
# Keyed once; each shingle hashes a copy, which skips re-keying.
_HASHER = hashlib.blake2b(digest_size=8, key=_HASH_KEY)


@dataclass(frozen=True)
class Fingerprint:
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < 1 << 64:
            raise DataError(f"fingerprint out of range: {self.bits}")

    def hamming(self, other: "Fingerprint") -> int:
        return (self.bits ^ other.bits).bit_count()

    @property
    def hex(self) -> str:
        return f"{self.bits:016x}"

    @classmethod
    def from_hex(cls, s: str) -> "Fingerprint":
        """Parse exactly the 16 lower-case hex digits that ``hex`` writes."""
        if len(s) != 16 or s.strip("0123456789abcdef"):
            raise DataError(f"bad fingerprint {s!r}: expected 16 hex digits")
        return cls(int(s, 16))


@dataclass(frozen=True)
class DedupConfig:
    mode: str = "exact"
    hamming_threshold: int = 3
    shingle_width: int = 4
    # The passes of dedup_pass.
    per_source: bool = True
    overall: bool = True
    lines: bool = True

    def __post_init__(self):
        if self.mode not in ("exact", "near"):
            raise ConfigError(f"dedup mode must be 'exact' or 'near', got {self.mode!r}")
        if not 0 <= self.hamming_threshold <= 64:
            raise ConfigError(
                f"hamming_threshold must be in [0, 64], got {self.hamming_threshold}"
            )
        if self.shingle_width < 1:
            raise ConfigError(f"shingle_width must be >= 1, got {self.shingle_width}")


def simhash(text: str, cfg: DedupConfig = DedupConfig()) -> Fingerprint:
    """Fingerprint of the text's whitespace-free character shingles.

    Whitespace-only text maps to the zero fingerprint. Text shorter than
    the shingle width is hashed as one shingle.
    """
    content = "".join(text.split())
    if not content:
        return Fingerprint(0)
    w = cfg.shingle_width
    n = max(len(content) - w + 1, 1)
    digests = []
    for i in range(n):
        h = _HASHER.copy()
        h.update(content[i : i + w].encode("utf-8"))
        digests.append(h.digest())
    # Row i holds shingle i's digest as 64 bits, most significant first.
    bits = np.unpackbits(np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(n, 8), axis=1)
    majority = 2 * bits.sum(axis=0) > n
    return Fingerprint(int.from_bytes(np.packbits(majority).tobytes(), "big"))


class DedupRegistry:
    """Seen fingerprints with first-wins lookup.

    Exact lookups go through a dict. Near mode also compares the probe
    with every entry in one numpy pass over an array of the distinct
    fingerprints in insertion order, so the first match along it is the
    earliest kept document within the threshold.
    """

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg
        self._exact: dict[int, str] = {}
        # Entry i is the i-th distinct fingerprint added.
        self._ids: list[str] = []
        self._bits = array("Q")

    def probe(self, fp: Fingerprint) -> str | None:
        """Id of the kept duplicate, or None if unseen.

        An exact match wins over an earlier entry within the threshold.
        """
        hit = self._exact.get(fp.bits)
        if hit is not None:
            return hit
        if self.cfg.mode == "near" and self._ids:
            # A temporary view: an array exporting its buffer cannot grow.
            bits = np.frombuffer(self._bits, dtype=np.uint64)
            dist = np.bitwise_count(bits ^ np.uint64(fp.bits))
            near = dist <= self.cfg.hamming_threshold
            first = int(near.argmax())
            if near[first]:
                return self._ids[first]
        return None

    def add(self, fp: Fingerprint, doc_id: str) -> None:
        if fp.bits in self._exact:
            return
        self._bits.append(fp.bits)
        self._ids.append(doc_id)
        self._exact[fp.bits] = doc_id

    def __len__(self) -> int:
        return len(self._ids)

    def pairs(self, start: int = 0) -> list[tuple[str, Fingerprint]]:
        """(id, fingerprint) of every entry from index ``start`` on, in
        insertion order."""
        entries = zip(self._ids[start:], self._bits[start:])
        return [(doc_id, Fingerprint(b)) for doc_id, b in entries]


def dedup_documents(
    corpus: Corpus,
    cfg: DedupConfig = DedupConfig(),
    group_by_source: bool = False,
    registry: DedupRegistry | None = None,
    stage: str = "dedup_overall",
    workers: int | None = 1,
    fingerprints: list[Fingerprint] | None = None,
) -> tuple[Corpus, StageReport]:
    """Drop documents whose fingerprint was already seen.

    With ``group_by_source`` each source gets its own registry, so only
    same-source copies are dropped. A shared ``registry`` carries seen
    fingerprints in (and accumulates the kept ones). ``fingerprints``,
    one per document in corpus order, skips fingerprinting when the
    caller already has them.
    """
    if group_by_source and registry is not None:
        raise ConfigError("group_by_source cannot use a shared registry")

    def step(report: StageReport) -> Corpus:
        fps = fingerprints
        if fps is None:
            fps = pmap(partial(simhash, cfg=cfg), [d.text for d in corpus], workers)
        # One registry per source, built when the source first appears,
        # or one shared registry under the key None.
        registries: dict[str | None, DedupRegistry] = defaultdict(partial(DedupRegistry, cfg))
        if registry is not None:
            registries[None] = registry
        kept = []
        for doc, fp in zip(corpus, fps):
            reg = registries[doc.source if group_by_source else None]
            hit = reg.probe(fp)
            if hit is None:
                reg.add(fp, doc.id)
                kept.append(doc)
            else:
                reason = REASON_DUP_EMPTY if fp.bits == 0 else REASON_DUP
                report.record_drop(doc.id, reason, kept_id=hit)
        return Corpus(kept)

    return run_stage(stage, corpus, step)


def dedup_lines(doc: Document) -> Document:
    """Remove repeated lines inside one document, keeping first occurrences.

    Lines compare with trailing whitespace ignored; the kept line is the
    original, untouched one. Blank lines are never dropped: they are the
    paragraph breaks that splitting prefers.
    """
    lines = doc.text.split("\n")
    if len(lines) < 2:
        return doc
    seen = set()
    kept = []
    for line in lines:
        key = line.rstrip()
        if key and key in seen:
            continue
        seen.add(key)
        kept.append(line)
    if len(kept) == len(lines):
        return doc
    return doc.with_text("\n".join(kept))


def dedup_corpus_lines(
    corpus: Corpus, texts: list[str] | None = None
) -> tuple[Corpus, StageReport]:
    """Remove repeated lines inside each document.

    ``texts``, one line-deduped text per document in corpus order, skips
    the line dedup when the caller already has them.
    """

    def step(report: StageReport) -> Corpus:
        new = texts if texts is not None else (dedup_lines(d).text for d in corpus)
        return rewrite_texts(report, corpus, new)

    return run_stage("dedup_lines", corpus, step)


def dedup_pass(
    corpus: Corpus,
    cfg: DedupConfig = DedupConfig(),
    registry: DedupRegistry | None = None,
    workers: int | None = 1,
) -> tuple[Corpus, StageReport]:
    """Per-source dedup, then corpus-wide dedup, then in-document lines,
    each when its ``cfg`` switch is on.

    Each input document is line-deduped once (when ``cfg.lines`` is on)
    and fingerprinted once, from that text as written, for both document
    passes; the line pass takes the survivors' texts. Each document the
    corpus-wide pass keeps adds one entry to ``registry``. The aggregate
    report carries one sub-report per enabled pass; drops appear under
    the pass that made them.
    """

    def step(report: StageReport) -> Corpus:
        out = corpus
        texts = [dedup_lines(d).text if cfg.lines else d.text for d in corpus]
        # Keyed by object, not id: ids need not be unique here.
        text_of = dict(zip(map(id, corpus), texts))
        if cfg.per_source or cfg.overall:
            fps = pmap(partial(simhash, cfg=cfg), texts, workers)
            fp_of = dict(zip(map(id, corpus), fps))
        if cfg.per_source:
            out, sub = dedup_documents(
                out, cfg, group_by_source=True, stage="dedup_per_source",
                fingerprints=[fp_of[id(d)] for d in out],
            )
            report.sub_reports.append(sub)
        if cfg.overall:
            out, sub = dedup_documents(
                out, cfg, registry=registry, stage="dedup_overall",
                fingerprints=[fp_of[id(d)] for d in out],
            )
            report.sub_reports.append(sub)
        if cfg.lines:
            out, sub = dedup_corpus_lines(out, texts=[text_of[id(d)] for d in out])
            report.sub_reports.append(sub)
        for sub in report.sub_reports:
            for reason, n in sub.drop_reasons.items():
                report.drop_reasons[reason] = report.drop_reasons.get(reason, 0) + n
            report.drop_details.extend(sub.drop_details)
        return out

    return run_stage("dedup", corpus, step)


def write_fingerprints(
    path: str | Path, pairs: list[tuple[str, Fingerprint]],
    commit: Callable[[str, Path], object] = os.replace,
) -> None:
    """Write an "id<TAB>hex" line per fingerprint, atomically (see
    ``atomic_write``, which gets ``commit``)."""
    for doc_id, _ in pairs:
        # A reader splits lines on "\r" too (universal newlines).
        if "\t" in doc_id or "\n" in doc_id or "\r" in doc_id:
            raise DataError(f"document id {doc_id!r} cannot be stored in a sidecar")
    with atomic_write(path, commit) as fh:
        fh.writelines(f"{doc_id}\t{fp.hex}\n" for doc_id, fp in pairs)


def read_fingerprints(path: str | Path) -> list[tuple[str, Fingerprint]]:
    text = read_input(path, "fingerprints", DataError)
    pairs = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        try:
            doc_id, hex_part = line.split("\t")
            pairs.append((doc_id, Fingerprint.from_hex(hex_part)))
        except (ValueError, DataError) as exc:
            raise DataError(
                f"{path}:{lineno}: expected 'id<TAB>hex16', got {line!r}"
            ) from exc
    return pairs


def seed_registry(
    pairs: list[tuple[str, Fingerprint]], cfg: DedupConfig = DedupConfig()
) -> DedupRegistry:
    reg = DedupRegistry(cfg)
    for doc_id, fp in pairs:
        reg.add(fp, doc_id)
    return reg
