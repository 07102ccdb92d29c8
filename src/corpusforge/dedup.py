"""Duplicate removal keyed on content digests (exact) or SimHash (near).

Both modes key each document on a plain int. Exact mode's is a 128-bit
blake2b of its content with every whitespace character removed, so
re-wrapped or re-spaced copies collide and documents whose content
differs never do. Near mode's is a 64-bit SimHash (Charikar, STOC 2002)
of the same content's character 4-shingles, each hashed by simple
tabulation (Patrascu & Thorup, JACM 2012): every character maps to 8
bytes from a keyed blake2b, a shingle's hash XORs its characters' bytes,
each rotated by its position, and a bit is set when most shingle hashes
set it. Near mode drops fingerprint-equal documents and documents within
a small Hamming distance; a probe that misses the equal lookup takes the
earliest kept fingerprint within the threshold. At thresholds 1-7 it
finds it through a pigeonhole index of fingerprint blocks (see
``DedupRegistry``); above 7 it compares the fingerprint with every kept
one in a single numpy popcount pass. The first document in input order
always wins.

``dedup_pass`` removes duplicates in three passes, each switched by a
field of ``DedupConfig``: within each source, across the whole corpus,
then repeated lines inside each document. Each document is line-deduped
once and keyed once, from its line-deduped text (the text that is
written); both document passes share the keys and the line pass reuses
the texts.
Blank lines survive line dedup, since they mark paragraph breaks. The
corpus-wide pass's registry can be saved to a sidecar file and reloaded
to dedup new data against an existing collection. A sidecar line is
``id<TAB>hex``: 16 hex digits hold a near-mode SimHash, 32 an exact-mode
digest, so a sidecar never seeds a run of the other mode, and
``registry.extend(*read_sidecar(path, mode)[:2])`` seeds a registry from
one. A sidecar names no hash version, so nothing tells a near-mode
sidecar written by an earlier SimHash (a keyed blake2b per shingle) from
a current one: such a sidecar loads and then mis-dedups, and must be
regenerated. Exact-mode digests have not changed.

Only a near-mode probe at a threshold above 7 needs numpy, and imports
it on first use: ``simhash`` counts its bit votes on plain ints, so
every other run never loads it. blake2b comes from CPython's built-in
``_blake2`` module, the same function that ``hashlib`` re-exports, so
no command loads OpenSSL through ``hashlib`` unless the built-in module
is missing.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable

try:
    # hashlib is heavy to load (it loads OpenSSL); its blake2b is this one.
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# Called by name so that perfbench/tracing.py can time SimHash.
from ._parallel import pmap
from .corpus import Corpus, Document, atomic_write, check_settings, read_input, setting
from .errors import DataError
from .report import StageReport, rewrite_texts, run_stage

REASON_DUP = "dup_doc"
REASON_DUP_EMPTY = "dup_doc_empty"

# The left rotation of a shingle's j-th character: distinct for j < 64,
# since 13 is odd, so a shingle's hash depends on its characters' order.
_ROTATIONS = [13 * j % 64 for j in range(64)]
MAX_SHINGLE_WIDTH = len(_ROTATIONS)
# The key width of each mode: a content digest, or a SimHash.
KEY_BITS = {"exact": 128, "near": 64}
_MODE_OF_BITS = {bits: mode for mode, bits in KEY_BITS.items()}


@dataclass(frozen=True)
class Fingerprint:
    """A sidecar key: a near-mode SimHash (64 bits) or an exact-mode
    content digest (``width`` 128)."""

    bits: int
    width: int = 64

    def __post_init__(self):
        if self.width not in _MODE_OF_BITS:
            raise DataError(f"fingerprint width must be 64 or 128, got {self.width}")
        if not 0 <= self.bits < 1 << self.width:
            raise DataError(f"fingerprint out of range: {self.bits}")

    @property
    def hex(self) -> str:
        return f"{self.bits:0{self.width // 4}x}"


@dataclass(frozen=True)
class DedupConfig:
    SECTION = "dedup"
    mode: str = setting("exact", str, choices=tuple(KEY_BITS))
    hamming_threshold: int = setting(3, int, 0, 64)
    shingle_width: int = setting(4, int, 1, MAX_SHINGLE_WIDTH)
    # The passes of dedup_pass.
    per_source: bool = setting(True, bool)
    overall: bool = setting(True, bool)
    lines: bool = setting(True, bool)

    def __post_init__(self):
        check_settings(self, self.SECTION)

    @property
    def key_bits(self) -> int:
        return KEY_BITS[self.mode]


def content_digest(text: str) -> int:
    """Exact mode's key: a 128-bit blake2b of the text's UTF-8 content
    with every whitespace character removed."""
    content = "".join(text.split()).encode("utf-8")
    return int.from_bytes(blake2b(content, digest_size=16).digest(), "big")


class _CharTable(dict):
    """Character -> its 8 table bytes, a keyed blake2b of the character,
    computed on its first lookup: one entry per distinct character. The
    key is part of the fingerprint function, so near-mode sidecars
    depend on it."""

    def __missing__(self, char: str) -> bytes:
        value = blake2b(
            char.encode("utf-8", "surrogatepass"), digest_size=8, key=b"simhash-tab-v1"
        ).digest()
        self[char] = value
        return value


_CHAR_BYTES = _CharTable()


def simhash(text: str, cfg: DedupConfig = DedupConfig()) -> int:
    """Near mode's key: the 64-bit SimHash of the text's whitespace-free
    character shingles.

    Shingle i of width w hashes to the XOR over j < w of the table bytes
    of character i + j, as a 64-bit int rotated left by ``13 * j % 64``.
    Whitespace-only text maps to 0. Text shorter than the shingle width
    is hashed as one shingle.
    """
    content = "".join(text.split())
    if not content:
        return 0
    w = min(cfg.shingle_width, len(content))
    n = len(content) - w + 1
    # One 64-bit lane per character, character 0 in the top lane.
    lanes = int.from_bytes(b"".join(map(_CHAR_BYTES.__getitem__, content)), "big")
    full = (1 << 64 * n) - 1
    # Term j holds, in lane i, character i + j (the j-th of shingle i):
    # the top n lanes, once the last w - 1 - j characters are shifted out.
    acc = lanes >> 64 * (w - 1) & full
    for j in range(1, w):
        r = _ROTATIONS[j]
        term = lanes >> 64 * (w - 1 - j) & full
        # Each lane's top r bits wrap to its bottom: the first mask drops
        # what a shift carried into the lane above, the second what it
        # brought down from the lane above.
        high = int.from_bytes(((1 << 64) - (1 << r)).to_bytes(8, "big") * n, "big")
        acc ^= (term << r & high) | (term >> 64 - r & (full ^ high))
    return _bit_vote(acc.to_bytes(8 * n, "big"), n)


def _bit_vote(joined: bytes, n: int) -> int:
    """The bitwise majority of ``n`` joined 8-byte digests, as a 64-bit
    int: a bit is set when more than half of the digests set it, so a
    tie leaves it clear."""
    # Mask j holds bit j (from the top) of each of n bytes.
    top = int.from_bytes(b"\x80" * n, "big")
    masks = [top >> j for j in range(8)]
    bits = 0
    for k in range(8):
        # Byte k of every digest: bit j of this column is bit 8k+j of the
        # vote, counted from the top.
        column = int.from_bytes(joined[k::8], "big")
        for mask in masks:
            bits = bits << 1 | (2 * (column & mask).bit_count() > n)
    return bits


def _blocks(threshold: int) -> list[tuple[int, int]]:
    """(shift, mask) of each of ``max(threshold + 1, 4)`` contiguous blocks
    that split a 64-bit key, widest first, each at most 16 bits wide.

    Two keys within ``threshold`` bits of each other differ in at most
    ``threshold`` blocks, so they are equal on at least one.
    """
    n = max(threshold + 1, 4)
    blocks, shift = [], 64
    for i in range(n):
        width = 64 // n + (i < 64 % n)
        shift -= width
        blocks.append((shift, (1 << width) - 1))
    return blocks


class DedupRegistry:
    """Seen keys with first-wins lookup.

    Keys are plain ints: content digests in exact mode, SimHash bits in
    near mode. Equal keys are looked up in a dict, which is all that
    exact mode and near mode at threshold 0 need. At a higher threshold
    the distinct fingerprints are also kept in insertion order as
    entries 0, 1, ..., and a probe returns the smallest entry within the
    threshold, which is the earliest kept document:

    - At thresholds 1-7 a pigeonhole index (Manku, Jain & Das Sarma, WWW
      2007) finds it. The 64 bits are split into ``max(k + 1, 4)``
      blocks of at most 16 bits (see ``_blocks``), and each block has a
      dict from a block value to the entries holding it, in insertion
      order. An entry within the threshold k equals the probe on some
      block, so only the entries that share a block value with the probe
      are checked. A value held by one entry maps to that entry's index,
      not to a list, which halves the index's memory.
    - Above 7 the probe takes one numpy popcount pass over every entry
      instead: blocks under 8 bits wide would make most entries
      candidates.
    """

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg
        # Key -> id of the first document added with it, in insertion order.
        self._first: dict[int, str] = {}
        # Near mode above threshold 0: entry i is the i-th distinct key added.
        self._near = cfg.mode == "near" and cfg.hamming_threshold > 0
        self._bits = array("Q")
        # The pigeonhole index, at thresholds 1-7: per block, its shift and
        # mask and a dict from a block value to an entry index or an
        # ascending list of them.
        self._index: list[tuple[int, int, dict[int, int | list[int]]]] = []
        if self._near and cfg.hamming_threshold < 8:
            self._index = [(shift, mask, {}) for shift, mask in _blocks(cfg.hamming_threshold)]

    def probe(self, key: int) -> str | None:
        """Id of the kept duplicate, or None if unseen.

        An equal key wins over an earlier entry within the threshold.
        """
        hit = self._first.get(key)
        if hit is not None or not self._bits:
            return hit
        i = self._indexed_probe(key) if self._index else self._scan(key)
        return None if i is None else self._first[self._bits[i]]

    def _indexed_probe(self, key: int) -> int | None:
        """The smallest entry within the threshold, from the index."""
        bits, k = self._bits, self.cfg.hamming_threshold
        best = len(bits)
        for shift, mask, table in self._index:
            held = table.get(key >> shift & mask)
            if held is None:
                continue
            # Ascending, so the first entry within the threshold is this
            # block's smallest, and none past the best so far can win.
            for i in (held,) if type(held) is int else held:
                if i >= best:
                    break
                if (bits[i] ^ key).bit_count() <= k:
                    best = i
                    break
        return best if best < len(bits) else None

    def _scan(self, key: int) -> int | None:
        """The smallest entry within the threshold, from a popcount of
        every entry."""
        import numpy as np

        # A temporary view: an array exporting its buffer cannot grow.
        bits = np.frombuffer(self._bits, dtype=np.uint64)
        near = np.bitwise_count(bits ^ np.uint64(key)) <= self.cfg.hamming_threshold
        first = int(near.argmax())
        return first if near[first] else None

    def add(self, key: int, doc_id: str) -> None:
        if key in self._first:
            return
        self._first[key] = doc_id
        if self._near:
            self._append([key])

    def extend(self, ids: list[str], keys: list[int]) -> None:
        """``add`` each key with the id at its index, in one call: a key
        already held, or repeated, keeps its first id."""
        start = len(self._first)
        for key, doc_id in zip(keys, ids):
            self._first.setdefault(key, doc_id)
        if self._near:
            self._append(list(islice(self._first, start, None)))

    def _append(self, keys: list[int]) -> None:
        """Add entries for distinct keys not held yet, and index them
        block by block."""
        start = len(self._bits)
        self._bits.extend(keys)
        # One int object per index, shared by every block's table.
        indices = list(range(start, len(self._bits)))
        for shift, mask, table in self._index:
            for i, key in zip(indices, keys):
                value = key >> shift & mask
                held = table.get(value)
                if held is None:
                    table[value] = i
                elif type(held) is int:
                    table[value] = [held, i]
                else:
                    held.append(i)

    def __len__(self) -> int:
        return len(self._first)

    def pairs(self, start: int = 0) -> list[tuple[str, Fingerprint]]:
        """(id, fingerprint) of every entry from index ``start`` on, in
        insertion order."""
        width = self.cfg.key_bits
        entries = islice(self._first.items(), start, None)
        return [(doc_id, Fingerprint(key, width)) for key, doc_id in entries]


def document_keys(texts: list[str], cfg: DedupConfig) -> list[int]:
    """The registry key of each text: its content digest in exact mode,
    or its SimHash in near mode."""
    if cfg.mode == "exact":
        return [content_digest(t) for t in texts]
    return pmap(partial(simhash, cfg=cfg), texts)


def dedup_documents(
    corpus: Corpus,
    keys: list[int],
    cfg: DedupConfig,
    group_by_source: bool = False,
    registry: DedupRegistry | None = None,
) -> tuple[Corpus, StageReport]:
    """A document pass of ``dedup_pass``: drop each document whose key
    (one per document, in corpus order) was already seen.

    With ``group_by_source`` each source gets its own registry, so only
    same-source copies are dropped (stage ``dedup_per_source``); else
    ``registry``, if given, carries seen keys in and collects the kept
    ones (stage ``dedup_overall``). A dropped document whose content is
    empty is a ``dup_doc_empty``.
    """

    def step(report: StageReport) -> Corpus:
        # One registry per source, built when the source first appears,
        # or one shared registry under the key None.
        registries: dict[str | None, DedupRegistry] = defaultdict(partial(DedupRegistry, cfg))
        if registry is not None:
            registries[None] = registry
        kept = []
        for doc, key in zip(corpus, keys):
            reg = registries[doc.source if group_by_source else None]
            hit = reg.probe(key)
            if hit is None:
                reg.add(key, doc.id)
                kept.append(doc)
            else:
                reason = REASON_DUP if doc.text.strip() else REASON_DUP_EMPTY
                report.record_drop(doc.id, reason, kept_id=hit)
        return Corpus(kept)

    return run_stage("dedup_per_source" if group_by_source else "dedup_overall", corpus, step)


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


def dedup_corpus_lines(corpus: Corpus, texts: list[str]) -> tuple[Corpus, StageReport]:
    """The line pass of ``dedup_pass``: give each document its line-deduped
    text (``texts``, one per document in corpus order)."""
    return run_stage("dedup_lines", corpus, lambda report: rewrite_texts(report, corpus, texts))


def dedup_pass(
    corpus: Corpus,
    cfg: DedupConfig = DedupConfig(),
    registry: DedupRegistry | None = None,
) -> tuple[Corpus, StageReport]:
    """Per-source dedup, then corpus-wide dedup, then in-document lines,
    each when its ``cfg`` switch is on.

    Each input document is line-deduped once (when ``cfg.lines`` is on)
    and keyed once, from that text as written, for both document passes;
    the line pass takes the survivors' texts. Each document the
    corpus-wide pass keeps adds one entry to ``registry``. The aggregate
    report carries one sub-report per enabled pass; drops appear under
    the pass that made them.
    """

    def step(report: StageReport) -> Corpus:
        out = corpus
        texts = [dedup_lines(d).text if cfg.lines else d.text for d in corpus]
        if cfg.per_source or cfg.overall:
            keys = document_keys(texts, cfg)
        # Keyed by object, not id: ids need not be unique here.
        position = {id(d): i for i, d in enumerate(corpus)}

        def at(values: list, docs: Corpus) -> list:
            return [values[position[id(d)]] for d in docs]

        if cfg.per_source:
            out, sub = dedup_documents(out, at(keys, out), cfg, group_by_source=True)
            report.sub_reports.append(sub)
        if cfg.overall:
            out, sub = dedup_documents(out, at(keys, out), cfg, registry=registry)
            report.sub_reports.append(sub)
        if cfg.lines:
            out, sub = dedup_corpus_lines(out, at(texts, out))
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
        if not doc_id or "\t" in doc_id or "\n" in doc_id or "\r" in doc_id:
            raise DataError(f"document id {doc_id!r} cannot be stored in a sidecar")
    with atomic_write(path, commit) as fh:
        fh.writelines(f"{doc_id}\t{fp.hex}\n" for doc_id, fp in pairs)


def read_sidecar(
    path: str | Path, mode: str | None = None
) -> tuple[list[str], list[int], int | None]:
    """The ids and plain int keys of a sidecar's lines, in file order, and
    the keys' width in bits (None when no ``mode`` is given and the sidecar
    holds no key). A line must be a non-empty id, a tab and the 16 or 32
    lower-case hex digits that ``Fingerprint.hex`` writes. A sidecar holds
    the keys of one dedup mode: every key must have the width of ``mode``'s
    keys, or with no ``mode`` that of the first line's key."""
    text = read_input(path, "fingerprints", DataError)
    width = None if mode is None else KEY_BITS[mode]
    ids: list[str] = []
    keys: list[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        doc_id, tab, digits = line.partition("\t")
        # A second tab is left in ``digits``, which then fails the strip.
        if not (doc_id and tab) or len(digits) not in (16, 32) or digits.strip("0123456789abcdef"):
            raise DataError(
                f"{path}:{lineno}: expected 'id<TAB>hex16' or 'id<TAB>hex32', got {line!r}"
            )
        bits = 4 * len(digits)
        if width is None:
            width = bits
        elif bits != width:
            raise DataError(
                f"{path}:{lineno}: a {bits}-bit key, which --mode "
                f"{_MODE_OF_BITS[bits]} writes, where --mode {_MODE_OF_BITS[width]} "
                f"needs {width}-bit keys"
            )
        ids.append(doc_id)
        keys.append(int(digits, 16))
    return ids, keys, width


def read_fingerprints(
    path: str | Path, mode: str | None = None
) -> list[tuple[str, Fingerprint]]:
    """The (id, fingerprint) pairs of a sidecar, read by ``read_sidecar``."""
    ids, keys, width = read_sidecar(path, mode)
    return [(doc_id, Fingerprint(key, width)) for doc_id, key in zip(ids, keys)]
