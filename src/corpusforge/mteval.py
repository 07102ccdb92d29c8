"""Corpus-level BLEU with 4-gram clipped precision.

Scores are on a 0-100 scale. Tokenization is whitespace splitting and
each hypothesis has a single reference. Clipped n-gram counts are summed
over the whole test set before dividing, the four orders get uniform 1/4
weights, and a brevity penalty of exp(1 - ref/hyp) applies when the
hypothesis side is shorter.

Smoothing "epsilon" replaces a zero precision with 1/(2 * total n-grams
of that order); with no n-grams at all (every hypothesis shorter than the
order) the precision stays 0 and the score is 0. Smoothing "none" leaves
zeros alone, so any zero precision also zeroes the score.

Matches are counted on integer keys. A test set's references are
prepared once into a ``ReferenceTables``: their vocabulary, length and
sentence count, and for each order a sorted table of sentence-scoped
n-gram keys with their counts inside the sentence. With V reference
types, an order-1 key is ``sentence * (V + 1) + token id`` and an order-n
key is the n-gram's first n-1 tokens' index in the order n-1 table times
``V + 1`` plus its last token. Each system's n-grams are looked up in
those tables with ``np.searchsorted``: a token no reference holds gets id
V (the vocabulary is a plain dict, read with ``dict.get(token, V)``, so
scoring never adds to it) and an n-gram the table lacks gets the index
``len(table)``, so neither ever matches. An order's clipped count sums,
over the table, the smaller of the system's hits and the reference
count. The keys are exact integers, so the results equal the textbook
definition with a ``Counter`` of n-gram tuples per sentence, bit for
bit; references too large for int64 keys raise DataError. numpy is
imported on first use, so a command that scores nothing never loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .corpus import check_value
from .errors import ConfigError, DataError
from .report import table_lines

if TYPE_CHECKING:
    import numpy as np

_ORDERS = (1, 2, 3, 4)
SMOOTHINGS = ("none", "epsilon")
# No key may exceed this (see ``prepare_references``): int64's largest.
_KEY_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class BleuResult:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "hyp_length": self.hyp_length,
            "ref_length": self.ref_length,
        }


class _Vocabulary(dict):
    """Token to id; a token not yet seen gets the next id."""

    def __missing__(self, token: str) -> int:
        self[token] = len(self)
        return self[token]


def _token_ids(
    lines: Sequence[str], lookup: Callable, *args: Iterable
) -> tuple[np.ndarray, np.ndarray]:
    """The ids ``lookup`` gives the whitespace tokens of ``lines``, in
    order, and each token's line number. Each of ``args`` yields one more
    argument per call, as in ``map``."""
    import numpy as np

    lengths: list[int] = []

    def split(line: str) -> list[str]:
        tokens = line.split()
        lengths.append(len(tokens))
        return tokens

    ids = np.fromiter(map(lookup, chain.from_iterable(map(split, lines)), *args), dtype=np.int64)
    return ids, np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def _within(sent: np.ndarray, n: int) -> np.ndarray:
    """Which n-grams of the stream lie inside one sentence."""
    return sent[: max(len(sent) - n + 1, 0)] == sent[n - 1 :]


@dataclass(frozen=True)
class ReferenceTables:
    """A test set's references, prepared once by ``prepare_references``.

    ``tables[n - 1]`` holds the sorted order-n keys and their counts, and
    one entry more: a key above every n-gram's, counted 0. Its index is
    the one an n-gram the references lack gets.
    """

    vocab: dict[str, int]
    length: int
    sentences: int
    tables: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return self.sentences


def prepare_references(references: Sequence[str]) -> ReferenceTables:
    """The n-gram tables of single-reference lines."""
    import numpy as np

    vocab = _Vocabulary()
    ids, sent = _token_ids(references, vocab.__getitem__)
    width = len(vocab) + 1
    # An order-1 key is below len(references) * width. A prefix index is at
    # most len(ids), a system's unmatched one included, so a longer key is
    # below (len(ids) + 1) * width. Each table ends in the bound itself.
    bound = max(len(references), len(ids) + 1) * width
    if bound > _KEY_LIMIT:
        raise DataError(
            f"test set too large for BLEU: {len(ids)} reference tokens, "
            f"{len(vocab)} types, {len(references)} sentences"
        )
    tables = []
    prefix = sent
    for n in _ORDERS:
        within = _within(sent, n)
        keys, index, counts = np.unique(
            (prefix[: len(within)] * width + ids[n - 1 :])[within],
            return_inverse=True,
            return_counts=True,
        )
        prefix = np.full(len(within), len(keys), dtype=np.int64)
        prefix[within] = index
        tables.append((np.append(keys, bound), np.append(counts, 0)))
    return ReferenceTables(dict(vocab), len(ids), len(references), tuple(tables))


def corpus_bleu(
    hypotheses: Sequence[str],
    references: Sequence[str] | ReferenceTables,
    smoothing: str = "epsilon",
) -> BleuResult:
    """BLEU over aligned hypotheses and single references: the lines, or
    the tables ``prepare_references`` built from them."""
    import numpy as np

    check_value(smoothing, "smoothing", str, choices=SMOOTHINGS)
    if len(hypotheses) != len(references):
        raise DataError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise DataError("empty test set")
    if not isinstance(references, ReferenceTables):
        references = prepare_references(references)

    vocab = references.vocab
    width = len(vocab) + 1
    ids, sent = _token_ids(hypotheses, vocab.get, repeat(len(vocab)))
    precisions = []
    prefix = sent
    for n, (table, ref_counts) in zip(_ORDERS, references.tables):
        within = _within(sent, n)
        keys = prefix[: len(within)] * width + ids[n - 1 :]
        # The last key is above every n-gram's, so each index is in range.
        prefix = np.searchsorted(table, keys)
        prefix[table[prefix] != keys] = len(table) - 1
        hits = np.bincount(prefix[within], minlength=len(table))
        clipped = int(np.minimum(hits, ref_counts).sum())
        total = int(np.count_nonzero(within))
        if total == 0:
            p = 0.0
        elif clipped == 0 and smoothing == "epsilon":
            p = 1.0 / (2 * total)
        else:
            p = clipped / total
        precisions.append(p)

    hyp_length, ref_length = len(ids), references.length
    if hyp_length == 0:
        bp = 0.0
    elif hyp_length >= ref_length:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_length / hyp_length)

    if min(precisions) == 0.0 or bp == 0.0:
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / len(precisions)) * 100.0
    return BleuResult(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )


@dataclass(frozen=True)
class EvalSet:
    """One test set: references plus each system's aligned outputs."""

    name: str
    references: tuple[str, ...]
    hypotheses: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if not self.name:
            raise ConfigError("test set needs a name")
        if not self.references:
            raise DataError(f"test set {self.name!r} has no references")
        for system, hyps in self.hypotheses.items():
            if len(hyps) != len(self.references):
                raise DataError(
                    f"set {self.name!r}, system {system!r}: "
                    f"{len(hyps)} hypotheses vs {len(self.references)} references"
                )


def evaluate_sets(
    sets: Iterable[EvalSet], smoothing: str = "epsilon"
) -> dict[str, dict[str, BleuResult]]:
    """Score every system on each set as it arrives: scores[set_name][system]."""
    scores: dict[str, dict[str, BleuResult]] = {}
    for s in sets:
        if s.name in scores:
            raise ConfigError(f"duplicate test set name {s.name!r}")
        references = prepare_references(s.references)
        scores[s.name] = {
            system: corpus_bleu(hyps, references, smoothing)
            for system, hyps in s.hypotheses.items()
        }
        # Released before the next set is read, so one set is held at a time.
        del s, references
    return scores


def compare_systems(
    sets: Iterable[EvalSet], smoothing: str = "epsilon", fmt: str = "table"
) -> str:
    """Systems-by-sets score grid; "*" marks the best score per set.

    A system absent from a set renders as "-". JSON output keeps full
    precision; the table rounds to 2 decimals.
    """
    check_value(fmt, "fmt", str, choices=("table", "json"))
    scores = evaluate_sets(sets, smoothing)
    names = list(scores)
    systems = list(dict.fromkeys(chain.from_iterable(scores.values())))
    if fmt == "json":
        payload = {
            "smoothing": smoothing,
            "systems": systems,
            "sets": names,
            "scores": {
                name: {sys: res.to_dict() for sys, res in per_set.items()}
                for name, per_set in scores.items()
            },
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)

    best = {
        name: max((res.score for res in per_set.values()), default=None)
        for name, per_set in scores.items()
    }
    rows = [["System"] + names]
    for system in systems:
        row = [system]
        for name in names:
            res = scores[name].get(system)
            if res is None:
                row.append("-")
            else:
                mark = "*" if res.score == best[name] else ""
                row.append(f"{res.score:.2f}{mark}")
        rows.append(row)
    return "\n".join(line.rstrip() for line in table_lines(rows, "  ", "  "))
