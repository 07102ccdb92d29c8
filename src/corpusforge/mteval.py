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

Matches are counted on integer keys. The tokens of both sides map to ids
in one vocabulary, and each n-gram gets an id from ``np.unique`` over its
(n-1)-gram id times the vocabulary size plus its last token. A clipped
count is the smaller of a (sentence, n-gram) key's counts on the two
sides. The keys are exact integers, so the results equal the textbook
definition with a ``Counter`` of n-gram tuples per sentence, bit for bit;
a test set too large for int64 keys raises DataError. numpy is imported
on the first call, so a command that scores nothing never loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigError, DataError

if TYPE_CHECKING:
    import numpy as np

_ORDERS = (1, 2, 3, 4)
SMOOTHINGS = ("none", "epsilon")
# Every n-gram key is below this bound (see ``corpus_bleu``): int64's largest.
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


def _token_ids(lines: Sequence[str], vocab: _Vocabulary) -> tuple[np.ndarray, list[int]]:
    """The vocabulary ids of the whitespace tokens of ``lines``, in order,
    and each line's token count. ``vocab`` gains the tokens it lacks."""
    import numpy as np

    lengths: list[int] = []

    def split(line: str) -> list[str]:
        tokens = line.split()
        lengths.append(len(tokens))
        return tokens

    tokens = chain.from_iterable(map(split, lines))
    return np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64), lengths


def corpus_bleu(
    hypotheses: Sequence[str], references: Sequence[str], smoothing: str = "epsilon"
) -> BleuResult:
    """BLEU over aligned hypothesis and single-reference lists."""
    import numpy as np

    if smoothing not in SMOOTHINGS:
        raise ConfigError(f"smoothing must be one of {SMOOTHINGS}, got {smoothing!r}")
    if len(hypotheses) != len(references):
        raise DataError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise DataError("empty test set")

    # One token stream: hypothesis i is sentence i, reference i is sentence
    # n_sent + i, so no n-gram within a sentence spans two lines or sides.
    vocab = _Vocabulary()
    hyp_ids, hyp_lengths = _token_ids(hypotheses, vocab)
    ref_ids, ref_lengths = _token_ids(references, vocab)
    hyp_length, ref_length = len(hyp_ids), len(ref_ids)
    ids = np.concatenate([hyp_ids, ref_ids])
    del hyp_ids, ref_ids
    n_sent, n_vocab = len(hypotheses), len(vocab)
    sent = np.repeat(np.arange(2 * n_sent, dtype=np.int32), hyp_lengths + ref_lengths)
    # An n-gram id is below len(ids), so a gram key stays below
    # len(ids) * n_vocab and a sentence key below 2 * n_sent * len(ids).
    if len(ids) * max(n_vocab, 2 * n_sent) > _KEY_LIMIT:
        raise DataError(
            f"test set too large for BLEU: {len(ids)} tokens, {n_vocab} types, "
            f"{n_sent} sentences"
        )

    precisions = []
    gram, n_grams = ids, n_vocab
    for n in _ORDERS:
        m = max(len(ids) - n + 1, 0)  # n-grams starting at 0..m-1
        if n > 1:
            # The n-gram at i is the (n-1)-gram at i and the token at i+n-1.
            uniq, gram = np.unique(gram[:m] * n_vocab + ids[n - 1 :], return_inverse=True)
            n_grams = len(uniq)
        within = sent[:m] == sent[n - 1 :]
        keys = sent[:m].astype(np.int64) * n_grams + gram[:m]
        hyp_keys = keys[:hyp_length][within[:hyp_length]]
        ref_keys = keys[hyp_length:][within[hyp_length:]] - n_sent * n_grams
        del keys, within
        hyp_uniq, hyp_counts = np.unique(hyp_keys, return_counts=True)
        ref_uniq, ref_counts = np.unique(ref_keys, return_counts=True)
        _, hyp_at, ref_at = np.intersect1d(
            hyp_uniq, ref_uniq, assume_unique=True, return_indices=True
        )
        clipped = int(np.minimum(hyp_counts[hyp_at], ref_counts[ref_at]).sum())
        total = len(hyp_keys)
        del hyp_keys, ref_keys
        if total == 0:
            p = 0.0
        elif clipped == 0 and smoothing == "epsilon":
            p = 1.0 / (2 * total)
        else:
            p = clipped / total
        precisions.append(p)

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
        scores[s.name] = {
            system: corpus_bleu(hyps, s.references, smoothing)
            for system, hyps in s.hypotheses.items()
        }
    return scores


def compare_systems(
    sets: Iterable[EvalSet], smoothing: str = "epsilon", fmt: str = "table"
) -> str:
    """Systems-by-sets score grid; "*" marks the best score per set.

    A system absent from a set renders as "-". JSON output keeps full
    precision; the table rounds to 2 decimals.
    """
    if fmt not in ("table", "json"):
        raise ConfigError(f"fmt must be 'table' or 'json', got {fmt!r}")
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
    header = ["System"] + names
    rows = [header]
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
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])] + [
            c.rjust(widths[j + 1]) for j, c in enumerate(row[1:])
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
