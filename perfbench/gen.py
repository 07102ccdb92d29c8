"""Seeded synthetic inputs and their ground truth for the benchmark.

Every input is built from ``random.Random(seed)``, so one seed gives
byte-identical files. Beside the inputs the generator writes
``labels.json``: for every document the disposition the curation method
must give it (kept with its expected output tokens, or dropped at a
named stage for a named reason, with the group of documents it
duplicates), and for every BLEU test set nothing more than the files,
since the reference scores are recomputed by ``checks.py``.

Two kinds of documents are deliberately left out of the seeded part and
come from ``PROBE_SEED`` instead: one-character variants and copies that
differ from their base only by a repeated line. Whether the program
handles them right depends on where their SimHash fingerprints land, so
only a fixed set keeps the number of failed operations the same for
every ``--seed``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PROBE_SEED = 20250601

# Urdu letters the default character table neither rewrites nor strips.
URDU_LETTERS = (
    "ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے"
)
LATIN_WORDS = (
    "the of and to in is was for on that with as by at from this have are "
    "market river school garden window people city history music science "
    "morning evening letter report travel weather station kitchen bridge"
).split()
SENTENCE_END = "۔"
SOURCES = ("books", "news", "web")
PROBE_SOURCE = "probe"
SPLIT_TARGET = 512

PII_KINDS = ("EMAIL", "PHONE", "ID")


def load_stopwords(repo: Path) -> list[str]:
    path = repo / "src" / "corpusforge" / "data" / "urdu_stopwords.txt"
    words = []
    for line in path.read_text(encoding="utf-8").splitlines():
        w = line.strip()
        if w and not w.startswith("#"):
            words.append(w)
    return words


class TextMaker:
    """Urdu-like prose from the shipped stopwords plus synthetic words."""

    def __init__(self, rng: random.Random, stopwords: list[str], vocab_size: int = 6000):
        self.rng = rng
        self.stopwords = stopwords
        stop = set(stopwords)
        vocab: set[str] = set()
        while len(vocab) < vocab_size:
            w = "".join(rng.choice(URDU_LETTERS) for _ in range(rng.randint(3, 8)))
            if w not in stop:
                vocab.add(w)
        self.vocab = sorted(vocab)

    def word(self, stop_share: float) -> str:
        if self.rng.random() < stop_share:
            return self.rng.choice(self.stopwords)
        return self.rng.choice(self.vocab)

    def sentence(self, n: int, stop_share: float = 0.35) -> list[str]:
        toks = [self.word(stop_share) for _ in range(n)]
        toks[-1] = toks[-1] + SENTENCE_END
        return toks

    def lines(self, n_tokens: int, stop_share: float = 0.35) -> list[list[str]]:
        """Sentences (one per line) totalling exactly ``n_tokens`` tokens;
        no two lines are equal."""
        out: list[list[str]] = []
        seen: set[tuple[str, ...]] = set()
        left = n_tokens
        while left > 0:
            n = min(left, self.rng.randint(8, 20))
            if 0 < left - n < 4:
                n = left
            s = self.sentence(n, stop_share)
            if tuple(s) in seen:
                continue
            seen.add(tuple(s))
            out.append(s)
            left -= n
        return out

    def latin(self, n_tokens: int) -> list[list[str]]:
        toks = [self.rng.choice(LATIN_WORDS) for _ in range(n_tokens)]
        return [toks[i : i + 12] for i in range(0, n_tokens, 12)]


def join_lines(lines: list[list[str]], para_every: int = 0) -> str:
    """Lines joined by LF; every ``para_every`` lines a blank line."""
    parts = []
    for i, line in enumerate(lines):
        if i and para_every and i % para_every == 0:
            parts.append("")
        parts.append(" ".join(line))
    return "\n".join(parts)


def respace(rng: random.Random, text: str) -> str:
    """The same text with different whitespace between every token pair."""
    gaps = ("  ", "\t", " \t ", "   ", " ")
    return rng.choice(("", " ", "\n")) + "".join(
        rng.choice(gaps) if ch == " " else ch for ch in text
    )


def pii_strings(rng: random.Random) -> dict[str, str]:
    user = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 9)))
    host = rng.choice(("example.com", "mail.pk", "inbox.org"))
    d = lambda n: "".join(rng.choice("0123456789") for _ in range(n))  # noqa: E731
    phone = rng.choice(
        (f"+92 3{d(2)} {d(7)}", f"03{d(2)}-{d(7)}", f"+92-3{d(2)}-{d(7)}")
    )
    return {
        "EMAIL": f"{user}.{d(2)}@{host}",
        "PHONE": phone,
        "ID": f"{rng.randint(1, 7)}{d(4)}-{d(7)}-{d(1)}",
    }


def plant_pii(rng: random.Random, lines: list[list[str]], kinds) -> tuple[list[list[str]], list[str], list[list[str]]]:
    """Insert one PII string per kind into random lines.

    Returns the input lines, the planted strings, and the lines as the
    scrubber must leave them (each PII string one ``<PII:KIND>`` token).
    """
    lines = [list(l) for l in lines]
    expected = [list(l) for l in lines]
    planted = []
    values = pii_strings(rng)
    # One line per string, so no string lands inside another.
    for kind, i in zip(kinds, rng.sample(range(len(lines)), len(kinds))):
        j = rng.randrange(len(lines[i]))  # before the sentence-final token
        value = values[kind]
        planted.append(value)
        lines[i][j:j] = value.split(" ")
        expected[i][j:j] = [f"<PII:{kind}>"]
    return lines, planted, expected


def flat(lines: list[list[str]]) -> list[str]:
    return [t for l in lines for t in l]


def _record(doc_id: str, source: str, text: str) -> str:
    return json.dumps({"id": doc_id, "source": source, "text": text}, ensure_ascii=False)


def _lengths(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """A fixed multiset of ``n`` lengths spread over [lo, hi], in seeded order,
    so every seed gives the same token total."""
    step = (hi - lo) / max(n - 1, 1)
    out = [lo + round(i * step) for i in range(n)]
    rng.shuffle(out)
    return out


class Corpus:
    """Documents per source in input order, plus their labels."""

    def __init__(self):
        self.by_source: dict[str, list[tuple[str, str]]] = {}
        self.labels: dict[str, dict] = {}

    def add(self, source: str, doc_id: str, text: str, **label) -> None:
        self.by_source.setdefault(source, []).append((doc_id, text))
        label.setdefault("group", None)
        label.setdefault("near_group", None)
        label.setdefault("probe", None)
        self.labels[doc_id] = {"source": source, "n_tokens": len(text.split()), **label}

    def order(self) -> list[str]:
        """Input order as the program reads it: files in sorted name order."""
        return [i for s in sorted(self.by_source) for i, _ in self.by_source[s]]

    def write(self, in_dir: Path) -> None:
        """One ``<source>.jsonl`` per source."""
        in_dir.mkdir(parents=True, exist_ok=True)
        for source in sorted(self.by_source):
            with open(in_dir / f"{source}.jsonl", "w", encoding="utf-8", newline="\n") as fh:
                for doc_id, text in self.by_source[source]:
                    fh.write(_record(doc_id, source, text) + "\n")

    def resolve_dups(self) -> None:
        """Expected dedup stage and kept id for every duplicate group.

        All members of a group share their fingerprint, so the per-source
        pass keeps the first member of each source and the corpus-wide
        pass keeps the first member overall, in input order.
        """
        first_in_source: dict[tuple[str, str], str] = {}
        first_overall: dict[str, str] = {}
        for doc_id in self.order():
            lab = self.labels[doc_id]
            g = lab["group"]
            if g is None or "kept_id" in lab:
                continue
            key = (g, lab["source"])
            if key in first_in_source:
                lab.update(expect="dup", stage="dedup_per_source", kept_id=first_in_source[key])
            elif g in first_overall:
                first_in_source[key] = doc_id
                lab.update(expect="dup", stage="dedup_overall", kept_id=first_overall[g])
            else:
                first_in_source[key] = doc_id
                first_overall[g] = doc_id
                lab["expect"] = "kept"


def _kept(corpus: Corpus, source: str, doc_id: str, lines, expected_lines=None,
          planted=(), para_every=0, group=None, probe=None, near_group=None) -> str:
    text = join_lines(lines, para_every)
    corpus.add(
        source, doc_id, text, expect="kept", group=group, probe=probe, near_group=near_group,
        tokens=flat(expected_lines if expected_lines is not None else lines),
        pii=list(planted),
    )
    return text


def add_probes(corpus: Corpus, stopwords: list[str], n_one_char: int, n_repeat: int) -> None:
    """Seed-independent fault probes in their own source.

    One-character variants swap one letter of a non-stopword token for
    another letter the character table leaves alone. Repeated-line
    copies repeat one line of their base right after itself.
    """
    rng = random.Random(PROBE_SEED)
    maker = TextMaker(rng, stopwords, vocab_size=2000)
    stop = set(stopwords)
    for k in range(n_one_char):
        lines = maker.lines(rng.randint(60, 160))
        base_id, var_id = f"probe-oc{k:03d}", f"probe-oc{k:03d}v"
        _kept(corpus, PROBE_SOURCE, base_id, lines, near_group=base_id, probe="one_char")
        var = [list(l) for l in lines]
        while True:
            i = rng.randrange(len(var))
            j = rng.randrange(len(var[i]))
            tok = var[i][j].rstrip(SENTENCE_END)
            if tok not in stop:
                break
        c = rng.randrange(len(tok))
        new = rng.choice([ch for ch in URDU_LETTERS if ch != tok[c]])
        var[i][j] = var[i][j][:c] + new + var[i][j][c + 1 :]
        _kept(corpus, PROBE_SOURCE, var_id, var, near_group=base_id, probe="one_char")
    for k in range(n_repeat):
        lines = maker.lines(rng.randint(60, 160))
        base_id, copy_id = f"probe-rl{k:03d}", f"probe-rl{k:03d}c"
        _kept(corpus, PROBE_SOURCE, base_id, lines, group=base_id, probe="repeat_line")
        i = rng.randrange(len(lines))
        copy = lines[: i + 1] + [lines[i]] + lines[i + 1 :]
        corpus.add(
            PROBE_SOURCE, copy_id, join_lines(copy), expect="dup",
            stage="dedup_per_source", kept_id=base_id, group=base_id, probe="repeat_line",
        )


def chain_inputs(seed: int, repo: Path, out_dir: Path, scale: float = 1.0) -> dict:
    """Input files and labels for ``forge run``.

    Make-up per seed (counts are fixed; ``scale`` shrinks them for tests):
    Urdu-like documents of 80-400 tokens, some with planted email, phone
    and CNIC strings; multi-paragraph documents of 900-2000 tokens that
    must be split; Latin-script documents; Urdu documents without
    stopwords; whitespace-variant copies within and across sources; and
    the fixed fault probes.
    """
    rng = random.Random(seed)
    stopwords = load_stopwords(repo)
    maker = TextMaker(rng, stopwords)
    corpus = Corpus()
    n = lambda k: max(1, round(k * scale))  # noqa: E731
    bases: list[tuple[str, str, str]] = []
    serial = iter(range(10**6))

    def new_id(source: str) -> str:
        return f"{source}-{next(serial):05d}"

    for length in _lengths(rng, 80, 400, n(250)):
        source = rng.choice(SOURCES)
        doc_id = new_id(source)
        lines = maker.lines(length)
        if rng.random() < 0.15:
            kinds = rng.sample(PII_KINDS, rng.randint(1, 2))
            lines, planted, expected = plant_pii(rng, lines, kinds)
            _kept(corpus, source, doc_id, lines, expected, planted, group=doc_id)
        else:
            # Only PII-free documents get whitespace copies: re-spacing a
            # phone number changes what the scrubber must match.
            bases.append((doc_id, source, _kept(corpus, source, doc_id, lines, group=doc_id)))
    for length in _lengths(rng, 900, 2000, n(24)):
        source = rng.choice(SOURCES)
        doc_id = new_id(source)
        lines = maker.lines(length)
        _kept(corpus, source, doc_id, lines, para_every=rng.randint(3, 6), group=doc_id)
    for length in _lengths(rng, 60, 300, n(20)):
        source = rng.choice(SOURCES)
        corpus.add(source, new_id(source), join_lines(maker.latin(length)),
                   expect="drop", stage="lang_filter", reason="lang_below_threshold")
    for length in _lengths(rng, 60, 300, n(20)):
        source = rng.choice(SOURCES)
        corpus.add(source, new_id(source), join_lines(maker.lines(length, stop_share=0.0)),
                   expect="drop", stage="quality_filter", reason="stopword_low")
    for k in range(n(30)):
        base_id, base_source, text = bases[rng.randrange(len(bases))]
        source = base_source if k % 2 == 0 else rng.choice([s for s in SOURCES if s != base_source])
        corpus.add(source, new_id(source), respace(rng, text), expect="kept", group=base_id,
                   tokens=corpus.labels[base_id]["tokens"], pii=[])
    # Shuffle within each source so copies land before and after their bases.
    for docs in corpus.by_source.values():
        rng.shuffle(docs)
    add_probes(corpus, stopwords, n(20), n(12))
    corpus.resolve_dups()
    corpus.write(out_dir / "in")
    labels = {
        "seed": seed,
        "order": corpus.order(),
        "docs": corpus.labels,
        "split_target": SPLIT_TARGET,
        "input_tokens": sum(l["n_tokens"] for l in corpus.labels.values()),
    }
    (out_dir / "labels.json").write_text(json.dumps(labels, ensure_ascii=False), encoding="utf-8")
    return labels


def incremental_inputs(seed: int, repo: Path, out_dir: Path, scale: float = 1.0) -> dict:
    """A previous collection and a new batch of short single-source documents.

    The previous collection is seeded short documents plus the fixed
    probes, documents with one repeated line. The batch holds new
    documents, exact re-submissions of earlier documents, whitespace
    variants of earlier documents, whitespace copies of batch documents
    (within the batch's source and from a second source), and exact
    re-submissions of the repeated-line probes.
    """
    rng = random.Random(seed)
    stopwords = load_stopwords(repo)
    maker = TextMaker(rng, stopwords)
    n = lambda k: max(1, round(k * scale))  # noqa: E731

    prev = Corpus()
    for i, length in enumerate(_lengths(rng, 25, 70, n(400))):
        _kept(prev, "old", f"old-{i:05d}", maker.lines(length))
    probe_rng = random.Random(PROBE_SEED + 1)
    probe_maker = TextMaker(probe_rng, stopwords, vocab_size=2000)
    probes = []
    for k in range(n(20)):
        lines = probe_maker.lines(probe_rng.randint(25, 70))
        i = probe_rng.randrange(len(lines))
        text = join_lines(lines[: i + 1] + [lines[i]] + lines[i + 1 :])
        doc_id = f"old-rl{k:03d}"
        prev.by_source.setdefault("old", []).append((doc_id, text))
        probes.append((doc_id, text))
    prev.write(out_dir / "prev")
    prev_docs = [(i, t) for i, t in prev.by_source["old"] if not i.startswith("old-rl")]

    batch = Corpus()
    fresh = []
    for i, length in enumerate(_lengths(rng, 25, 70, n(480))):
        doc_id = f"new-{i:05d}"
        text = _kept(batch, "new", doc_id, maker.lines(length), group=doc_id)
        fresh.append((doc_id, text))
    for k, (old_id, text) in enumerate(rng.sample(prev_docs, n(80))):
        if k % 2:
            text = respace(rng, text)
        batch.add("new", f"re-{k:05d}", text, expect="dup", stage="dedup_overall",
                  kept_id=old_id, group=old_id)
    for k, (base_id, text) in enumerate(rng.sample(fresh, n(20))):
        source = "new" if k % 2 == 0 else "mirror"
        lab = batch.labels[base_id]
        batch.add(source, f"cp-{k:05d}", respace(rng, text), expect="kept",
                  group=base_id, tokens=lab["tokens"], pii=[])
    rng.shuffle(batch.by_source["new"])
    for k, (old_id, text) in enumerate(probes):
        batch.add("new", f"re-rl{k:03d}", text, expect="dup", stage="dedup_overall",
                  kept_id=old_id, group=old_id, probe="resubmit_repeat_line")
    batch.resolve_dups()
    batch.write(out_dir / "batch")
    labels = {
        "seed": seed,
        "order": batch.order(),
        "docs": batch.labels,
        "input_tokens": sum(l["n_tokens"] for l in batch.labels.values()),
    }
    (out_dir / "labels.json").write_text(json.dumps(labels, ensure_ascii=False), encoding="utf-8")
    return labels


def pad_fingerprints(seed: int, n: int) -> list[tuple[str, int]]:
    """Random 64-bit fingerprints that pad a sidecar to a large registry."""
    rng = random.Random(seed ^ 0x5EED)
    return [(f"pad-{i:06d}", rng.getrandbits(64)) for i in range(n)]


def bleu_inputs(seed: int, repo: Path, out_dir: Path, scale: float = 1.0) -> dict:
    """Three test sets with several systems each, and a manifest.

    Systems: ``copy`` repeats the references, ``light`` and ``heavy``
    substitute and drop tokens at two rates, ``short`` truncates every
    sentence (brevity penalty), and ``scrambled`` shuffles tokens so
    higher-order precisions hit the epsilon rule.
    """
    rng = random.Random(seed)
    maker = TextMaker(rng, load_stopwords(repo))
    n = lambda k: max(1, round(k * scale))  # noqa: E731
    out_dir.mkdir(parents=True, exist_ok=True)
    sets = []
    names = ("flores", "tatoeba", "ted")
    for name, n_sent in zip(names, (n(900), n(1100), n(1000))):
        refs = [" ".join(maker.sentence(rng.randint(10, 30))) for _ in range(n_sent)]
        systems = {"copy": refs}

        def noisy(rate: float) -> list[str]:
            out = []
            for r in refs:
                toks = []
                for t in r.split():
                    u = rng.random()
                    if u < rate / 2:
                        continue
                    toks.append(maker.word(0.3) if u < rate else t)
                out.append(" ".join(toks) if toks else maker.word(0.3))
            return out

        systems["light"] = noisy(0.15)
        systems["heavy"] = noisy(0.5)
        systems["short"] = [" ".join(r.split()[: max(1, len(r.split()) * 2 // 3)]) for r in refs]
        scrambled = []
        for r in refs:
            toks = r.split()
            rng.shuffle(toks)
            scrambled.append(" ".join(toks))
        systems["scrambled"] = scrambled
        entry = {"name": name, "refs_path": f"{name}.ref.txt", "systems": {}}
        (out_dir / entry["refs_path"]).write_text("\n".join(refs) + "\n", encoding="utf-8")
        for system, hyps in systems.items():
            rel = f"{name}.{system}.txt"
            (out_dir / rel).write_text("\n".join(hyps) + "\n", encoding="utf-8")
            entry["systems"][system] = rel
        sets.append(entry)
    manifest = {"sets": sets, "smoothing": "epsilon"}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    hyp_tokens = 0
    for entry in sets:
        for rel in entry["systems"].values():
            hyp_tokens += len((out_dir / rel).read_text(encoding="utf-8").split())
    labels = {"seed": seed, "manifest": "manifest.json", "hyp_tokens": hyp_tokens,
              "copy_system": "copy"}
    (out_dir / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
    return labels
