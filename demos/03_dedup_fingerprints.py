"""Fingerprints, Hamming distance, and incremental deduplication.

Shows what the 64-bit near-mode fingerprints look like (plain ints, like
every dedup key), how whitespace edits and single-character edits move
them, and how a sidecar of the keys a run kept lets a later batch dedup
against an earlier one without re-reading it.

A near-mode fingerprint is a SimHash over character 4-shingles, each
hashed by simple tabulation from a per-character table. Its values
changed when tabulation replaced a keyed blake2b per shingle, and a
sidecar names no hash version, so a near-mode sidecar written before
that must be regenerated. Exact-mode keys did not change.
"""

import random
import tempfile
from pathlib import Path

from corpusforge import Corpus, DedupConfig, Document, dedup_pass, simhash
from corpusforge.dedup import DedupRegistry, read_sidecar, write_fingerprints

ALPHABET = "ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے"
rng = random.Random(20250825)


def random_doc(n=400):
    return "".join(rng.choice(ALPHABET) for _ in range(n))


# Whitespace never matters: the text is stripped of all spacing before
# shingling, so reflowed copies collide exactly.
a = "یہ ایک لمبا جملہ ہے جو بار بار آتا ہے"
b = "یہ  ایک\nلمبا جملہ ہے جو بار\tبار آتا ہے"
print(f"fingerprint(a) = {simhash(a):016x}")
print(f"fingerprint(b) = {simhash(b):016x}")
print(f"space-variant distance: {(simhash(a) ^ simhash(b)).bit_count()}\n")

# A one-character edit moves only a few bits; unrelated text lands about
# half the 64 bits away.
base = random_doc()
edited = "x" + base[1:]
other = random_doc()
print(f"one-char edit distance:  {(simhash(base) ^ simhash(edited)).bit_count()}")
print(f"unrelated doc distance:  {(simhash(base) ^ simhash(other)).bit_count()}\n")

# Exact mode keys on a digest of the whitespace-free content, so it drops
# only docs with the same content; near mode drops anything within the
# Hamming threshold of a kept fingerprint.
corpus = Corpus(
    [
        Document(id="orig", source="s", text=base),
        Document(id="reflow", source="s", text=" ".join(base)),
        Document(id="edit", source="s", text=edited),
        Document(id="other", source="s", text=other),
    ]
)
for cfg in (DedupConfig(mode="exact"), DedupConfig(mode="near", hamming_threshold=6)):
    kept, report = dedup_pass(corpus, cfg)
    survivors = [d.id for d in kept]
    print(f"{cfg.mode:5s} mode keeps {survivors}")
    for d in report.drop_details:
        print(f"      dropped {d.doc_id} (matched {d.kept_id})")

# Incremental runs: persist the keys batch one kept, then seed the
# registry for batch two. The copy in batch two is charged to batch one.
# An exact-mode sidecar holds 32-hex-digit content digests.
with tempfile.TemporaryDirectory() as tmp:
    sidecar = Path(tmp) / "batch1.fps"
    batch1 = Corpus([Document(id="b1-0", source="s", text=base)])
    registry = DedupRegistry(DedupConfig())
    dedup_pass(batch1, DedupConfig(), registry=registry)
    write_fingerprints(sidecar, registry.pairs())
    print(f"\nsidecar line: {sidecar.read_text().strip()}")

    # read_sidecar checks that every key is an exact-mode key.
    registry = DedupRegistry(DedupConfig())
    registry.extend(*read_sidecar(sidecar, "exact")[:2])
    batch2 = Corpus(
        [
            Document(id="b2-copy", source="s", text=" " + base),
            Document(id="b2-new", source="s", text=random_doc()),
        ]
    )
    kept, report = dedup_pass(batch2, DedupConfig(), registry=registry)
    print(f"batch two keeps {[d.id for d in kept]}")
    for d in report.drop_details:
        print(f"  dropped {d.doc_id}: duplicate of earlier {d.kept_id}")
