"""Output checks that do not use the program under test.

Every check compares what a ``forge`` command wrote against the
generator's labels (``gen.py``) or against a property the method must
have. A document, or a BLEU score, is one operation: it passes or fails
on its own. A failure that matches one of the two known faults of the
program is a counted failure; anything else also clears ``correct``.

Known faults, each exercised only by the fixed probes:

``exact_not_exact``
    ``exact`` dedup keys on the 64-bit SimHash, so a one-character
    variant that lands at Hamming distance 0 is dropped as a duplicate.
``fingerprint_before_line_dedup``
    Document fingerprints are taken before repeated lines are removed,
    so a copy that differs only by a repeated line survives document
    dedup and ends up byte-identical to its base.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

FAULT_EXACT = "exact_not_exact"
FAULT_LINE_ORDER = "fingerprint_before_line_dedup"
BLEU_TOLERANCE = 1e-9


@dataclass
class Result:
    """Outcome of checking one command's outputs."""

    attempted: int = 0
    failures: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def fail(self, op: str, why: str, fault: str | None = None) -> None:
        if op not in self.failures:
            self.failures[op] = (why, fault)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> list[str]:
        """Failures not explained by a known fault, and whole-output errors."""
        out = [f"{op}: {why}" for op, (why, fault) in self.failures.items() if fault is None]
        return out + self.errors

    @property
    def correct(self) -> bool:
        return not self.unexpected


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _content(text: str) -> str:
    return "".join(text.split())


def _group_chunks(records: list[dict], res: Result) -> dict[str, list[dict]]:
    """Output records by parent document id, in chunk order."""
    by_parent: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("token_count") != len(rec.get("text", "").split()):
            res.errors.append(f"record {rec.get('id')!r}: token_count does not match its text")
        parent = rec["id"].split("#", 1)[0]
        by_parent.setdefault(parent, []).append(rec)
    return by_parent


def _chunk_ids_ok(parent: str, chunks: list[dict]) -> bool:
    if len(chunks) == 1 and chunks[0]["id"] == parent:
        return True
    return [c["id"] for c in chunks] == [f"{parent}#{k}" for k in range(len(chunks))]


def _drops(stages: list[dict]) -> dict[str, tuple[str, str, str | None]]:
    """Dropped id -> (stage, reason, kept_id); dedup drops under their pass."""
    out = {}
    for st in stages:
        subs = st.get("sub_reports") or [st]
        for sub in subs:
            for d in sub.get("drops", []):
                out[d["id"]] = (sub["stage"], d["reason"], d.get("kept_id"))
    return out


def _check_conservation(stages: list[dict], res: Result, where: str = "") -> None:
    for st in stages:
        name = where + st["stage"]
        dropped = sum(st["drop_reasons"].values())
        if st["stage"] == "split":
            # Splitting only adds documents and never changes a token.
            if dropped or st["docs_out"] < st["docs_in"] or st["tokens_out"] != st["tokens_in"]:
                res.errors.append(f"{name}: splitting dropped documents or changed the token total")
        elif dropped != st["docs_in"] - st["docs_out"]:
            res.errors.append(f"{name}: drop reasons sum to {dropped}, not docs_in - docs_out")
        if len(st.get("drops", [])) != dropped:
            res.errors.append(f"{name}: {len(st.get('drops', []))} drop details for {dropped} drops")
        subs = st.get("sub_reports", [])
        if subs:
            if subs[0]["docs_in"] != st["docs_in"] or subs[0]["tokens_in"] != st["tokens_in"]:
                res.errors.append(f"{name}: first pass does not start from the stage input")
            if subs[-1]["docs_out"] != st["docs_out"] or subs[-1]["tokens_out"] != st["tokens_out"]:
                res.errors.append(f"{name}: last pass does not end at the stage output")
            _check_conservation(subs, res, where=name + "/")
    for prev, nxt in zip(stages, stages[1:]):
        if (nxt["docs_in"], nxt["tokens_in"]) != (prev["docs_out"], prev["tokens_out"]):
            res.errors.append(f"{where}{nxt['stage']}: input does not equal {prev['stage']} output")


def _line_order_fault(lab: dict) -> str | None:
    """The known fault a repeated-line probe that was kept shows."""
    return FAULT_LINE_ORDER if lab["probe"] in ("repeat_line", "resubmit_repeat_line") else None


def _check_docs(labels: dict, records: list[dict], stages: list[dict], mode: str,
                max_chunk: int | None, res: Result) -> None:
    """One operation per labelled document: its disposition and its output."""
    docs = labels["docs"]
    by_parent = _group_chunks(records, res)
    for parent in by_parent:
        if parent not in docs:
            res.errors.append(f"output holds a document that was never input: {parent!r}")
    drops = _drops(stages)
    members: dict[str, set[str]] = {}
    for doc_id, lab in docs.items():
        for key in ("group", "near_group"):
            if lab[key] is not None:
                members.setdefault(lab[key], {lab[key]}).add(doc_id)

    seen_content: dict[str, str] = {}
    for doc_id in labels["order"]:
        lab = docs[doc_id]
        res.attempted += 1
        chunks = by_parent.get(doc_id)
        drop = drops.get(doc_id)
        if chunks and drop:
            res.fail(doc_id, f"both in the output and dropped as {drop}")
            continue
        if chunks:
            content = _content("".join(c["text"] for c in chunks))
            earlier = seen_content.setdefault(content, doc_id)
            if earlier != doc_id:
                res.fail(doc_id, f"kept, with the same content as {earlier}", _line_order_fault(lab))
                continue
        if lab["expect"] == "kept":
            if drop is not None:
                _, reason, kept_id = drop
                near = lab["near_group"]
                if near is not None and reason == "dup_doc" and kept_id in members[near]:
                    if mode == "exact":
                        res.fail(doc_id, f"distinct content dropped as exact duplicate of {kept_id}",
                                 FAULT_EXACT)
                    continue  # a near duplicate within the threshold: a valid drop
                res.fail(doc_id, f"expected kept, dropped as {drop}")
                continue
            if not chunks:
                res.fail(doc_id, "expected kept, missing from the output")
                continue
            _check_kept(doc_id, lab, chunks, max_chunk, res)
        elif lab["expect"] == "drop":
            if drop is None or drop[:2] != (lab["stage"], lab["reason"]):
                res.fail(doc_id, f"expected drop at {lab['stage']} ({lab['reason']}), got {drop}")
        else:  # a duplicate
            if drop is None:
                res.fail(doc_id, f"expected dup of {lab['kept_id']}, kept", _line_order_fault(lab))
                continue
            stage, reason, kept_id = drop
            group = members.get(lab["group"], {lab["group"]})
            if stage != lab["stage"] or reason != "dup_doc" or kept_id not in group:
                res.fail(doc_id, f"expected dup of {lab['kept_id']} at {lab['stage']}, got {drop}")


def _check_kept(doc_id: str, lab: dict, chunks: list[dict], max_chunk: int | None, res: Result) -> None:
    if not _chunk_ids_ok(doc_id, chunks):
        res.fail(doc_id, f"chunk ids {[c['id'] for c in chunks]} do not run {doc_id}#0...")
        return
    text = "\n".join(c["text"] for c in chunks)
    for value in lab.get("pii", []):
        if value in text:
            res.fail(doc_id, f"planted PII {value!r} survived")
            return
    tokens = text.split()
    if tokens != lab["tokens"]:
        res.fail(doc_id, "output tokens differ from the generator's tokens")
        return
    if max_chunk is not None:
        longest = max(len(c["text"].split()) for c in chunks)
        if longest > max_chunk:
            res.fail(doc_id, f"a chunk of {longest} tokens exceeds {max_chunk}")
        elif len(chunks) == 1 and len(tokens) > max_chunk:
            res.fail(doc_id, "an over-length document was not split")


def check_chain(labels: dict, out_path: Path, report_path: Path, mode: str) -> Result:
    """``forge run`` output and report against the chain labels."""
    res = Result()
    records = read_jsonl(out_path)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    stages = report["stages"]
    names = [s["stage"] for s in stages]
    expected = ["ingest", "lang_filter", "standardize", "quality_filter", "pii_scrub", "dedup", "split"]
    if names != expected:
        res.errors.append(f"report stages {names} are not {expected}")
        return res
    max_chunk = int(1.5 * labels["split_target"])
    _check_docs(labels, records, stages, mode, max_chunk, res)
    _check_conservation(stages, res)

    docs = labels["docs"]
    n_in = len(docs)
    out_tokens = sum(r["token_count"] for r in records)
    if (stages[0]["docs_in"], stages[0]["tokens_in"]) != (n_in, labels["input_tokens"]):
        res.errors.append("ingest counts differ from the generated input")
    if (stages[-1]["docs_out"], stages[-1]["tokens_out"]) != (len(records), out_tokens):
        res.errors.append("split output counts differ from the output file")
    orig: Counter = Counter()
    for lab in docs.values():
        orig[lab["source"]] += lab["n_tokens"]
    final: Counter = Counter()
    for r in records:
        final[r["source"]] += r["token_count"]
    for src, row in report["sources"].items():
        if row["original_tokens"] != orig[src] or row["final_tokens"] != final[src]:
            res.errors.append(f"source {src!r}: report token totals differ from input/output")
    if set(report["sources"]) != set(orig):
        res.errors.append("report sources differ from the input sources")
    if (report["original_tokens"], report["final_tokens"]) != (labels["input_tokens"], out_tokens):
        res.errors.append("report totals differ from input/output")
    return res


def check_incremental(labels: dict, out_path: Path, report_path: Path, fps_out: Path) -> Result:
    """``forge dedup --fps-in/--fps-out`` output, report and sidecar."""
    res = Result()
    records = read_jsonl(out_path)
    stages = json.loads(report_path.read_text(encoding="utf-8"))["stages"]
    if [s["stage"] for s in stages] != ["dedup"]:
        res.errors.append("report does not hold exactly the dedup stage")
        return res
    _check_docs(labels, records, stages, "near", None, res)
    _check_conservation(stages, res)
    if (stages[0]["docs_in"], stages[0]["tokens_in"]) != (len(labels["docs"]), labels["input_tokens"]):
        res.errors.append("dedup input counts differ from the generated batch")
    sidecar = fps_out.read_text(encoding="utf-8").splitlines()
    ids = []
    for line in sidecar:
        parts = line.split("\t")
        if len(parts) != 2 or len(parts[1]) != 16 or any(c not in "0123456789abcdef" for c in parts[1]):
            res.errors.append(f"bad sidecar line {line!r}")
            break
        ids.append(parts[0])
    if ids != [r["id"] for r in records]:
        res.errors.append("--fps-out ids are not the kept documents in output order")
    return res


def reference_bleu(hyps: list[str], refs: list[str]) -> tuple[float, int, int]:
    """Corpus BLEU-4 from scratch: clipped counts summed over the set,
    uniform weights, brevity penalty exp(1 - r/c) when c < r, and the
    epsilon rule (a zero precision becomes 1 / (2 * n-grams of that
    order); with no n-grams of an order the score is 0).

    Returns (score on 0-100, hypothesis length, reference length).
    """
    matched = [0, 0, 0, 0]
    possible = [0, 0, 0, 0]
    c = r = 0
    for hyp, ref in zip(hyps, refs):
        h, g = hyp.split(), ref.split()
        c += len(h)
        r += len(g)
        for n in range(1, 5):
            h_counts = Counter(tuple(h[i : i + n]) for i in range(len(h) - n + 1))
            g_counts = Counter(tuple(g[i : i + n]) for i in range(len(g) - n + 1))
            matched[n - 1] += sum(min(k, g_counts[ng]) for ng, k in h_counts.items())
            possible[n - 1] += max(len(h) - n + 1, 0)
    logs = []
    for m, p in zip(matched, possible):
        if p == 0:
            return 0.0, c, r
        logs.append(math.log(m / p if m else 1.0 / (2 * p)))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(logs) / 4), c, r


def reference_scores(bench_dir: Path, labels: dict) -> dict[str, tuple[float, int, int]]:
    """``reference_bleu`` of every system on every set, keyed "set/system"."""
    manifest = json.loads((bench_dir / labels["manifest"]).read_text(encoding="utf-8"))
    out = {}
    for entry in manifest["sets"]:
        refs = (bench_dir / entry["refs_path"]).read_text(encoding="utf-8").splitlines()
        for system, rel in entry["systems"].items():
            hyps = (bench_dir / rel).read_text(encoding="utf-8").splitlines()
            out[f"{entry['name']}/{system}"] = reference_bleu(hyps, refs)
    return out


def check_bleu(labels: dict, reference: dict[str, tuple[float, int, int]], stdout_path: Path) -> Result:
    """``forge compare --format json`` scores against ``reference_scores``."""
    res = Result()
    payload = json.loads(stdout_path.read_text(encoding="utf-8"))
    scores = payload.get("scores", {})
    if payload.get("smoothing") != "epsilon":
        res.errors.append(f"smoothing is {payload.get('smoothing')!r}, not 'epsilon'")
    for op, (want, c, r) in reference.items():
        name, system = op.split("/")
        res.attempted += 1
        if system == labels["copy_system"] and want != 100.0:
            res.errors.append(f"{op}: the reference gives {want} for a copy system")
        got = scores.get(name, {}).get(system)
        if got is None:
            res.fail(op, "score missing")
        elif abs(got["score"] - want) > BLEU_TOLERANCE:
            res.fail(op, f"score {got['score']!r} differs from reference {want!r}")
        elif (got["hyp_length"], got["ref_length"]) != (c, r):
            res.fail(op, f"lengths {got['hyp_length']}/{got['ref_length']} are not {c}/{r}")
    return res
