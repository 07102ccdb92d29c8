"""Tests of the benchmark itself: generator determinism, and that each
output check flags a deliberately corrupted output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
from corpusforge.cli import main as forge_main  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("make", [gen.chain_inputs, gen.incremental_inputs, gen.bleu_inputs])
def test_same_seed_gives_identical_inputs(tmp_path: Path, make):
    make(7, ROOT, tmp_path / "a", scale=0.1)
    make(7, ROOT, tmp_path / "b", scale=0.1)
    make(8, ROOT, tmp_path / "c", scale=0.1)
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert "labels.json" in a
    assert a != c


def test_fault_probes_do_not_depend_on_the_seed(tmp_path: Path):
    gen.chain_inputs(1, ROOT, tmp_path / "a", scale=0.1)
    gen.chain_inputs(2, ROOT, tmp_path / "b", scale=0.1)
    probe = Path("in") / f"{gen.PROBE_SOURCE}.jsonl"
    assert (tmp_path / "a" / probe).read_bytes() == (tmp_path / "b" / probe).read_bytes()


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    """A small chain corpus run through ``forge run`` in exact mode."""
    work = tmp_path_factory.mktemp("chain")
    labels = gen.chain_inputs(3, ROOT, work, scale=0.2)
    (work / "config.json").write_text(json.dumps({"workers": 1, "dedup": {"mode": "exact"}}))
    code = forge_main([
        "run", "--config", str(work / "config.json"), "--in", str(work / "in" / "*.jsonl"),
        "--out", str(work / "out.jsonl"), "--report", str(work / "report.json"),
    ])
    assert code == 0
    return work, labels


def _check(work: Path, labels: dict, records: list[dict]) -> checks.Result:
    out = work / "corrupt.jsonl"
    out.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    return checks.check_chain(labels, out, work / "report.json", "exact")


def test_untouched_output_has_only_known_faults(chain_run):
    work, labels = chain_run
    res = checks.check_chain(labels, work / "out.jsonl", work / "report.json", "exact")
    assert res.correct, res.unexpected
    assert res.attempted == len(labels["docs"])
    faults = {fault for _, fault in res.failures.values()}
    assert faults <= {checks.FAULT_EXACT, checks.FAULT_LINE_ORDER}


def test_missing_kept_document_is_flagged(chain_run):
    work, labels = chain_run
    records = checks.read_jsonl(work / "out.jsonl")
    victim = next(i for i in labels["order"]
                  if labels["docs"][i]["expect"] == "kept" and labels["docs"][i]["probe"] is None)
    res = _check(work, labels, [r for r in records if r["id"].split("#")[0] != victim])
    assert not res.correct
    assert victim in res.failures


def test_extra_duplicate_is_flagged(chain_run):
    work, labels = chain_run
    records = checks.read_jsonl(work / "out.jsonl")
    dup_id, lab = next((i, l) for i, l in labels["docs"].items()
                       if l["expect"] == "dup" and l["probe"] is None)
    kept = [r for r in records if r["id"].split("#")[0] == lab["kept_id"]]
    extra = [dict(r, id=r["id"].replace(lab["kept_id"], dup_id, 1)) for r in kept]
    res = _check(work, labels, records + extra)
    assert not res.correct
    assert dup_id in res.failures


def test_surviving_email_is_flagged(chain_run):
    work, labels = chain_run
    records = checks.read_jsonl(work / "out.jsonl")
    doc_id, email = next((i, v) for i, l in labels["docs"].items()
                         if l["expect"] == "kept" for v in l.get("pii", []) if "@" in v)
    for r in records:
        if r["id"].split("#")[0] == doc_id and "<PII:EMAIL>" in r["text"]:
            r["text"] = r["text"].replace("<PII:EMAIL>", email, 1)
            break
    else:
        pytest.fail("the scrubbed email is not in the output")
    res = _check(work, labels, records)
    assert not res.correct
    assert "PII" in res.failures[doc_id][0]


def test_altered_bleu_score_is_flagged(tmp_path: Path, capsys):
    labels = gen.bleu_inputs(5, ROOT, tmp_path, scale=0.02)
    capsys.readouterr()
    assert forge_main(["compare", "--manifest", str(tmp_path / "manifest.json"), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    out = tmp_path / "stdout.txt"
    out.write_text(json.dumps(payload), encoding="utf-8")
    reference = checks.reference_scores(tmp_path, labels)
    clean = checks.check_bleu(labels, reference, out)
    assert clean.correct and clean.failed == 0 and clean.attempted == 15
    assert payload["scores"]["flores"]["copy"]["score"] == 100.0

    payload["scores"]["ted"]["light"]["score"] += 1e-6
    out.write_text(json.dumps(payload), encoding="utf-8")
    res = checks.check_bleu(labels, reference, out)
    assert not res.correct
    assert list(res.failures) == ["ted/light"]
