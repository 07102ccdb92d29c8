"""The benchmark's traced launcher, perfbench/tracing.py, still runs ``forge``.

The launcher wraps module attributes of ``corpusforge`` by name; if one
of them disappears, every traced benchmark run crashes. Each case runs
the launcher in a fresh interpreter, as the benchmark does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from corpusforge.corpus import Corpus, Document, write_jsonl
from corpusforge.dedup import DedupConfig, DedupRegistry, dedup_pass, write_fingerprints

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

TEXT = "کتاب مدرسہ دریا پہاڑ سورج چاند ستارہ بادل بارش درخت کا کی کے کو نے"
COMMANDS = {
    "run": ["run", "--workers", "1", "--in", "in.jsonl", "--out", "o.jsonl"],
    "dedup": ["dedup", "--workers", "1", "--in", "in.jsonl", "--out", "o.jsonl",
              "--fps-in", "exact.fps", "--fps-out", "new.fps"],
    "dedup_near": ["dedup", "--mode", "near", "--workers", "1", "--in", "in.jsonl",
                   "--out", "o.jsonl", "--fps-in", "near.fps", "--fps-out", "new.fps"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_traced_launcher_runs_forge(tmp_path: Path, command: str):
    docs = [Document(id=f"d{i}", source="s", text=f"{TEXT} {i % 3}") for i in range(6)]
    write_jsonl(Corpus(docs), tmp_path / "in.jsonl")
    # A sidecar of each mode holding the first document.
    for mode in ("exact", "near"):
        cfg = DedupConfig(mode=mode)
        registry = DedupRegistry(cfg)
        dedup_pass(Corpus(docs[:1]), cfg, registry=registry)
        write_fingerprints(tmp_path / f"{mode}.fps", registry.pairs())
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER), "spans.json", *COMMANDS[command]],
        cwd=tmp_path, env=child_env(FORGE_LOG="error"), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads((tmp_path / "spans.json").read_text())["spans"]}
    # Each pass span feeds a per-layer figure (dedup.per_source_s, ...).
    assert {"dedup.pass", "dedup.per_source", "dedup.overall", "dedup.lines", "dedup.probe"} <= names
