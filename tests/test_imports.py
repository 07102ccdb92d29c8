"""numpy is loaded only by near-mode dedup and BLEU, on first use.

Each case runs a fresh interpreter, since this test process has long
imported numpy through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import corpusforge
from corpusforge.corpus import Corpus, Document, write_jsonl

TEXT = "کتاب مدرسہ دریا پہاڑ سورج چاند ستارہ بادل بارش درخت کا کی کے کو نے"


def _python(code: str, *args: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    # The child runs in ``cwd``, where a relative PYTHONPATH no longer
    # resolves; put the root of the package under test in front.
    pythonpath = [str(Path(corpusforge.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), FORGE_LOG="error")
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _corpus(tmp_path: Path, n: int) -> None:
    """``n`` documents, each text twice; above _parallel's pool threshold
    (256 items), workers 2 forks a pool."""
    docs = [Document(id=f"d{i}", source=f"s{i % 2}", text=f"{TEXT} {i // 2}") for i in range(n)]
    write_jsonl(Corpus(docs), tmp_path / "in.jsonl")


def test_importing_the_package_and_cli_loads_no_numpy(tmp_path: Path):
    out = _python(
        "import json, sys\n"
        "import corpusforge, corpusforge.cli\n"
        "print(json.dumps('numpy' in sys.modules))\n",
        cwd=tmp_path,
    )
    assert out is False


def test_exact_mode_run_loads_no_numpy(tmp_path: Path):
    _corpus(tmp_path, 40)
    out = _python(
        "import json, sys\n"
        "from corpusforge.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))\n",
        "run", "--workers", "2", "--in", "in.jsonl", "--out", "o.jsonl",
        "--report", "r.json",
        cwd=tmp_path,
    )
    assert out == {"code": 0, "numpy": False}
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    dedup = next(stage for stage in report["stages"] if stage["stage"] == "dedup")
    assert dedup["docs_out"] == 20  # the run did dedup


def test_near_mode_imports_numpy_before_the_dedup_pool(tmp_path: Path):
    _corpus(tmp_path, 300)
    out = _python(
        "import json, sys\n"
        "from corpusforge import dedup\n"
        "from corpusforge.cli import main\n"
        "seen, real = [], dedup.pmap\n"
        "def spy(fn, items, workers=None):\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    return real(fn, items, workers)\n"
        "dedup.pmap = spy\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'seen': seen}))\n",
        "dedup", "--mode", "near", "--workers", "2", "--in", "in.jsonl", "--out", "o.jsonl",
        cwd=tmp_path,
    )
    assert out == {"code": 0, "seen": [True]}


# The stdout of ``forge bleu`` and ``forge compare`` on the files below,
# as written when numpy was imported with the package.
_REFS = "the cat sat on the mat\nیہ ایک کتاب ہے\na b c d e f\n"
_HYP_A = "the cat sat on a mat\nیہ کتاب ہے\na b c d e g\n"
_HYP_B = "cat the mat on sat\nیہ ایک کتاب ہے\na b\n"
_BLEU_SCORES = {
    "a": {
        "score": 59.21225733398404,
        "precisions": [0.8666666666666667, 0.6666666666666666, 0.5555555555555556, 0.5],
        "brevity_penalty": 0.9355069850316178,
        "hyp_length": 15,
        "ref_length": 16,
    },
    "b": {
        "score": 34.103433521328895,
        "precisions": [1.0, 0.625, 0.4, 0.3333333333333333],
        "brevity_penalty": 0.6347364189402819,
        "hyp_length": 11,
        "ref_length": 16,
    },
}
_COMPARE_TABLE = (
    "System      s1      s2\n"
    "------  ------  ------\n"
    "a       59.21*       -\n"
    "b        34.10    0.00\n"
    "r            -  57.21*\n"
)
_FORGE = (
    "import contextlib, io, json, sys\n"
    "from corpusforge.cli import main\n"
    "buf = io.StringIO()\n"
    "with contextlib.redirect_stdout(buf):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps({'code': code, 'stdout': buf.getvalue(), 'numpy': 'numpy' in sys.modules}))\n"
)


def test_bleu_and_compare_score_the_same_bytes(tmp_path: Path):
    for name, text in (("refs.txt", _REFS), ("a.txt", _HYP_A), ("b.txt", _HYP_B)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    manifest = {
        "sets": [
            {"name": "s1", "refs_path": "refs.txt", "systems": {"a": "a.txt", "b": "b.txt"}},
            {"name": "s2", "refs_path": "a.txt", "systems": {"b": "b.txt", "r": "refs.txt"}},
        ],
        "smoothing": "none",
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest), encoding="utf-8")

    bleu = _python(_FORGE, "bleu", "--refs", "refs.txt", "--hyp", "a=a.txt", "--hyp", "b.txt",
                   "--format", "json", cwd=tmp_path)
    payload = {"smoothing": "epsilon", "systems": ["a", "b"], "sets": ["refs"],
               "scores": {"refs": _BLEU_SCORES}}
    expected = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    assert bleu == {"code": 0, "stdout": expected, "numpy": True}

    compare = _python(_FORGE, "compare", "--manifest", "m.json", cwd=tmp_path)
    assert compare == {"code": 0, "stdout": _COMPARE_TABLE, "numpy": True}
