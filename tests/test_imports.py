"""Heavy modules load only in the commands that use them: numpy in BLEU
and in near-mode probes at a threshold above 7, the process-pool
machinery in near-mode SimHash at two or more workers, and OpenSSL
(through ``hashlib``) in none. A command that loads numpy runs on one
thread: ``forge`` defaults OPENBLAS_NUM_THREADS to 1, and library use
leaves the variable alone.

Each case runs a fresh interpreter, since this test process has long
imported all of them through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from corpusforge.corpus import Corpus, Document, write_jsonl

TEXT = "کتاب مدرسہ دریا پہاڑ سورج چاند ستارہ بادل بارش درخت کا کی کے کو نے"
# The modules a command loads only on use; ``_hashlib`` is OpenSSL.
LAZY = ("numpy", "_hashlib", "concurrent.futures", "multiprocessing")
# Code for a child: the names of LAZY it has loaded.
LOADED = f"[m for m in {LAZY!r} if m in sys.modules]"
# Code for a child: OPENBLAS_NUM_THREADS and, on Linux, its thread count.
# An OpenBLAS left at its default starts a worker per further core when
# numpy loads, so on a host of one core the count is 1 either way.
THREADS = ("[os.environ.get('OPENBLAS_NUM_THREADS'),"
           " len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None]")
# What THREADS reads after a forge command that loaded numpy.
ONE_THREAD = ["1", 1 if sys.platform == "linux" else None]


def _python(code: str, *args: str, cwd: Path, openblas_threads: str | None = None) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last.

    The child gets OPENBLAS_NUM_THREADS only if ``openblas_threads`` is
    given, since an in-process ``main()`` call earlier in the test session
    has set it in this process.
    """
    env = child_env(FORGE_LOG="error")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _corpus(tmp_path: Path, n: int) -> None:
    """``n`` documents, each text twice; above _parallel's pool threshold
    (256 items), workers 2 forks a pool."""
    docs = [Document(id=f"d{i}", source=f"s{i % 2}", text=f"{TEXT} {i // 2}") for i in range(n)]
    write_jsonl(Corpus(docs), tmp_path / "in.jsonl")


_MAIN = (
    "import json, sys\n"
    "from corpusforge.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(json.dumps({{'code': code, 'loaded': {LOADED}}}))\n"
)


def test_importing_the_package_and_cli_loads_none_of_them(tmp_path: Path):
    out = _python(
        "import json, sys\n"
        "import corpusforge, corpusforge.cli\n"
        f"print(json.dumps({LOADED}))\n",
        cwd=tmp_path,
    )
    assert out == []


def test_exact_mode_run_loads_none_of_them(tmp_path: Path):
    _corpus(tmp_path, 300)
    out = _python(
        _MAIN, "run", "--workers", "2", "--in", "in.jsonl", "--out", "o.jsonl",
        "--report", "r.json",
        cwd=tmp_path,
    )
    assert out == {"code": 0, "loaded": []}
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    dedup = next(stage for stage in report["stages"] if stage["stage"] == "dedup")
    assert dedup["docs_out"] == 150  # the run did dedup


@pytest.mark.parametrize("command", [["dedup", "--mode", "near"], ["run", "--config", "near.json"]],
                         ids=["dedup", "run"])
def test_near_mode_at_one_worker_loads_no_pool_and_no_numpy(tmp_path: Path, command):
    _corpus(tmp_path, 300)
    (tmp_path / "near.json").write_text(json.dumps({"dedup": {"mode": "near"}}), encoding="utf-8")
    out = _python(
        _MAIN, *command, "--workers", "1", "--in", "in.jsonl", "--out", "o.jsonl",
        cwd=tmp_path,
    )
    assert out == {"code": 0, "loaded": []}


def test_near_mode_pool_loads_no_numpy_and_starts_the_class_on_parallel(tmp_path: Path):
    _corpus(tmp_path, 300)
    out = _python(
        "import json, sys\n"
        "from corpusforge import _parallel, dedup\n"
        "from corpusforge.cli import main\n"
        "seen, real = [], dedup.pmap\n"
        "def spy(fn, items, workers=None):\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    return real(fn, items, workers)\n"
        "dedup.pmap = spy\n"
        "args = sys.argv[1:]\n"
        "codes = [main([*args, '--out', 'o1.jsonl'])]\n"
        f"loaded = {LOADED}\n"
        # As a tracer does: a subclass of the class resolved on first use.
        "started = []\n"
        "class Pool(_parallel.ProcessPoolExecutor):\n"
        "    def __init__(self, *a, **k):\n"
        "        started.append(k['max_workers'])\n"
        "        super().__init__(*a, **k)\n"
        "_parallel.ProcessPoolExecutor = Pool\n"
        "codes.append(main([*args, '--out', 'o2.jsonl']))\n"
        "print(json.dumps({'codes': codes, 'seen': seen, 'loaded': loaded,\n"
        "                  'started': started}))\n",
        "dedup", "--mode", "near", "--workers", "2", "--in", "in.jsonl",
        cwd=tmp_path,
    )
    # pmap forks no more workers than there are cores.
    pool = (os.cpu_count() or 1) >= 2
    assert out == {
        "codes": [0, 0],
        "seen": [False, False],
        "loaded": ["concurrent.futures", "multiprocessing"] if pool else [],
        "started": [2] if pool else [],
    }
    assert (tmp_path / "o1.jsonl").read_bytes() == (tmp_path / "o2.jsonl").read_bytes()


@pytest.mark.parametrize("threshold, scans", [(7, False), (8, True)])
def test_near_mode_loads_numpy_only_once_a_probe_scans(tmp_path: Path, threshold, scans):
    _corpus(tmp_path, 300)
    out = _python(
        "import json, os, sys\n"
        "from corpusforge import dedup\n"
        "from corpusforge.cli import main\n"
        # Per probe: the registry's size, and numpy's presence before and after.
        "calls, real = [], dedup.DedupRegistry.probe\n"
        "def spy(self, key):\n"
        "    before = 'numpy' in sys.modules\n"
        "    hit = real(self, key)\n"
        "    calls.append([len(self), before, 'numpy' in sys.modules])\n"
        "    return hit\n"
        "dedup.DedupRegistry.probe = spy\n"
        "code = main(sys.argv[1:])\n"
        f"print(json.dumps({{'code': code, 'calls': calls, 'loaded': {LOADED},\n"
        f"                  'threads': {THREADS}}}))\n",
        "dedup", "--mode", "near", "--hamming", str(threshold), "--workers", "1",
        "--in", "in.jsonl", "--out", "o.jsonl",
        cwd=tmp_path,
    )
    assert out["code"] == 0
    assert out["loaded"] == (["numpy"] if scans else [])
    # Without forge's OPENBLAS_NUM_THREADS default this reads None, and 2
    # threads at threshold 8 on a host of two or more cores.
    assert out["threads"] == ONE_THREAD
    # Keying loads none; one probe loads it, and never a probe of an
    # empty registry, which has nothing to scan.
    assert not out["calls"][0][1]
    loads = [size for size, before, after in out["calls"] if after and not before]
    assert [size > 0 for size in loads] == ([True] if scans else [])


def test_dedup_falls_back_to_hashlib_without_the_builtin_blake2(tmp_path: Path):
    # hashlib takes its blake2b from _blake2, so it is imported before
    # _blake2 is hidden; a wrapper in its place shows dedup calls it.
    out = _python(
        "import hashlib, json, sys\n"
        "sys.modules['_blake2'] = None\n"
        "calls, real = [], hashlib.blake2b\n"
        "def blake2b(*a, **k):\n"
        "    calls.append(1)\n"
        "    return real(*a, **k)\n"
        "hashlib.blake2b = blake2b\n"
        "from corpusforge.dedup import content_digest, simhash\n"
        "text = sys.argv[1]\n"
        "print(json.dumps({'digest': f'{content_digest(text):032x}',\n"
        "                  'simhash': f'{simhash(text):016x}', 'calls': len(calls)}))\n",
        TEXT,
        cwd=tmp_path,
    )
    # One call takes the digest, and SimHash's character table makes one
    # per distinct character of the text on its first lookup.
    assert out == {"digest": "be79f5f99638179c69ba4732507ac29a",
                   "simhash": "5ce474de72390e35", "calls": 1 + len(set("".join(TEXT.split())))}


# The stdout of ``forge bleu`` and ``forge compare`` on the files below,
# as written when numpy was imported with the package and OpenBLAS ran its
# default thread pool.
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
_BLEU_JSON = json.dumps(
    {"smoothing": "epsilon", "systems": ["a", "b"], "sets": ["refs"],
     "scores": {"refs": _BLEU_SCORES}},
    ensure_ascii=False, indent=2,
) + "\n"
_COMPARE_TABLE = (
    "System      s1      s2\n"
    "------  ------  ------\n"
    "a       59.21*       -\n"
    "b        34.10    0.00\n"
    "r            -  57.21*\n"
)
_FORGE = (
    "import contextlib, io, json, os, sys\n"
    "from corpusforge.cli import main\n"
    "buf = io.StringIO()\n"
    "with contextlib.redirect_stdout(buf):\n"
    "    code = main(sys.argv[1:])\n"
    f"print(json.dumps({{'code': code, 'stdout': buf.getvalue(), 'loaded': {LOADED},\n"
    f"                  'threads': {THREADS}}}))\n"
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

    # Without forge's OPENBLAS_NUM_THREADS default the variable reads None
    # here, and the count 2 on a host of two or more cores.
    bleu = _python(_FORGE, "bleu", "--refs", "refs.txt", "--hyp", "a=a.txt", "--hyp", "b.txt",
                   "--format", "json", cwd=tmp_path)
    assert bleu == {"code": 0, "stdout": _BLEU_JSON, "loaded": ["numpy"], "threads": ONE_THREAD}

    compare = _python(_FORGE, "compare", "--manifest", "m.json", cwd=tmp_path)
    assert compare == {"code": 0, "stdout": _COMPARE_TABLE, "loaded": ["numpy"],
                       "threads": ONE_THREAD}

    # A value the caller sets is kept, and the bytes out are the same.
    kept = _python(_FORGE, "compare", "--manifest", "m.json", cwd=tmp_path, openblas_threads="2")
    assert (kept["code"], kept["stdout"], kept["threads"][0]) == (0, _COMPARE_TABLE, "2")


def test_library_use_leaves_openblas_thread_count_unset(tmp_path: Path):
    out = _python(
        "import json, os, sys\n"
        "from corpusforge import EvalSet, compare_systems\n"
        "refs, a, b = (tuple(text.splitlines()) for text in sys.argv[1:])\n"
        "eval_set = EvalSet(name='refs', references=refs, hypotheses={'a': a, 'b': b})\n"
        "stdout = compare_systems([eval_set], fmt='json') + '\\n'\n"
        f"print(json.dumps({{'stdout': stdout, 'loaded': {LOADED}, 'threads': {THREADS}}}))\n",
        _REFS, _HYP_A, _HYP_B,
        cwd=tmp_path,
    )
    assert out["stdout"] == _BLEU_JSON
    assert out["loaded"] == ["numpy"]
    assert out["threads"][0] is None  # only the forge command sets it
