"""Benchmark of the corpusforge command line tool.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates seeded inputs (``gen.py``), then runs one
workload as a closed loop: one ``forge`` command at a time, each a fresh
process started from ``src/`` of this checkout, until the commands have
taken ``--seconds`` of wall time. After every command, and outside the
timed region, ``checks.py`` compares its outputs with the generator's
ground truth. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
commands of the run: ``tokens_per_s``, ``cpu_s`` and ``peak_rss_mb``
(user+system CPU and peak RSS of the command's process and its pool
workers, from ``wait4``), and ``setup_s``, the median wall time of
fresh processes that import ``corpusforge`` and build its config and
default tables. With ``--trace 1`` each command runs under
``tracing.py`` and the metrics are the per-layer figures; the traced
end-to-end figures go to standard error, to show the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

FORGE = "import sys; from corpusforge.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = (
    "from corpusforge.cli import build_parser\n"
    "from corpusforge.normalize import default_table\n"
    "from corpusforge.pipeline import PipelineConfig\n"
    "from corpusforge.quality import QualityConfig, default_pii_rules\n"
    "build_parser(); PipelineConfig(); QualityConfig(); default_table(); default_pii_rules()\n"
)
SETUP_SAMPLES = 7
# Registry size of the seeded sidecar in incremental_near.
SIDECAR_SIZE = 20000


class Env:
    """Where one run keeps its files, and how it starts ``forge``."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(SRC), FORGE_LOG="info")

    def spawn(self, cmd: list[str], stdout: Path) -> tuple[int, float, float, float]:
        """Run one command to its end: (exit code, wall s, CPU s, peak RSS MB).

        CPU and peak RSS come from ``wait4`` and so cover the process and
        every worker it started and reaped.
        """
        with open(stdout, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            # A session of its own, so an aborted run can stop the pool workers too.
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def forge(self, args: list[str], traced: bool | None = None):
        """One ``forge`` command; returns (wall s, CPU s, peak RSS MB, layer metrics)."""
        traced = self.trace if traced is None else traced
        spans = self.work / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-c", FORGE, *args]
        code, wall, cpu, rss = self.spawn(cmd, self.work / "stdout.txt")
        if code != 0:
            tail = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"forge {' '.join(args[:1])} exited with {code}:\n{tail}")
        layers = None
        if traced:
            layers = tracing.layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
            spans.unlink()
        return wall, cpu, rss, layers

    def setup_time(self) -> float:
        code, wall, _, _ = self.spawn([sys.executable, "-c", SETUP], self.work / "setup.txt")
        if code != 0:
            raise RuntimeError("importing corpusforge failed: " +
                               (self.work / "stderr.txt").read_text(errors="replace")[-2000:])
        return wall


class Chain:
    """``forge run`` over the chain corpus (see gen.chain_inputs)."""

    def __init__(self, mode: str, workers: int):
        self.mode, self.workers = mode, workers

    def prepare(self, env: Env, seed: int) -> None:
        self.labels = gen.chain_inputs(seed, ROOT, env.work)
        self.tokens = self.labels["input_tokens"]
        cfg = {"workers": self.workers, "dedup": {"mode": self.mode}}
        (env.work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")

    def args(self) -> list[str]:
        return ["run", "--config", "config.json", "--in", "in/*.jsonl",
                "--out", "out.jsonl", "--report", "report.json"]

    def check(self, env: Env) -> checks.Result:
        res = checks.check_chain(self.labels, env.work / "out.jsonl", env.work / "report.json", self.mode)
        for name in ("out.jsonl", "report.json"):
            (env.work / name).unlink()
        return res


class Incremental:
    """``forge dedup --mode near`` of a new batch against a seeded sidecar.

    The sidecar holds the fingerprints ``forge dedup --fps-out`` wrote
    for a previous collection, padded with random fingerprints to
    SIDECAR_SIZE entries, so the near-mode probe scans a large registry.
    """

    def prepare(self, env: Env, seed: int) -> None:
        self.labels = gen.incremental_inputs(seed, ROOT, env.work)
        self.tokens = self.labels["input_tokens"]
        env.forge(["dedup", "--mode", "near", "--workers", "1", "--in", "prev/*.jsonl",
                   "--out", "prev_out.jsonl", "--fps-out", "prev.fps"], traced=False)
        sys.path.insert(0, str(SRC))
        from corpusforge.dedup import Fingerprint, read_fingerprints, write_fingerprints

        pairs = read_fingerprints(env.work / "prev.fps")
        pad = gen.pad_fingerprints(seed, SIDECAR_SIZE - len(pairs))
        write_fingerprints(env.work / "seen.fps", pairs + [(i, Fingerprint(b)) for i, b in pad])

    def args(self) -> list[str]:
        return ["dedup", "--mode", "near", "--workers", "1", "--in", "batch/*.jsonl",
                "--out", "out.jsonl", "--report", "report.json",
                "--fps-in", "seen.fps", "--fps-out", "out.fps"]

    def check(self, env: Env) -> checks.Result:
        w = env.work
        res = checks.check_incremental(self.labels, w / "out.jsonl", w / "report.json", w / "out.fps")
        for name in ("out.jsonl", "report.json", "out.fps"):
            (w / name).unlink()
        return res


class Bleu:
    """``forge compare`` over a manifest of three test sets."""

    def prepare(self, env: Env, seed: int) -> None:
        self.labels = gen.bleu_inputs(seed, ROOT, env.work / "mt")
        self.tokens = self.labels["hyp_tokens"]
        self.reference = checks.reference_scores(env.work / "mt", self.labels)

    def args(self) -> list[str]:
        return ["compare", "--manifest", "mt/manifest.json", "--format", "json"]

    def check(self, env: Env) -> checks.Result:
        return checks.check_bleu(self.labels, self.reference, env.work / "stdout.txt")


WORKLOADS = {
    "chain_exact_w1": lambda: Chain("exact", 1),
    "chain_near_w2": lambda: Chain("near", 2),
    "incremental_near": Incremental,
    "bleu_three_sets": Bleu,
}
END_TO_END = {"tokens_per_s": "tokens/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = Env(work, trace)
        workload = WORKLOADS[workload_name]()
        workload.prepare(env, seed)
        ops, setups = [], []
        attempted = failed = 0
        unexpected: list[str] = []
        timed = 0.0
        while timed < seconds:
            if len(setups) < SETUP_SAMPLES:
                setups.append(env.setup_time())
            wall, cpu, rss, layers = env.forge(workload.args())
            res = workload.check(env)
            ops.append((wall, cpu, rss, layers))
            timed += wall
            attempted += res.attempted
            failed += res.failed
            unexpected += res.unexpected
        while len(setups) < SETUP_SAMPLES:
            setups.append(env.setup_time())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    med = statistics.median
    e2e = {
        "tokens_per_s": med(workload.tokens / w for w, _, _, _ in ops),
        "cpu_s": med(c for _, c, _, _ in ops),
        "peak_rss_mb": med(r for _, _, r, _ in ops),
        "setup_s": med(setups),
    }
    summary = ", ".join(f"{k}={v:.4g}" for k, v in e2e.items())
    print(f"{workload_name} seed={seed} trace={int(trace)} commands={len(ops)}: {summary}",
          file=sys.stderr)
    print("walls " + " ".join(f"{w:.3f}" for w, _, _, _ in ops), file=sys.stderr)
    for line in unexpected[:20]:
        print(f"unexpected: {line}", file=sys.stderr)
    if trace:
        metrics = {
            name: {"value": med(op[3][name] for op in ops), "unit": unit}
            for name, unit in tracing.PER_LAYER.items()
        }
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A terminated run still kills its running command and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "corpusforge" / "__init__.py").is_file():
        print(f"run.py: no corpusforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
