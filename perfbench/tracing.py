"""Traced ``forge`` launcher and the per-layer figures drawn from its spans.

Usage: ``python3 perfbench/tracing.py SPANS.json FORGE_ARGS...``

The launcher wraps public functions of the ``corpusforge`` modules from
outside (module attributes and class methods; nothing under ``src/``
changes), runs ``corpusforge.cli.main`` with the given arguments, and
writes the spans it kept in memory to SPANS.json when the command ends.
A span is ``[name, parent index, start, end, attrs]``. Calls made inside
pool worker processes run the wrappers too, but their spans stay in the
worker and are not collected; ``parallel.pmap`` spans, which run in the
main process, still cover the whole stage.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "corpus.read_s": "s",
    "corpus.write_s": "s",
    "corpus.bytes_read": "bytes",
    "langid.filter_s": "s",
    "normalize.standardize_s": "s",
    "normalize.split_s": "s",
    "normalize.chunks_out": "count",
    "quality.filter_s": "s",
    "quality.pii_s": "s",
    "quality.pii_replacements": "count",
    "dedup.per_source_s": "s",
    "dedup.overall_s": "s",
    "dedup.lines_s": "s",
    "dedup.fingerprint_s": "s",
    "dedup.simhash_calls": "count",
    "dedup.simhash_per_doc": "calls/doc",
    "dedup.probe_s": "s",
    "dedup.probe_calls": "count",
    "dedup.registry_size": "count",
    "dedup.sidecar_read_s": "s",
    "dedup.sidecar_write_s": "s",
    "parallel.pools_started": "count",
    "parallel.pmap_calls": "count",
    "parallel.pmap_s": "s",
    "pipeline.self_s": "s",
    "report.render_s": "s",
    "mteval.bleu_s": "s",
    "mteval.bleu_calls": "count",
    "mteval.compare_s": "s",
}

# Span name -> the per-layer time it adds to.
_TIMED = {
    "corpus.read": "corpus.read_s",
    "corpus.write": "corpus.write_s",
    "langid.filter": "langid.filter_s",
    "normalize.standardize": "normalize.standardize_s",
    "normalize.split": "normalize.split_s",
    "quality.filter": "quality.filter_s",
    "quality.pii": "quality.pii_s",
    "dedup.per_source": "dedup.per_source_s",
    "dedup.overall": "dedup.overall_s",
    "dedup.lines": "dedup.lines_s",
    "dedup.probe": "dedup.probe_s",
    "dedup.sidecar_read": "dedup.sidecar_read_s",
    "dedup.sidecar_write": "dedup.sidecar_write_s",
    "parallel.pmap": "parallel.pmap_s",
    "mteval.bleu": "mteval.bleu_s",
    "mteval.compare": "mteval.compare_s",
}


class Tracer:
    """Spans and counters kept in memory for one traced command."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``name`` is a span name or a function of the call's arguments;
        ``attrs(args, kwargs, result)`` returns numbers kept on the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span_name = name(args, kwargs) if callable(name) else name
            span = [span_name, self._stack[-1] if self._stack else None, time.perf_counter(), None, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        from corpusforge import _parallel, cli, dedup, langid, mteval, normalize, pipeline, quality, report

        def arg(args, kwargs, i, key):
            return args[i] if len(args) > i else kwargs[key]

        self.wrap(pipeline, "read_jsonl", "corpus.read",
                  lambda a, k, r: {"bytes": os.path.getsize(arg(a, k, 0, "path"))})
        self.wrap(cli, "write_jsonl", "corpus.write")
        self.wrap(pipeline, "filter_language", "langid.filter")
        self.wrap(pipeline, "standardize_corpus", "normalize.standardize")
        self.wrap(pipeline, "split_corpus", "normalize.split",
                  lambda a, k, r: {"chunks_out": len(r[0])})
        self.wrap(pipeline, "filter_quality", "quality.filter")
        self.wrap(pipeline, "scrub_corpus_pii", "quality.pii",
                  lambda a, k, r: {"replacements": sum(
                      n for key, n in r[1].counters.items() if key != "docs_changed")})
        for owner in (pipeline, cli):
            self.wrap(owner, "dedup_pass", "dedup.pass",
                      lambda a, k, r: {"docs_in": len(arg(a, k, 0, "corpus"))})
        self.wrap(dedup, "dedup_documents",
                  lambda a, k: "dedup.per_source" if k.get("group_by_source") else "dedup.overall")
        self.wrap(dedup, "dedup_corpus_lines", "dedup.lines")
        self.wrap(dedup.DedupRegistry, "probe", "dedup.probe",
                  lambda a, k, r: {"registry_size": len(a[0])})
        self.wrap(cli, "read_fingerprints", "dedup.sidecar_read")
        self.wrap(cli, "write_fingerprints", "dedup.sidecar_write")
        for owner in (dedup, langid, normalize, quality):
            self.wrap(owner, "pmap", "parallel.pmap",
                      lambda a, k, r: {"items": len(r), "fn": _fn_name(arg(a, k, 0, "fn"))})
        self.wrap(cli, "run_pipeline", "pipeline.run")
        self.wrap(cli, "render_report", "report.render")
        self.wrap(report.PipelineReport, "to_dict", "report.to_dict")
        self.wrap(cli, "compare_systems", "mteval.compare")
        self.wrap(mteval, "corpus_bleu", "mteval.bleu")

        tracer = self
        base_pool = _parallel.ProcessPoolExecutor

        class CountingPool(base_pool):
            def __init__(self, *args, **kwargs):
                tracer.counters["pools"] = tracer.counters.get("pools", 0) + 1
                super().__init__(*args, **kwargs)

        _parallel.ProcessPoolExecutor = CountingPool

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _fn_name(fn) -> str:
    return getattr(getattr(fn, "func", fn), "__name__", "?")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced command, every name in PER_LAYER."""
    spans = trace["spans"]
    out = {name: 0.0 for name in PER_LAYER}
    children: dict[int, float] = {}
    for name, parent, start, end, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    dedup_docs = 0
    for i, (name, parent, start, end, attrs) in enumerate(spans):
        dur = end - start
        if name in _TIMED:
            out[_TIMED[name]] += dur
        if name == "corpus.read":
            out["corpus.bytes_read"] += attrs["bytes"]
        elif name == "normalize.split":
            out["normalize.chunks_out"] += attrs["chunks_out"]
        elif name == "quality.pii":
            out["quality.pii_replacements"] += attrs["replacements"]
        elif name == "dedup.pass":
            dedup_docs += attrs["docs_in"]
        elif name == "dedup.probe":
            out["dedup.probe_calls"] += 1
            out["dedup.registry_size"] = max(out["dedup.registry_size"], attrs["registry_size"])
        elif name == "parallel.pmap":
            out["parallel.pmap_calls"] += 1
            if attrs["fn"] == "simhash":
                out["dedup.fingerprint_s"] += dur
                out["dedup.simhash_calls"] += attrs["items"]
        elif name == "pipeline.run":
            out["pipeline.self_s"] += dur - children.get(i, 0.0)
        elif name.startswith("report.") and (parent is None or not spans[parent][0].startswith("report.")):
            out["report.render_s"] += dur
        elif name == "mteval.bleu":
            out["mteval.bleu_calls"] += 1
    if dedup_docs:
        out["dedup.simhash_per_doc"] = out["dedup.simhash_calls"] / dedup_docs
    out["parallel.pools_started"] = trace["counters"].get("pools", 0)
    return out


def main(argv: list[str]) -> int:
    spans_path, forge_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from corpusforge.cli import main as forge_main

    try:
        return forge_main(forge_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
