"""Per-stage and whole-pipeline accounting reports.

Every stage emits a StageReport with document/token totals and a
drop-reason histogram; the pipeline collects them into a PipelineReport
whose table rendering mirrors the usual per-source token-reduction
summary (one row per source plus a TOTAL row).

``run_stage`` is the one place that times a stage and fills in its
totals; stages supply only their per-document work.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .corpus import Corpus, check_object
from .errors import DataError


@dataclass
class DropDetail:
    """One dropped document: why, and (for dedup) which document it matched."""

    doc_id: str
    reason: str
    kept_id: str | None = None


@dataclass
class StageReport:
    stage: str
    docs_in: int = 0
    docs_out: int = 0
    tokens_in: int = 0
    tokens_out: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    duration_ms: int = 0
    enabled: bool = True
    # Stage-specific counters (PII replacements per rule, removed line
    # counts, ...). Not drops, so kept separate from drop_reasons.
    counters: dict[str, int] = field(default_factory=dict)
    drop_details: list[DropDetail] = field(default_factory=list)
    sub_reports: list["StageReport"] = field(default_factory=list)

    @property
    def docs_dropped(self) -> int:
        return self.docs_in - self.docs_out

    def record_drop(self, doc_id: str, reason: str, kept_id: str | None = None) -> None:
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        self.drop_details.append(DropDetail(doc_id, reason, kept_id))

    def to_dict(self) -> dict:
        d: dict = {
            "stage": self.stage,
            "enabled": self.enabled,
            "docs_in": self.docs_in,
            "docs_out": self.docs_out,
            "tokens_in": self.tokens_in,
            "tokens_out": self.tokens_out,
            "drop_reasons": dict(self.drop_reasons),
            "duration_ms": self.duration_ms,
        }
        if self.counters:
            d["counters"] = dict(self.counters)
        if self.drop_details:
            d["drops"] = [
                {"id": x.doc_id, "reason": x.reason, "kept_id": x.kept_id}
                for x in self.drop_details
            ]
        if self.sub_reports:
            d["sub_reports"] = [r.to_dict() for r in self.sub_reports]
        return d

    @classmethod
    def from_dict(cls, d: dict, what: str = "stage") -> "StageReport":
        _check(d, what, _STAGE_TYPES, _STAGE_REQUIRED)
        drops = [
            _check(x, f"{what}.drops[{i}]", _DROP_TYPES, ("id", "reason"))
            for i, x in enumerate(d.get("drops", []))
        ]
        return cls(
            **{key: d[key] for key in _STAGE_REQUIRED},
            drop_reasons=dict(d.get("drop_reasons", {})),
            duration_ms=d.get("duration_ms", 0),
            enabled=d.get("enabled", True),
            counters=dict(d.get("counters", {})),
            drop_details=[DropDetail(x["id"], x["reason"], x.get("kept_id")) for x in drops],
            sub_reports=[
                cls.from_dict(x, f"{what}.sub_reports[{i}]")
                for i, x in enumerate(d.get("sub_reports", []))
            ],
        )


# The JSON types of the saved-report objects that ``from_dict`` reads. Keys
# it does not read (the derived totals, say) are allowed and ignored.
_STAGE_TYPES = {
    "stage": str,
    "enabled": bool,
    **dict.fromkeys(("docs_in", "docs_out", "tokens_in", "tokens_out", "duration_ms"), int),
    **dict.fromkeys(("drop_reasons", "counters"), dict),
    **dict.fromkeys(("drops", "sub_reports"), list),
}
_STAGE_REQUIRED = ("stage", "docs_in", "docs_out", "tokens_in", "tokens_out")
_DROP_TYPES = {"id": str, "reason": str, "kept_id": (str, type(None))}
_SOURCE_TYPES = {"original_tokens": int, "final_tokens": int}


def _check(data, what: str, types: dict, required=()) -> dict:
    return check_object(data, what, types, required, DataError, extra_keys=True)


def run_stage(
    stage: str, corpus: Corpus | None, step: Callable[[StageReport], Corpus]
) -> tuple[Corpus, StageReport]:
    """Run ``step`` as one stage and account for it.

    ``step(report)`` returns the output corpus and may record drops and
    counters on the report; the runner fills in the input and output
    totals and the duration. A stage that makes its corpus rather than
    transforming one (ingest) passes ``corpus=None``, and its input
    totals equal its output totals.
    """
    t0 = time.perf_counter()
    report = StageReport(stage=stage)
    out = step(report)
    src = out if corpus is None else corpus
    report.docs_in, report.tokens_in = len(src), src.total_tokens
    report.docs_out, report.tokens_out = len(out), out.total_tokens
    report.duration_ms = int((time.perf_counter() - t0) * 1000)
    return out, report


def keep_or_drop(
    report: StageReport, corpus: Corpus, reasons: Iterable[str | None]
) -> Corpus:
    """Keep the documents whose reason is None; record the rest as drops."""
    kept = Corpus()
    for doc, reason in zip(corpus, reasons):
        if reason is None:
            kept.append(doc)
        else:
            report.record_drop(doc.id, reason)
    return kept


def rewrite_texts(report: StageReport, corpus: Corpus, texts: Iterable[str]) -> Corpus:
    """Give each document its new text and count the ones that changed."""
    out = Corpus()
    changed = 0
    for doc, text in zip(corpus, texts):
        if text != doc.text:
            changed += 1
            doc = doc.with_text(text)
        out.append(doc)
    report.counters["docs_changed"] = changed
    return out


@dataclass
class PipelineReport:
    """Accounting for a full pipeline run.

    ``original_source_tokens`` holds per-source token counts at ingestion;
    ``final_source_tokens`` the counts in the final corpus. Sources that
    were filtered out entirely keep a 0 entry so the reduction stays
    auditable.
    """

    original_source_tokens: dict[str, int] = field(default_factory=dict)
    stages: list[StageReport] = field(default_factory=list)
    final_source_tokens: dict[str, int] = field(default_factory=dict)

    @property
    def original_tokens(self) -> int:
        return sum(self.original_source_tokens.values())

    @property
    def final_tokens(self) -> int:
        return sum(self.final_source_tokens.values())

    def source_rows(self) -> list[tuple[str, int, int]]:
        """(source, original, final) rows in ingestion order."""
        rows = []
        for src, orig in self.original_source_tokens.items():
            rows.append((src, orig, self.final_source_tokens.get(src, 0)))
        return rows

    def to_dict(self) -> dict:
        sources = {}
        for src, orig, final in self.source_rows():
            sources[src] = {
                "original_tokens": orig,
                "final_tokens": final,
                "reduction": orig - final,
                "pct_reduction": _pct(orig, final),
            }
        return {
            "sources": sources,
            "stages": [s.to_dict() for s in self.stages],
            "original_tokens": self.original_tokens,
            "final_tokens": self.final_tokens,
            "reduction": self.original_tokens - self.final_tokens,
            "pct_reduction": _pct(self.original_tokens, self.final_tokens),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineReport":
        _check(d, "report", {"sources": dict, "stages": list}, ("sources",))
        rows = {
            src: _check(row, f"report.sources.{src}", _SOURCE_TYPES, required=_SOURCE_TYPES)
            for src, row in d["sources"].items()
        }
        return cls(
            original_source_tokens={src: row["original_tokens"] for src, row in rows.items()},
            stages=[
                StageReport.from_dict(x, f"report.stages[{i}]")
                for i, x in enumerate(d.get("stages", []))
            ],
            final_source_tokens={src: row["final_tokens"] for src, row in rows.items()},
        )


def _pct(original: int, final: int) -> float:
    if original == 0:
        return 0.0
    return (original - final) / original * 100.0


def _fmt_pct(original: int, final: int) -> str:
    # Printed percentages are rounded to one decimal and shown with two,
    # matching the reference summary table this report mirrors.
    return f"{round(_pct(original, final), 1):.2f}"


_TABLE_COLUMNS = (
    "Source",
    "Original Token Count",
    "Token Count After Processing",
    "Reduction",
    "Percentage Reduction (%)",
)


def render_report(report: PipelineReport, fmt: str = "table") -> str:
    """Render a PipelineReport as machine-readable JSON or an aligned table."""
    if fmt == "json":
        return json.dumps(report.to_dict(), ensure_ascii=False, indent=2)
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")

    rows = []
    for src, orig, final in report.source_rows():
        rows.append((src, f"{orig:,}", f"{final:,}", f"{orig - final:,}", _fmt_pct(orig, final)))
    orig_t, final_t = report.original_tokens, report.final_tokens
    # TOTAL row leaves the percentage column blank, as in the summary
    # table layout this mirrors.
    rows.append(("TOTAL", f"{orig_t:,}", f"{final_t:,}", f"{orig_t - final_t:,}", "-"))

    lines = table_lines([_TABLE_COLUMNS, *rows], " | ", "-+-")
    lines.insert(-1, lines[1])  # the rule again, above TOTAL
    return "\n".join(lines)


def table_lines(rows: list[Sequence[str]], sep: str, cross: str) -> list[str]:
    """``rows`` aligned in columns, the header ``rows[0]`` first: the first
    column padded on the right, the others on the left, cells joined by
    ``sep``. A rule of dashes, joined by ``cross``, follows the header."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [
        sep.join([row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])])
        for row in rows
    ]
    lines.insert(1, cross.join("-" * w for w in widths))
    return lines


def stage_summary(stage: StageReport) -> str:
    """One-line human summary used for progress logging."""
    parts = [
        f"{stage.stage}: {stage.docs_in} -> {stage.docs_out} docs, "
        f"{stage.tokens_in} -> {stage.tokens_out} tokens"
    ]
    if stage.drop_reasons:
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(stage.drop_reasons.items()))
        parts.append(f" ({reasons})")
    if not stage.enabled:
        parts.append(" [disabled]")
    return "".join(parts)
