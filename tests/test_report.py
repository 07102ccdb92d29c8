from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from corpusforge.errors import DataError
from corpusforge.report import (
    DropDetail,
    PipelineReport,
    StageReport,
    render_report,
    stage_summary,
)


def _report() -> PipelineReport:
    stage = StageReport(stage="lang_filter", docs_in=4, docs_out=3, tokens_in=100, tokens_out=70)
    stage.record_drop("d2", "lang_below_threshold")
    return PipelineReport(
        original_source_tokens={"web": 1000, "news": 400},
        stages=[stage],
        final_source_tokens={"web": 750, "news": 399},
    )


def test_record_drop_aggregates():
    s = StageReport(stage="x", docs_in=3, docs_out=1)
    s.record_drop("a", "empty")
    s.record_drop("b", "empty")
    assert s.drop_reasons == {"empty": 2}
    assert s.docs_dropped == 2
    assert sum(s.drop_reasons.values()) == s.docs_in - s.docs_out


def test_stage_dict_omits_empty_sections():
    s = StageReport(stage="x", docs_in=1, docs_out=1)
    d = s.to_dict()
    assert "counters" not in d and "drops" not in d and "sub_reports" not in d
    assert d["drop_reasons"] == {}
    s.counters["files"] = 2
    assert s.to_dict()["counters"] == {"files": 2}


def test_stage_dict_round_trip():
    s = StageReport(stage="dedup", docs_in=5, docs_out=3, tokens_in=50, tokens_out=30)
    s.record_drop("a", "dup_doc", kept_id="b")
    s.record_drop("c", "dup_doc", kept_id="b")
    s.counters["n"] = 1
    s.sub_reports.append(StageReport(stage="inner", docs_in=5, docs_out=5))
    back = StageReport.from_dict(json.loads(json.dumps(s.to_dict())))
    assert back.to_dict() == s.to_dict()
    assert back.drop_details[0].kept_id == "b"
    assert back.sub_reports[0].stage == "inner"


def test_stage_from_dict_rejects_garbage():
    with pytest.raises(DataError):
        StageReport.from_dict({"docs_in": 1})
    with pytest.raises(DataError):
        StageReport.from_dict({"stage": "x", "docs_in": "many"})


def test_pipeline_dict_round_trip():
    rep = _report()
    back = PipelineReport.from_dict(json.loads(json.dumps(rep.to_dict())))
    assert back.to_dict() == rep.to_dict()
    assert render_report(back) == render_report(rep)


_names = st.text(max_size=8)
_counts = st.integers(min_value=0, max_value=10**12)
_drops = st.builds(DropDetail, _names, _names, st.none() | _names)


def _stages(sub_reports) -> st.SearchStrategy[StageReport]:
    return st.builds(
        StageReport,
        stage=_names,
        docs_in=_counts,
        docs_out=_counts,
        tokens_in=_counts,
        tokens_out=_counts,
        drop_reasons=st.dictionaries(_names, _counts, max_size=3),
        duration_ms=_counts,
        enabled=st.booleans(),
        counters=st.dictionaries(_names, _counts, max_size=3),
        drop_details=st.lists(_drops, max_size=3),
        sub_reports=sub_reports,
    )


@st.composite
def _reports(draw) -> PipelineReport:
    # Sources may hold zero tokens; each stage may carry a level of sub-reports.
    original = draw(st.dictionaries(_names, _counts | st.just(0), max_size=4))
    return PipelineReport(
        original_source_tokens=original,
        stages=draw(st.lists(_stages(st.lists(_stages(st.just([])), max_size=2)), max_size=4)),
        final_source_tokens={src: draw(st.integers(0, n)) for src, n in original.items()},
    )


@settings(max_examples=100, deadline=None)
@given(_reports())
def test_saved_report_reads_back_as_written(rep: PipelineReport):
    back = PipelineReport.from_dict(json.loads(json.dumps(rep.to_dict())))
    assert back.to_dict() == rep.to_dict()
    for fmt in ("table", "json"):
        assert render_report(back, fmt) == render_report(rep, fmt)


def test_json_keeps_full_precision():
    rep = _report()
    data = json.loads(render_report(rep, fmt="json"))
    web = data["sources"]["web"]
    assert web["original_tokens"] == 1000
    assert web["final_tokens"] == 750
    assert web["pct_reduction"] == 25.0
    assert data["sources"]["news"]["pct_reduction"] == pytest.approx(1 / 400 * 100)


def test_table_layout():
    out = render_report(_report())
    lines = out.splitlines()
    assert lines[0].split(" | ")[0].strip() == "Source"
    assert "Percentage Reduction (%)" in lines[0]
    web = next(l for l in lines if l.startswith("web"))
    assert "1,000" in web and "750" in web and "250" in web and "25.00" in web
    total = lines[-1]
    assert total.startswith("TOTAL")
    assert total.rstrip().endswith("-")
    assert "1,400" in total and "1,149" in total


def test_percentage_rounds_to_one_decimal_shown_as_two():
    rep = PipelineReport(
        original_source_tokens={"a": 10000},
        stages=[],
        final_source_tokens={"a": 8765},
    )
    # 12.35% reduction rounds to 12.3, rendered "12.30"
    row = next(l for l in render_report(rep).splitlines() if l.startswith("a "))
    assert row.rstrip().endswith("12.30")


def test_zero_original_tokens():
    rep = PipelineReport(
        original_source_tokens={"a": 0},
        stages=[],
        final_source_tokens={"a": 0},
    )
    assert "0.00" in render_report(rep)
    assert json.loads(render_report(rep, fmt="json"))["sources"]["a"]["pct_reduction"] == 0.0


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report(_report(), fmt="csv")


def test_stage_summary_line():
    s = StageReport(stage="lang_filter", docs_in=10, docs_out=8, tokens_in=100, tokens_out=80)
    s.record_drop("a", "lang_below_threshold")
    s.record_drop("b", "lang_below_threshold")
    line = stage_summary(s)
    assert line == "lang_filter: 10 -> 8 docs, 100 -> 80 tokens (lang_below_threshold=2)"
    s.enabled = False
    assert stage_summary(s).endswith("[disabled]")
