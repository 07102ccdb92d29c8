from __future__ import annotations

import codecs
import hashlib
import json
import os
import random
import stat
from pathlib import Path

import pytest

from corpusforge import cli, dedup, mteval
from corpusforge.cli import main
from corpusforge.corpus import Corpus, Document, read_jsonl, write_jsonl
from corpusforge.dedup import (
    DedupConfig, Fingerprint, dedup_pass, read_fingerprints, read_sidecar, simhash,
)
from corpusforge.langid import LangFilterConfig, filter_language
from corpusforge.mteval import corpus_bleu
from corpusforge.normalize import SplitConfig, split_corpus, standardize_corpus
from corpusforge.pipeline import read_config
from corpusforge.quality import default_stopwords, filter_quality, load_wordlist, scrub_corpus_pii

STOP = "کا کی کے کو نے سے پر ہے ہیں اور".split()
CONTENT = "کتاب مدرسہ دریا پہاڑ سورج چاند ستارہ بادل بارش درخت".split()


def _forge(*argv: str) -> int:
    return main(list(argv))


def _urdu(n: int) -> str:
    words = [STOP[i % len(STOP)] if i % 3 == 0 else CONTENT[i % len(CONTENT)] for i in range(n)]
    return " ".join(words)


def _write(path: Path, docs: list[Document]) -> Path:
    write_jsonl(Corpus(docs), path)
    return path


@pytest.fixture()
def corpus_file(tmp_path: Path) -> Path:
    docs = [
        Document(id="u0", source="web", text=_urdu(30)),
        Document(id="u1", source="web", text=_urdu(33)),
        Document(id="en", source="web", text="this is english filler text"),
    ]
    return _write(tmp_path / "in.jsonl", docs)


def test_version(capsys):
    assert _forge("--version") == 0
    out = capsys.readouterr().out
    assert out == "forge 0.1.0\n"


def test_no_arguments_is_usage_error(capsys):
    assert _forge() == 2


def test_unknown_subcommand(capsys):
    assert _forge("frobnicate") == 2


def test_ingest_merges_sorted_glob(tmp_path: Path, capsys):
    _write(tmp_path / "b.jsonl", [Document(id="b0", source="s", text="دو")])
    _write(tmp_path / "a.jsonl", [Document(id="a0", source="s", text="ایک")])
    out = tmp_path / "merged.jsonl"
    code = _forge("ingest", "--in", str(tmp_path / "*.jsonl"), "--out", str(out))
    assert code == 0
    assert [d.id for d in read_jsonl(out)] == ["a0", "b0"]


def test_unmatched_glob_is_data_error(tmp_path: Path):
    out = tmp_path / "o.jsonl"
    code = _forge("ingest", "--in", str(tmp_path / "none-*.jsonl"), "--out", str(out))
    assert code == 3
    assert not out.exists()


def test_lang_filter_with_threshold(corpus_file: Path, tmp_path: Path):
    out = tmp_path / "keep.jsonl"
    report = tmp_path / "rep.json"
    code = _forge(
        "lang",
        "--threshold", "0.9",
        "--in", str(corpus_file),
        "--out", str(out),
        "--report", str(report),
    )
    assert code == 0
    assert [d.id for d in read_jsonl(out)] == ["u0", "u1"]
    stages = json.loads(report.read_text(encoding="utf-8"))["stages"]
    assert [s["stage"] for s in stages] == ["lang_filter"]
    assert stages[0]["drop_reasons"] == {"lang_below_threshold": 1}


def test_stdout_streaming(corpus_file: Path, capsys):
    code = _forge("lang", "--in", str(corpus_file), "--out", "-")
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [json.loads(l)["id"] for l in lines] == ["u0", "u1"]


def test_failed_run_leaves_no_partial_output(tmp_path: Path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
    out = tmp_path / "o.jsonl"
    report = tmp_path / "r.json"
    code = _forge("ingest", "--in", str(bad), "--out", str(out), "--report", str(report))
    assert code == 3
    assert not out.exists() and not report.exists()
    assert [f.name for f in tmp_path.iterdir()] == ["bad.jsonl"]


def test_run_missing_config_names_path(tmp_path: Path, capsys):
    code = _forge(
        "run",
        "--config", str(tmp_path / "missing.json"),
        "--in", str(tmp_path / "x.jsonl"),
        "--out", str(tmp_path / "o.jsonl"),
    )
    assert code == 2
    assert "missing.json" in capsys.readouterr().err


def test_run_pipeline_end_to_end(corpus_file: Path, tmp_path: Path, capsys):
    out = tmp_path / "corpus.jsonl"
    report = tmp_path / "report.json"
    code = _forge(
        "run", "--in", str(corpus_file), "--out", str(out), "--report", str(report)
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "Source" in table and "TOTAL" in table
    assert [d.id for d in read_jsonl(out)] == ["u0", "u1"]
    data = json.loads(report.read_text(encoding="utf-8"))
    assert [s["stage"] for s in data["stages"]] == [
        "ingest",
        "lang_filter",
        "standardize",
        "quality_filter",
        "pii_scrub",
        "dedup",
        "split",
    ]
    assert "web" in data["sources"]


def test_run_twice_is_byte_identical(corpus_file: Path, tmp_path: Path, capsys):
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.jsonl"
        assert _forge("run", "--in", str(corpus_file), "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_normalize_with_custom_table_and_split(tmp_path: Path):
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"map": [["U+0041", "U+0042"]], "strip": []}), encoding="utf-8")
    src = _write(
        tmp_path / "in.jsonl",
        [Document(id="d", source="s", text="A " + " ".join(["x"] * 40))],
    )
    out = tmp_path / "o.jsonl"
    code = _forge(
        "normalize", "--table", str(table), "--target", "10",
        "--in", str(src), "--out", str(out),
    )
    assert code == 0
    docs = read_jsonl(out)
    assert docs[0].text.startswith("B ")
    assert len(docs) == 4
    assert [d.id for d in docs] == ["d#0", "d#1", "d#2", "d#3"]


def test_quality_with_custom_lists_and_no_pii(tmp_path: Path):
    stops = tmp_path / "stops.txt"
    stops.write_text("کا\n", encoding="utf-8")
    src = _write(
        tmp_path / "in.jsonl",
        [
            Document(id="good", source="s", text="کا کتاب"),
            Document(id="bad", source="s", text="کتاب مدرسہ دریا پہاڑ سورج کتاب مدرسہ دریا پہاڑ سورج"),
            Document(id="mail", source="s", text="کا رابطہ a@b.com"),
        ],
    )
    out = tmp_path / "o.jsonl"
    code = _forge(
        "quality", "--stopwords", str(stops), "--no-pii",
        "--in", str(src), "--out", str(out),
    )
    assert code == 0
    docs = read_jsonl(out)
    assert [d.id for d in docs] == ["good", "mail"]
    assert docs[1].text == "کا رابطہ a@b.com"  # --no-pii leaves the address


def test_quality_scrubs_pii_by_default(tmp_path: Path):
    src = _write(tmp_path / "in.jsonl", [Document(id="m", source="s", text="کا خط a@b.com")])
    out = tmp_path / "o.jsonl"
    report = tmp_path / "r.json"
    code = _forge("quality", "--in", str(src), "--out", str(out), "--report", str(report))
    assert code == 0
    assert read_jsonl(out)[0].text == "کا خط <PII:EMAIL>"
    stages = json.loads(report.read_text(encoding="utf-8"))["stages"]
    assert [s["stage"] for s in stages] == ["quality_filter", "pii_scrub"]


def test_dedup_writes_and_seeds_fingerprints(tmp_path: Path):
    first = _write(
        tmp_path / "first.jsonl",
        [Document(id="a0", source="s", text=_urdu(24)), Document(id="a1", source="s", text=_urdu(27))],
    )
    fps = tmp_path / "seen.fps"
    out1 = tmp_path / "o1.jsonl"
    code = _forge(
        "dedup", "--in", str(first), "--out", str(out1), "--fps-out", str(fps)
    )
    assert code == 0
    lines = fps.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 and lines[0].startswith("a0\t")

    second = _write(
        tmp_path / "second.jsonl",
        [Document(id="b0", source="s", text=" " + _urdu(24)), Document(id="b1", source="s", text="نیا مواد یہاں")],
    )
    out2 = tmp_path / "o2.jsonl"
    report = tmp_path / "rep.json"
    code = _forge(
        "dedup", "--in", str(second), "--out", str(out2),
        "--fps-in", str(fps), "--report", str(report),
    )
    assert code == 0
    assert [d.id for d in read_jsonl(out2)] == ["b1"]
    data = json.loads(report.read_text(encoding="utf-8"))["stages"][0]
    overall = next(s for s in data["sub_reports"] if s["stage"] == "dedup_overall")
    assert overall["drops"][0]["kept_id"] == "a0"


@pytest.mark.parametrize("flag", ["--fps-in", "--fps-out"])
def test_fps_in_requires_overall_pass(tmp_path: Path, corpus_file: Path, flag: str):
    code = _forge(
        "dedup", "--in", str(corpus_file), "--out", str(tmp_path / "o.jsonl"),
        flag, str(tmp_path / "x.fps"), "--no-overall",
    )
    assert code == 2
    assert not (tmp_path / "o.jsonl").exists()


def test_fps_out_holds_the_written_texts_and_seeds_repeated_line_copies(tmp_path: Path):
    first = _write(
        tmp_path / "first.jsonl",
        [
            Document(id="a0", source="s", text=f"{_urdu(24)}\n{_urdu(9)}"),
            Document(id="a1", source="s", text=f"{_urdu(12)}\n{_urdu(7)}\n{_urdu(12)}"),
        ],
    )
    fps, out1 = tmp_path / "seen.fps", tmp_path / "o1.jsonl"
    assert _forge("dedup", "--in", str(first), "--out", str(out1), "--fps-out", str(fps)) == 0
    written = read_jsonl(out1)
    assert written[1].text == f"{_urdu(12)}\n{_urdu(7)}"
    # The removed third pass, kept as the oracle: the key of every output text.
    assert read_fingerprints(fps) == [(d.id, _digest(d.text)) for d in written]

    second = _write(
        tmp_path / "second.jsonl",
        [
            Document(id="b0", source="s", text=f"{_urdu(24)}\n{_urdu(24)}\n{_urdu(9)}"),
            Document(id="b1", source="s", text="نیا مواد یہاں"),
        ],
    )
    out2, report, fps2 = tmp_path / "o2.jsonl", tmp_path / "rep.json", tmp_path / "new.fps"
    code = _forge(
        "dedup", "--in", str(second), "--out", str(out2),
        "--fps-in", str(fps), "--fps-out", str(fps2), "--report", str(report),
    )
    assert code == 0
    assert [d.id for d in read_jsonl(out2)] == ["b1"]
    # Only this run's kept documents, not the seeded entries.
    assert read_fingerprints(fps2) == [("b1", _digest("نیا مواد یہاں"))]
    data = json.loads(report.read_text(encoding="utf-8"))["stages"][0]
    overall = next(s for s in data["sub_reports"] if s["stage"] == "dedup_overall")
    assert [(d["id"], d["kept_id"]) for d in overall["drops"]] == [("b0", "a0")]


def _letters(seed: int, n: int = 120) -> str:
    """Random letters: texts from different seeds are far apart in near mode too."""
    rng = random.Random(seed)
    return "".join(rng.choice("ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے ") for _ in range(n))


def _digest(text: str) -> Fingerprint:
    """Exact mode's sidecar key: blake2b-128 of the whitespace-free content."""
    content = "".join(text.split()).encode("utf-8")
    return Fingerprint(int(hashlib.blake2b(content, digest_size=16).hexdigest(), 16), 128)


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_fps_out_fingerprints_each_document_once(tmp_path: Path, monkeypatch, mode):
    key_fn = "content_digest" if mode == "exact" else "simhash"
    calls = []
    fn = getattr(dedup, key_fn)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(dedup, key_fn, counting)
    docs = [Document(id=f"d{i}", source="s", text=_letters(i % 3)) for i in range(6)]
    src = _write(tmp_path / "in.jsonl", docs)
    code = _forge(
        "dedup", "--mode", mode, "--workers", "1", "--in", str(src),
        "--out", str(tmp_path / "o.jsonl"), "--fps-out", str(tmp_path / "o.fps"),
    )
    assert code == 0
    assert len(read_jsonl(tmp_path / "o.jsonl")) == 3
    assert len(calls) == len(docs)


@pytest.mark.parametrize("mode, digits", [("exact", 32), ("near", 16)])
def test_fps_out_hex_width_follows_the_mode_and_round_trips(tmp_path: Path, mode, digits):
    docs = [Document(id=f"a{i}", source="s", text=_letters(i)) for i in range(3)]
    first, fps = _write(tmp_path / "first.jsonl", docs), tmp_path / "seen.fps"
    out = str(tmp_path / "o.jsonl")
    assert _forge("dedup", "--mode", mode, "--in", str(first), "--out", out, "--fps-out", str(fps)) == 0
    lines = fps.read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in lines] == ["a0", "a1", "a2"]
    assert all(len(line.split("\t")[1]) == digits for line in lines)
    oracle = _digest if mode == "exact" else lambda text: Fingerprint(simhash(text))
    assert read_fingerprints(fps) == [(d.id, oracle(d.text)) for d in docs]
    # A re-spaced copy of the batch is dropped against the sidecar.
    again = [Document(id=f"b{i}", source="t", text=d.text.replace(" ", "\t ")) for i, d in enumerate(docs)]
    second = _write(tmp_path / "second.jsonl", again)
    code = _forge("dedup", "--mode", mode, "--in", str(second), "--out", out, "--fps-in", str(fps))
    assert code == 0
    assert read_jsonl(Path(out)) == Corpus([])


@pytest.mark.parametrize("mode, other", [("exact", "near"), ("near", "exact")])
def test_fps_in_of_the_other_mode_is_data_error(tmp_path: Path, corpus_file: Path, capsys, mode, other):
    fps, out = tmp_path / "seen.fps", tmp_path / "o.jsonl"
    argv = ["dedup", "--in", str(corpus_file), "--out", str(out)]
    assert _forge(*argv, "--mode", other, "--fps-out", str(fps)) == 0
    capsys.readouterr()
    out.unlink()
    assert _forge(*argv, "--mode", mode, "--fps-in", str(fps)) == 3
    err = capsys.readouterr().err
    assert "seen.fps:1: " in err and f"--mode {other} writes" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_fps_in_seeds_without_building_fingerprints(tmp_path: Path, monkeypatch, mode):
    docs = [Document(id=f"a{i}", source="s", text=_letters(i)) for i in range(4)]
    first, fps, out = _write(tmp_path / "first.jsonl", docs), tmp_path / "seen.fps", tmp_path / "o.jsonl"
    assert _forge("dedup", "--mode", mode, "--in", str(first), "--out", str(out), "--fps-out", str(fps)) == 0
    built = []
    post_init = Fingerprint.__post_init__
    monkeypatch.setattr(Fingerprint, "__post_init__", lambda fp: built.append(fp) or post_init(fp))
    again = [Document(id=f"b{i}", source="t", text=docs[i // 2].text) for i in range(4)]
    second = _write(tmp_path / "second.jsonl", [*again, Document(id="n", source="t", text=_letters(9))])
    assert _forge("dedup", "--mode", mode, "--in", str(second), "--out", str(out), "--fps-in", str(fps)) == 0
    assert [d.id for d in read_jsonl(out)] == ["n"]
    # Keys are plain ints: only writing or reading pairs builds one.
    assert built == []


def test_dedup_near_mode_flags(tmp_path: Path):
    rng = random.Random(2)
    alphabet = "ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے"
    base = "".join(rng.choice(alphabet) for _ in range(400))
    variant = "x" + base[1:]  # tiny edit, caught only in near mode
    other = "".join(rng.choice(alphabet) for _ in range(400))
    src = _write(
        tmp_path / "in.jsonl",
        [
            Document(id="a", source="s", text=base),
            Document(id="b", source="s", text=variant),
            Document(id="c", source="s", text=other),
        ],
    )
    out = tmp_path / "o.jsonl"
    code = _forge(
        "dedup", "--mode", "near", "--hamming", "6",
        "--in", str(src), "--out", str(out),
    )
    assert code == 0
    assert [d.id for d in read_jsonl(out)] == ["a", "c"]


def test_split_command(tmp_path: Path):
    src = _write(tmp_path / "in.jsonl", [Document(id="d", source="s", text=" ".join(["ل"] * 100))])
    out = tmp_path / "o.jsonl"
    assert _forge("split", "--target", "10", "--in", str(src), "--out", str(out)) == 0
    assert [d.token_count for d in read_jsonl(out)] == [10] * 10


def _chain(*stages):
    def run(corpus):
        reports = []
        for stage in stages:
            corpus, rep = stage(corpus)
            reports.append(rep)
        return corpus, reports

    return run


def _without_durations(stage: dict) -> dict:
    stage = {k: v for k, v in stage.items() if k != "duration_ms"}
    stage["sub_reports"] = [_without_durations(s) for s in stage.get("sub_reports", [])]
    return stage


# Each stage subcommand against its stage functions called directly.
STAGE_COMMANDS = [
    (["lang", "--threshold", "0.8"],
     _chain(lambda c: filter_language(c, LangFilterConfig(threshold=0.8)))),
    (["normalize", "--target", "10"],
     _chain(standardize_corpus, lambda c: split_corpus(c, SplitConfig(target_tokens=10)))),
    (["quality"], _chain(filter_quality, scrub_corpus_pii)),
    (["quality", "--no-pii"], _chain(filter_quality)),
    (["split", "--target", "10", "--sentence-ends", "۔"],
     _chain(lambda c: split_corpus(c, SplitConfig(target_tokens=10, sentence_end_chars="۔")))),
    (["dedup"], _chain(dedup_pass)),
    (["dedup", "--mode", "near"], _chain(lambda c: dedup_pass(c, DedupConfig(mode="near")))),
]


@pytest.mark.parametrize(
    "argv,oracle", STAGE_COMMANDS, ids=[" ".join(argv) for argv, _ in STAGE_COMMANDS]
)
def test_stage_subcommand_equals_its_stage_functions(tmp_path: Path, argv, oracle):
    docs = [
        Document(id="u0", source="web", text=_urdu(30)),
        Document(id="yeh", source="web", text="كتاب ي " + _urdu(12) + "\n\n" + _urdu(14)),
        Document(id="mail", source="news", text=_urdu(9) + " a@b.com ۔ " + _urdu(25)),
        Document(id="en", source="news", text="this is english filler text"),
        Document(id="junk", source="news", text=" ".join(CONTENT * 2)),
    ]
    src = _write(tmp_path / "in.jsonl", docs)
    out, report = tmp_path / "o.jsonl", tmp_path / "r.json"
    code = _forge(*argv, "--workers", "1", "--in", str(src), "--out", str(out), "--report", str(report))
    assert code == 0
    expected, reports = oracle(read_jsonl(src))
    assert list(read_jsonl(out)) == list(expected)
    stages = json.loads(report.read_text(encoding="utf-8"))["stages"]
    assert [_without_durations(s) for s in stages] == [
        _without_durations(r.to_dict()) for r in reports
    ]


URDU_LETTERS = "ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنںوہھءیے"
PII_VALUES = ("ali.42@example.com", "+92 300 1234567", "0321-7654321", "35202-1234567-1")


def _chain_input(in_dir: Path, seed: int) -> None:
    """Seeded input with the make-up of the benchmark's chain workload, one
    file per source: Urdu-like documents, some holding an email, phone or
    CNIC and some an Arabic kaf that standardizing rewrites;
    multi-paragraph documents longer than the split target; Latin-script
    documents; Urdu documents without stopwords; whitespace-variant
    copies within and across sources; one-character variants; and copies
    with one line repeated."""
    rng = random.Random(seed)
    stop = sorted(default_stopwords())
    vocab = ["".join(rng.choices(URDU_LETTERS, k=rng.randint(3, 8))) for _ in range(800)]

    def lines(n_tokens: int, stop_share: float = 0.35) -> list[str]:
        out = []
        while n_tokens > 0:
            n = min(n_tokens, rng.randint(8, 20))
            words = [rng.choice(stop) if rng.random() < stop_share else rng.choice(vocab)
                     for _ in range(n)]
            out.append(" ".join(words) + "۔")
            n_tokens -= n
        return out

    sources = ("books", "news", "web")
    docs: dict[str, list[str]] = {source: [] for source in (*sources, "probe")}
    for _ in range(40):
        text = lines(rng.randint(80, 400))
        if rng.random() < 0.2:
            i = rng.randrange(len(text))
            text[i] = f"{text[i]} {rng.choice(PII_VALUES)} {rng.choice(vocab)}۔"
        if rng.random() < 0.2:
            text = [line.replace("ک", "ك") for line in text]
        docs[rng.choice(sources)].append("\n".join(text))
    for _ in range(3):
        text = lines(rng.randint(900, 1400))
        paragraphs = ["\n".join(text[i : i + 4]) for i in range(0, len(text), 4)]
        docs[rng.choice(sources)].append("\n\n".join(paragraphs))
    for _ in range(4):
        latin = " ".join(rng.choice(["the", "river", "school", "market", "of"]) for _ in range(80))
        docs[rng.choice(sources)].append(latin)
        docs[rng.choice(sources)].append("\n".join(lines(rng.randint(60, 200), stop_share=0.0)))
    bases = [(source, text) for source in sources for text in docs[source]]
    for k in range(10):
        source, text = rng.choice(bases)
        copy = "".join(rng.choice(("  ", "\t", " ")) if ch == " " else ch for ch in text)
        docs[source if k % 2 else rng.choice(sources)].append(copy)
    for _ in range(6):
        text = lines(rng.randint(60, 160))
        docs["probe"].append("\n".join(text))
        i = rng.randrange(len(text))
        if rng.random() < 0.5:
            j = rng.randrange(len(text[i]) - 1)
            text[i] = text[i][:j] + rng.choice(URDU_LETTERS) + text[i][j + 1 :]
        else:
            text.insert(i, text[i])
        docs["probe"].append("\n".join(text))
    serial = 0
    in_dir.mkdir()
    for source, texts in docs.items():
        rng.shuffle(texts)
        records = []
        for text in texts:
            records.append(Document(id=f"{source}-{serial:04d}", source=source, text=text))
            serial += 1
        _write(in_dir / f"{source}.jsonl", records)


@pytest.mark.parametrize("mode", ["exact", "near"])
def test_chained_stage_subcommands_give_the_output_of_run(tmp_path: Path, mode: str):
    _chain_input(tmp_path / "in", seed=3)
    inputs = str(tmp_path / "in" / "*.jsonl")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dedup": {"mode": mode}}), encoding="utf-8")
    run_out = tmp_path / "run.jsonl"
    assert _forge("run", "--config", str(cfg), "--workers", "1", "--in", inputs,
                  "--out", str(run_out)) == 0
    step = inputs
    for argv in (["lang"], ["normalize"], ["quality"], ["dedup", "--mode", mode], ["split"]):
        out = tmp_path / f"{argv[0]}.jsonl"
        assert _forge(*argv, "--workers", "1", "--in", step, "--out", str(out)) == 0
        step = str(out)
    assert Path(step).read_bytes() == run_out.read_bytes()
    # Every stage had work to do.
    kept = list(read_jsonl(run_out))
    n_in = sum(len(list(read_jsonl(f))) for f in (tmp_path / "in").glob("*.jsonl"))
    assert len({d.id.split("#")[0] for d in kept}) < n_in
    assert any(d.id.endswith("#1") for d in kept)
    assert any("<PII:" in d.text for d in kept)


@pytest.mark.parametrize("route", ["flag", "config"])
def test_flag_wordlist_uses_the_config_charmap(tmp_path: Path, route: str):
    (tmp_path / "t.json").write_text(json.dumps({"map": [["U+0061", "U+0062"]]}), encoding="utf-8")
    (tmp_path / "s.txt").write_text("a\n", encoding="utf-8")
    section = {"charmap": "t.json"}
    cfg = {"normalize": section, "quality": {"stopwords": "s.txt"}} if route == "config" else {
        "normalize": section
    }
    (tmp_path / "c.json").write_text(json.dumps(cfg), encoding="utf-8")
    src = _write(tmp_path / "in.jsonl", [Document(id="d", source="s", text="b b b b")])
    flags = ["--stopwords", str(tmp_path / "s.txt")] if route == "flag" else []
    out = tmp_path / "o.jsonl"
    code = _forge(
        "quality", "--config", str(tmp_path / "c.json"), *flags, "--in", str(src), "--out", str(out)
    )
    assert code == 0
    assert [d.id for d in read_jsonl(out)] == ["d"]


def test_flag_path_is_relative_to_cwd_and_config_path_to_config(tmp_path: Path, monkeypatch):
    (tmp_path / "conf").mkdir()
    (tmp_path / "conf" / "t.json").write_text(json.dumps({"map": [["U+0041", "U+0042"]]}), encoding="utf-8")
    (tmp_path / "conf" / "c.json").write_text(
        json.dumps({"normalize": {"charmap": "t.json"}}), encoding="utf-8"
    )
    (tmp_path / "t.json").write_text(json.dumps({"map": [["U+0041", "U+0043"]]}), encoding="utf-8")
    _write(tmp_path / "in.jsonl", [Document(id="d", source="s", text="A x")])
    monkeypatch.chdir(tmp_path)
    io = ["--config", "conf/c.json", "--in", "in.jsonl", "--out", "o.jsonl"]
    assert _forge("normalize", *io) == 0
    assert read_jsonl(tmp_path / "o.jsonl")[0].text == "B x"
    assert _forge("normalize", "--table", "t.json", *io) == 0
    assert read_jsonl(tmp_path / "o.jsonl")[0].text == "C x"


@pytest.mark.parametrize("command", ["ingest", "lang", "quality", "dedup", "run"])
def test_report_round_trip(corpus_file: Path, tmp_path: Path, capsys, command: str):
    report = tmp_path / "rep.json"
    out = tmp_path / "o.jsonl"
    assert _forge(command, "--in", str(corpus_file), "--out", str(out), "--report", str(report)) == 0
    printed = capsys.readouterr().out
    assert _forge("report", str(report)) == 0
    table = capsys.readouterr().out
    assert "TOTAL" in table
    # Only run prints its table.
    assert printed == (table if command == "run" else "")
    assert _forge("report", str(report), "--format", "json") == 0
    rendered = json.loads(capsys.readouterr().out)
    assert rendered["sources"]
    assert rendered["stages"] == json.loads(report.read_text(encoding="utf-8"))["stages"]


@pytest.mark.parametrize("flag", ["--report", "--fps-out"])
def test_two_outputs_on_one_path_are_refused(
    corpus_file: Path, tmp_path: Path, capsys, monkeypatch, flag: str
):
    def run_pipeline(*args, **kwargs):
        raise AssertionError("the chain ran before the paths were checked")

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert _forge("dedup", "--in", str(corpus_file), "--out", "x", flag, str(tmp_path / "x")) == 2
    assert "'" + str(tmp_path / "x") + "'" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_each_output_is_renamed_into_place_once(corpus_file: Path, tmp_path: Path, monkeypatch):
    paths = [tmp_path / "o.jsonl", tmp_path / "f.fps", tmp_path / "r.json"]
    targets = []
    rename = os.replace

    def replace(src, dst):
        targets.append(Path(dst))
        rename(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    code = _forge(
        "dedup", "--in", str(corpus_file), "--out", str(paths[0]),
        "--fps-out", str(paths[1]), "--report", str(paths[2]),
    )
    assert code == 0
    assert sorted(targets) == sorted(paths)
    assert sorted(tmp_path.iterdir()) == sorted([corpus_file, *paths])


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_get_the_mode_of_the_umask(corpus_file: Path, tmp_path: Path, umask, mode):
    paths = [tmp_path / "o.jsonl", tmp_path / "r.json", tmp_path / "f.fps"]
    old = os.umask(umask)
    try:
        code = _forge(
            "dedup", "--in", str(corpus_file), "--out", str(paths[0]),
            "--report", str(paths[1]), "--fps-out", str(paths[2]),
        )
    finally:
        os.umask(old)
    assert code == 0
    assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [mode] * 3


def test_report_missing_file(tmp_path: Path):
    assert _forge("report", str(tmp_path / "no.json")) == 3


@pytest.mark.parametrize("config", [{}, {"dedup": {"mode": "near"}}], ids=["exact", "near"])
def test_workers_flag_does_not_change_output(tmp_path: Path, config: dict):
    # workers is reserved: accepted and checked, with no effect on any byte.
    docs = [Document(id=f"d{i}", source="s", text=_urdu(20 + i % 7)) for i in range(300)]
    src = _write(tmp_path / "big.jsonl", docs)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    outs, reports = [], []
    for n in ("1", "4"):
        out, report = tmp_path / f"w{n}.jsonl", tmp_path / f"w{n}.json"
        assert _forge(
            "run", "--config", str(cfg), "--workers", n, "--in", str(src),
            "--out", str(out), "--report", str(report),
        ) == 0
        outs.append(out.read_bytes())
        data = json.loads(report.read_text(encoding="utf-8"))
        data["stages"] = [_without_durations(s) for s in data["stages"]]
        reports.append(data)
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]


WRONG_TYPED_CONFIGS = [
    (["run"], {"lang": {"threshold": "0.9"}}, "lang.threshold"),
    (["lang", "--threshold", "0.9"], {"lang": 5}, "'lang'"),
]


@pytest.mark.parametrize(
    "argv,payload,named", WRONG_TYPED_CONFIGS, ids=[" ".join(a) for a, _, _ in WRONG_TYPED_CONFIGS]
)
def test_wrong_typed_config_value_is_config_error(
    corpus_file: Path, tmp_path: Path, capsys, argv, payload, named
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    code = _forge(
        *argv, "--config", str(cfg), "--in", str(corpus_file), "--out", str(tmp_path / "o.jsonl")
    )
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


# Wrong-typed entries of a character table or a PII rule file, each given
# through its own CLI flag and through a run config.
BAD_DATA_FILES = [
    ("charmap", {"map": [["U+0600", 6]]}),
    ("charmap", {"map": [[5, 6]]}),
    ("charmap", {"map": [["U+0600"]]}),
    ("charmap", {"map": [["U+0600", "U+0601", "U+0602"]]}),
    ("charmap", {"map": {"U+0600": "U+0601"}}),
    ("charmap", {"map": "U+0600"}),
    ("charmap", {"strip": [5]}),
    ("charmap", {"strip": [["U+0600"]]}),
    ("charmap", {"strip": "U+0600"}),
    ("charmap", {"strip": ["U+FFFFFF"]}),
    ("charmap", [["U+0600", "U+0601"]]),
    ("pii", [{"name": 5, "pattern": "x", "replacement": "<PII:X>"}]),
    ("pii", [{"name": "X", "pattern": 5, "replacement": "<PII:X>"}]),
    ("pii", [{"name": "X", "pattern": "x", "replacement": None}]),
]


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("kind,payload", BAD_DATA_FILES, ids=[f"{k}={p!r}" for k, p in BAD_DATA_FILES])
def test_wrong_typed_table_or_rule_entry_is_config_error(
    corpus_file: Path, tmp_path: Path, capsys, route: str, kind: str, payload
):
    data = tmp_path / "data.json"
    data.write_text(json.dumps(payload), encoding="utf-8")
    io = ["--in", str(corpus_file), "--out", str(tmp_path / "o.jsonl")]
    if route == "flag":
        argv = ["normalize", "--table", str(data)] if kind == "charmap" else ["quality", "--pii", str(data)]
    else:
        cfg = tmp_path / "cfg.json"
        section = {"normalize": {"charmap": "data.json"}} if kind == "charmap" else {"pii": {"rules": "data.json"}}
        cfg.write_text(json.dumps(section), encoding="utf-8")
        argv = ["run", "--config", str(cfg)]
    assert _forge(*argv, *io) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o.jsonl").exists()


def test_bad_workers_value(corpus_file: Path, tmp_path: Path):
    code = _forge(
        "run", "--workers", "0", "--in", str(corpus_file), "--out", str(tmp_path / "o.jsonl")
    )
    assert code == 2


def test_shingle_width_above_64_is_config_error(corpus_file: Path, tmp_path: Path, capsys):
    out = tmp_path / "o.jsonl"
    code = _forge("dedup", "--mode", "near", "--shingle", "65", "--in", str(corpus_file), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert "shingle_width" in err and "Traceback" not in err
    assert not out.exists()


# ----------------------------------------------------------------- mt eval


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_bleu_refs_and_named_hyp(tmp_path: Path, capsys):
    refs = _write_lines(tmp_path / "refs.txt", ["the cat sat on the mat"])
    hyp = _write_lines(tmp_path / "sysA.txt", ["the cat sat on mat"])
    code = _forge(
        "bleu", "--refs", str(refs), "--hyp", f"mysys={hyp}",
        "--smoothing", "none", "--format", "json",
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["smoothing"] == "none"
    score = data["scores"]["refs"]["mysys"]["score"]
    assert score == pytest.approx(57.893007, abs=5e-7)


def test_bleu_hyp_name_defaults_to_stem(tmp_path: Path, capsys):
    refs = _write_lines(tmp_path / "refs.txt", ["ایک دو تین چار پانچ"])
    hyp = _write_lines(tmp_path / "sysA.txt", ["ایک دو تین چار پانچ"])
    code = _forge("bleu", "--refs", str(refs), "--hyp", str(hyp))
    assert code == 0
    out = capsys.readouterr().out
    assert "sysA" in out
    assert "100.00*" in out


def test_bleu_requires_refs_or_manifest(tmp_path: Path):
    assert _forge("bleu", "--hyp", "x=y.txt") == 2
    refs = _write_lines(tmp_path / "refs.txt", ["a"])
    assert _forge("bleu", "--refs", str(refs)) == 2


def test_bleu_length_mismatch_is_data_error(tmp_path: Path):
    refs = _write_lines(tmp_path / "refs.txt", ["a b", "c d"])
    hyp = _write_lines(tmp_path / "h.txt", ["a b"])
    assert _forge("bleu", "--refs", str(refs), "--hyp", str(hyp)) == 3


@pytest.mark.parametrize("brk", ["\u0085", "\u2028", "\r"], ids=["NEL", "LS", "CR"])
def test_reference_and_system_lines_end_at_lf_only(tmp_path: Path, capsys, brk: str):
    refs = [f"a b{brk}c d", "e f g h"]
    hyps = ["a b c d", f"e f{brk}g"]
    refs_path = _write_lines(tmp_path / "refs.txt", refs)
    hyp_path = _write_lines(tmp_path / "h.txt", hyps)
    code = _forge("bleu", "--refs", str(refs_path), "--hyp", f"s={hyp_path}", "--format", "json")
    assert code == 0
    scored = json.loads(capsys.readouterr().out)["scores"]["refs"]["s"]
    assert scored == corpus_bleu(hyps, refs).to_dict()


def test_crlf_files_read_like_their_lf_copies(tmp_path: Path, capsys):
    refs, hyps = ["a b c d", "", "e f g h"], ["a b c", "", "e f g h"]
    outputs = []
    for end in ("\n", "\r\n"):
        d = tmp_path / repr(end)
        d.mkdir()
        (d / "refs.txt").write_bytes(end.join([*refs, ""]).encode())
        (d / "h.txt").write_bytes(end.join(hyps).encode())
        assert cli._read_lines(d / "refs.txt", "references") == tuple(refs)
        assert cli._read_lines(d / "h.txt", "system output") == tuple(hyps)
        assert _forge("bleu", "--refs", str(d / "refs.txt"), "--hyp", str(d / "h.txt")) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


_BOM_INPUTS = {
    "references": "ایک دو تین چار\nپانچ چھے سات آٹھ\n",
    "wordlist": "the\nکا\n# a comment\n",
    "sidecar": "d0\t80dc12471108b3a7\nd1\t0123456789abcdef\n",
    "config": '{"workers": 1, "dedup": {"mode": "near"}}\n',
}


@pytest.mark.parametrize("kind", _BOM_INPUTS)
def test_a_bom_file_reads_like_its_bom_free_copy(tmp_path: Path, capsys, kind):
    text = _BOM_INPUTS[kind].encode("utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_bytes(text)

    def read(path: Path):
        if kind == "references":
            assert _forge("bleu", "--refs", str(path), "--hyp", str(hyp)) == 0
            return capsys.readouterr().out
        reader = {"wordlist": load_wordlist, "sidecar": read_sidecar, "config": read_config}[kind]
        return reader(path)

    # One file name: the references' name is in the bleu output.
    plain, bom = tmp_path / "plain" / "input", tmp_path / "bom" / "input"
    for path, data in ((plain, text), (bom, codecs.BOM_UTF8 + text)):
        path.parent.mkdir()
        path.write_bytes(data)
    assert read(bom) == read(plain)
    if kind == "references":
        assert "100.00" in read(bom)


def _manifest(tmp_path: Path) -> Path:
    _write_lines(tmp_path / "refs1.txt", ["ایک دو تین چار", "پانچ چھے سات"])
    _write_lines(tmp_path / "good1.txt", ["ایک دو تین چار", "پانچ چھے سات"])
    _write_lines(tmp_path / "weak1.txt", ["ایک دو", "پانچ"])
    _write_lines(tmp_path / "refs2.txt", ["بارش ہو رہی ہے"])
    _write_lines(tmp_path / "good2.txt", ["بارش ہو رہی ہے"])
    _write_lines(tmp_path / "weak2.txt", ["دھوپ نکلی ہے"])
    manifest = tmp_path / "sets.json"
    manifest.write_text(
        json.dumps(
            [
                {
                    "name": "devA",
                    "refs_path": "refs1.txt",
                    "systems": {"good": "good1.txt", "weak": "weak1.txt"},
                },
                {
                    "name": "devB",
                    "refs_path": "refs2.txt",
                    "systems": {"good": "good2.txt", "weak": "weak2.txt"},
                },
            ]
        ),
        encoding="utf-8",
    )
    return manifest


def test_compare_from_manifest(tmp_path: Path, capsys):
    code = _forge("compare", "--manifest", str(_manifest(tmp_path)))
    assert code == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert "devA" in header and "devB" in header
    good_row = next(l for l in out.splitlines() if l.startswith("good"))
    assert good_row.count("*") == 2


def test_compare_json_lists_sets_in_manifest_order(tmp_path: Path, capsys):
    code = _forge("compare", "--manifest", str(_manifest(tmp_path)), "--format", "json")
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sets"] == ["devA", "devB"]


def test_compare_reads_each_set_after_scoring_the_one_before(tmp_path: Path, monkeypatch):
    events = []
    read_lines, bleu = cli._read_lines, mteval.corpus_bleu

    def spy_read(path, what):
        events.append(Path(path).name)
        return read_lines(path, what)

    def spy_bleu(*args):
        events.append("bleu")
        return bleu(*args)

    monkeypatch.setattr(cli, "_read_lines", spy_read)
    monkeypatch.setattr(mteval, "corpus_bleu", spy_bleu)
    assert _forge("compare", "--manifest", str(_manifest(tmp_path))) == 0
    assert events == [
        "refs1.txt", "good1.txt", "weak1.txt", "bleu", "bleu",
        "refs2.txt", "good2.txt", "weak2.txt", "bleu", "bleu",
    ]


def test_repeated_manifest_set_name_is_refused_before_any_scoring(tmp_path: Path, capsys, monkeypatch):
    bleu_calls, bleu = [], mteval.corpus_bleu

    def spy_bleu(*args):
        bleu_calls.append(args)
        return bleu(*args)

    monkeypatch.setattr(mteval, "corpus_bleu", spy_bleu)
    _manifest(tmp_path)
    bad = tmp_path / "twice.json"
    bad.write_text(json.dumps([_GOOD_SET, _GOOD_SET]), encoding="utf-8")
    assert _forge("compare", "--manifest", str(bad)) == 2
    assert "duplicate test set name 'devA'" in capsys.readouterr().err
    assert bleu_calls == []
    # Before any set file is read too: a missing file in entry 0 is not reached.
    bad.write_text(json.dumps([{**_GOOD_SET, "refs_path": "missing.txt"}, _GOOD_SET]), encoding="utf-8")
    assert _forge("compare", "--manifest", str(bad)) == 2


def test_bleu_manifest_is_a_usage_error(tmp_path: Path):
    manifest = str(_manifest(tmp_path))
    refs, hyp = str(tmp_path / "refs1.txt"), str(tmp_path / "good1.txt")
    assert _forge("bleu", "--manifest", manifest) == 2
    assert _forge("bleu", "--manifest", manifest, "--refs", refs, "--hyp", hyp) == 2


def test_manifest_unknown_key_rejected(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "x", "refs": "r.txt", "systems": {}}]), encoding="utf-8")
    assert _forge("compare", "--manifest", str(bad)) == 2


_GOOD_SET = {"name": "devA", "refs_path": "refs1.txt", "systems": {"good": "good1.txt"}}
WRONG_TYPED_MANIFESTS = [
    {**_GOOD_SET, "systems": 5},
    {**_GOOD_SET, "refs_path": 5},
    {"sets": 5},
    {**_GOOD_SET, "name": 5},
    {**_GOOD_SET, "systems": {"good": 5}},
    {"sets": [_GOOD_SET], "smoothing": []},
    {**_GOOD_SET, "systems": {}},
    # Every entry is checked before any set file is read.
    [{**_GOOD_SET, "refs_path": "missing.txt"}, {**_GOOD_SET, "systems": 5}],
]


@pytest.mark.parametrize("payload", WRONG_TYPED_MANIFESTS, ids=[repr(p) for p in WRONG_TYPED_MANIFESTS])
def test_wrong_typed_manifest_is_config_error(tmp_path: Path, capsys, payload):
    _manifest(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert _forge("compare", "--manifest", str(bad)) == 2
    assert "Traceback" not in capsys.readouterr().err


# Every input file besides the corpus, each read by one command line with
# {bad} for the unreadable file: (case, argv, exit code, is the file JSON?).
# Config-like files exit 2, data files 3.
_IO = ["--in", "{corpus}", "--out", "{d}/o.jsonl"]
UNREADABLE_INPUTS = [
    ("--config", ["run", "--config", "{bad}", *_IO], 2, True),
    ("--table", ["normalize", "--table", "{bad}", *_IO], 2, True),
    ("--pii", ["quality", "--pii", "{bad}", *_IO], 2, True),
    ("--stopwords", ["quality", "--stopwords", "{bad}", *_IO], 2, False),
    ("--flagged", ["quality", "--flagged", "{bad}", *_IO], 2, False),
    ("--manifest", ["compare", "--manifest", "{bad}"], 2, True),
    ("refs_path", ["compare", "--manifest", "{d}/refs_bad.json"], 3, False),
    ("systems", ["compare", "--manifest", "{d}/system_bad.json"], 3, False),
    ("--refs", ["bleu", "--refs", "{bad}", "--hyp", "{d}/good1.txt"], 3, False),
    ("--hyp", ["bleu", "--refs", "{d}/refs1.txt", "--hyp", "{bad}"], 3, False),
    ("--fps-in", ["dedup", "--fps-in", "{bad}", *_IO], 3, False),
    ("report", ["report", "{bad}"], 3, True),
]
_REPORT = {
    "sources": {"a": {"original_tokens": 3, "final_tokens": 1}},
    "stages": [{"stage": "ingest", "docs_in": 1, "docs_out": 1, "tokens_in": 3, "tokens_out": 3}],
}
# (case, argv, exit code, content of {bad}, what stderr names: the file
# unless given).
UNREADABLE_CASES = [
    (f"{case}-{kind}", argv, code, content, "{bad}")
    for case, argv, code, is_json in UNREADABLE_INPUTS
    for kind, content in [
        ("not-utf8", b"ok\n\xff\xfe\n"), ("not-json", b"{not json\n"), ("too-deep", b"[" * 100_000),
    ]
    if is_json or kind == "not-utf8"
] + [
    # A path read from a JSON file that holds a NUL.
    ("refs_path-nul", ["compare", "--manifest", "{d}/refs_nul.json"], 3, b"", "{bad}"),
    ("config-stopwords-nul", ["run", "--config", "{d}/stopwords_nul.json", *_IO], 2, b"", "{bad}"),
    # A saved report with a wrong-typed value is named by its key.
    ("report-string-tokens", ["report", "{bad}"], 3,
     json.dumps({**_REPORT, "sources": {"a": {"original_tokens": "x", "final_tokens": 1}}}).encode(),
     "report.sources.a.original_tokens"),
    ("report-string-docs-in", ["report", "{bad}"], 3,
     json.dumps({**_REPORT, "stages": [{**_REPORT["stages"][0], "docs_in": "a"}]}).encode(),
     "report.stages[0].docs_in"),
]


@pytest.mark.parametrize(
    "argv,code,content,named", [c[1:] for c in UNREADABLE_CASES], ids=[c[0] for c in UNREADABLE_CASES]
)
def test_unreadable_input_file_is_named_and_exits_2_or_3(
    corpus_file: Path, tmp_path: Path, capsys, argv, code, content, named
):
    _manifest(tmp_path)
    bad = tmp_path / "bad.in"
    bad.write_bytes(content)
    for name, payload in (("refs_bad.json", {**_GOOD_SET, "refs_path": "bad.in"}),
                          ("system_bad.json", {**_GOOD_SET, "systems": {"good": "bad.in"}}),
                          ("refs_nul.json", {**_GOOD_SET, "refs_path": "bad.in\0"}),
                          ("stopwords_nul.json", {"quality": {"stopwords": "bad.in\0"}})):
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert _forge(*(a.format(bad=bad, corpus=corpus_file, d=tmp_path) for a in argv)) == code
    out, err = capsys.readouterr()
    assert named.format(bad=bad) in err and "Traceback" not in err
    assert out == "" and sorted(tmp_path.iterdir()) == before


# ----------------------------------------------------------------- logging


def test_forge_log_controls_verbosity(corpus_file: Path, tmp_path: Path, capsys, monkeypatch):
    monkeypatch.setenv("FORGE_LOG", "debug")
    out = tmp_path / "o.jsonl"
    assert _forge("lang", "--in", str(corpus_file), "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert "lang_filter" in err
    assert "lang_below_threshold" in err


def test_default_log_level_shows_stage_summaries(corpus_file: Path, tmp_path: Path, capsys, monkeypatch):
    monkeypatch.delenv("FORGE_LOG", raising=False)
    out = tmp_path / "o.jsonl"
    assert _forge("lang", "--in", str(corpus_file), "--out", str(out)) == 0
    assert "lang_filter: 3 -> 2 docs" in capsys.readouterr().err


def test_error_level_is_silent_on_success(corpus_file: Path, tmp_path: Path, capsys, monkeypatch):
    monkeypatch.setenv("FORGE_LOG", "error")
    out = tmp_path / "o.jsonl"
    assert _forge("lang", "--in", str(corpus_file), "--out", str(out)) == 0
    assert capsys.readouterr().err == ""


def test_bad_forge_log_value(corpus_file: Path, tmp_path: Path, capsys, monkeypatch):
    monkeypatch.setenv("FORGE_LOG", "loud")
    code = _forge("lang", "--in", str(corpus_file), "--out", str(tmp_path / "o.jsonl"))
    assert code == 2
    assert "FORGE_LOG" in capsys.readouterr().err
