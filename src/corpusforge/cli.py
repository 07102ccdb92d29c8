"""The ``forge`` command line tool.

One subcommand per pipeline stage (each reads JSONL documents and writes
the processed result), ``run`` for the whole chain, ``report`` to
re-render a saved run report, and ``bleu``/``compare`` for translation
evaluation. Stage subcommands exist so a full run can be reproduced and
audited step by step.

Inputs are given with ``--in``, which may be a glob pattern; expansion
happens inside the tool so quoting works the same on every shell, and
matches are sorted for determinism.

Exit codes: 0 success, 2 usage or configuration error, 3 data error.
Logging goes to stderr; FORGE_LOG selects error, info, or debug. Output
files are written to temporary names and renamed only when the command
succeeds, so a failed run leaves no partial outputs. ``--out -`` streams
JSONL to stdout instead.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .corpus import Corpus, dump_jsonl, write_jsonl
from .dedup import dedup_pass, read_fingerprints, seed_registry, write_fingerprints
from .errors import ConfigError, DataError, ForgeError
from .langid import filter_language
from .mteval import SMOOTHINGS, EvalSet, compare_systems
from .normalize import CharMapTable, default_table, split_corpus, standardize_corpus
from .pipeline import PipelineConfig, ingest, run_pipeline
from .quality import (
    PiiRuleSet,
    QualityConfig,
    filter_quality,
    load_wordlist,
    scrub_corpus_pii,
)
from .report import PipelineReport, render_report, stage_summary

log = logging.getLogger("forge")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("FORGE_LOG", "info").lower()
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"FORGE_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


class _StagedOutputs:
    """Output files staged under temporary names until commit."""

    def __init__(self):
        self._staged: list[tuple[Path, Path]] = []

    def path(self, final: str | Path) -> Path:
        final = Path(final)
        tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp")
        self._staged.append((tmp, final))
        return tmp

    def commit(self) -> None:
        for tmp, final in self._staged:
            os.replace(tmp, final)
        self._staged.clear()

    def discard(self) -> None:
        for tmp, _ in self._staged:
            try:
                tmp.unlink()
            except OSError:
                pass
        self._staged.clear()


def _expand_inputs(patterns: list[str]) -> list[Path]:
    paths: list[Path] = []
    for pattern in patterns:
        if any(c in pattern for c in "*?["):
            matches = sorted(globmod.glob(pattern))
            if not matches:
                raise DataError(f"no input files match {pattern!r}")
            paths.extend(Path(m) for m in matches)
        else:
            paths.append(Path(pattern))
    return paths


def _write_corpus(corpus: Corpus, dest: str, staged: _StagedOutputs) -> None:
    if dest == "-":
        dump_jsonl(corpus, sys.stdout)
        sys.stdout.flush()
    else:
        write_jsonl(corpus, staged.path(dest))


def _write_json(payload: dict, dest: str, staged: _StagedOutputs) -> None:
    with open(staged.path(dest), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _load_cfg(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.from_json(args.config)
    return PipelineConfig()


def _workers(args) -> int | None:
    w = getattr(args, "workers", None)
    if w is not None and w < 1:
        raise ConfigError(f"--workers must be >= 1, got {w}")
    return w


def _read_lines(path: str | Path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return text.splitlines()


def _log_stages(*reports) -> None:
    for rep in reports:
        log.info("%s", stage_summary(rep))
        for sub in rep.sub_reports:
            log.info("  %s", stage_summary(sub))
        for detail in rep.drop_details:
            log.debug(
                "dropped %s (%s%s)",
                detail.doc_id,
                detail.reason,
                f", kept {detail.kept_id}" if detail.kept_id else "",
            )


def _emit(args, staged, corpus: Corpus, reports) -> None:
    _log_stages(*reports)
    _write_corpus(corpus, args.out, staged)
    if getattr(args, "report", None):
        _write_json({"stages": [r.to_dict() for r in reports]}, args.report, staged)


def _cmd_ingest(args, staged) -> int:
    corpus, rep = ingest(_expand_inputs(args.inputs))
    _emit(args, staged, corpus, [rep])
    return 0


def _cmd_lang(args, staged) -> int:
    cfg = _load_cfg(args).lang
    if args.threshold is not None:
        cfg = replace(cfg, threshold=args.threshold)
    corpus, _ = ingest(_expand_inputs(args.inputs))
    corpus, rep = filter_language(corpus, cfg, workers=_workers(args))
    _emit(args, staged, corpus, [rep])
    return 0


def _cmd_normalize(args, staged) -> int:
    cfg = _load_cfg(args)
    table = cfg.charmap
    if args.table:
        table = CharMapTable.from_json(args.table)
    corpus, _ = ingest(_expand_inputs(args.inputs))
    corpus, rep = standardize_corpus(corpus, table, workers=_workers(args))
    reports = [rep]
    if args.target is not None:
        split_cfg = replace(cfg.split, target_tokens=args.target)
        corpus, rep2 = split_corpus(corpus, split_cfg, workers=_workers(args))
        reports.append(rep2)
    _emit(args, staged, corpus, reports)
    return 0


def _cmd_quality(args, staged) -> int:
    cfg = _load_cfg(args)
    q = cfg.quality or QualityConfig()
    overrides = {}
    if args.stopword_threshold is not None:
        overrides["stopword_threshold"] = args.stopword_threshold
    if args.flagged_threshold is not None:
        overrides["flagged_threshold"] = args.flagged_threshold
    if args.min_tokens is not None:
        overrides["min_tokens"] = args.min_tokens
    if args.stopwords:
        overrides["stopwords"] = load_wordlist(args.stopwords, default_table())
    if args.flagged:
        overrides["flagged"] = load_wordlist(args.flagged, default_table())
    if overrides:
        q = replace(q, **overrides)
    corpus, _ = ingest(_expand_inputs(args.inputs))
    corpus, rep = filter_quality(corpus, q, workers=_workers(args))
    reports = [rep]
    if not args.no_pii:
        rules = cfg.pii_rules
        if args.pii:
            rules = PiiRuleSet.from_json(args.pii)
        corpus, rep2 = scrub_corpus_pii(corpus, rules, workers=_workers(args))
        reports.append(rep2)
    _emit(args, staged, corpus, reports)
    return 0


def _cmd_dedup(args, staged) -> int:
    cfg = _load_cfg(args)
    d = cfg.dedup
    overrides = {}
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.hamming is not None:
        overrides["hamming_threshold"] = args.hamming
    if args.shingle is not None:
        overrides["shingle_width"] = args.shingle
    if overrides:
        d = replace(d, **overrides)
    if (args.fps_in or args.fps_out) and args.no_overall:
        raise ConfigError("--fps-in and --fps-out need the corpus-wide pass (drop --no-overall)")
    registry = seed_registry(read_fingerprints(args.fps_in) if args.fps_in else [], d)
    seeded = len(registry)
    corpus, _ = ingest(_expand_inputs(args.inputs))
    corpus, rep = dedup_pass(
        corpus,
        d,
        per_source=not args.no_per_source,
        overall=not args.no_overall,
        lines=not args.no_lines,
        registry=registry,
        workers=_workers(args),
    )
    if args.fps_out:
        write_fingerprints(staged.path(args.fps_out), registry.pairs()[seeded:])
    _emit(args, staged, corpus, [rep])
    return 0


def _cmd_split(args, staged) -> int:
    cfg = _load_cfg(args).split
    overrides = {}
    if args.target is not None:
        overrides["target_tokens"] = args.target
    if args.sentence_ends is not None:
        overrides["sentence_end_chars"] = args.sentence_ends
    if overrides:
        cfg = replace(cfg, **overrides)
    corpus, _ = ingest(_expand_inputs(args.inputs))
    corpus, rep = split_corpus(corpus, cfg, workers=_workers(args))
    _emit(args, staged, corpus, [rep])
    return 0


def _cmd_run(args, staged) -> int:
    cfg = _load_cfg(args)
    w = _workers(args)
    if w is not None:
        cfg = cfg.with_workers(w)
    corpus, report = run_pipeline(_expand_inputs(args.inputs), cfg)
    _log_stages(*report.stages)
    _write_corpus(corpus, args.out, staged)
    if args.report:
        _write_json(report.to_dict(), args.report, staged)
    if args.out != "-":
        print(render_report(report))
    return 0


def _cmd_report(args, staged) -> int:
    try:
        with open(args.report_file, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read report {args.report_file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(
            f"report {args.report_file} is not valid JSON: {exc}"
        ) from exc
    report = PipelineReport.from_dict(data)
    print(render_report(report, fmt=args.format))
    return 0


def _parse_hyp(spec: str) -> tuple[str, str]:
    if "=" in spec:
        name, path = spec.split("=", 1)
    else:
        name, path = Path(spec).stem, spec
    if not name or not path:
        raise ConfigError(f"bad --hyp {spec!r} (expected NAME=PATH or PATH)")
    return name, path


def _load_manifest(path: str) -> tuple[list[EvalSet], str | None]:
    """Manifest: a {name, refs_path, systems} object, an array of them, or
    {"sets": [...], "smoothing": ...}. Paths resolve relative to the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from exc

    smoothing = None
    if isinstance(data, list):
        entries = data
    elif isinstance(data, dict) and "sets" in data:
        unknown = set(data) - {"sets", "smoothing"}
        if unknown:
            raise ConfigError(f"unknown manifest key(s) {sorted(unknown)}")
        entries = data["sets"]
        smoothing = data.get("smoothing")
    elif isinstance(data, dict):
        entries = [data]
    else:
        raise ConfigError(f"manifest {path} must be a JSON object or array")

    base = Path(path).parent

    def resolve(p) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    sets = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError("each manifest set must be an object")
        unknown = set(entry) - {"name", "refs_path", "systems"}
        if unknown:
            raise ConfigError(
                f"unknown key(s) {sorted(unknown)} in manifest set "
                f"{entry.get('name', '?')!r}"
            )
        try:
            name = entry["name"]
            refs = tuple(_read_lines(resolve(entry["refs_path"])))
            hyps = {
                system: tuple(_read_lines(resolve(p)))
                for system, p in entry["systems"].items()
            }
        except KeyError as exc:
            raise ConfigError(f"manifest set is missing key {exc}") from exc
        sets.append(EvalSet(name=name, references=refs, hypotheses=hyps))
    if not sets:
        raise ConfigError(f"manifest {path} defines no sets")
    return sets, smoothing


def _eval_sets_from_args(args) -> tuple[list[EvalSet], str]:
    if args.manifest:
        if args.refs or args.hyp:
            raise ConfigError("--manifest cannot be combined with --refs/--hyp")
        sets, manifest_smoothing = _load_manifest(args.manifest)
        smoothing = args.smoothing or manifest_smoothing or "epsilon"
        return sets, smoothing
    if not args.refs or not args.hyp:
        raise ConfigError("need --refs and at least one --hyp (or --manifest)")
    refs = tuple(_read_lines(args.refs))
    hyps: dict[str, tuple[str, ...]] = {}
    for spec in args.hyp:
        name, hyp_path = _parse_hyp(spec)
        if name in hyps:
            raise ConfigError(f"duplicate system name {name!r}")
        hyps[name] = tuple(_read_lines(hyp_path))
    smoothing = args.smoothing or "epsilon"
    return [EvalSet(name=Path(args.refs).stem, references=refs, hypotheses=hyps)], smoothing


def _cmd_bleu(args, staged) -> int:
    sets, smoothing = _eval_sets_from_args(args)
    print(compare_systems(sets, smoothing=smoothing, fmt=args.format))
    return 0


def _add_io(sp, workers: bool = True, config: bool = True) -> None:
    sp.add_argument(
        "--in",
        dest="inputs",
        action="append",
        required=True,
        metavar="GLOB",
        help="input JSONL file or glob pattern (repeatable)",
    )
    sp.add_argument(
        "--out", required=True, metavar="PATH", help="output JSONL path, - for stdout"
    )
    sp.add_argument("--report", metavar="PATH", help="write a JSON stage report")
    if workers:
        sp.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="process count (default: all cores; output is identical for any N)",
        )
    if config:
        sp.add_argument("--config", metavar="PATH", help="pipeline config JSON")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="forge", description="Curate and evaluate Urdu text corpora."
    )
    p.add_argument("--version", action="version", version=f"forge {__version__}")
    sub = p.add_subparsers(dest="command", metavar="COMMAND", required=True)

    sp = sub.add_parser("ingest", help="validate and merge JSONL inputs")
    _add_io(sp, workers=False, config=False)
    sp.set_defaults(func=_cmd_ingest)

    sp = sub.add_parser("lang", help="drop documents not mostly in the target script")
    _add_io(sp)
    sp.add_argument("--threshold", type=float, metavar="F", help="keep score >= F")
    sp.set_defaults(func=_cmd_lang)

    sp = sub.add_parser("normalize", help="standardize characters (and optionally split)")
    _add_io(sp)
    sp.add_argument("--table", metavar="PATH", help="character rule table JSON")
    sp.add_argument(
        "--target", type=int, metavar="N", help="also split to about N tokens"
    )
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("quality", help="ratio-based quality filter plus PII scrub")
    _add_io(sp)
    sp.add_argument("--stopwords", metavar="PATH", help="stopword list, one per line")
    sp.add_argument("--flagged", metavar="PATH", help="flagged-word list, one per line")
    sp.add_argument("--stopword-threshold", type=float, metavar="F")
    sp.add_argument("--flagged-threshold", type=float, metavar="F")
    sp.add_argument("--min-tokens", type=int, metavar="N")
    sp.add_argument("--pii", metavar="PATH", help="PII rules JSON (array of rules)")
    sp.add_argument("--no-pii", action="store_true", help="skip the PII scrub")
    sp.set_defaults(func=_cmd_quality)

    sp = sub.add_parser("dedup", help="remove duplicate documents and repeated lines")
    _add_io(sp)
    sp.add_argument("--mode", choices=("exact", "near"))
    sp.add_argument("--hamming", type=int, metavar="N", help="near-mode bit distance")
    sp.add_argument("--shingle", type=int, metavar="N", help="character shingle width")
    sp.add_argument("--no-per-source", action="store_true")
    sp.add_argument("--no-overall", action="store_true")
    sp.add_argument("--no-lines", action="store_true")
    sp.add_argument("--fps-in", metavar="PATH", help="seed fingerprints (id\\thex)")
    sp.add_argument("--fps-out", metavar="PATH", help="write kept fingerprints")
    sp.set_defaults(func=_cmd_dedup)

    sp = sub.add_parser("split", help="split long documents near a token target")
    _add_io(sp)
    sp.add_argument("--target", type=int, metavar="N")
    sp.add_argument("--sentence-ends", metavar="CHARS")
    sp.set_defaults(func=_cmd_split)

    sp = sub.add_parser("run", help="run the full pipeline")
    _add_io(sp)
    sp.set_defaults(func=_cmd_run)

    sp = sub.add_parser("report", help="re-render a saved run report")
    sp.add_argument("report_file", metavar="REPORT_JSON")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("bleu", help="score translations against references")
    sp.add_argument("--refs", metavar="PATH", help="one reference per line")
    sp.add_argument(
        "--hyp",
        action="append",
        metavar="NAME=PATH",
        help="system output file (repeatable)",
    )
    sp.add_argument("--manifest", metavar="PATH", help="test-set manifest JSON")
    sp.add_argument("--smoothing", choices=SMOOTHINGS, default=None)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=_cmd_bleu)

    sp = sub.add_parser("compare", help="score several systems across test sets")
    sp.add_argument("--manifest", required=True, metavar="PATH")
    sp.add_argument("--smoothing", choices=SMOOTHINGS, default=None)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=_cmd_bleu, refs=None, hyp=None)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
    except ConfigError as exc:
        print(f"forge: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    staged = _StagedOutputs()
    try:
        code = args.func(args, staged)
        if code == 0:
            staged.commit()
        else:
            staged.discard()
        return code
    except ConfigError as exc:
        staged.discard()
        log.error("%s", exc)
        return 2
    except DataError as exc:
        staged.discard()
        log.error("%s", exc)
        return 3
    except ForgeError as exc:
        staged.discard()
        log.error("%s", exc)
        return 2
    except OSError as exc:
        staged.discard()
        log.error("%s", exc)
        return 3
    except Exception:
        staged.discard()
        raise


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
