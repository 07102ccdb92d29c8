"""The ``forge`` command line tool.

One subcommand per pipeline stage (each reads JSONL documents and writes
the processed result), ``run`` for the whole chain, ``report`` to
re-render a saved run report, and ``bleu``/``compare`` for translation
evaluation. Stage subcommands exist so a full run can be reproduced and
audited step by step: one handler makes the ``run_pipeline`` call of every
corpus subcommand, with only its own stages switched on, and every
``--report`` is a run report listing those stages, which ``report`` renders.

Every stage flag overrides the config key it names (its argparse
``dest``, e.g. ``--threshold`` is ``lang.threshold``), so ``--config``
and flags are checked and loaded in one place, ``PipelineConfig.from_dict``.
Paths given by flags resolve against the working directory, paths in the
config file against the file's directory.

Inputs are given with ``--in``, which may be a glob pattern; expansion
happens inside the tool so quoting works the same on every shell, and
matches are sorted for determinism.

Exit codes: 0 success, 2 usage or configuration error, 3 data error.
Logging goes to stderr; FORGE_LOG selects error, info, or debug.
OPENBLAS_NUM_THREADS defaults to 1 (see ``main``); a value the caller
sets is kept. Output files are written to temporary names and renamed
only when the command succeeds, so a failed run leaves no partial
outputs; two outputs may not share a path. ``--out -`` streams JSONL to
stdout instead.
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
from .corpus import (
    atomic_write, check_object, dump_jsonl, read_input, read_json_input, write_jsonl,
)
# dedup_pass and read_fingerprints are not called here: perfbench/tracing.py
# wraps them under these names.
from .dedup import (  # noqa: F401
    DedupRegistry, dedup_pass, read_fingerprints, read_sidecar, write_fingerprints,
)
from .errors import ConfigError, DataError, ForgeError
from .mteval import SMOOTHINGS, EvalSet, compare_systems
from .pipeline import PipelineConfig, _resolve, read_config, run_pipeline
from .report import PipelineReport, render_report, stage_summary

log = logging.getLogger("forge")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("FORGE_LOG", "info").lower()
    # Configured before the check, so a bad value is logged like any error.
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS.get(name, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"FORGE_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )


class _StagedOutputs:
    """Output files written under temporary names (``atomic_write``), all
    renamed onto their paths at commit."""

    def __init__(self):
        self._staged: list[tuple[str, Path]] = []

    def add(self, tmp: str, final: Path) -> None:
        self._staged.append((tmp, final))

    def commit(self) -> None:
        for tmp, final in self._staged:
            os.replace(tmp, final)
        self._staged.clear()

    def discard(self) -> None:
        for tmp, _ in self._staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        self._staged.clear()


def _check_distinct(paths: list[str]) -> None:
    """Refuse two outputs on one path, before any work is done."""
    seen: set[Path] = set()
    for path in paths:
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ConfigError(f"two outputs are given the same path {path!r}")
        seen.add(resolved)


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


# The stage switches of PipelineConfig (``<stage>_enabled``), in the order of
# the run report's stages after ingest.
_STAGES = ("lang", "normalize", "quality", "pii", "dedup", "split")


def _load_cfg(args) -> PipelineConfig:
    """The ``--config`` object with every given flag laid over the config
    key its ``dest`` names (``workers`` or ``section.key``)."""
    data, base_dir = {}, None
    if args.config:
        data, base_dir = read_config(args.config), Path(args.config).parent
    for dest, value in vars(args).items():
        if value is None or not (dest == "workers" or "." in dest):
            continue
        section, _, key = dest.rpartition(".")
        target = data.setdefault(section, {}) if section else data
        if isinstance(target, dict):  # a malformed section is from_dict's error
            target[key] = value
    return PipelineConfig.from_dict(data, base_dir=base_dir)


def _read_lines(path: str | Path, what: str) -> tuple[str, ...]:
    """The lines of a text file, split on "\n" only, with a "\r" that ends
    a line dropped, so a CRLF file reads like its LF copy. A lone "\r" and
    other Unicode line breaks, such as U+0085 and U+2028, stay inside their
    line. A final "\n" ends the last line rather than starting an empty one."""
    lines = read_input(path, what, DataError, newline="").split("\n")
    if lines[-1] == "":
        lines.pop()
    return tuple(line.removesuffix("\r") for line in lines)


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


def _cmd_corpus(args, staged) -> int:
    """Run the chain with only this subcommand's stages switched on (every
    stage for ``run``) and write its outputs. The report lists those stages."""
    _check_distinct([p for p in (args.out, args.fps_out, args.report) if p not in (None, "-")])
    cfg = _load_cfg(args)
    if args.stages is not None:
        stages = set(args.stages)
        if getattr(args, "split.target_tokens", None) is not None:
            stages.add("split")  # normalize --target N also splits
        if getattr(args, "no_pii", False):
            stages.discard("pii")
        cfg = replace(cfg, **{f"{stage}_enabled": stage in stages for stage in _STAGES})
    if (args.fps_in or args.fps_out) and not cfg.dedup.overall:
        raise ConfigError(
            "--fps-in and --fps-out need the corpus-wide pass "
            "(drop --no-overall and dedup.overall=false)"
        )
    registry = DedupRegistry(cfg.dedup)
    if args.fps_in:
        registry.extend(*read_sidecar(args.fps_in, cfg.dedup.mode)[:2])
    seeded = len(registry)
    corpus, report = run_pipeline(_expand_inputs(args.inputs), cfg, registry=registry)
    if args.stages is not None:
        report.stages = [
            rep for rep, stage in zip(report.stages, ("ingest", *_STAGES)) if stage in stages
        ]
    _log_stages(*report.stages)
    if args.out == "-":
        dump_jsonl(corpus, sys.stdout)
        sys.stdout.flush()
    else:
        write_jsonl(corpus, args.out, commit=staged.add)
    if args.fps_out:
        write_fingerprints(args.fps_out, registry.pairs(start=seeded), commit=staged.add)
    if args.report:
        with atomic_write(args.report, commit=staged.add) as fh:
            json.dump(report.to_dict(), fh, ensure_ascii=False, indent=2)
            fh.write("\n")
    if args.stages is None and args.out != "-":
        print(render_report(report))
    return 0


def _cmd_report(args, staged) -> int:
    report = PipelineReport.from_dict(read_json_input(args.report_file, "report", DataError))
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


def _load_manifest(path: str) -> tuple[list[tuple[str, Path, dict[str, Path]]], str | None]:
    """Manifest: a {name, refs_path, systems} object, an array of them, or
    {"sets": [...], "smoothing": ...}. Every entry is checked, set names
    must differ, and paths are resolved relative to the file, as
    (name, refs_path, systems); no set file is read here."""
    data = read_json_input(path, "manifest")
    if isinstance(data, list):
        data = {"sets": data}
    elif not (isinstance(data, dict) and "sets" in data):
        data = {"sets": [data]}
    check_object(data, "manifest", {"sets": list, "smoothing": (str, type(None))})
    smoothing = data.get("smoothing")
    if smoothing is not None and smoothing not in SMOOTHINGS:
        raise ConfigError(f"manifest smoothing must be one of {SMOOTHINGS}, got {smoothing!r}")

    base = Path(path).parent
    entries, names = [], set()
    types = {"name": str, "refs_path": str, "systems": dict}
    for i, entry in enumerate(data["sets"]):
        what = f"manifest.sets[{i}]"
        check_object(entry, what, types, required=types)
        name, refs_path, systems = (entry[key] for key in types)
        if not name:
            raise ConfigError(f"manifest set name must be a non-empty string, got {name!r}")
        if name in names:
            raise ConfigError(f"duplicate test set name {name!r}")
        names.add(name)
        check_object(systems, f"{what}.systems", dict.fromkeys(systems, str))
        if not systems:
            raise ConfigError(f"manifest set {name!r} defines no systems")
        paths = {system: _resolve(p, base) for system, p in systems.items()}
        entries.append((name, _resolve(refs_path, base), paths))
    if not entries:
        raise ConfigError(f"manifest {path} defines no sets")
    return entries, smoothing


def _read_set(name: str, refs_path: str | Path, systems: dict[str, str | Path]) -> EvalSet:
    """The test set ``name``: its references and each system's output."""
    refs = _read_lines(refs_path, "references")
    hyps = {system: _read_lines(p, "system output") for system, p in systems.items()}
    return EvalSet(name=name, references=refs, hypotheses=hyps)


def _cmd_bleu(args, staged) -> int:
    systems: dict[str, str] = {}
    for spec in args.hyp:
        name, hyp_path = _parse_hyp(spec)
        if name in systems:
            raise ConfigError(f"duplicate system name {name!r}")
        systems[name] = hyp_path
    eval_set = _read_set(Path(args.refs).stem, args.refs, systems)
    print(compare_systems([eval_set], smoothing=args.smoothing, fmt=args.format))
    return 0


def _cmd_compare(args, staged) -> int:
    entries, smoothing = _load_manifest(args.manifest)
    # A set's files are read only once the set before it has been scored.
    sets = (_read_set(*entry) for entry in entries)
    smoothing = args.smoothing or smoothing or "epsilon"
    print(compare_systems(sets, smoothing=smoothing, fmt=args.format))
    return 0


def _add_io(sp, workers: bool = True, config: bool = True) -> None:
    """The flags every corpus subcommand shares; it runs ``_cmd_corpus``."""
    sp.set_defaults(func=_cmd_corpus, config=None, fps_in=None, fps_out=None)
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
    sp.add_argument("--report", metavar="PATH", help="write a JSON run report")
    if workers:
        sp.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="reserved: accepted and checked (a positive integer), no effect; "
            "every stage runs in this process",
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
    sp.set_defaults(stages=("ingest",))

    # A stage flag's dest is the config key it overrides (see _load_cfg).
    # Path flags are made absolute here, against the working directory.
    sp = sub.add_parser("lang", help="drop documents not mostly in the target script")
    _add_io(sp)
    sp.add_argument("--threshold", dest="lang.threshold", type=float, metavar="F",
                    help="keep score >= F")
    sp.set_defaults(stages=("lang",))

    sp = sub.add_parser("normalize", help="standardize characters (and optionally split)")
    _add_io(sp)
    sp.add_argument("--table", dest="normalize.charmap", type=os.path.abspath, metavar="PATH",
                    help="character rule table JSON")
    sp.add_argument("--target", dest="split.target_tokens", type=int, metavar="N",
                    help="also split to about N tokens")
    sp.set_defaults(stages=("normalize",))

    sp = sub.add_parser("quality", help="ratio-based quality filter plus PII scrub")
    _add_io(sp)
    sp.add_argument("--stopwords", dest="quality.stopwords", type=os.path.abspath,
                    metavar="PATH", help="stopword list, one per line")
    sp.add_argument("--flagged", dest="quality.flagged", type=os.path.abspath,
                    metavar="PATH", help="flagged-word list, one per line")
    sp.add_argument("--stopword-threshold", dest="quality.stopword_threshold", type=float,
                    metavar="F")
    sp.add_argument("--flagged-threshold", dest="quality.flagged_threshold", type=float,
                    metavar="F")
    sp.add_argument("--min-tokens", dest="quality.min_tokens", type=int, metavar="N")
    sp.add_argument("--pii", dest="pii.rules", type=os.path.abspath, metavar="PATH",
                    help="PII rules JSON (array of rules)")
    sp.add_argument("--no-pii", action="store_true", help="skip the PII scrub")
    sp.set_defaults(stages=("quality", "pii"))

    sp = sub.add_parser("dedup", help="remove duplicate documents and repeated lines")
    _add_io(sp)
    sp.add_argument("--mode", dest="dedup.mode", choices=("exact", "near"))
    sp.add_argument("--hamming", dest="dedup.hamming_threshold", type=int, metavar="N",
                    help="near-mode bit distance")
    sp.add_argument("--shingle", dest="dedup.shingle_width", type=int, metavar="N",
                    help="character shingle width, 1 to 64")
    sp.add_argument("--no-per-source", dest="dedup.per_source", action="store_false", default=None)
    sp.add_argument("--no-overall", dest="dedup.overall", action="store_false", default=None)
    sp.add_argument("--no-lines", dest="dedup.lines", action="store_false", default=None)
    sp.add_argument("--fps-in", metavar="PATH",
                    help="seed keys from a sidecar this --mode wrote (id\\thex)")
    sp.add_argument("--fps-out", metavar="PATH", help="write the kept documents' keys")
    sp.set_defaults(stages=("dedup",))

    sp = sub.add_parser("split", help="split long documents near a token target")
    _add_io(sp)
    sp.add_argument("--target", dest="split.target_tokens", type=int, metavar="N")
    sp.add_argument("--sentence-ends", dest="split.sentence_end_chars", metavar="CHARS")
    sp.set_defaults(stages=("split",))

    sp = sub.add_parser("run", help="run the full pipeline")
    _add_io(sp)
    sp.set_defaults(stages=None)

    sp = sub.add_parser("report", help="re-render a saved run report")
    sp.add_argument("report_file", metavar="REPORT_JSON")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("bleu", help="score translations against references")
    sp.add_argument("--refs", required=True, metavar="PATH", help="one reference per line")
    sp.add_argument(
        "--hyp",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="system output file (repeatable)",
    )
    sp.add_argument("--smoothing", choices=SMOOTHINGS, default="epsilon")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=_cmd_bleu)

    sp = sub.add_parser("compare", help="score several systems across test sets")
    sp.add_argument("--manifest", required=True, metavar="PATH")
    sp.add_argument("--smoothing", choices=SMOOTHINGS, default=None)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.set_defaults(func=_cmd_compare)

    return p


def main(argv: list[str] | None = None) -> int:
    # forge calls no BLAS routine, but OpenBLAS starts its thread pool when
    # numpy loads, and the idle workers spin on CPU. Set here, before any
    # numpy import, so a caller's value is kept and library use is untouched.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    staged = _StagedOutputs()
    try:
        _setup_logging()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # usage error, --help or --version
            return 0 if exc.code in (0, None) else int(exc.code)
        code = args.func(args, staged)
        if code == 0:
            staged.commit()
    except (ForgeError, OSError) as exc:
        log.error("%s", exc)
        code = 3 if isinstance(exc, (DataError, OSError)) else 2
    finally:
        staged.discard()  # whatever a failed command staged
    return code


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
