"""Document model, token accounting, and streaming JSONL corpus I/O.

A corpus is an ordered sequence of immutable Document records exchanged
as JSON Lines (UTF-8, one object per line, LF endings). Token counts are
whitespace-token counts throughout: every stage and report counts the same
way.

Other input files are read by ``read_input`` (``read_json_input`` for JSON),
and each JSON object in them is checked by ``check_object``; a config
dataclass's ``setting`` fields are checked by ``check_settings``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import ConfigError, CorpusError, ForgeError

# JSONL field order is fixed so serialization is byte-stable.
_FIELD_ORDER = ("id", "source", "text", "meta", "token_count")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def whitespace_tokens(text: str) -> list[str]:
    """Maximal runs of non-whitespace characters (Unicode whitespace rules)."""
    return text.split()


def count_tokens(text: str) -> int:
    """Number of tokens in ``text``; 0 for empty or all-whitespace input."""
    return len(whitespace_tokens(text))


def _strip_surrogates(text: str) -> str:
    """Drop unpaired UTF-16 surrogate codepoints left over from JSON escapes."""
    return _SURROGATE_RE.sub("", text)


def read_input(
    path: str | Path, what: str, error: type[ForgeError] = ConfigError, newline: str | None = None
) -> str:
    """The UTF-8 text, less a leading BOM, of a non-corpus input file, read with
    ``open``'s ``newline`` (universal newlines by default; "" reads line ends as they are).

    A file that cannot be opened or decoded, or a path holding a NUL,
    raises ``error`` naming the file as ``what``: ConfigError for
    config-like files, DataError for data.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable, or NUL in path
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_json_input(path: str | Path, what: str, error: type[ForgeError] = ConfigError):
    """The JSON value in an input file; any failure raises ``error`` (see
    ``read_input``). Nesting too deep to parse, or an integer literal with
    more digits than ``int`` converts, counts as invalid JSON."""
    text = read_input(path, what, error)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError too
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
}


def _is_a(value, kind: type) -> bool:
    """JSON type check: a bool is never a number, a float takes integers."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def check_object(
    data, what: str, types: dict[str, type | tuple[type, ...]], required: Iterable[str] = (),
    error: type[ForgeError] = ConfigError, extra_keys: bool = False,
) -> dict:
    """``data``, checked to be an object with keys only from ``types`` (any
    key if ``extra_keys``), every ``required`` key, and each value of its
    JSON type in ``types`` (or one of a tuple of types). A failure raises
    ``error`` naming the object as ``what`` and a value as ``what.key``."""
    if not isinstance(data, dict):
        raise error(f"{what!r} must be an object")
    unknown = [] if extra_keys else sorted(set(data) - set(types))
    if unknown:
        raise error(f"unknown key(s) {unknown} in {what!r}")
    missing = [key for key in required if key not in data]
    if missing:
        raise error(f"{what!r} is missing key(s) {missing}")
    for key, kind in types.items():
        if key in data:
            check_value(data[key], f"{what}.{key}", kind, error=error)
    return data


def check_value(value, key: str, kind, lo=None, hi=None, choices=None, error=ConfigError) -> None:
    """Check ``value``, named ``key``, against a ``kind`` (a JSON type as in ``check_object``,
    or a class) and, if a number, inclusive bounds (``hi`` only with ``lo``), or else
    against a tuple of ``choices``; a failure raises ``error``."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if choices is not None:
        ok, names = value in choices, " or ".join(map(repr, choices))
    else:  # NaN fails any bounds.
        ok = any(_is_a(value, k) for k in kinds) and (
            lo is None or not isinstance(value, (int, float))
            or lo <= value and (hi is None or value <= hi)
        )
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        names = " or ".join(
            _TYPE_NAMES.get(k, f"a {k.__name__}") + (bounds if k in (int, float) else "")
            for k in kinds
        )
    if not ok:
        raise error(f"{key!r} must be {names}, got {value!r}")


def setting(default, kind, lo=None, hi=None, choices=None):
    """A config dataclass field that a config file sets: its default, and
    its kind and bounds or choices for ``check_value``."""
    return field(default=default, metadata={"kind": kind, "lo": lo, "hi": hi, "choices": choices})


def settings(cls) -> dict:
    """The JSON kind of each ``setting`` of the dataclass ``cls``, by field name."""
    return {f.name: f.metadata["kind"] for f in fields(cls) if f.metadata}


def check_settings(obj, section: str = "") -> None:
    """``check_value`` each ``setting`` of the dataclass ``obj``, named ``section.field``."""
    for f in fields(obj):
        if f.metadata:
            key = f"{section}.{f.name}" if section else f.name
            check_value(getattr(obj, f.name), key, **f.metadata)


@contextmanager
def atomic_write(
    path: str | Path, commit: Callable[[str, Path], object] = os.replace
) -> Iterator[IO[str]]:
    """A UTF-8 text stream with LF newlines whose contents replace ``path``
    when the block succeeds. It writes to a unique temp file in the same
    directory, which is removed on any failure. The file gets the mode a
    plain ``open`` would give it, not ``mkstemp``'s 0600.

    On success ``commit(temp, path)`` runs, which by default renames the
    temp file onto ``path``; a caller that commits several files together
    passes a function that records the pair and renames it later."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
        commit(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Document:
    """One corpus record. ``token_count`` is derived from ``text`` when omitted."""

    id: str
    source: str
    text: str
    meta: dict[str, str] = field(default_factory=dict)
    token_count: int | None = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("document id must be non-empty")
        if self.token_count is None:
            object.__setattr__(self, "token_count", count_tokens(self.text))

    def with_text(self, text: str) -> "Document":
        """Copy with new text and a recomputed token count."""
        return replace(self, text=text, token_count=count_tokens(text))

    def with_id(self, doc_id: str) -> "Document":
        return replace(self, id=doc_id)


@dataclass
class Corpus:
    """Ordered document container; iteration order is ingestion order."""

    docs: list[Document] = field(default_factory=list)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.docs)

    def __len__(self) -> int:
        return len(self.docs)

    def __getitem__(self, i):
        return self.docs[i]

    @property
    def total_tokens(self) -> int:
        return sum(d.token_count for d in self.docs)

    def source_tokens(self) -> dict[str, int]:
        """Token totals per source tag, in order of first appearance."""
        totals: dict[str, int] = {}
        for d in self.docs:
            totals[d.source] = totals.get(d.source, 0) + d.token_count
        return totals

    def check_unique_ids(self) -> None:
        seen: set[str] = set()
        for d in self.docs:
            if d.id in seen:
                raise CorpusError(f"duplicate document id {d.id!r}")
            seen.add(d.id)


def iter_jsonl(
    path: str | Path, source_default: str | None = None,
    seen: dict[str, tuple[Path, int]] | None = None,
) -> Iterator[Document]:
    """Stream Documents from a JSONL file in file order.

    Each line must be a JSON object with string fields "id" and "text";
    "source" and "meta" are optional. A leading UTF-8 BOM is stripped,
    blank lines are skipped, and unpaired surrogates are removed from the
    text. Malformed lines raise CorpusError with the line number and byte
    offset; a repeated id raises CorpusError naming both lines. ``seen``
    maps each id already read to its file and line: one dict passed for
    several files checks ids across them all.
    """
    path = Path(path)
    if source_default is None:
        source_default = path.stem
    if seen is None:
        seen = {}
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line_offset = offset
            offset += len(raw)
            if lineno == 1 and raw.startswith(b"\xef\xbb\xbf"):
                raw = raw[3:]
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped.decode("utf-8"))
            # ValueError: a JSONDecodeError, a UnicodeDecodeError or too long an int.
            except (ValueError, RecursionError) as exc:
                raise CorpusError(
                    f"{path}: line {lineno} (byte offset {line_offset}): "
                    f"invalid JSON: {exc}"
                ) from exc
            if not isinstance(obj, dict):
                raise CorpusError(
                    f"{path}: line {lineno} (byte offset {line_offset}): "
                    "expected a JSON object"
                )
            doc = _doc_from_record(obj, path, lineno, source_default)
            if doc.id in seen:
                first_path, first = seen[doc.id]
                # By identity: a file given twice is read as two inputs.
                if first_path is path:
                    raise CorpusError(
                        f"{path}: duplicate id {doc.id!r} on lines {first} and {lineno}"
                    )
                raise CorpusError(
                    f"duplicate id {doc.id!r} on {first_path}: line {first} "
                    f"and {path}: line {lineno}"
                )
            seen[doc.id] = (path, lineno)
            yield doc


def _doc_from_record(obj: dict, path: Path, lineno: int, source_default: str) -> Document:
    where = f"{path}: line {lineno}"
    doc_id = obj.get("id")
    text = obj.get("text")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError(f"{where}: missing or non-string 'id'")
    if not isinstance(text, str):
        raise CorpusError(f"{where}: missing or non-string 'text'")
    source = obj.get("source", source_default)
    if not isinstance(source, str):
        raise CorpusError(f"{where}: 'source' must be a string")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise CorpusError(f"{where}: 'meta' must be a string-to-string map")
    text = _strip_surrogates(text)
    return Document(id=doc_id, source=source, text=text, meta=dict(meta))


def read_jsonl(
    path: str | Path, source_default: str | None = None,
    seen: dict[str, tuple[Path, int]] | None = None,
) -> Corpus:
    """Load a whole JSONL file into a Corpus (see ``iter_jsonl``)."""
    return Corpus(list(iter_jsonl(path, source_default, seen)))


def _record(doc: Document) -> dict:
    return {name: getattr(doc, name) for name in _FIELD_ORDER}


def dump_jsonl(corpus: Corpus | Iterable[Document], fp: IO[str]) -> None:
    """Write documents to an open text stream, one JSON object per line."""
    for doc in corpus:
        fp.write(json.dumps(_record(doc), ensure_ascii=False))
        fp.write("\n")


def write_jsonl(
    corpus: Corpus | Iterable[Document], path: str | Path,
    commit: Callable[[str, Path], object] = os.replace,
) -> None:
    """Write a corpus to ``path`` atomically (see ``atomic_write``, which
    gets ``commit``).

    Output is UTF-8 with LF line endings and a fixed field order
    (id, source, text, meta, token_count), so repeated writes of equal
    corpora are byte-identical.
    """
    with atomic_write(path, commit) as fh:
        dump_jsonl(corpus, fh)
