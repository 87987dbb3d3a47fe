"""The document store: how a keyed JSON document is written, read and trusted.

Every persisted result — sweep artifacts, convergence traces, service
and serving reports, fuzz-corpus entries — is one ``<key>.json`` file in
a directory, and this module is the only code that writes, reads or
scans such files. A document :class:`Kind`, declared next to the code
that builds the document, says what a valid one looks like.

One trust policy for every kind: reuse is opt-in (``resume``), and a
file under the expected key that is partial, misfiled, of an unknown
schema, mis-shaped, or whose fingerprint no longer hashes to its key is
never an error to stop on — :func:`scan` lists it as corrupt and
:func:`load_or_run` announces it, recomputes it and overwrites it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.utils.hashing import fingerprint_hash


@dataclass(frozen=True)
class Kind:
    """What a valid document of one kind looks like."""

    name: str  # for messages: "artifact", "trace", "service report"...
    error: type[Exception]  # the typed error an unusable document raises
    schema: int  # the one ``schema`` version a document may carry
    shape: dict[str, type]  # required keys -> types
    #: Field holding the document's own key; ``None`` for documents
    #: filed under a name they do not repeat (``put`` is told the key).
    key: str | None = None
    #: Field whose ``fingerprint_hash`` must equal the key.
    fingerprint: str | None = None
    #: Extra check: returns a complaint, or ``None`` when satisfied.
    check: Callable[[dict], str | None] | None = None


def report_check(tag: str, records: str) -> Callable[[dict], str | None]:
    """The extra check of a report kind: its ``kind`` tag, some records."""

    def check(report: dict) -> str | None:
        if report["kind"] != tag:
            return f"not a {tag}: kind={report['kind']!r}"
        if not report[records]:
            return f"{tag} has no {records[:-1]} records"
        return None

    return check


def document_path(directory: str | os.PathLike, key: str) -> Path:
    return Path(directory) / f"{key}.json"


def put(kind: Kind, directory, document: dict, key: str | None = None) -> Path:
    """Atomically persist ``document`` as ``<key>.json`` (tmp + rename).

    An interrupted write leaves whole files only. ``key`` defaults to
    the document's own key field.
    """
    path = document_path(directory, document[kind.key] if key is None else key)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def validate(kind: Kind, document: dict, expected_hash: str | None = None) -> dict:
    """Check schema, shape, fingerprint and filing; raise ``kind.error``."""
    if not isinstance(document, dict):
        raise kind.error(f"{kind.name} is {type(document).__name__}, not an object")
    if document.get("schema") != kind.schema:
        raise kind.error(
            f"{kind.name} schema {document.get('schema')!r} is not {kind.schema}"
        )
    missing = kind.shape.keys() - document.keys()
    if missing:
        raise kind.error(f"{kind.name} missing keys: {sorted(missing)}")
    for field, expected in kind.shape.items():
        if not isinstance(document[field], expected):
            raise kind.error(
                f"{kind.name} {field!r} is {type(document[field]).__name__}, "
                f"not {expected.__name__}"
            )
    complaint = kind.check(document) if kind.check is not None else None
    if complaint:
        raise kind.error(complaint)
    if kind.key is None:
        return document
    recorded = document[kind.key]
    if kind.fingerprint is not None:
        recomputed = fingerprint_hash(document[kind.fingerprint])
        if recomputed != recorded:
            raise kind.error(
                f"{kind.key.replace('_', ' ')} mismatch: recorded {recorded}, "
                f"{kind.fingerprint} hashes to {recomputed} "
                f"(stale or tampered {kind.name})"
            )
    if expected_hash is not None and recorded != expected_hash:
        raise kind.error(
            f"{kind.name} with {kind.key.replace('_', ' ')} {recorded} "
            f"filed under {expected_hash}"
        )
    return document


def get(kind: Kind, path, expected_hash: str | None = None) -> dict:
    """Read + validate one document file; ``kind.error`` when unusable."""
    path = Path(path)
    try:
        document = json.loads(path.read_bytes())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise kind.error(f"{path.name}: unreadable/partial JSON ({exc})") from exc
    return validate(kind, document, expected_hash)


def scan(kind: Kind, directory) -> tuple[dict[str, dict], list[Path]]:
    """Index a directory: ``(key -> document, corrupt paths)``.

    Only ``*.json`` files count (tmp and foreign files are ignored), and
    each must validate under its own stem as the key. A missing
    directory — or ``None``, the in-memory store — holds nothing.
    """
    found: dict[str, dict] = {}
    corrupt: list[Path] = []
    if directory is not None and Path(directory).is_dir():
        for path in sorted(Path(directory).glob("*.json")):
            try:
                found[path.stem] = get(kind, path, expected_hash=path.stem)
            except kind.error:
                corrupt.append(path)
    return found, corrupt


def load_or_run(
    kind: Kind, directory, key: str, compute: Callable[[], dict],
    resume: bool, progress: Callable[[str], None] | None = None,
) -> tuple[dict, Path | None, bool]:
    """The document under ``key``, as ``(document, path, reused)``.

    With ``resume`` and a valid ``<directory>/<key>.json`` the file is
    reused and ``compute`` never called. Otherwise ``compute()`` builds
    the document, which is validated and — unless ``directory`` is
    ``None`` (in-memory) — persisted over whatever was there.
    """
    if resume and directory is not None:
        path = document_path(directory, key)
        if path.exists():
            try:
                return get(kind, path, expected_hash=key), path, True
            except kind.error as exc:
                if progress is not None:
                    progress(f"corrupt {kind.name} {path.name} ({exc}): will re-run it")
    document = validate(kind, compute(), expected_hash=key)
    path = None if directory is None else put(kind, directory, document)
    return document, path, False
