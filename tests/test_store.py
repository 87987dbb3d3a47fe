"""The document store: one writer, one reader, one trust policy.

Parametrized over every document kind the tree persists — sweep
artifacts, convergence traces, service reports, serving reports and
fuzz-corpus entries — so "how a keyed JSON document is written,
validated and trusted on resume" is asserted once, for all of them:

* ``put`` → ``get`` round-trips, in exactly the pinned byte format;
* ``scan`` ignores tmp and foreign files and sorts every unusable
  document into its corrupt list, where ``get`` raises the kind's typed
  error;
* ``load_or_run`` computes once, then reuses, then repairs after each
  corruption — and reuses nothing without ``resume``.

Plus the structural guard that keeps it that way (exactly one
``os.replace`` and one JSON-file read under ``src/repro``). The byte
format itself is pinned in tests/test_pinned_bytes.py.
"""

from __future__ import annotations

import ast
import copy
import json
from pathlib import Path

import pytest

from repro import store
from repro.api import Service, ServingSession
from repro.errors import FuzzError, SimulationError
from repro.fuzz.corpus import CORPUS_ENTRY
from repro.service.metrics import SERVICE_REPORT
from repro.serving.metrics import SERVING_REPORT
from repro.substrate import TraceError
from repro.substrate.traces import TRACE
from repro.sweep.artifacts import ARTIFACT, ArtifactError
from repro.sweep.orchestrator import _Task, run_task
from repro.sweep.study import get_study
from test_service import fast_service
from test_serving import small_config

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="module")
def documents() -> dict[str, dict]:
    """One real document per kind, built the way production builds it."""
    point = get_study("smoke").points()[0]
    _, artifact, trace = run_task(_Task(0, point, mode="record"))
    return {
        "artifact": artifact,
        "trace": trace,
        "service report": Service(None, arrivals=fast_service()).run().data,
        "serving report": ServingSession(None, config=small_config()).run().data,
        "corpus entry": {
            "schema": 1, "invariant": "completes", "scenario_id": "0:5",
            "config_kwargs": {"model": "lr", "workers": 2},
            "message": "it broke", "shrunk_fields": ["channel"],
        },
    }


KINDS = {
    "artifact": (ARTIFACT, ArtifactError),
    "trace": (TRACE, TraceError),
    "service report": (SERVICE_REPORT, SimulationError),
    "serving report": (SERVING_REPORT, SimulationError),
    "corpus entry": (CORPUS_ENTRY, FuzzError),
}


KEYED = [name for name, (kind, _) in KINDS.items() if kind.key is not None]
DAMAGES = [
    (name, damage)
    for name, (kind, _) in KINDS.items()
    for damage, applies in (
        ("truncated", True), ("not_utf8", True), ("not_an_object", True),
        ("unknown_schema", True), ("missing_key", True), ("wrong_type", True),
        # Name-keyed documents do not repeat their key; reports are not
        # re-hashed (they may be built under any key).
        ("misfiled", kind.key is not None),
        ("tampered_fingerprint", kind.fingerprint is not None),
    )
    if applies
]


@pytest.fixture
def case(name, documents):
    """``(kind, typed error, pristine document, the key it files under)``."""
    kind, error = KINDS[name]
    assert (kind.name, kind.error) == (name, error)
    document = copy.deepcopy(documents[name])
    key = "completes-0-5" if kind.key is None else document[kind.key]
    return kind, error, document, key


def _put(kind, directory, document, key):
    return store.put(kind, directory, document, key=None if kind.key else key)


class TestPutGetScan:
    @pytest.mark.parametrize("name", list(KINDS))
    def test_roundtrip_in_the_one_byte_format(self, case, tmp_path):
        kind, _, document, key = case
        path = _put(kind, tmp_path / "made" / "on" / "demand", document, key)
        assert path == store.document_path(tmp_path / "made/on/demand", key)
        assert path.read_bytes() == (
            json.dumps(document, sort_keys=True, indent=1) + "\n"
        ).encode("ascii")
        assert store.get(kind, path, expected_hash=key) == document
        assert [p.name for p in path.parent.iterdir()] == [f"{key}.json"]

    @pytest.mark.parametrize("name", list(KINDS))
    def test_scan_ignores_tmp_and_foreign_files(self, case, tmp_path):
        kind, _, document, key = case
        _put(kind, tmp_path, document, key)
        (tmp_path / "deadbeef.json.tmp").write_text("{")  # interrupted put
        (tmp_path / "notes.txt").write_text("not a document")
        found, corrupt = store.scan(kind, tmp_path)
        assert found == {key: document} and corrupt == []
        assert store.scan(kind, tmp_path / "missing") == ({}, [])

    @pytest.mark.parametrize("name, damage", DAMAGES)
    def test_unusable_documents_are_corrupt(self, case, tmp_path, damage):
        kind, error, document, key = case
        path = _put(kind, tmp_path, document, key)
        field = next(iter(kind.shape))
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:64])
        elif damage == "not_utf8":
            path.write_bytes(b'{"schema": "\xff\xfe"}')
        elif damage == "not_an_object":
            path.write_text("[1, 2]")
        elif damage == "unknown_schema":
            path.write_text(json.dumps(dict(document, schema=999)))
        elif damage == "missing_key":
            path.write_text(json.dumps(
                {k: v for k, v in document.items() if k != field}
            ))
        elif damage == "wrong_type":
            path.write_text(json.dumps(dict(document, **{field: None})))
        elif damage == "misfiled":
            path = path.rename(path.with_name("0" * 16 + ".json"))
        elif damage == "tampered_fingerprint":
            document[kind.fingerprint]["seed"] = -1
            path.write_text(json.dumps(document))
        with pytest.raises(error):
            store.get(kind, path, expected_hash=path.stem)
        assert store.scan(kind, tmp_path) == ({}, [path])

    @pytest.mark.parametrize(
        "name, records",
        [("trace", "ranks"), ("service report", "tenants"),
         ("serving report", "requests")],
    )
    def test_extra_checks_reject_empty_records(self, case, records):
        kind, error, document, _ = case
        with pytest.raises(error, match="no .* records"):
            store.validate(kind, dict(document, **{records: []}))


@pytest.mark.parametrize("name", KEYED)  # load_or_run files under the document's own key
class TestLoadOrRun:
    def test_compute_once_then_reuse_then_repair(self, case, tmp_path):
        kind, _, document, key = case
        calls, messages = [], []

        def compute():
            calls.append(1)
            return copy.deepcopy(document)

        def run():
            return store.load_or_run(
                kind, tmp_path, key, compute, True, messages.append
            )

        fresh, path, reused = run()
        assert (fresh, reused, len(calls)) == (document, False, 1)
        pristine = path.read_bytes()
        again, again_path, reused = run()
        assert (again, again_path, reused, len(calls)) == (document, path, True, 1)
        assert messages == []

        corruptions = [
            lambda: path.write_bytes(pristine[:64]),
            lambda: path.write_text(json.dumps(dict(document, schema=999))),
            lambda: path.write_text(json.dumps(dict(document, **{kind.key: "f" * 16}))),
        ]
        for count, corrupt in enumerate(corruptions, start=2):
            corrupt()
            healed, _, reused = run()
            assert (healed, reused, len(calls)) == (document, False, count)
            assert path.read_bytes() == pristine
            assert len(messages) == count - 1
            assert path.name in messages[-1] and kind.name in messages[-1]
            assert run()[2] is True and len(calls) == count

    def test_without_resume_nothing_on_disk_is_reused(self, case, tmp_path):
        kind, _, document, key = case
        calls = []

        def compute():
            calls.append(1)
            return document

        for expected in (1, 2):
            _, path, reused = store.load_or_run(
                kind, tmp_path, key, compute, resume=False
            )
            assert (reused, len(calls), path.exists()) == (False, expected, True)
        # In memory: nothing to resume from, nothing written.
        _, path, reused = store.load_or_run(kind, None, key, compute, resume=True)
        assert (path, reused, len(calls)) == (None, False, 3)

    def test_compute_must_build_the_document_it_was_asked_for(self, case, tmp_path):
        kind, error, document, key = case
        with pytest.raises(error, match="filed under"):
            store.load_or_run(kind, tmp_path, "0" * 16, lambda: document, True)
        assert list(tmp_path.iterdir()) == []


def _calls(tree: ast.AST, module: str, names: set[str]) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
        for node in ast.walk(tree)
    )


def test_only_the_store_replaces_files_and_reads_json_documents():
    """One ``os.replace`` and one JSON-file read under ``src/repro``.

    The single named exception is ``service/arrivals.py``: the user's
    ``--trace`` workload file has no key and no schema, so it is not a
    store kind and keeps its own (ConfigurationError-raising) reader.
    """
    replaces, reads = {}, {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        name = path.relative_to(SRC).as_posix()
        if n := _calls(tree, "os", {"replace", "rename"}):
            replaces[name] = n
        if n := _calls(tree, "json", {"load", "loads"}):
            reads[name] = n
    assert replaces == {"store.py": 1}
    assert reads == {"store.py": 1, "service/arrivals.py": 1}
