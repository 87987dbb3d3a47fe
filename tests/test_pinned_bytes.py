"""Pinned bytes: one document per persisted kind, digested.

sha256 digests of one ``smoke`` sweep artifact and its convergence
trace (minus the non-deterministic ``meta`` block), one service report
and one serving report, recorded at commit 6c7996b — before
``repro.store`` took over every writer — through public entry points
that exist on both sides of that change. They hold the on-disk format
(``json.dumps(sort_keys=True, indent=1)`` + newline, ``<key>.json``
names, schema numbers, key names) and the simulated numbers inside it:
the pins ``bytes.<document>``, each file's name and digest.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from pins import pinned, register
from repro.api import Service, ServingSession
from repro.sweep.orchestrator import run_sweep
from repro.sweep.study import get_study
from test_service import fast_service
from test_serving import small_config


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha_minus_meta(path: Path) -> str:
    document = json.loads(path.read_text())
    del document["meta"]  # host wall-clock, engine version: not deterministic
    return _sha((json.dumps(document, sort_keys=True, indent=1) + "\n").encode())


def smoke_documents(out: Path) -> dict:
    run_sweep([get_study("smoke").points()[0]], out_dir=out)
    (artifact,), (trace,) = out.glob("*.json"), out.glob("traces/*.json")
    return {kind: {"file": path.name, "sha256": _sha_minus_meta(path)}
            for kind, path in (("artifact", artifact), ("trace", trace))}


def service_report(out: Path) -> dict:
    path = Service(out, arrivals=fast_service()).run().path
    return {"file": path.name, "sha256": _sha(path.read_bytes())}


def serving_report(out: Path) -> dict:
    path = ServingSession(out, config=small_config()).run().path
    return {"file": path.name, "sha256": _sha(path.read_bytes())}


DOCUMENTS = {"smoke": smoke_documents, "service-report": service_report,
             "serving-report": serving_report}


@register("bytes", keys=DOCUMENTS)
def _written_in_a_temporary_directory(name: str) -> dict:
    with tempfile.TemporaryDirectory() as out:
        return DOCUMENTS[name](Path(out))


class TestPinnedBytes:
    def test_smoke_artifact_and_trace(self, tmp_path):
        assert smoke_documents(tmp_path) == pinned("bytes.smoke")
        # ...and `meta` aside, the files are in the one format already.
        for path in (*tmp_path.glob("*.json"), *tmp_path.glob("traces/*.json")):
            document = json.loads(path.read_text())
            assert path.read_text() == (
                json.dumps(document, sort_keys=True, indent=1) + "\n"
            )

    def test_service_report(self, tmp_path):
        assert service_report(tmp_path) == pinned("bytes.service-report")

    def test_serving_report(self, tmp_path):
        assert serving_report(tmp_path) == pinned("bytes.serving-report")
