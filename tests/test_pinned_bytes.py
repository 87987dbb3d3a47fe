"""Pinned bytes: one document per persisted kind, digested.

sha256 digests of one ``smoke`` sweep artifact and its convergence
trace (minus the non-deterministic ``meta`` block), one service report
and one serving report, recorded at commit 6c7996b — before
``repro.store`` took over every writer — through public entry points
that exist on both sides of that change. They hold the on-disk format
(``json.dumps(sort_keys=True, indent=1)`` + newline, ``<key>.json``
names, schema numbers, key names) and the simulated numbers inside it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api import Service, ServiceConfig, ServingSession
from repro.serving.config import ServingConfig
from repro.sweep.orchestrator import run_sweep
from repro.sweep.study import get_study

FAST_SERVICE = dict(
    rate=3600.0, tenants=3, accounts=2, max_concurrent=2,
    model="lr", dataset="higgs", workers=4, max_epochs=1.0,
    data_scale=1000, channel="s3", seed=11,
)  # tests/test_service.py::fast_service()
SMALL_SERVING = dict(
    model="lr", dataset="higgs", data_scale=2000, requests=60,
    traffic="bursty", platform="faas", autoscaler="concurrency",
)  # tests/test_serving.py::small_config()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha_minus_meta(path: Path) -> str:
    document = json.loads(path.read_text())
    del document["meta"]  # host wall-clock, engine version: not deterministic
    return _sha((json.dumps(document, sort_keys=True, indent=1) + "\n").encode())


class TestPinnedBytes:
    def test_smoke_artifact_and_trace(self, tmp_path):
        point = get_study("smoke").points()[0]
        run_sweep([point], out_dir=tmp_path, substrate="auto")
        artifact = tmp_path / "2f472ad0bd524dda.json"
        trace = tmp_path / "traces" / "aa30338850a234cc.json"
        assert _sha_minus_meta(artifact) == (
            "1509230713459fe589a926ba7047716a062d4788c1daab3681d718fd3a3c95b6"
        )
        assert _sha_minus_meta(trace) == (
            "527ce879c12b231f0948fa71537273fd7a8fec7a0e545dfcd75557eaf12f82e7"
        )
        # ...and `meta` aside, the files are in the one format already.
        for path in (artifact, trace):
            document = json.loads(path.read_text())
            assert path.read_text() == (
                json.dumps(document, sort_keys=True, indent=1) + "\n"
            )

    def test_service_report(self, tmp_path):
        outcome = Service(tmp_path, arrivals=ServiceConfig(**FAST_SERVICE)).run()
        assert outcome.path.name == "bce65724a043f299.json"
        assert _sha(outcome.path.read_bytes()) == (
            "2a4e0960a932adec884f23b07bd59162f6a1d8ef499cf2ad1b1b9e64afd6a2a2"
        )

    def test_serving_report(self, tmp_path):
        outcome = ServingSession(
            tmp_path, config=ServingConfig(**SMALL_SERVING)
        ).run()
        assert outcome.path.name == "3508823461d32525.json"
        assert _sha(outcome.path.read_bytes()) == (
            "4b274c409e76c7eb792a463931777b2290ec6a78c11a08911619b12ac45bd410"
        )
