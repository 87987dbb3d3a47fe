"""The regression corpus: shrunk counterexamples that replay forever.

Every failure a fuzz campaign finds is shrunk and saved as one small
JSON file. The corpus is the campaign's durable output: tier-1 tests
replay every entry on every run, so a bug the fuzzer caught once can
never silently return — the corpus entry *is* the regression test.

An entry records the shrunk config kwargs, the invariant they violated
and the original failure context. Replaying an entry re-runs its
invariant on its kwargs and expects it to **hold**: entries enter the
corpus when a bug is found, and the fix that closes the bug turns the
entry green permanently. A red replay means the old bug is back (or
was never fixed).

Entries are content-light on purpose — kwargs, not artifacts — because
the whole pipeline is deterministic: the kwargs alone reproduce every
byte of the original failure.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro import store
from repro.errors import FuzzError
from repro.fuzz.invariants import INVARIANTS

CORPUS_SCHEMA_VERSION = 1

#: The tree-relative corpus replayed by tier-1 (tests/test_fuzz_corpus.py).
DEFAULT_CORPUS_DIR = (
    Path(__file__).resolve().parents[3] / "tests" / "data" / "fuzz_corpus"
)


@dataclass(frozen=True)
class CorpusEntry:
    """One shrunk counterexample, pinned for eternal replay."""

    invariant: str
    config_kwargs: dict
    scenario_id: str  # "seed:index" of the campaign scenario that found it
    message: str  # failure description at save time
    shrunk_fields: list[str] = field(default_factory=list)
    schema: int = CORPUS_SCHEMA_VERSION

    @property
    def name(self) -> str:
        return f"{self.invariant}-{self.scenario_id.replace(':', '-')}"


CORPUS_ENTRY = store.Kind(
    name="corpus entry",
    error=FuzzError,
    schema=CORPUS_SCHEMA_VERSION,
    shape={
        "invariant": str, "config_kwargs": dict,
        "scenario_id": str, "message": str,
    },
)


def save_entry(corpus_dir: str | os.PathLike, entry: CorpusEntry) -> Path:
    """Write ``entry`` atomically as ``<invariant>-<seed>-<index>.json``."""
    return store.put(CORPUS_ENTRY, corpus_dir, asdict(entry), key=entry.name)


def _entry(raw: dict) -> CorpusEntry:
    return CorpusEntry(
        invariant=raw["invariant"],
        config_kwargs=dict(raw["config_kwargs"]),
        scenario_id=raw["scenario_id"],
        message=raw["message"],
        shrunk_fields=list(raw.get("shrunk_fields", [])),
    )


def load_entry(path: str | os.PathLike) -> CorpusEntry:
    return _entry(store.get(CORPUS_ENTRY, path))


def load_corpus(corpus_dir: str | os.PathLike = DEFAULT_CORPUS_DIR) -> list[CorpusEntry]:
    """All entries of a corpus directory, sorted by filename.

    Unlike a sweep, a corpus never skips an unusable file: a regression
    entry that no longer loads raises its :class:`FuzzError`.
    """
    documents, corrupt = store.scan(CORPUS_ENTRY, corpus_dir)
    if corrupt:
        load_entry(corrupt[0])
    return [_entry(raw) for raw in documents.values()]


def replay_entry(entry: CorpusEntry) -> str | None:
    """Re-run an entry's invariant; ``None`` means the old bug stays dead.

    A non-``None`` return is the failure message — the regression the
    corpus exists to catch.
    """
    invariant = INVARIANTS.get(entry.invariant)
    if invariant is None:
        raise FuzzError(
            f"corpus entry {entry.name} references unknown invariant "
            f"{entry.invariant!r}; known: {sorted(INVARIANTS)}"
        )
    if not invariant.applies(entry.config_kwargs):
        raise FuzzError(
            f"corpus entry {entry.name}: invariant {entry.invariant!r} "
            "no longer applies to the stored kwargs (config semantics "
            "drifted; regenerate or retire the entry)"
        )
    return invariant.check(dict(entry.config_kwargs))
