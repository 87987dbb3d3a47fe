"""Golden regression for the lockstep pass's numerics, across versions.

``tests/test_lockstep.py`` holds the stacked pass to the rank-by-rank
reference, but both run through the same ``run_lockstep`` and
``build_ranks``: a change there that moves a bit moves both sides, and
that test stays green. This file pins what the pass computed when the
golden was recorded, for small twins of the ledger's ``train_exact``
trainings (dense higgs ADMM, sparse rcv1 ADMM, the float32 network on
GA-SGD, also past ``reduce_vectors``' w > 8 boundary) and of the
service tier's jobs. The sparse runs pin both regimes of the linear
step: ``rcv1-admm-w5`` takes each shard as one batch, while
``rcv1-ma-w8-figS`` (figS's small class: one-row batches) and
``svm-rcv1-admm-w5-b5`` (five-row batches, ADMM's proximal term) take
batches that store few entries against the feature count. It pins:

* every rank's local loss at every evaluation,
* the run's ``final_loss``,
* a sha256 of the trace body minus ``meta`` (everything else the pass
  hands the engine: round structure, rounds, epochs, final accuracy).

Both the default (stacked) substrate and the rank-by-rank reference
must reproduce it. Regenerate only after an *intentional* change to
the statistics, never to paper over a diff you cannot explain:

    PYTHONPATH=src python tests/test_lockstep_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.fuzz.invariants import ReferenceSubstrate
from repro.substrate import ExactSubstrate

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_lockstep.json"

FAAS = dict(system="lambdaml", channel="s3", pattern="allreduce", seed=20210620,
            loss_threshold=None)
NN = dict(FAAS, model="mobilenet", dataset="cifar10", algorithm="ga_sgd",
          batch_size=128, batch_scope="per_worker", lr=0.01, max_epochs=2)

CONFIGS = {
    "higgs-admm-w10": dict(FAAS, model="lr", dataset="higgs", algorithm="admm",
                           workers=10, batch_size=100_000, lr=0.05, data_scale=200,
                           max_epochs=30),
    "rcv1-admm-w5": dict(FAAS, model="lr", dataset="rcv1", algorithm="admm", workers=5,
                         batch_size=80_000, lr=2.0, data_scale=80, max_epochs=20),
    "rcv1-ma-w8-figS": dict(FAAS, model="lr", dataset="rcv1", algorithm="ma_sgd",
                            workers=8, batch_size=10_000, lr=0.1, data_scale=2000,
                            max_epochs=3),
    "svm-rcv1-admm-w5-b5": dict(FAAS, model="svm", dataset="rcv1", algorithm="admm",
                                workers=5, batch_size=10_000, lr=3.0, data_scale=400,
                                max_epochs=20),
    "mobilenet-ga-w4": dict(NN, workers=4, data_scale=80),
    "mobilenet-ga-w12": dict(NN, workers=12, data_scale=200),
}

SUBSTRATES = {"stacked": ExactSubstrate, "reference": ReferenceSubstrate}


def _snapshot(kwargs: dict, substrate) -> dict:
    result = train(TrainingConfig(**kwargs), substrate=substrate)
    body = {key: value for key, value in substrate.trace.items() if key != "meta"}
    ranks = body["ranks"]
    return {
        # losses[e][r]: rank r's local loss at evaluation e.
        "losses": [list(evaluation) for evaluation in zip(*(r["losses"] for r in ranks))],
        "final_loss": result.final_loss,
        "trace_sha256": hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest(),
    }


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lockstep_numerics_match_the_golden(name, substrate):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert _snapshot(CONFIGS[name], SUBSTRATES[substrate]()) == golden


def test_the_golden_runs_are_not_trivial():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(CONFIGS)
    for name, entry in golden.items():
        workers = CONFIGS[name]["workers"]
        assert len(entry["losses"]) >= 2, name  # the initial loss and at least one more
        assert all(len(evaluation) == workers for evaluation in entry["losses"]), name
        assert entry["losses"][-1] != entry["losses"][0], name


def _record() -> None:
    golden = {name: _snapshot(kwargs, ExactSubstrate()) for name, kwargs in CONFIGS.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"recorded {len(golden)} lockstep runs to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
