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
must reproduce the one pin ``lockstep.<run>``.
"""

from __future__ import annotations

import pytest

from pins import digest, pinned, register
from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.fuzz.invariants import ReferenceSubstrate
from repro.substrate import ExactSubstrate

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
        "trace_sha256": digest(body),
    }


register("lockstep", keys=CONFIGS)(lambda name: _snapshot(CONFIGS[name], ExactSubstrate()))


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lockstep_numerics_match_the_golden(name, substrate):
    assert _snapshot(CONFIGS[name], SUBSTRATES[substrate]()) == pinned(f"lockstep.{name}")


def test_the_golden_runs_are_not_trivial():
    for name in CONFIGS:
        entry = pinned(f"lockstep.{name}")
        workers = CONFIGS[name]["workers"]
        assert len(entry["losses"]) >= 2, name  # the initial loss and at least one more
        assert all(len(evaluation) == workers for evaluation in entry["losses"]), name
        assert entry["losses"][-1] != entry["losses"][0], name
