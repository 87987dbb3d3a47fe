"""The statistical substrate: fingerprints, record/replay, bit-identity.

The contract under test (ISSUE 3 acceptance criteria):

* ``stat_fingerprint()`` captures exactly the convergence-relevant
  fields: systems-only changes collide on the same hash, statistical
  changes never do, and timing-coupled configs (ASP, hybrid PS) widen
  to every field;
* a recording run is bit-identical to an exact run (pure observation);
* a replayed run — even under *different* systems axes than the
  recording — reproduces the exact run's ``duration_s``,
  ``cost_total``, ``history`` and ``breakdown`` bit for bit, with zero
  numpy work;
* exact/replay refuse timing-coupled configs, replay refuses mismatched
  traces, and the default substrate is picked from the config.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.config import STAT_FIELDS, TrainingConfig, config_fingerprint
from repro.core.driver import train
from repro.errors import ReplayDivergenceError, SubstrateError
from repro.substrate import (
    ExactSubstrate,
    PerRankSubstrate,
    ReplaySubstrate,
    TraceError,
    load_trace,
    make_substrate,
    scan_traces,
    trace_path,
    validate_trace,
    write_trace,
)

BASE = dict(
    model="lr", dataset="higgs", algorithm="admm", system="lambdaml",
    workers=4, data_scale=5000, loss_threshold=0.66, max_epochs=2.0,
    seed=20210620,
)


def cfg(**overrides) -> TrainingConfig:
    return TrainingConfig(**{**BASE, **overrides})


def result_key(result):
    """Every deterministic field of a RunResult, bitwise."""
    return (
        result.duration_s,
        result.cost_total,
        tuple(sorted(result.cost_breakdown.items())),
        result.converged,
        result.final_loss,
        result.epochs,
        result.comm_rounds,
        result.checkpoints,
        result.final_accuracy,
        tuple((p.time_s, p.epoch, p.loss, p.worker) for p in result.history),
        tuple(sorted(result.breakdown.as_dict().items())),
    )


# ----------------------------------------------------------------------
# Statistical fingerprints
# ----------------------------------------------------------------------
class TestStatFingerprint:
    SYSTEMS_ONLY = (
        dict(channel="redis"),
        dict(channel="memcached", channel_prestarted=True),
        dict(cache_node="cache.m5.large", channel="redis"),
        dict(pattern="scatterreduce"),
        dict(poll_interval_s=0.5),
        dict(lambda_memory_gb=2.0),
        dict(lambda_lifetime_s=300.0),
        dict(straggler_jitter=0.5),
        dict(system="pytorch", instance="c5.xlarge"),
        dict(system="angel"),
    )

    STATISTICAL = (
        dict(workers=5),
        dict(batch_size=5000),
        dict(batch_scope="per_worker"),
        dict(min_local_batch=7),
        dict(lr=0.2),
        dict(l2=1e-3),
        dict(admm_rho=0.1),
        dict(admm_scans=5),
        dict(loss_threshold=0.5),
        dict(max_epochs=4.0),
        dict(partition_mode="label-skew"),
        dict(data_scale=2000),
        dict(seed=7),
        dict(algorithm="ma_sgd"),
        dict(algorithm="ma_sgd", ma_sync_epochs=2),
        dict(model="svm"),
        dict(dataset="rcv1"),
    )

    def test_systems_only_changes_collide(self):
        base_hash = cfg().stat_hash()
        for change in self.SYSTEMS_ONLY:
            assert cfg(**change).stat_hash() == base_hash, change

    def test_statistical_changes_do_not_collide(self):
        seen = {cfg().stat_hash(): dict()}
        for change in self.STATISTICAL:
            stat_hash = cfg(**change).stat_hash()
            assert stat_hash not in seen, (change, seen[stat_hash])
            seen[stat_hash] = change

    def test_protocol_is_statistical(self):
        bsp = cfg(algorithm="ga_sgd")
        asp = cfg(algorithm="ga_sgd", protocol="asp")
        assert bsp.stat_hash() != asp.stat_hash()

    def test_asp_fingerprint_includes_systems_fields(self):
        # ASP's trajectory is timing-dependent: every knob that moves
        # the simulated clock must split the fingerprint.
        base = cfg(algorithm="ga_sgd", protocol="asp")
        assert base.timing_coupled
        assert base.stat_fingerprint() == config_fingerprint(base)
        for change in (dict(channel="redis"), dict(poll_interval_s=0.5),
                       dict(lambda_memory_gb=2.0)):
            other = cfg(algorithm="ga_sgd", protocol="asp", **change)
            assert other.stat_hash() != base.stat_hash(), change

    def test_hybrid_fingerprint_includes_systems_fields(self):
        base = cfg(system="hybridps", algorithm="ga_sgd")
        assert base.timing_coupled
        for change in (dict(rpc="thrift"), dict(ps_instance="c5.9xlarge"),
                       dict(lambda_memory_gb=2.0)):
            other = cfg(system="hybridps", algorithm="ga_sgd", **change)
            assert other.stat_hash() != base.stat_hash(), change

    def test_bsp_is_not_timing_coupled(self):
        assert not cfg().timing_coupled
        assert not cfg(system="pytorch").timing_coupled

    def test_stat_hash_stable_across_numeric_spellings(self):
        assert cfg(max_epochs=2).stat_hash() == cfg(max_epochs=2.0).stat_hash()

    def test_stat_fields_are_real_config_fields(self):
        fingerprint = config_fingerprint(cfg())
        assert set(STAT_FIELDS) <= fingerprint.keys()


# ----------------------------------------------------------------------
# Golden bit-identity: exact vs record vs replay, across the systems grid
# ----------------------------------------------------------------------
SYSTEMS_GRID = {
    "faas_s3_allreduce": dict(channel="s3", pattern="allreduce"),
    "faas_s3_scatterreduce": dict(channel="s3", pattern="scatterreduce"),
    "faas_redis_allreduce": dict(channel="redis", pattern="allreduce"),
    "faas_redis_scatterreduce": dict(channel="redis", pattern="scatterreduce"),
    "iaas_pytorch": dict(system="pytorch"),
}


def per_rank(config):
    """The exact run rank by rank in the engine: the oracle a replay is
    held to (a default run is itself the lockstep trace, replayed)."""
    return train(config, substrate=PerRankSubstrate())


class TestGoldenBitIdentity:
    @pytest.fixture(scope="class")
    def shared_trace(self):
        """One trace per statistical fingerprint — recorded once."""
        recorder = ExactSubstrate()
        result = train(cfg(**SYSTEMS_GRID["faas_s3_allreduce"]), substrate=recorder)
        assert result_key(result) == result_key(
            per_rank(cfg(**SYSTEMS_GRID["faas_s3_allreduce"]))
        ), "a recording run must be bit-identical to an exact run"
        return recorder.trace

    @pytest.mark.parametrize("name", sorted(SYSTEMS_GRID))
    def test_replay_is_bit_identical_to_exact(self, name, shared_trace):
        # The trace was recorded under s3/allreduce; replaying it under
        # every other channel x pattern x platform must still reproduce
        # that config's own exact run bit for bit — the separability
        # claim the two-phase sweep is built on.
        config = cfg(**SYSTEMS_GRID[name])
        assert config.stat_hash() == shared_trace["stat_hash"]
        exact = per_rank(config)
        replayed = train(config, substrate=ReplaySubstrate(shared_trace))
        assert result_key(replayed) == result_key(exact)

    def test_replay_does_no_numpy_work(self, shared_trace, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("a replay must not synthesize a dataset")

        config = cfg(**SYSTEMS_GRID["faas_redis_scatterreduce"])
        monkeypatch.setattr("repro.data.synth.generate", no_data)
        with pytest.raises(AssertionError, match="must not synthesize"):
            train(config, substrate=ExactSubstrate())  # the patch bites
        substrate = ReplaySubstrate(shared_trace)
        train(config, substrate=substrate)
        assert substrate.compute_seconds == 0.0

    def test_ma_sgd_trace_replays_on_iaas(self):
        base = dict(algorithm="ma_sgd", loss_threshold=None, max_epochs=2.0)
        recorder = ExactSubstrate()
        train(cfg(**base), substrate=recorder)
        config = cfg(system="pytorch", **base)
        exact = per_rank(config)
        replayed = train(config, substrate=ReplaySubstrate(recorder.trace))
        assert result_key(replayed) == result_key(exact)

    def test_replay_holds_past_the_chunking_and_name_sort_boundaries(self):
        # Two regressions hide above w=10: (a) numpy picks its float
        # summation strategy from array *shape*, so ScatterReduce's
        # 1-element chunks (w > model dim) must not reduce in different
        # bit order than AllReduce's full vectors — reduce_vectors
        # folds sequentially to guarantee that; (b) the IaaS collective
        # must order contributions by numeric rank, not name strings
        # ("worker-10" < "worker-2" lexicographically). w=12 > both
        # boundaries for the 28-dim LR/Higgs model... no — 12 < 28, so
        # force tiny chunks via w=30 for (a) and w=12 for (b).
        base = dict(workers=30, loss_threshold=0.6, max_epochs=1.0)
        recorder = ExactSubstrate()
        train(cfg(**base), substrate=recorder)
        config = cfg(pattern="scatterreduce", channel="redis", **base)
        assert result_key(train(config, substrate=ReplaySubstrate(recorder.trace))) \
            == result_key(per_rank(config))

        base = dict(workers=12, loss_threshold=0.6, max_epochs=1.0)
        recorder = ExactSubstrate()
        train(cfg(**base), substrate=recorder)
        config = cfg(system="pytorch", **base)
        assert result_key(train(config, substrate=ReplaySubstrate(recorder.trace))) \
            == result_key(per_rank(config))

    def test_kmeans_em_sum_reduce_replays(self):
        base = dict(model="kmeans", algorithm="em", k=3,
                    loss_threshold=None, max_epochs=2.0)
        recorder = ExactSubstrate()
        train(cfg(**base), substrate=recorder)
        assert recorder.trace["reduce"] == "sum"
        config = cfg(pattern="scatterreduce", **base)
        exact = per_rank(config)
        replayed = train(config, substrate=ReplaySubstrate(recorder.trace))
        assert result_key(replayed) == result_key(exact)


# ----------------------------------------------------------------------
# Guards: timing-coupled configs, mismatched traces, misuse
# ----------------------------------------------------------------------
class TestSubstrateGuards:
    @pytest.fixture(scope="class")
    def trace(self):
        recorder = ExactSubstrate()
        train(cfg(), substrate=recorder)
        return recorder.trace

    def test_exact_refuses_asp(self):
        with pytest.raises(SubstrateError, match="timing-coupled"):
            train(cfg(algorithm="ga_sgd", protocol="asp"),
                  substrate=ExactSubstrate())

    def test_exact_refuses_hybrid(self):
        with pytest.raises(SubstrateError, match="timing-coupled"):
            train(cfg(system="hybridps", algorithm="ga_sgd"),
                  substrate=ExactSubstrate())

    def test_replay_refuses_asp(self, trace):
        with pytest.raises(SubstrateError, match="timing-coupled"):
            train(cfg(algorithm="ga_sgd", protocol="asp"),
                  substrate=ReplaySubstrate(trace))

    def test_replay_refuses_mismatched_fingerprint(self, trace):
        with pytest.raises(SubstrateError, match="fingerprint"):
            train(cfg(lr=0.31), substrate=ReplaySubstrate(trace))

    def test_replay_diverging_trace_raises(self, trace):
        # A trace whose losses end too early must fail loudly, not
        # fabricate a trajectory.
        truncated = copy.deepcopy(trace)
        for record in truncated["ranks"]:
            record["losses"] = record["losses"][:1]
        with pytest.raises(ReplayDivergenceError, match="trace recorded only"):
            train(cfg(), substrate=ReplaySubstrate(truncated))

    def test_replay_refuses_a_trace_it_does_not_consume(self, trace):
        # An extra loss per rank, five more rounds and another final
        # loss used to replay silently into the recording's own result.
        tampered = copy.deepcopy(trace)
        for record in tampered["ranks"]:
            record["losses"].append(0.5)
            record["rounds"] += 5
            record["final_loss"] = 9.9
        with pytest.raises(ReplayDivergenceError):
            train(cfg(), substrate=ReplaySubstrate(tampered))

    def test_replay_refuses_unread_evaluations(self, trace):
        tampered = copy.deepcopy(trace)
        tampered["ranks"][2]["losses"].append(0.5)
        with pytest.raises(ReplayDivergenceError, match="rank 2 read"):
            train(cfg(), substrate=ReplaySubstrate(tampered))

    @pytest.mark.parametrize("key, value", [
        ("rounds", 6), ("epochs", 12.5), ("final_loss", 9.9),
    ])
    def test_replay_refuses_an_outcome_the_trace_did_not_record(self, trace, key, value):
        tampered = copy.deepcopy(trace)
        tampered["ranks"][1][key] = value
        with pytest.raises(ReplayDivergenceError, match=f"rank 1 ended with {key}"):
            train(cfg(), substrate=ReplaySubstrate(tampered))

    def test_substrates_are_single_use(self):
        substrate = ExactSubstrate()
        train(cfg(), substrate=substrate)
        with pytest.raises(SubstrateError, match="single-use"):
            train(cfg(), substrate=substrate)

    def test_make_substrate_resolution(self, trace):
        replay = ReplaySubstrate(trace)
        assert make_substrate(replay, cfg()) is replay
        # Names are not specs: a substrate is None or an instance.
        for name in ("exact", "record", "replay", "surrogate"):
            with pytest.raises(SubstrateError, match="unknown substrate"):
                make_substrate(name, cfg())

    @pytest.mark.parametrize("overrides, default", [
        (dict(), ExactSubstrate),
        (dict(system="pytorch"), ExactSubstrate),
        (dict(algorithm="ga_sgd", protocol="asp"), PerRankSubstrate),
        (dict(system="hybridps", algorithm="ga_sgd"), PerRankSubstrate),
    ], ids=["bsp-faas", "bsp-iaas", "asp", "hybrid-ps"])
    def test_make_substrate_picks_the_default(self, overrides, default):
        assert type(make_substrate(None, cfg(**overrides))) is default

    def test_exact_meters_compute_seconds(self):
        substrate = ExactSubstrate()
        train(cfg(), substrate=substrate)
        assert substrate.compute_seconds > 0.0

    def test_views_are_read_only(self):
        from repro.core.context import JobContext

        ctx = JobContext(cfg())
        view = ctx.stats(0)
        with pytest.raises(AttributeError, match="read-only"):
            view.reduce = "sum"
        view.params = view.params  # the one writable attribute (hybrid PS)


# ----------------------------------------------------------------------
# Trace artifacts on disk
# ----------------------------------------------------------------------
class TestTraceArtifacts:
    @pytest.fixture(scope="class")
    def trace(self):
        recorder = ExactSubstrate()
        train(cfg(), substrate=recorder)
        return recorder.trace

    def test_roundtrip(self, trace, tmp_path):
        path = write_trace(tmp_path, trace)
        assert path == trace_path(tmp_path, trace["stat_hash"])
        assert load_trace(path, expected_hash=trace["stat_hash"]) == trace
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_partial_json_is_corrupt(self, trace, tmp_path):
        path = write_trace(tmp_path, trace)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(TraceError, match="partial"):
            load_trace(path)

    def test_tampered_fingerprint_is_corrupt(self, trace):
        tampered = copy.deepcopy(trace)
        tampered["stat_fingerprint"]["lr"] = 0.999
        with pytest.raises(TraceError, match="stat hash mismatch"):
            validate_trace(tampered)

    def test_missing_rank_keys_are_corrupt(self, trace):
        broken = copy.deepcopy(trace)
        del broken["ranks"][0]["losses"]
        with pytest.raises(TraceError, match="missing keys"):
            validate_trace(broken)

    def test_foreign_schema_is_corrupt(self, trace):
        with pytest.raises(TraceError, match="schema"):
            validate_trace({**trace, "schema": 99})

    @pytest.mark.parametrize("reduce", ["max", "MEAN", ""])
    def test_unknown_reduction_is_corrupt(self, trace, tmp_path, reduce):
        # Used to validate, then die mid-simulation with a
        # CommunicationError from the first merge.
        with pytest.raises(TraceError, match="reduce"):
            validate_trace({**trace, "reduce": reduce})
        path = write_trace(tmp_path, {**trace, "reduce": reduce})
        with pytest.raises(TraceError, match="reduce"):
            load_trace(path)

    def test_misfiled_trace_is_corrupt(self, trace, tmp_path):
        path = write_trace(tmp_path, trace)
        misfiled = path.with_name("0" * 16 + ".json")
        path.rename(misfiled)
        with pytest.raises(TraceError, match="filed under"):
            load_trace(misfiled, expected_hash=misfiled.stem)

    def test_scan_partitions_valid_and_corrupt(self, trace, tmp_path):
        write_trace(tmp_path, trace)
        (tmp_path / ("1" * 16 + ".json")).write_text("{not json")
        completed, corrupt = scan_traces(tmp_path)
        assert set(completed) == {trace["stat_hash"]}
        assert [p.stem for p in corrupt] == ["1" * 16]
        assert scan_traces(tmp_path / "missing") == ({}, [])

    def test_trace_meta_records_provenance(self, trace):
        from repro import __version__

        assert trace["meta"]["engine_version"] == __version__
        assert trace["meta"]["compute_seconds"] > 0
        assert len(trace["meta"]["recorded_config_hash"]) == 16
