"""Golden tests: the Study protocol vs the pre-redesign loops.

Each experiment module is a grid function plus an ``aggregate`` run by
the sweep orchestrator. These tests re-implement the *old* hand-rolled
loops (direct ``train()`` calls, copied verbatim from the pre-ISSUE-5
modules) at scaled-down settings and assert that
``aggregate(run_sweep(<grid>).artifacts)`` is bit-identical — loss
histories through the artifact JSON roundtrip included. (Test ids keep
the names of the ``run*`` helpers they were first written against.)
``result_from_artifact`` does not reconstruct ``per_worker`` traces, so
equality is asserted field by field over everything the aggregators and
reports consume.
"""

from __future__ import annotations

import pytest

from repro.core.config import TrainingConfig
from repro.core.driver import train
from repro.core.results import RunResult
from repro.errors import ItemTooLargeError, StorageError
from repro.experiments import (
    cost_sanity,
    fig7_algorithms,
    fig10_breakdown,
    fig13_validation,
    table1_channels,
    table5_pipeline,
)
from repro.experiments.report import ratio
from repro.experiments.workloads import get_workload
from repro.sweep.orchestrator import run_sweep

SEED = 20210620


def assert_result_equal(shim: RunResult, old: RunResult) -> None:
    """Bitwise equality over every field that survives the JSON roundtrip."""
    assert shim.config == old.config
    assert shim.converged == old.converged
    assert shim.final_loss == old.final_loss
    assert shim.duration_s == old.duration_s
    assert shim.cost_total == old.cost_total
    assert shim.cost_breakdown == old.cost_breakdown
    assert shim.epochs == old.epochs
    assert shim.comm_rounds == old.comm_rounds
    assert shim.checkpoints == old.checkpoints
    assert shim.final_accuracy == old.final_accuracy
    assert shim.breakdown.as_dict() == old.breakdown.as_dict()
    assert shim.history == old.history  # loss history, float-exact
    assert shim.events == old.events


class TestFig10Golden:
    def test_run_matches_old_loop(self):
        epochs, workers = 1.0, 4
        old_rows = []
        for system in fig10_breakdown.SYSTEMS:
            config = TrainingConfig(
                model="lr", dataset="higgs",
                algorithm="ma_sgd" if system != "hybridps" else "ga_sgd",
                system=system, workers=workers, channel="s3",
                batch_size=10_000, lr=0.05, loss_threshold=None,
                max_epochs=epochs, seed=SEED,
            )
            old_rows.append(fig10_breakdown._to_row(system, train(config)))
        points = fig10_breakdown.sweep_points(max_epochs=epochs, workers=workers)
        assert fig10_breakdown.aggregate(run_sweep(points).artifacts) == old_rows


class TestFig13Golden:
    def test_run_fixed_epochs_matches_old_loop(self):
        from repro.analytics.model import AnalyticalModel, WorkloadParams

        epoch_grid, workers = (1, 2), 4
        workload = get_workload("lr", "higgs")
        params = WorkloadParams.from_zoo("lr", "higgs", epochs=1.0, rounds_per_epoch=1.0)
        old_points = []
        for epochs in epoch_grid:
            faas = train(TrainingConfig(
                model="lr", dataset="higgs", algorithm="ma_sgd",
                system="lambdaml", workers=workers, channel="s3",
                batch_size=workload.batch_size, lr=workload.lr,
                loss_threshold=None, max_epochs=float(epochs), seed=SEED,
            ))
            iaas = train(TrainingConfig(
                model="lr", dataset="higgs", algorithm="ma_sgd",
                system="pytorch", workers=workers, instance="t2.medium",
                batch_size=workload.batch_size, lr=workload.lr,
                loss_threshold=None, max_epochs=float(epochs), seed=SEED,
            ))
            scaled = WorkloadParams(**{
                **params.__dict__,
                "epochs_faas": float(epochs), "epochs_iaas": float(epochs),
            })
            model = AnalyticalModel(scaled)
            old_points.append(fig13_validation.ValidationPoint(
                epochs=float(epochs),
                faas_actual_s=faas.duration_s,
                faas_predicted_s=model.faas_seconds(workers),
                iaas_actual_s=iaas.duration_s,
                iaas_predicted_s=model.iaas_seconds(workers),
            ))
        points = fig13_validation.fixed_epoch_points(
            epoch_grid=epoch_grid, workers=workers
        )
        shim = fig13_validation.aggregate(run_sweep(points).artifacts).fixed
        assert shim == old_points

    @pytest.mark.slow
    def test_run_estimator_matches_old_loop(self):
        from repro.analytics.estimator import SamplingEstimator
        from repro.analytics.model import AnalyticalModel, WorkloadParams

        cases, algorithms, workers = (("lr", "higgs"),), ("ma_sgd",), 4
        estimator = SamplingEstimator(sample_fraction=0.1, seed=SEED)
        old_points = []
        for model_name, dataset in cases:
            workload = get_workload(model_name, dataset)
            for algorithm in algorithms:
                estimate = estimator.estimate(
                    model_name, dataset, algorithm,
                    lr=workload.lr, threshold=workload.threshold,
                    batch_size=max(32, workload.batch_size // 100),
                    max_epochs=workload.max_epochs,
                )
                actual = train(TrainingConfig(
                    model=model_name, dataset=dataset, algorithm=algorithm,
                    system="lambdaml", workers=workers, channel="s3",
                    batch_size=workload.batch_size, lr=workload.lr,
                    loss_threshold=workload.threshold,
                    max_epochs=workload.max_epochs, seed=SEED,
                ))
                params = WorkloadParams.from_zoo(
                    model_name, dataset, epochs=1.0, rounds_per_epoch=1.0
                )
                scaled = WorkloadParams(**{
                    **params.__dict__,
                    "epochs_faas": estimate.epochs, "epochs_iaas": estimate.epochs,
                })
                old_points.append(fig13_validation.EstimatorPoint(
                    workload=f"{model_name}/{dataset}",
                    algorithm=algorithm,
                    estimated_epochs=estimate.epochs,
                    actual_epochs=actual.epochs,
                    predicted_runtime_s=AnalyticalModel(scaled).faas_seconds(workers),
                    actual_runtime_s=actual.duration_s,
                ))
        points = fig13_validation.estimator_points(
            cases=cases, algorithms=algorithms, workers=workers
        )
        shim = fig13_validation.aggregate(run_sweep(points).artifacts).estimator
        assert shim == old_points


@pytest.mark.slow
class TestFig7Golden:
    def test_run_matches_old_loop(self):
        model, dataset = "lr", "higgs"
        worker_counts, max_epochs, ga_max_epochs = (4, 8), 1.0, 0.5
        workload = get_workload(model, dataset)
        old_results = {}
        for algorithm in ("admm", "ma_sgd", "ga_sgd"):
            for workers in worker_counts:
                epochs_cap = max_epochs or workload.max_epochs
                if algorithm == "ga_sgd" and ga_max_epochs is not None:
                    epochs_cap = ga_max_epochs
                config = TrainingConfig(
                    model=model, dataset=dataset, algorithm=algorithm,
                    system="lambdaml", workers=workers, channel="memcached",
                    channel_prestarted=True, batch_size=workload.batch_size,
                    batch_scope=workload.batch_scope, lr=workload.lr,
                    k=workload.k, loss_threshold=workload.threshold,
                    max_epochs=epochs_cap, partition_mode="iid", seed=SEED,
                )
                old_results[(algorithm, workers)] = train(config)
        points = fig7_algorithms.workload_points(
            model, dataset, worker_counts=worker_counts,
            max_epochs=max_epochs, ga_max_epochs=ga_max_epochs,
        )
        (comparison,) = fig7_algorithms.aggregate(run_sweep(points).artifacts)
        assert comparison.workload == f"{model}/{dataset}"
        assert comparison.results.keys() == old_results.keys()
        for key, old in old_results.items():
            assert_result_equal(comparison.results[key], old)


@pytest.mark.slow
class TestTable1Golden:
    def test_run_workload_matches_old_loop(self):
        model, dataset, workers, max_epochs = "lr", "higgs", 4, 1.0
        workload = get_workload(model, dataset)

        def make_config(**overrides):
            return TrainingConfig(
                model=model, dataset=dataset,
                algorithm=overrides.pop("algorithm", workload.algorithm),
                system=overrides.pop("system", "lambdaml"),
                workers=workers, batch_size=workload.batch_size,
                batch_scope=workload.batch_scope, lr=workload.lr,
                k=workload.k, loss_threshold=workload.threshold,
                max_epochs=max_epochs, seed=SEED, **overrides,
            )

        results = {}
        for channel in table1_channels.CHANNELS:
            try:
                results[channel] = train(make_config(channel=channel))
            except (ItemTooLargeError, StorageError):
                results[channel] = None
        results["vm-ps"] = train(make_config(system="hybridps", algorithm="ga_sgd"))
        s3 = results["s3"]
        old_row = table1_channels.ChannelRow(
            workload=f"{model}/{dataset}",
            workers=workers,
            s3_time=s3.duration_s,
            s3_cost=s3.cost_total,
            slowdown={
                name: ratio(r.duration_s if r else None, s3.duration_s)
                for name, r in results.items() if name != "s3"
            },
            rel_cost={
                name: ratio(r.cost_total if r else None, s3.cost_total)
                for name, r in results.items() if name != "s3"
            },
        )
        points = table1_channels.workload_points(
            model, dataset, workers, max_epochs=max_epochs
        )
        (shim,) = table1_channels.aggregate(run_sweep(points).artifacts)
        assert shim == old_row

    def test_dynamodb_feasibility_matches_the_store(self):
        # The grid-time exclusion must mirror the simulated store: the
        # old loop learned "N/A" from ItemTooLargeError mid-run.
        assert table1_channels.dynamodb_feasible("lr", "higgs")
        assert table1_channels.dynamodb_feasible("kmeans", "higgs", k=1000)
        assert not table1_channels.dynamodb_feasible("mobilenet", "cifar10")
        with pytest.raises(ItemTooLargeError):
            train(TrainingConfig(
                model="mobilenet", dataset="cifar10", algorithm="ga_sgd",
                system="lambdaml", workers=2, channel="dynamodb",
                batch_size=128, batch_scope="per_worker", lr=0.05,
                loss_threshold=None, max_epochs=0.05, seed=SEED,
            ))

    def test_infeasible_dynamodb_renders_na(self):
        # mobilenet/dynamodb is excluded from the grid, so the aggregated
        # row must carry the None the old exception handler produced.
        points = table1_channels.workload_points(
            "mobilenet", "cifar10", 2, max_epochs=1.0
        )
        assert all(
            p.config_kwargs.get("channel") != "dynamodb" for p in points
        )


@pytest.mark.slow
class TestTable5Golden:
    def test_run_case_matches_old_loop(self):
        from repro.data.datasets import get_spec
        from repro.iaas.cluster import iaas_startup_seconds
        from repro.pricing.catalog import DEFAULT_CATALOG

        model, dataset = "lr", "higgs"
        epochs_per_job, grid = 0.5, (0.01, 0.02)
        workers = table5_pipeline.WORKERS
        workload = get_workload(model, dataset)

        def config(system, lr, **kw):
            return TrainingConfig(
                model=model, dataset=dataset, algorithm=workload.algorithm,
                system=system, workers=workers, channel="s3",
                batch_size=workload.batch_size, batch_scope=workload.batch_scope,
                lr=lr, loss_threshold=None, max_epochs=epochs_per_job,
                seed=SEED, **kw,
            )

        spec = get_spec(dataset)
        prep = table5_pipeline._preprocess_seconds(spec.size_bytes, workers)
        old_rows = []
        for platform in ("faas", "iaas"):
            total_cost = 0.0
            accuracies = []
            if platform == "faas":
                durations = []
                for lr in grid:
                    result = train(config("lambdaml", lr))
                    durations.append(result.duration_s)
                    total_cost += result.cost_total
                    accuracies.append(result.final_accuracy)
                runtime = prep + max(durations)
                total_cost += (
                    workers * 3.0 * prep * DEFAULT_CATALOG.lambda_per_gb_second
                )
            else:
                startup = iaas_startup_seconds(workers)
                job_seconds = 0.0
                for lr in grid:
                    result = train(config("pytorch", lr, instance="t2.medium"))
                    job_seconds += result.duration_s - result.startup_s
                    accuracies.append(result.final_accuracy)
                runtime = prep + startup + job_seconds
                total_cost = (
                    workers * DEFAULT_CATALOG.ec2_price("t2.medium")
                    * runtime / 3600.0
                )
            best = max((a for a in accuracies if a is not None), default=None)
            old_rows.append(table5_pipeline.PipelineRow(
                workload=f"{model}/{dataset}", platform=platform,
                runtime_s=runtime, accuracy=best, cost=total_cost,
            ))
        points = table5_pipeline.case_points(
            model, dataset, epochs_per_job=epochs_per_job, grid=grid
        )
        shim = table5_pipeline.aggregate(run_sweep(points).artifacts)
        assert shim == old_rows


@pytest.mark.slow
class TestCostSanityGolden:
    def test_run_case_matches_old_loop(self):
        model, dataset, workers, max_epochs = "lr", "higgs", 4, 1.0
        workload = get_workload(model, dataset)

        def config(system, w):
            return TrainingConfig(
                model=model, dataset=dataset, algorithm=workload.algorithm,
                system=system, workers=w, channel="s3",
                batch_size=workload.batch_size, batch_scope=workload.batch_scope,
                lr=workload.lr, k=workload.k,
                loss_threshold=workload.threshold, max_epochs=max_epochs,
                seed=SEED,
            )

        single = train(config("pytorch", 1))
        faas = train(config("lambdaml", workers))
        iaas = train(config("pytorch", workers))
        old_row = cost_sanity.SanityRow(
            workload=f"{model}/{dataset}",
            single_s=single.duration_s,
            faas_s=faas.duration_s,
            iaas_s=iaas.duration_s,
            faas_speedup=single.duration_s / faas.duration_s,
            iaas_speedup=single.duration_s / iaas.duration_s,
        )
        points = cost_sanity.case_points(
            model, dataset, workers=workers, max_epochs=max_epochs
        )
        (shim,) = cost_sanity.aggregate(run_sweep(points).artifacts)
        assert shim == old_row
