"""Golden tests: the Study protocol vs the pre-redesign loops.

Each experiment module is a grid function plus an ``aggregate`` run by
the sweep orchestrator. These tests re-implement the *old* hand-rolled
loops (direct ``train()`` calls, copied verbatim from the pre-ISSUE-5
modules) at scaled-down settings and assert that what the study reads
of ``run_sweep(<grid>).artifacts`` is bit-identical — loss histories
through the artifact JSON roundtrip included. (Test ids keep the names
of the ``run*`` helpers they were first written against.)
``result_from_artifact`` does not reconstruct ``per_worker`` traces, so
equality is asserted field by field over everything that survives the
roundtrip. A grid study's result is the row frame
(``repro.sweep.study.rows``), so its oracle checks both: each point's
artifact against the direct run, and the row built from it against the
same run.
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
from repro.simulation.tracing import KNOWN_CATEGORIES
from repro.sweep.grid import config_hash
from repro.sweep.artifacts import result_from_artifact
from repro.sweep.orchestrator import run_sweep
from repro.sweep.study import pivot, rows

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


def assert_row_equal(row: dict, artifacts: dict[str, dict], old: RunResult) -> None:
    """The row's artifact round-trips to the direct run, and the row reads it."""
    assert row["config_hash"] == config_hash(old.config)
    assert_result_equal(result_from_artifact(artifacts[row["config_hash"]]), old)
    for key in ("converged", "final_loss", "duration_s", "cost_total", "epochs",
                "comm_rounds"):
        assert row[key] == getattr(old, key), key
    assert set(old.breakdown.as_dict()) <= set(KNOWN_CATEGORIES)
    for phase in KNOWN_CATEGORIES:
        assert row[f"{phase}_s"] == old.breakdown.get(phase), phase
    assert row["loss_curve"] == old.loss_curve()
    assert row["events"] == old.events


def sweep_rows(points) -> tuple[list[dict], dict[str, dict]]:
    """The grid's row frame, and its artifacts by config hash."""
    artifacts = run_sweep(points).artifacts
    return rows(artifacts), {a["config_hash"]: a for a in artifacts}


class TestFig10Golden:
    def test_run_matches_old_loop(self):
        epochs, workers = 1.0, 4
        old_runs = {}
        for system in fig10_breakdown.SYSTEMS:
            config = TrainingConfig(
                model="lr", dataset="higgs",
                algorithm="ma_sgd" if system != "hybridps" else "ga_sgd",
                system=system, workers=workers, channel="s3",
                batch_size=10_000, lr=0.05, loss_threshold=None,
                max_epochs=epochs, seed=SEED,
            )
            old_runs[system] = train(config)
        points = fig10_breakdown.sweep_points(max_epochs=epochs, workers=workers)
        frame, artifacts = sweep_rows(points)
        assert [r["system"] for r in frame] == list(fig10_breakdown.SYSTEMS)
        for row in frame:
            old = old_runs[row["system"]]
            assert_row_equal(row, artifacts, old)
            assert fig10_breakdown._without_startup(row) == old.duration_without_startup_s


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
            old_points.append(dict(
                part="13a",
                epochs=float(epochs),
                faas_actual_s=faas.duration_s,
                faas_predicted_s=model.faas_seconds(workers),
                iaas_actual_s=iaas.duration_s,
                iaas_predicted_s=model.iaas_seconds(workers),
            ))
        points = fig13_validation.fixed_epoch_points(
            epoch_grid=epoch_grid, workers=workers
        )
        shim = fig13_validation.aggregate(run_sweep(points).artifacts)
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
                old_points.append(dict(
                    part="13b",
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
        shim = fig13_validation.aggregate(run_sweep(points).artifacts)
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
        frame, artifacts = sweep_rows(points)
        assert {r["workload"] for r in frame} == {f"{model}/{dataset}"}
        by_cell = {(r["algorithm"], r["workers"]): r for r in frame}
        assert by_cell.keys() == old_results.keys()
        for key, old in old_results.items():
            assert_row_equal(by_cell[key], artifacts, old)


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
        old_slowdown = {
            name: ratio(r.duration_s if r else None, s3.duration_s)
            for name, r in results.items() if name != "s3"
        }
        old_rel_cost = {
            name: ratio(r.cost_total if r else None, s3.cost_total)
            for name, r in results.items() if name != "s3"
        }
        points = table1_channels.workload_points(
            model, dataset, workers, max_epochs=max_epochs
        )
        frame, artifacts = sweep_rows(points)
        (cells,) = pivot(frame, "row", "channel").values()
        assert cells["s3"]["row"] == f"{model}/{dataset},W={workers}"
        for name, old in results.items():
            if old is None:
                assert name not in cells
            else:
                assert_row_equal(cells[name], artifacts, old)
        for name in old_slowdown:
            assert table1_channels.relative(cells, name, "slowdown") == old_slowdown[name]
            assert table1_channels.relative(cells, name, "rel_cost") == old_rel_cost[name]

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
            old_rows.append(dict(
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

        old = {
            "single": train(config("pytorch", 1)),
            "faas": train(config("lambdaml", workers)),
            "iaas": train(config("pytorch", workers)),
        }
        points = cost_sanity.case_points(
            model, dataset, workers=workers, max_epochs=max_epochs
        )
        frame, artifacts = sweep_rows(points)
        (roles,) = pivot(frame, "case", "role").values()
        assert roles.keys() == old.keys()
        for role, run in old.items():
            assert roles[role]["case"] == f"{model}/{dataset}"
            assert_row_equal(roles[role], artifacts, run)
        for platform in ("faas", "iaas"):
            assert cost_sanity.speedup(roles, platform) == (
                old["single"].duration_s / old[platform].duration_s
            )
