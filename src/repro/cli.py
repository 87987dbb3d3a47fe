"""Command-line interface.

Usage (installed as a module)::

    python -m repro.cli train --model lr --dataset higgs --algorithm admm \
        --system lambdaml --workers 10 --loss-threshold 0.66
    python -m repro.cli workloads
    python -m repro.cli estimate --model lr --dataset higgs \
        --algorithm ma_sgd --lr 0.05 --threshold 0.66
    python -m repro.cli sweep --list
    python -m repro.cli sweep --experiment fig11 --jobs 4 --resume
    python -m repro.cli serve --arrivals poisson --rate 6 --tenants 12 \
        --scheduler fair_share --seed 0
    python -m repro.cli infer --platform faas --traffic bursty \
        --autoscaler concurrency --requests 400

`train` prints a RunResult summary plus breakdowns — its flags are
derived mechanically from the ``TrainingConfig`` dataclass fields, so
the CLI can never drift from the config; `workloads` lists the tuned
Table-4 workloads; `estimate` runs the sampling-based
epochs-to-convergence estimator; `sweep` runs any registered study
(``--list`` prints the catalog) over a process pool, one exact training
per statistical fingerprint and replays for the rest, writing one
resumable JSON artifact per point; `serve` runs a multi-tenant training
service workload and `infer` a train-then-serve inference pipeline —
their flags are derived from ``ServiceConfig`` / ``ServingConfig`` the
same way train's are from ``TrainingConfig``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads (same rationale as
# tests/conftest.py): multithreaded reductions reorder float sums,
# which would make sweep artifacts differ between hosts — and between
# serial and pooled runs of the same grid.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import importlib
import json
import math
import sys
from typing import NamedTuple

from repro.analytics.estimator import SamplingEstimator
from repro.config import DEFAULT_SEED
from repro.core.config import ALGORITHMS, TrainingConfig
from repro.core.driver import train
from repro.experiments.workloads import WORKLOADS
from repro.sweep.orchestrator import plan_sweep, run_sweep
from repro.sweep.study import StudyContext, all_studies, get_study

# Scalar parsers for derived flags. `from __future__ import annotations`
# makes dataclass field types strings ("float | None"); the first union
# alternative names the parser (argparse only calls it on user input, so
# an Optional field's None default survives untouched).
_FLAG_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _field_type(f: dataclasses.Field) -> type:
    return _FLAG_TYPES[str(f.type).split("|")[0].strip()]


def _config_fields(cls: type = TrainingConfig) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.init]


def add_config_flags(
    parser: argparse.ArgumentParser, cls: type = TrainingConfig
) -> None:
    """Derive one ``--flag`` per init field of a ``_cli``-annotated config.

    Name, type and default come from the dataclass; help text and
    choices from the field's metadata (see ``_cli`` in
    repro.core.config). Config and CLI therefore cannot drift: a new
    config field IS a new flag — ``train`` derives from
    ``TrainingConfig``, ``serve`` from ``ServiceConfig`` — and the
    parity tests in tests/test_cli.py pin both bijections.
    """
    for f in _config_fields(cls):
        flag = "--" + f.name.replace("_", "-")
        if _field_type(f) is bool:
            parser.add_argument(
                flag, action=argparse.BooleanOptionalAction,
                default=f.default, help=f.metadata.get("help"),
            )
            continue
        kwargs: dict = {"type": _field_type(f), "help": f.metadata.get("help")}
        if "choices" in f.metadata:
            kwargs["choices"] = list(f.metadata["choices"])
        if f.default is dataclasses.MISSING:
            kwargs["required"] = True
        else:
            kwargs["default"] = f.default
        parser.add_argument(flag, **kwargs)


def _say(message: str) -> None:
    """The progress stream of every verb: stderr, flushed per line."""
    print(message, file=sys.stderr, flush=True)


def config_from_args(args: argparse.Namespace, cls: type = TrainingConfig):
    """Build the config from the derived flags (one kwarg per field)."""
    return cls(**{f.name: getattr(args, f.name) for f in _config_fields(cls)})


def _add_train_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "train",
        help="run one simulated training job (flags mirror TrainingConfig)",
    )
    add_config_flags(p)
    # Orchestration flag, not part of the workload's identity (the
    # flag<->TrainingConfig parity test excludes it by name).
    p.add_argument("--profile", metavar="DIR", nargs="?", const="profile",
                   default=None,
                   help="dump a cProfile (.pstats + top-40 text table) and "
                   "the engine's event-count stats into DIR "
                   "(default: ./profile)")


def _run_train(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    if args.profile:
        from repro.profiling import profile_call

        result, paths = profile_call(lambda: train(config), args.profile, "train")
        for path in paths:
            print(f"profile: {path}", file=sys.stderr)
    else:
        result = train(config)
    print(result.summary())
    print("\ntime breakdown (s):")
    for phase, seconds in sorted(result.breakdown.as_dict().items()):
        print(f"  {phase:<12} {seconds:10.2f}")
    print("\ncost breakdown ($):")
    for component, dollars in sorted(result.cost_breakdown.items()):
        print(f"  {component:<12} {dollars:10.4f}")
    if config.faults_enabled:
        print("\nreliability events:")
        for name, value in sorted(result.events.items()):
            print(f"  {name:<24} {value}")
    return 0 if (result.converged or config.loss_threshold is None) else 1


def _run_workloads(_args: argparse.Namespace) -> int:
    print(f"{'workload':<22} {'algorithm':<8} {'W':>4} {'batch':>9} "
          f"{'lr':>6} {'threshold':>9} {'paper':>7}")
    for key, w in sorted(WORKLOADS.items()):
        print(
            f"{key:<22} {w.algorithm:<8} {w.workers:>4} {w.batch_size:>9} "
            f"{w.lr:>6} {w.threshold:>9} {w.paper_threshold:>7}"
        )
    return 0


def _add_estimate_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "estimate", help="sampling-based epochs-to-convergence estimate"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--algorithm", default="ma_sgd", choices=ALGORITHMS)
    p.add_argument("--lr", type=float, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--sample-fraction", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _run_estimate(args: argparse.Namespace) -> int:
    estimator = SamplingEstimator(sample_fraction=args.sample_fraction, seed=args.seed)
    estimate = estimator.estimate(
        args.model, args.dataset, args.algorithm,
        lr=args.lr, threshold=args.threshold, batch_size=args.batch_size,
    )
    state = "converged" if estimate.converged else "did NOT converge"
    print(f"{state}: ~{estimate.epochs:.1f} epochs to loss {args.threshold}")
    for epoch, loss in estimate.trajectory[:12]:
        print(f"  epoch {epoch:6.1f}: loss {loss:.4f}")
    return 0 if estimate.converged else 1


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _add_sweep_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "sweep",
        help="run a registered study's grid over a process pool with "
        "resumable per-point JSON artifacts",
    )
    # No choices= here: that would import every experiment module just
    # to build the parser for unrelated commands. An unknown name is
    # rejected by get_study() with the full known-names list.
    p.add_argument("--experiment", metavar="STUDY",
                   help="registered study to run (see --list)")
    p.add_argument("--list", action="store_true",
                   help="print every registered study (kind, grid size, "
                   "unique statistical fingerprints) and exit")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (1 = run inline)")
    p.add_argument("--out", default=None,
                   help="artifact directory (default: sweeps/<experiment>)")
    p.add_argument("--resume", action="store_true",
                   help="skip points whose artifact already exists in --out")
    p.add_argument("--dry-run", action="store_true",
                   help="print grid size, unique statistical fingerprints and "
                   "existing artifact/trace counts, then exit without running")
    p.add_argument("--max-epochs", type=_positive_float, default=None,
                   help="override every point's epoch cap (scaled-down sweeps)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mega", action="store_true",
                   help="include the mega-scale grid tails (fig11: FaaS "
                   "W=1024/2048/4096) — opt-in so default sweeps and CI "
                   "smoke runs keep their wall budget")
    p.add_argument("--no-report", action="store_true",
                   help="skip the aggregated report (summary line only)")
    p.add_argument("--profile", action="store_true",
                   help="run the sweep under cProfile and dump it plus the "
                   "engines' event-count stats into <out>/profile "
                   "(forces --jobs 1: profiling is per-process)")


def _dry_run_sweep(args: argparse.Namespace, experiment, points, out_dir) -> int:
    # Without --resume, on-disk artifacts/traces are reported but NOT
    # counted as done, because the real run would re-run everything too.
    plan = plan_sweep(points, out_dir=out_dir, resume=args.resume)
    print(f"sweep {experiment.name} (dry run; nothing was executed)")
    print(f"  grid points (deduped):        {plan['points']}")
    print(f"  unique stat fingerprints:     {plan['unique_stat_fingerprints']}"
          + (f" ({plan['timing_coupled_points']} timing-coupled point(s): "
             "exact-only)" if plan['timing_coupled_points'] else ""))
    print(f"  artifacts in {plan['out_dir']}: {plan['artifacts_present']}"
          + (f" (+{plan['artifacts_corrupt']} corrupt)"
             if plan['artifacts_corrupt'] else ""))
    print(f"  traces in {plan['traces_dir']}: {plan['traces_present']}"
          + (f" (+{plan['traces_corrupt']} corrupt)"
             if plan['traces_corrupt'] else ""))
    if not args.resume and (plan["artifacts_present"] or plan["traces_present"]):
        print("  note: existing artifacts/traces are reused only with --resume; "
              "without it this invocation re-runs every point")
    print(f"  would train: {plan['exact_trainings_needed']} exact point(s) "
          f"and replay {plan['replays_needed']}")
    return 0


def _list_studies(args: argparse.Namespace) -> int:
    """``sweep --list``: the catalog, with the ``--dry-run`` accounting."""
    studies = all_studies()
    width = max(len(name) for name in studies)
    print(f"{'study':<{width}} {'kind':<6} {'points':>6} {'stat-fp':>7}  description")
    for name, entry in studies.items():
        points = entry.points(
            max_epochs=args.max_epochs, seed=args.seed, mega=args.mega
        )
        plan = plan_sweep(points)
        print(
            f"{name:<{width}} {entry.kind:<6} {plan['points']:>6} "
            f"{plan['unique_stat_fingerprints']:>7}  {entry.description}"
        )
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if args.list:
        return _list_studies(args)
    if args.experiment is None:
        print("error: sweep needs --experiment NAME (or --list)", file=sys.stderr)
        return 2

    # setdefault above respects a pre-set host env — but multithreaded
    # BLAS reorders float sums, so artifacts would not be comparable
    # across hosts (or against a pinned run). Say so rather than guess.
    unpinned = [var for var in BLAS_THREAD_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(
            f"warning: {', '.join(unpinned)} pre-set to a value other than 1; "
            "multithreaded BLAS may make artifacts differ from "
            "single-threaded hosts (unset, or export =1, for bit-stable sweeps)",
            file=sys.stderr,
        )

    experiment = get_study(args.experiment)
    points = experiment.points(
        max_epochs=args.max_epochs, seed=args.seed, mega=args.mega
    )
    out_dir = args.out or os.path.join("sweeps", experiment.name)
    if args.dry_run:
        return _dry_run_sweep(args, experiment, points, out_dir)
    jobs = args.jobs
    if args.profile and jobs != 1:
        print("note: --profile forces --jobs 1 (cProfile and engine stats "
              "are per-process)", file=sys.stderr)
        jobs = 1

    def execute():
        return run_sweep(
            points,
            out_dir=out_dir,
            jobs=jobs,
            resume=args.resume,
            progress=_say,
        )

    if args.profile:
        from repro.profiling import profile_call

        run, paths = profile_call(
            execute, os.path.join(out_dir, "profile"), "sweep"
        )
        for path in paths:
            print(f"profile: {path}", file=sys.stderr)
    else:
        run = execute()
    need_result = experiment.claims or not args.no_report
    result = experiment.aggregate(run.artifacts) if need_result else None
    if not args.no_report:
        print(experiment.format_report(result))
        print()
    print(
        f"sweep {experiment.name}: {run.ran} point(s) run, "
        f"{run.skipped} skipped via resume, "
        f"{len(run.corrupt)} corrupt artifact(s) re-run; "
        f"artifacts in {run.out_dir} [{run.stat_groups} unique stat "
        f"fingerprint(s), {run.recorded} recorded, {run.replayed} replayed, "
        f"{run.exact_runs} exact]"
    )
    if run.failed:
        print(f"{len(run.failed)} point(s) FAILED:", file=sys.stderr)
        for failure in run.failed:
            print(
                f"  {failure['label']} ({failure['config_hash']}): "
                f"{failure['reason']}",
                file=sys.stderr,
            )
        print(
            "re-run with --resume to retry only the failed point(s)",
            file=sys.stderr,
        )
        return 1
    return _check_claims(args, experiment, result)


def _check_claims(args: argparse.Namespace, experiment, result) -> int:
    """One line per claim of the default grid; 1 when one fails outright."""
    ctx = StudyContext(max_epochs=args.max_epochs, seed=args.seed, mega=args.mega)
    if experiment.claims and ctx != StudyContext():
        print(f"{len(experiment.claims)} claim(s) not checked: they are stated "
              "for the default grid (no --max-epochs, --seed or --mega)")
        return 0
    failed = 0
    for claim in experiment.claims:
        fatal, line = claim.verdict(result)
        print(line)
        failed += fatal
    return 1 if failed else 0


def _add_fuzz_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "fuzz",
        help="run a seeded property-based fuzz campaign over the "
        "TrainingConfig x FaultPlan space, shrinking failures into the "
        "regression corpus",
    )
    p.add_argument("--budget", type=_positive_int, default=50,
                   help="number of scenarios to check (default: 50)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; 'seed:index' alone reproduces any "
                   "scenario (default: 0)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="fuzz worker processes; a dying worker is recorded "
                   "as a process_survives finding, not a hang (default: 1)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="where to save shrunk counterexamples (default: the "
                   "in-tree tests/data/fuzz_corpus replayed by tier-1)")
    p.add_argument("--no-shrink", action="store_true",
                   help="record raw counterexamples without minimising them")
    p.add_argument("--show-scenario", default=None, metavar="SEED:INDEX",
                   help="print the config kwargs of one scenario id and exit")


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import DEFAULT_CORPUS_DIR, ScenarioSpace, run_campaign

    if args.show_scenario is not None:
        scenario = ScenarioSpace.from_id(args.show_scenario)
        print(json.dumps(scenario.config_kwargs, indent=2, sort_keys=True))
        return 0
    result = run_campaign(
        budget=args.budget,
        seed=args.seed,
        workers=args.workers,
        corpus_dir=args.corpus or DEFAULT_CORPUS_DIR,
        shrink_failures=not args.no_shrink,
        progress=_say,
    )
    print(result.summary())
    if result.findings:
        print(f"{len(result.findings)} counterexample(s):", file=sys.stderr)
        for finding in result.findings:
            print(f"  {finding.describe()}", file=sys.stderr)
            if finding.corpus_path:
                print(f"    saved: {finding.corpus_path}", file=sys.stderr)
        return 1
    return 0


class _ReportVerb(NamedTuple):
    """One row per report-producing verb.

    `serve` and `infer` are the same program — flags derived from a
    declarative config, a repro.api facade run against --out, a report,
    a status line — so one parser-builder and one runner read what
    differs from here. Classes are "module:Class", imported on use so
    the facades stay off every other verb's import path.
    """

    config: str  # the dataclass the flags are derived from
    facade: str  # the repro.api facade that runs it
    noun: str  # status-line prefix and the report's <noun>_hash key
    unit: str  # what the outcome's ``ran`` counts
    redone: str  # status wording when nothing was
    help: str
    out_help: str


_REPORT_VERBS = {
    "serve": _ReportVerb(
        "repro.service.config:ServiceConfig", "repro.api.service:Service",
        "service", "job", "re-run",
        "run a multi-tenant training service workload (flags mirror ServiceConfig)",
        "service root: report under <out>/service, isolated baselines "
        "under <out>/baselines (default: in-memory)",
    ),
    "infer": _ReportVerb(
        "repro.serving.config:ServingConfig", "repro.api.serving:ServingSession",
        "serving", "request", "re-simulated",
        "run a train-then-serve inference pipeline (flags mirror ServingConfig)",
        "pipeline root: serving report under <out>/serving, the trained "
        "model under <out>/models (default: in-memory)",
    ),
}


def _load(spec: str):
    module, _, name = spec.partition(":")
    return getattr(importlib.import_module(module), name)


def _add_report_parser(subparsers, command: str) -> None:
    verb = _REPORT_VERBS[command]
    p = subparsers.add_parser(command, help=verb.help)
    add_config_flags(p, cls=_load(verb.config))
    # Orchestration flags (not part of the run's identity).
    p.add_argument("--out", default=None, help=verb.out_help)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the training sweep")
    p.add_argument("--resume", action=argparse.BooleanOptionalAction,
                   default=True,
                   help=f"load the persisted report for an identical {verb.noun} "
                   "run instead of re-simulating it (needs --out)")
    p.add_argument("--json", action="store_true",
                   help="print the raw report document instead of the table")


def _run_report(args: argparse.Namespace) -> int:
    verb = _REPORT_VERBS[args.command]
    outcome = _load(verb.facade).from_config(
        config_from_args(args, cls=_load(verb.config)),
        root=args.out,
        jobs=args.jobs,
        resume=args.resume,
        progress=_say,
    ).run()
    if args.json:
        print(json.dumps(outcome.data, sort_keys=True, indent=1))
    else:
        print(outcome.report())
    status = (
        f"report resumed, 0 {verb.unit}(s) {verb.redone}"
        if outcome.ran == 0
        else f"{outcome.ran} {verb.unit}(s) simulated"
    )
    where = f"; report at {outcome.path}" if outcome.path is not None else ""
    print(f"{verb.noun} {outcome.data[f'{verb.noun}_hash']}: {status}{where}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LambdaML reproduction: simulated FaaS/IaaS ML training",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_train_parser(subparsers)
    subparsers.add_parser("workloads", help="list tuned Table-4 workloads")
    _add_estimate_parser(subparsers)
    _add_sweep_parser(subparsers)
    for command in _REPORT_VERBS:
        _add_report_parser(subparsers, command)
    _add_fuzz_parser(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _run_train,
        "workloads": _run_workloads,
        "estimate": _run_estimate,
        "sweep": _run_sweep,
        **dict.fromkeys(_REPORT_VERBS, _run_report),
        "fuzz": _run_fuzz,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
