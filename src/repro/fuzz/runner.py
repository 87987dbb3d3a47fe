"""The fuzz campaign runner: budgeted, seeded, parallel, self-shrinking.

A campaign is a pure function of ``(seed, budget)``: scenario ``index``
always samples the same config kwargs and always runs the same gated
subset of the invariant catalog, so two hosts running the same campaign
check exactly the same properties and find exactly the same failures.

Scenario checking fans out over the sweep layer's resilient process
pool — a fuzz worker that dies (OOM-killed probing a memory-envelope
corner, segfaulting in native code) is itself a *finding*, recorded
against the synthetic ``process_survives`` invariant, and the campaign
keeps going. Shrinking runs serially in the parent afterwards: probes
reuse the failing invariant's check, and the shrunk counterexample is
saved to the regression corpus (unless the corpus dir is ``None``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fuzz.corpus import CorpusEntry, save_entry
from repro.fuzz.invariants import INVARIANTS
from repro.fuzz.shrink import MAX_EVALS, ShrinkResult, shrink
from repro.fuzz.space import ScenarioSpace

#: Synthetic invariant name for "the worker process itself survived".
PROCESS_SURVIVES = "process_survives"


@dataclass(frozen=True)
class CampaignTask:
    """One scenario plus the invariant names gated on for it (picklable)."""

    index: int
    scenario_id: str
    config_kwargs: dict
    invariants: tuple[str, ...]


@dataclass
class Finding:
    """One invariant violation (pre- and post-shrink views)."""

    scenario_id: str
    invariant: str
    message: str
    config_kwargs: dict
    shrunk_kwargs: dict | None = None
    shrunk_message: str | None = None
    shrunk_fields: list[str] = field(default_factory=list)
    shrink_evals: int = 0
    corpus_path: str | None = None

    def describe(self) -> str:
        kwargs = self.shrunk_kwargs if self.shrunk_kwargs is not None else self.config_kwargs
        message = self.shrunk_message or self.message
        return f"{self.scenario_id} {self.invariant}: {message}\n    repro kwargs: {kwargs}"


@dataclass
class CampaignResult:
    seed: int
    budget: int
    scenarios: int = 0
    checks: dict = field(default_factory=dict)  # invariant name -> runs
    findings: list[Finding] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        checked = sum(self.checks.values())
        verdict = (
            "no invariant violations"
            if self.ok
            else f"{len(self.findings)} invariant violation(s)"
        )
        return (
            f"fuzz campaign seed={self.seed}: {self.scenarios} scenarios, "
            f"{checked} checks ({', '.join(f'{k}={v}' for k, v in sorted(self.checks.items()))}) "
            f"in {self.duration_s:.1f}s — {verdict}"
        )


def plan_campaign(seed: int, budget: int) -> list[CampaignTask]:
    """The full task list of a campaign (deterministic in seed/budget)."""
    space = ScenarioSpace(seed)
    tasks = []
    for scenario in space.scenarios(budget):
        gated = tuple(
            name
            for name, inv in INVARIANTS.items()
            if inv.applies(scenario.config_kwargs)
            and inv.gated_on(seed, scenario.index)
        )
        tasks.append(
            CampaignTask(
                index=scenario.index,
                scenario_id=scenario.scenario_id,
                config_kwargs=scenario.config_kwargs,
                invariants=gated,
            )
        )
    return tasks


def _check_task(task: CampaignTask) -> tuple[int, list[tuple[str, str]]]:
    """Run one scenario's gated invariants (pool-side; must be picklable)."""
    failures = []
    for name in task.invariants:
        try:
            message = INVARIANTS[name].check(dict(task.config_kwargs))
        except Exception as exc:
            message = f"invariant check crashed: {type(exc).__name__}: {exc}"
        if message is not None:
            failures.append((name, message))
    return task.index, failures


def run_campaign(
    budget: int,
    seed: int = 0,
    workers: int = 1,
    corpus_dir=None,
    shrink_failures: bool = True,
    shrink_max_evals: int = MAX_EVALS,
    progress=None,
) -> CampaignResult:
    """Fuzz ``budget`` scenarios of ``seed``; shrink and record failures.

    ``workers > 1`` fans scenarios out over the resilient process pool;
    a dying worker becomes a ``process_survives`` finding instead of
    hanging or aborting the campaign. Findings are shrunk serially in
    this process and (when ``corpus_dir`` is set) saved as regression
    corpus entries.
    """
    say = progress or (lambda message: None)
    started = time.monotonic()
    tasks = plan_campaign(seed, budget)
    result = CampaignResult(seed=seed, budget=budget, scenarios=len(tasks))
    for task in tasks:
        for name in task.invariants:
            result.checks[name] = result.checks.get(name, 0) + 1

    by_index = {task.index: task for task in tasks}
    raw_failures: list[tuple[CampaignTask, str, str]] = []

    def on_result(payload) -> None:
        index, failures = payload
        task = by_index[index]
        for name, message in failures:
            raw_failures.append((task, name, message))
            say(f"[{index + 1}/{len(tasks)}] {task.scenario_id} FAILED {name}: {message}")
        if not failures:
            say(f"[{index + 1}/{len(tasks)}] {task.scenario_id} ok ({len(task.invariants)} checks)")

    if workers <= 1:
        for task in tasks:
            on_result(_check_task(task))
    else:
        from repro.sweep import run_resilient_pool

        def on_dead(task: CampaignTask, reason: str) -> None:
            result.checks[PROCESS_SURVIVES] = result.checks.get(PROCESS_SURVIVES, 0) + 1
            raw_failures.append((task, PROCESS_SURVIVES, reason))
            say(f"[{task.index + 1}/{len(tasks)}] {task.scenario_id} FAILED {PROCESS_SURVIVES}: {reason}")

        run_resilient_pool(tasks, min(workers, len(tasks)), on_result, on_dead, fn=_check_task)

    # Order findings by scenario for a stable report regardless of pool
    # scheduling; the pool already preserves nothing else.
    raw_failures.sort(key=lambda item: (item[0].index, item[1]))

    for task, name, message in raw_failures:
        finding = Finding(
            scenario_id=task.scenario_id,
            invariant=name,
            message=message,
            config_kwargs=dict(task.config_kwargs),
        )
        # A dead process has no in-process check to probe against, so
        # process_survives findings are recorded un-shrunk.
        if shrink_failures and name in INVARIANTS:
            say(f"shrinking {task.scenario_id} {name}...")
            shrunk: ShrinkResult = shrink(
                INVARIANTS[name], task.config_kwargs, message,
                max_evals=shrink_max_evals,
            )
            finding.shrunk_kwargs = shrunk.kwargs
            finding.shrunk_message = shrunk.message
            finding.shrunk_fields = shrunk.shrunk_fields
            finding.shrink_evals = shrunk.evals
            say(
                f"shrunk {task.scenario_id} {name}: removed "
                f"{shrunk.removed} field(s) in {shrunk.evals} evals -> {shrunk.kwargs}"
            )
        if corpus_dir is not None and name in INVARIANTS:
            entry = CorpusEntry(
                invariant=name,
                config_kwargs=dict(
                    finding.shrunk_kwargs
                    if finding.shrunk_kwargs is not None
                    else finding.config_kwargs
                ),
                scenario_id=task.scenario_id,
                message=finding.shrunk_message or finding.message,
                shrunk_fields=list(finding.shrunk_fields),
            )
            finding.corpus_path = str(save_entry(corpus_dir, entry))
            say(f"saved counterexample to {finding.corpus_path}")
        result.findings.append(finding)

    result.duration_s = time.monotonic() - started
    return result
