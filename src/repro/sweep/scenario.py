"""Scenario: the immutable builder over ``TrainingConfig``.

A scenario is a bag of config kwargs that is cheap to copy, vary and
expand into grids — the one spelling of a grid, used by every in-tree
study and (re-exported from ``repro.api``) by user scripts::

    from repro.api import Scenario

    base = Scenario.workload("lr", "higgs").vary(workers=50)
    points = base.grid(channel=("s3", "redis"), pattern=("allreduce",
                                                         "scatterreduce"))

Unlike a ``TrainingConfig``, a scenario is not validated until
``.config()`` (or the run) — so partial scenarios can be built up and
specialised freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import TrainingConfig
from repro.experiments.workloads import get_workload
from repro.sweep.grid import SweepPoint, expand_grid


@dataclass(frozen=True)
class Scenario:
    """An immutable, composable description of one training run."""

    kwargs: dict = field(default_factory=dict)
    label: str | None = None
    tags: dict = field(default_factory=dict)

    def __init__(
        self,
        kwargs: dict | None = None,
        label: str | None = None,
        tags: dict | None = None,
        **config_kwargs,
    ) -> None:
        # Accept both Scenario({"model": ...}) and Scenario(model=...).
        merged = dict(kwargs or {})
        merged.update(config_kwargs)
        object.__setattr__(self, "kwargs", merged)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "tags", dict(tags or {}))

    # -- construction -----------------------------------------------------
    @classmethod
    def workload(cls, model: str, dataset: str, **overrides) -> Scenario:
        """Seed a scenario from the tuned Table-4 workload registry.

        Copies the workload's algorithm, worker count, batch shape,
        learning rate, k, loss threshold and epoch budget; ``overrides``
        win over all of them. This is the only Table-4 -> config-kwargs
        mapping in the tree: a study that needs a tuned value reads it
        off ``Scenario.workload(...).kwargs``.
        """
        w = get_workload(model, dataset)
        kwargs = dict(
            model=model,
            dataset=dataset,
            algorithm=w.algorithm,
            workers=w.workers,
            batch_size=w.batch_size,
            batch_scope=w.batch_scope,
            lr=w.lr,
            k=w.k,
            min_local_batch=w.min_local_batch,
            loss_threshold=w.threshold,
            max_epochs=w.max_epochs,
        )
        kwargs.update(overrides)
        return cls(kwargs)

    def vary(self, **overrides) -> Scenario:
        """A copy with some config kwargs replaced/added."""
        return Scenario(dict(self.kwargs, **overrides),
                        label=self.label, tags=self.tags)

    def named(self, label: str, **tags) -> Scenario:
        """A copy carrying a display label (and report-grouping tags)."""
        return Scenario(self.kwargs, label=label, tags={**self.tags, **tags})

    def tenant(self, name: str, priority: float = 0.0) -> Scenario:
        """A copy carrying multi-tenant service identity.

        Tenant name and priority travel in ``tags`` — presentation and
        scheduling metadata that stays *outside* the config fingerprint
        (two tenants submitting the same workload share one artifact) —
        so ``Service.submit`` and ``Session.run`` accept the same
        builder instead of a parallel config type.
        """
        return Scenario(
            self.kwargs,
            label=self.label,
            tags={**self.tags, "tenant": name, "priority": str(priority)},
        )

    def grid(self, **axes) -> list[Scenario]:
        """The cross-product of ``axes`` over this scenario.

        An axis replaces whatever the scenario already sets for that key
        (Table 4 always sets ``workers``, and scaling studies sweep it).
        Each returned scenario is labelled with its axis values
        (``"channel=s3,workers=10"``) unless it already carries a label.
        """
        base = {k: v for k, v in self.kwargs.items() if k not in axes}
        scenarios = []
        for kwargs in expand_grid(base, {k: tuple(v) for k, v in axes.items()}):
            label = self.label or ",".join(
                f"{name}={kwargs[name]}" for name in axes
            )
            scenarios.append(Scenario(kwargs, label=label, tags=self.tags))
        return scenarios

    # -- realisation ------------------------------------------------------
    def config(self) -> TrainingConfig:
        """Validate and build the concrete ``TrainingConfig``."""
        return TrainingConfig(**self.kwargs)

    def describe(self) -> str:
        return self.label or self.config().describe()

    def point(self, experiment: str = "api") -> SweepPoint:
        """This scenario as an orchestrator sweep point."""
        return SweepPoint(
            experiment,
            self.describe(),
            config_kwargs=dict(self.kwargs),
            tags=dict(self.tags),
        )
