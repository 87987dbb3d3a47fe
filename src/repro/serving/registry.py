"""The model registry: the seam between the training and serving tiers.

A :class:`ServedModel` is what the replica pool needs to know about one
trained model: its logical wire size (what a cold replica downloads
from S3 before it can serve), the per-request forward-pass cost on the
reference worker, a quality tag derived from the training run's final
loss, and what that run cost — the training leg of the end-to-end
$/(model + 1M requests) axis.

Entries are built from sweep artifacts (persisted, or in memory for a
rootless pipeline), so a registry never retrains anything: models are
content-addressed training outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.zoo import get_model_info

# The S3 envelope a cold replica loads its model through (Table 6:
# ~80 ms request latency, ~65 MB/s per connection — same numbers as
# repro.storage.services.S3Store).
S3_LATENCY_S = 8e-2
S3_BANDWIDTH_BPS = 65 * 1024 * 1024


def model_load_seconds(param_bytes: int) -> float:
    """Time for one cold replica to pull its model out of S3."""
    if param_bytes < 0:
        raise ConfigurationError(f"param_bytes must be >= 0, got {param_bytes}")
    return S3_LATENCY_S + param_bytes / S3_BANDWIDTH_BPS


@dataclass(frozen=True)
class ServedModel:
    """One deployable model: identity, size, quality, provenance."""

    name: str
    model: str
    dataset: str
    param_bytes: int
    final_loss: float
    converged: bool
    quality: str  # "converged@<loss>" | "draft@<loss>"
    training_cost: float  # dollars the training run billed
    training_s: float  # simulated seconds the training run took
    source: str  # training config hash (provenance)

    @property
    def load_seconds(self) -> float:
        return model_load_seconds(self.param_bytes)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "dataset": self.dataset,
            "param_bytes": self.param_bytes,
            "load_seconds": self.load_seconds,
            "final_loss": self.final_loss,
            "converged": self.converged,
            "quality": self.quality,
            "training_cost": self.training_cost,
            "training_s": self.training_s,
            "source": self.source,
        }


def _quality_tag(converged: bool, final_loss: float) -> str:
    return f"{'converged' if converged else 'draft'}@{final_loss:.4f}"


class ModelRegistry:
    """Named, immutable serving entries consuming training-tier outputs."""

    def __init__(self) -> None:
        self._entries: dict[str, ServedModel] = {}

    def register(self, entry: ServedModel) -> ServedModel:
        if entry.name in self._entries:
            raise ConfigurationError(f"model {entry.name!r} is already registered")
        self._entries[entry.name] = entry
        return entry

    def register_artifact(self, name: str, artifact: dict) -> ServedModel:
        """Build an entry from a persisted sweep artifact (figV path)."""
        config = artifact["config"]
        result = artifact["result"]
        info = get_model_info(config["model"], config["dataset"])
        return self.register(
            ServedModel(
                name=name,
                model=config["model"],
                dataset=config["dataset"],
                param_bytes=info.param_bytes,
                final_loss=result["final_loss"],
                converged=result["converged"],
                quality=_quality_tag(result["converged"], result["final_loss"]),
                training_cost=result["cost_total"],
                training_s=result["duration_s"],
                source=artifact["config_hash"],
            )
        )

    def get(self, name: str) -> ServedModel:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown model {name!r}; registered: {sorted(self._entries)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def entries(self) -> list[ServedModel]:
        return [self._entries[name] for name in self.names()]

    def __len__(self) -> int:
        return len(self._entries)
