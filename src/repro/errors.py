"""Exception hierarchy for the LambdaML reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class. Subsystems raise the most specific
subclass available; simulated cloud-service failures (for example a
Lambda timeout or a DynamoDB item-size rejection) are modelled as
exceptions from this module rather than ad-hoc return codes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A training or infrastructure configuration is invalid."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """All live processes are blocked and no event can make progress."""


class StorageError(ReproError):
    """Base class for simulated storage-service failures."""


class KeyNotFoundError(StorageError):
    """A requested object key does not exist in the store."""


class ItemTooLargeError(StorageError):
    """An object exceeds the service's item-size limit (e.g. DynamoDB 400 KB)."""


class TransientStorageError(StorageError):
    """A storage operation kept failing past the retry policy's budget.

    ``failed_at`` carries the simulated instant the op gave up (the
    completion of its last failed attempt); the engine delivers the
    error to the issuing worker at that time.
    """

    failed_at: float | None = None


class FaaSError(ReproError):
    """Base class for simulated FaaS (Lambda) failures."""


class FunctionTimeoutError(FaaSError):
    """A function exceeded its maximum lifetime without checkpointing."""


class OutOfMemoryError(FaaSError):
    """A function exceeded its configured memory limit."""


class CommunicationError(ReproError):
    """A collective communication operation failed."""


class FaultInjectionError(ReproError):
    """The fault plane cannot inject faults into this configuration."""


class FuzzError(ReproError):
    """The scenario fuzzer could not sample, check or replay a scenario."""


class SubstrateError(ReproError):
    """The statistical substrate cannot serve this run (bad mode/trace)."""


class ReplayDivergenceError(SubstrateError):
    """A replayed run consumed more statistical events than its trace holds.

    Raised when the systems layer asks the replay substrate for a loss
    the recording never produced — the recorded and replayed configs do
    not actually share a statistical trajectory (fingerprint bug, stale
    trace, or a timing-coupled config that slipped past the guards).
    """
