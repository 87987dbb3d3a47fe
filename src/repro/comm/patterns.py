"""AllReduce and ScatterReduce over a storage channel (Figure 4).

Both are generator functions used with `yield from` inside executor
processes. They are pure key/size protocols: every file is a
``SizedPayload(None, nbytes)`` carrying the paper's *logical* model
size, and nothing is folded. What a BSP exchange merges is computed
before the engine starts, in the lockstep pass
(:mod:`repro.substrate.lockstep`); here only its time and dollars are
simulated.

AllReduce: every worker PUTs its update; the leader (rank 0) waits for
all parts, GETs them sequentially (this serial read is exactly the
single-reducer bottleneck Table 3 exposes on ResNet50), merges, and
PUTs one merged file; everyone else polls for and GETs the merged file.

ScatterReduce: every worker is the reducer of one 1/w slice; each
worker PUTs w-1 chunk files, reduces its own slice, PUTs the merged
slice, then GETs the other w-1 merged slices. Each such run of ops (and
the AllReduce leader's w reads) is one storage-op sequence: one resume.

Keys embed (epoch-independent) round ids, mirroring the file-naming
scheme of the paper's synchronous protocol (§3.2.4). After merging,
the leader discards consumed part files — zero-simulated-time
housekeeping so long runs do not accumulate memory.
"""

from __future__ import annotations

from functools import lru_cache

from repro.simulation.commands import Compute, Get, GetEach, Put, PutEach, WaitKeyCount
from repro.storage.base import ObjectStore
from repro.utils.serialization import SizedPayload

# Effective memory bandwidth for merging vectors on a worker, used to
# charge the reducer's aggregation compute (noticeable for 89 MB
# ResNet-sized payloads, negligible for linear models).
MERGE_BYTES_PER_SECOND = 2e9

POLL_INTERVAL_S = 0.05


def _merge_seconds(total_bytes: float) -> float:
    return total_bytes / MERGE_BYTES_PER_SECOND


def round_index_of_key(key: str) -> int | None:
    """The communication round a round-file key belongs to, or None.

    Both patterns name their temporaries ``ar/<round_id>/...`` and
    ``sr/<round_id>/...`` where ``round_id`` starts with the
    zero-padded 8-digit round index (loss exchanges append ``-loss``).
    Anything else — partitions, checkpoints, the ASP global model — is
    not a round file and returns None (retained forever by the GC
    retention window below).
    """
    if not (key.startswith("ar/") or key.startswith("sr/")):
        return None
    digits = key[3:11]
    if len(digits) == 8 and digits.isdigit() and key[11:12] in ("/", "-"):
        return int(digits)
    return None


class RetentionWindow:
    """Crash-safe GC: retain round files until every checkpoint passes.

    Attached to a store by the job context when crash injection is on.
    Last-reader discards of round files are deferred while their round
    index is at or above ``floor`` — the oldest round any rank's
    successor could still re-execute. When the fault injector observes
    that *every* rank's durable checkpoint has moved past round ``r`` it
    advances the floor, and all round files below it are deleted in one sweep
    (reader counts are useless here: re-executed rounds re-read and
    re-write files in ways a counter armed by the first execution
    cannot track). Keys that are not round files are retained forever,
    exactly as before.
    """

    def __init__(self) -> None:
        self.floor = 0  # rounds below this are collectable
        self.collected = 0  # keys deleted by floor advances (observability)

    def retains(self, key: str) -> bool:
        round_index = round_index_of_key(key)
        return round_index is None or round_index >= self.floor

    def advance(self, store: ObjectStore, floor: int) -> int:
        """Raise the floor to `floor`; delete the rounds that fell below.

        Zero-simulated-time housekeeping, like ``discard``: by the time
        the floor moves past a round, every rank holds a durable
        checkpoint at a later round, so no successor can ever re-read
        these keys. Returns the number of keys deleted.
        """
        removed = 0
        for r in range(self.floor, floor):
            removed += store._do_delete_prefix(f"ar/{r:08d}")
            removed += store._do_delete_prefix(f"sr/{r:08d}")
        self.floor = max(self.floor, floor)
        self.collected += removed
        return removed


def allreduce(
    store: ObjectStore,
    rank: int,
    workers: int,
    round_id: str,
    logical_nbytes: int,
    poll_interval: float = POLL_INTERVAL_S,
):
    """Generator: one AllReduce round of `logical_nbytes` per file."""
    prefix = f"ar/{round_id}/part_"
    merged_key = f"ar/{round_id}/merged"
    payload = SizedPayload(None, logical_nbytes)
    yield Put(store, f"{prefix}{rank:05d}", payload)

    if rank == 0:
        yield WaitKeyCount(store, prefix, workers, poll_interval, category="merge")
        yield GetEach(store, (f"{prefix}{peer:05d}" for peer in range(workers)))
        yield Compute(_merge_seconds(logical_nbytes * workers), category="merge")
        yield Put(store, merged_key, payload)
        store.discard_prefix(prefix)
        if workers == 1:
            # No followers will ever read (and thus GC) the merged file.
            store.discard(merged_key)
        else:
            store.expect_readers(merged_key, workers - 1)
        return

    yield WaitKeyCount(store, merged_key, 1, poll_interval)
    yield Get(store, merged_key)
    store.discard_after_read((merged_key,))


@lru_cache(maxsize=64)
def _rank_labels(workers: int) -> tuple[str, ...]:
    """Zero-padded rank labels, built once per worker count.

    Each label is reused w-1 times per worker per round; formatting them
    once keeps string work off the w^2-put hot path of large rounds.
    """
    return tuple(f"{peer:05d}" for peer in range(workers))


def scatter_reduce(
    store: ObjectStore,
    rank: int,
    workers: int,
    round_id: str,
    logical_nbytes: int,
    poll_interval: float = POLL_INTERVAL_S,
):
    """Generator: one ScatterReduce round of `logical_nbytes` in total."""
    if workers == 1:
        return  # degenerate case: nothing to exchange

    chunk = SizedPayload(None, max(1, logical_nbytes // workers))
    ranks = _rank_labels(workers)
    me = ranks[rank]
    others = [peer for peer in range(workers) if peer != rank]
    base = f"sr/{round_id}/"

    # Scatter: send chunk j to its reducer (worker j). Own chunk stays local.
    yield PutEach(store, ((f"{base}for_{ranks[peer]}/from_{me}", chunk) for peer in others))

    # Reduce my slice: wait for the w-1 foreign contributions and read
    # them in rank order (the order the lockstep pass folds them in).
    my_prefix = f"{base}for_{me}/"
    yield WaitKeyCount(store, my_prefix, workers - 1, poll_interval, category="merge")
    yield GetEach(store, (f"{my_prefix}from_{ranks[peer]}" for peer in others))
    yield Compute(_merge_seconds(chunk.nbytes * workers), category="merge")
    yield Put(store, f"{base}merged_{me}", chunk)
    store.expect_readers(f"{base}merged_{me}", workers - 1)
    store.discard_prefix(my_prefix)

    # Gather: collect everyone's merged slice.
    yield WaitKeyCount(store, f"{base}merged_", workers, poll_interval)
    yield GetEach(store, (f"{base}merged_{ranks[peer]}" for peer in others))
    # Each merged slice is read by the other w-1 workers; the last of them
    # retires it (after every reader's lookup) so rounds don't leak files.
    store.discard_after_read(f"{base}merged_{ranks[peer]}" for peer in others)
