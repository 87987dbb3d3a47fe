"""Reference AllReduce / ScatterReduce: one storage op per yield.

Written from the patterns' contract (Figure 4 of the paper): the same
keys, sizes, categories and order as the real patterns, without
storage-op sequences or range deletes.
"""

from __future__ import annotations

from repro.simulation.commands import Compute, Get, Put, WaitKeyCount
from repro.utils.serialization import SizedPayload

MERGE_BYTES_PER_SECOND = 2e9
POLL_INTERVAL_S = 0.05


def allreduce(store, rank, workers, round_id, nbytes, poll=POLL_INTERVAL_S):
    parts = f"ar/{round_id}/part_"
    merged = f"ar/{round_id}/merged"
    yield Put(store, f"{parts}{rank:05d}", SizedPayload(None, nbytes))
    if rank == 0:
        yield WaitKeyCount(store, parts, workers, poll, category="merge")
        for peer in range(workers):
            yield Get(store, f"{parts}{peer:05d}")
        yield Compute(nbytes * workers / MERGE_BYTES_PER_SECOND, category="merge")
        yield Put(store, merged, SizedPayload(None, nbytes))
        store.discard_prefix(parts)
        if workers == 1:
            store.discard(merged)
        else:
            store.expect_readers(merged, workers - 1)
        return
    yield WaitKeyCount(store, merged, 1, poll)
    yield Get(store, merged)
    store.discard_after_read([merged])


def scatter_reduce(store, rank, workers, round_id, nbytes, poll=POLL_INTERVAL_S):
    if workers == 1:
        return
    chunk = max(1, nbytes // workers)
    me = f"{rank:05d}"
    peers = [f"{peer:05d}" for peer in range(workers) if peer != rank]
    base = f"sr/{round_id}/"
    for peer in peers:
        yield Put(store, f"{base}for_{peer}/from_{me}", SizedPayload(None, chunk))
    inbox = f"{base}for_{me}/"
    yield WaitKeyCount(store, inbox, workers - 1, poll, category="merge")
    for peer in peers:
        yield Get(store, f"{inbox}from_{peer}")
    yield Compute(chunk * workers / MERGE_BYTES_PER_SECOND, category="merge")
    yield Put(store, f"{base}merged_{me}", SizedPayload(None, chunk))
    store.expect_readers(f"{base}merged_{me}", workers - 1)
    store.discard_prefix(inbox)
    yield WaitKeyCount(store, f"{base}merged_", workers, poll)
    for peer in peers:
        yield Get(store, f"{base}merged_{peer}")
    store.discard_after_read([f"{base}merged_{peer}" for peer in peers])
