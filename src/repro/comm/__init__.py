"""FaaS communication: patterns over storage channels + protocols."""

from repro.comm.aggregator import reduce_vectors
from repro.comm.patterns import allreduce, scatter_reduce
from repro.comm.protocols import async_read_model, async_write_model

__all__ = [
    "reduce_vectors",
    "allreduce",
    "scatter_reduce",
    "async_read_model",
    "async_write_model",
]
