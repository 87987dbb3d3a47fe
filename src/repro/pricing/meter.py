"""Per-run dollar accounting.

A :class:`CostMeter` accumulates charges from every simulated resource
involved in a training job (Lambda GB-seconds, EC2 instance-seconds,
ElastiCache node-seconds, S3/DynamoDB requests). Experiments read the
total and the per-component breakdown to build the cost axes of
Figures 11/12 and the cost columns of Tables 1 and 5.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.pricing.catalog import (
    DYNAMODB_READ_UNIT_BYTES,
    DYNAMODB_WRITE_UNIT_BYTES,
    DEFAULT_CATALOG,
    PriceCatalog,
)


_INF = math.inf
_GRID_TOP = 2**53  # a binade holds the multiples k*ulp for k < 2**53


def repeated_add(total: float, d: float, n: int) -> float:
    """`total` after `n` sequential IEEE-754 ``total += d``, bit for bit.

    Runs in O(binades crossed), not O(n). Requires ``total >= 0`` and
    ``d >= 0`` (charges only accumulate).

    While a value stays on one grid of spacing ``u = ulp(x)``,
    ``fl(x + d)`` is ``x`` plus `d` rounded to that grid, so the step
    is a constant integer number of ulps and any number of steps is
    one exact integer multiply-add. The rounding of `d` depends on
    ``x`` only when `d` lies half-way between grid points (ties go to
    the even neighbour); one on-grid add leaves an even value, and the
    tie then resolves the same way from there on. Hence the step is
    measured from a value that is itself the result of an on-grid add
    — never from the result of an add that crossed onto a new grid,
    whose parity is arbitrary. Grid crossings themselves are always
    taken by a real add.
    """
    if not (total >= 0.0 and d >= 0.0):
        raise ValueError(f"repeated_add needs total >= 0 and d >= 0, got {total!r}, {d!r}")
    ulp = math.ulp
    while n > 0:
        y = total + d
        if y == total:  # absorbed: every further add is absorbed too
            return total
        n -= 1
        u = ulp(y)
        if n == 0 or u != ulp(total):
            total = y
            continue
        z = y + d
        if z == y:  # a half-ulp `d` moved an odd `total`, not the even `y`
            return y
        n -= 1
        if ulp(z) != u:
            total = z
            continue
        k = int(z / u)
        step = int((z - y) / u)
        jump = min(n, (_GRID_TOP - 1 - k) // step)
        total = (k + jump * step) * u
        n -= jump
    return total


class CostMeter:
    """Accumulates dollars per component for one simulated run."""

    def __init__(self, catalog: PriceCatalog = DEFAULT_CATALOG) -> None:
        self.catalog = catalog
        self.dollars: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    # -- generic ----------------------------------------------------------
    def add(self, component: str, dollars: float) -> None:
        self._add_repeated(component, dollars, 1)

    def _add_repeated(self, component: str, dollars: float, count: int) -> None:
        """Charge `dollars` exactly `count` times in one call.

        Keeps the accumulator bit-identical to `count` separate
        :meth:`add` calls (repeated float addition is not the same as
        one fused ``count * dollars`` add). A single charge is one
        ``+=`` (an S3 request's is added inline by
        :meth:`ObjectStore.book <repro.storage.base.ObjectStore.book>`
        from a price checked once per store); a batch — the poll-billing
        path, where `count` is thousands per satisfied wait — goes
        through :func:`repeated_add`, whose cost does not grow with
        `count`.
        """
        if not 0.0 <= dollars < _INF:  # also rejects NaN
            raise ValueError(f"invalid charge {dollars!r} for {component}")
        if count == 1:
            self.dollars[component] += dollars
        elif count > 1:
            self.dollars[component] = repeated_add(
                self.dollars[component], dollars, count
            )
        elif count < 0:
            raise ValueError(f"negative charge count {count} for {component}")

    @property
    def total(self) -> float:
        return sum(self.dollars.values())

    def breakdown(self) -> dict[str, float]:
        return dict(self.dollars)

    # -- compute ----------------------------------------------------------
    def bill_lambda(self, memory_gb: float, seconds: float, invocations: int = 0) -> None:
        self.add("lambda", memory_gb * seconds * self.catalog.lambda_per_gb_second)
        if invocations:
            self.add("lambda", invocations * self.catalog.lambda_per_request)
            self.counters["lambda_invocations"] += invocations

    def bill_vm(self, instance: str, seconds: float, count: int = 1) -> None:
        hourly = self.catalog.ec2_price(instance)
        self.add("ec2", hourly * (seconds / 3600.0) * count)

    def bill_elasticache(self, node: str, seconds: float) -> None:
        hourly = self.catalog.elasticache_price(node)
        self.add("elasticache", hourly * (seconds / 3600.0))

    # -- storage requests ---------------------------------------------------
    def s3_request_prices(self) -> dict[str, tuple[float, str, str]]:
        """Per-op ``(price, component, counter)`` of an S3 request.

        S3's request prices do not depend on the payload, so a store
        resolves this once at construction and :meth:`ObjectStore.book
        <repro.storage.base.ObjectStore.book>` bills one op with two
        dict adds. Prices are checked here, once, instead of per op.
        """
        catalog = self.catalog
        prices = {}
        for op in ("put", "get", "list"):
            price = catalog.s3_per_get if op == "get" else catalog.s3_per_put
            if not 0.0 <= price < _INF:  # also rejects NaN
                raise ValueError(f"invalid charge {price!r} for s3")
            prices[op] = (price, "s3", f"s3_{op}")
        return prices

    def bill_request(self, entry: tuple[float, str, str], count: int = 1) -> None:
        """Bill `count` requests priced by one ``(price, component, counter)`` entry."""
        price, component, counter = entry
        self._add_repeated(component, price, count)
        self.counters[counter] += count

    def bill_dynamodb_request(self, op: str, nbytes: int, count: int = 1) -> None:
        if op == "put":
            units = max(1, math.ceil(nbytes / DYNAMODB_WRITE_UNIT_BYTES))
            self._add_repeated("dynamodb", units * self.catalog.dynamodb_per_write_unit, count)
        else:
            units = max(1, math.ceil(nbytes / DYNAMODB_READ_UNIT_BYTES))
            self._add_repeated("dynamodb", units * self.catalog.dynamodb_per_read_unit, count)
        self.counters[f"dynamodb_{op}"] += count
