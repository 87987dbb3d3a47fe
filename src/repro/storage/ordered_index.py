"""An ordered string-key container with O(log n)-ish mutations.

:class:`OrderedKeyIndex` is what the object stores index keys with
instead of a flat ``bisect.insort``-maintained sorted list, which gives
perfect O(log n + m) range queries, but every mutation pays an O(n)
C-level memmove — fine below ~10^5 keys, a wall at mega-scale: one
W=4096 ScatterReduce round keeps ~W^2 chunk keys in flight, and the
memmove alone dominated the engine profile from W≈512 up.

The container here is a *chunked sorted list* (the idiom the
``sortedcontainers`` library made standard, reimplemented in-repo so
the container image needs no new dependency): keys live in a list of
sorted sublists of bounded length, plus a parallel list of each
sublist's maximum for O(log n) sublist location.

* ``add``/``remove`` — one O(log n) bisect over the maxes, one bisect
  inside the target sublist, and a memmove bounded by the sublist
  length (≤ 2·LOAD keys, i.e. constant-bounded — never O(n)). Sublists
  split when they outgrow 2·LOAD and merge with a neighbour when they
  shrink far enough, so the structure cannot degenerate under
  adversarial insert/delete orders.
* ``remove_range(lo, hi)`` — O(log n + m) for m removed keys: the two
  endpoint sublists are cut with one slice delete each, the whole
  sublists between them are dropped, and only the cut ends rebalance.
* ``list_range(lo, hi)`` — O(log n + m) for m matches: locate both
  endpoints, concatenate whole sublists between them.
* ``count_range(lo, hi)`` — O(log n + #sublists): two endpoint ranks;
  the rank sum walks sublist *lengths*, not keys (#sublists ≈ n/LOAD).
* Iteration yields keys in sorted order, like iterating the old flat
  list.

Ordering is plain ``str`` comparison — byte-for-byte the order the
flat list produced, which the engine's determinism guarantees rest on
(``_do_list`` output feeds simulated worker behaviour).

All keys must be unique: callers (``ObjectStore``) guard membership
through their object dict before touching the index.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator

# Sublist capacity bounds. A sublist splits in two above 2*LOAD and is
# merged into a neighbour below LOAD // 8, so memmoves stay bounded by
# ~2*LOAD pointer moves and merge/split cannot ping-pong (a merged
# sublist is at most LOAD + LOAD//8 long, well under the split bound).
LOAD = 512


class OrderedKeyIndex:
    """Chunked sorted list of unique string keys."""

    __slots__ = ("_lists", "_maxes", "_len", "_load")

    def __init__(self, load: int = LOAD) -> None:
        self._load = load
        self._lists: list[list[str]] = []
        self._maxes: list[str] = []
        self._len = 0

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add(self, key: str) -> None:
        """Insert `key` (must not already be present)."""
        maxes = self._maxes
        if not maxes:
            self._lists.append([key])
            maxes.append(key)
            self._len = 1
            return
        pos = bisect_left(maxes, key)
        if pos == len(maxes):
            # Larger than everything: append to the last sublist.
            pos -= 1
            sub = self._lists[pos]
            sub.append(key)
            maxes[pos] = key
        else:
            sub = self._lists[pos]
            insort(sub, key)
        self._len += 1
        if len(sub) > (self._load << 1):
            self._split(pos)

    def remove(self, key: str) -> None:
        """Delete `key` (must be present)."""
        maxes = self._maxes
        pos = bisect_left(maxes, key)
        if pos == len(maxes):
            raise KeyError(key)
        sub = self._lists[pos]
        idx = bisect_left(sub, key)
        if idx >= len(sub) or sub[idx] != key:
            raise KeyError(key)
        del sub[idx]
        self._len -= 1
        if not sub:
            del self._lists[pos]
            del maxes[pos]
            return
        if idx == len(sub):
            maxes[pos] = sub[-1]
        if len(sub) < (self._load >> 3):
            self._merge(pos)

    def remove_range(self, lo: str, hi: str | None) -> list[str]:
        """Delete every key k with lo <= k (< hi, when hi is given).

        Returns the removed keys in sorted order. O(log n) to locate both
        ends, one slice delete in each of the (at most two) cut sublists,
        whole sublists in between dropped without touching their keys.
        """
        maxes = self._maxes
        n = len(maxes)
        start = bisect_left(maxes, lo)
        if start == n or (hi is not None and hi <= lo):
            return []
        lists = self._lists
        first = lists[start]
        i = bisect_left(first, lo)
        stop = n if hi is None else bisect_left(maxes, hi)
        if stop == start:
            # The range ends inside `first`, whose max (>= hi) survives.
            j = bisect_left(first, hi)
            removed = first[i:j]
            del first[i:j]
            self._len -= len(removed)
            if removed and len(first) < (self._load >> 3):
                self._merge(start)
            return removed
        removed = first[i:]
        for pos in range(start + 1, stop):
            removed.extend(lists[pos])
        if stop < n:  # the range ends inside `tail`, whose max (>= hi) survives
            tail = lists[stop]
            cut = bisect_left(tail, hi)
            removed.extend(tail[:cut])
            del tail[:cut]
        self._len -= len(removed)
        del first[i:]
        if i:
            maxes[start] = first[-1]
            start += 1
        del lists[start:stop]
        del maxes[start:stop]
        # Rebalance the cut ends: the tail (now at `start`) before the
        # head (at `start - 1`), so the head's position is still valid.
        if stop < n and len(lists[start]) < (self._load >> 3):
            self._merge(start)
        if i and len(lists[start - 1]) < (self._load >> 3):
            self._merge(start - 1)
        return removed

    def _split(self, pos: int) -> None:
        sub = self._lists[pos]
        half = len(sub) >> 1
        tail = sub[half:]
        del sub[half:]
        self._lists.insert(pos + 1, tail)
        self._maxes[pos] = sub[-1]
        self._maxes.insert(pos + 1, tail[-1])

    def _merge(self, pos: int) -> None:
        """Fold an underfull sublist into a neighbour, if one has room."""
        sub = self._lists[pos]
        if pos > 0 and len(self._lists[pos - 1]) + len(sub) <= self._load:
            self._lists[pos - 1].extend(sub)
            self._maxes[pos - 1] = self._maxes[pos]
        elif (
            pos + 1 < len(self._lists)
            and len(self._lists[pos + 1]) + len(sub) <= self._load
        ):
            self._lists[pos + 1][:0] = sub
        else:
            return
        del self._lists[pos]
        del self._maxes[pos]

    # ------------------------------------------------------------------
    # Queries. `hi=None` means "to the end of the key space".
    # ------------------------------------------------------------------
    def _rank(self, key: str) -> int:
        """Number of stored keys strictly smaller than `key`."""
        maxes = self._maxes
        pos = bisect_left(maxes, key)
        if pos == len(maxes):
            return self._len
        lists = self._lists
        total = 0
        for i in range(pos):
            total += len(lists[i])
        return total + bisect_left(lists[pos], key)

    def count_range(self, lo: str, hi: str | None) -> int:
        """Number of keys k with lo <= k (< hi, when hi is given)."""
        if not self._len:
            return 0
        upper = self._len if hi is None else self._rank(hi)
        return upper - self._rank(lo)

    def list_range(self, lo: str, hi: str | None) -> list[str]:
        """Sorted list of keys k with lo <= k (< hi, when hi is given)."""
        maxes = self._maxes
        if not maxes:
            return []
        lists = self._lists
        n = len(maxes)
        # First sublist that can hold a key >= lo; sublists before
        # `stop` are entirely < hi, sublist `stop` (if any) is cut.
        start = bisect_left(maxes, lo)
        if start == n:
            return []
        first = lists[start]
        i = bisect_left(first, lo)
        if hi is None:
            stop = n
        else:
            stop = bisect_left(maxes, hi)
            if stop == start:
                return first[i:bisect_left(first, hi)]
        out = first[i:]
        for pos in range(start + 1, min(stop, n)):
            out.extend(lists[pos])
        if hi is not None and stop < n:
            tail = lists[stop]
            out.extend(tail[:bisect_left(tail, hi)])
        return out

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[str]:
        for sub in self._lists:
            yield from sub

    def __contains__(self, key: str) -> bool:
        maxes = self._maxes
        pos = bisect_left(maxes, key)
        if pos == len(maxes):
            return False
        sub = self._lists[pos]
        idx = bisect_left(sub, key)
        return idx < len(sub) and sub[idx] == key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OrderedKeyIndex({self._len} keys in {len(self._lists)} chunks)"
        )
