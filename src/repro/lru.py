"""The package's one least-recently-used mapping.

The experiment harness bounds its memo tables with it, and the serving
model table (:class:`repro.serve.server.ModelCache`) holds its lazily
loaded registry versions in it.  Eviction hands the evicted values back,
so a value that owns a thread (a micro-batcher) is released by its
owner, outside any lock.

This module imports nothing from :mod:`repro`, so every layer can use it
without an import cycle.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Reads refresh recency; inserting past ``maxsize`` evicts the coldest
    entries, which :meth:`put` and :meth:`set_maxsize` return.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, key):
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key, value) -> None:
        self.put(key, value)

    def __delitem__(self, key) -> None:
        del self._data[key]

    def get(self, key, default=None):
        """The value at ``key`` (refreshing it), or ``default``."""
        if key not in self._data:
            return default
        return self[key]

    def put(self, key, value) -> list:
        """Insert ``key`` as most recent; returns the evicted values."""
        self._data[key] = value
        self._data.move_to_end(key)
        return self._trim()

    def keys(self) -> list:
        """Keys, least recent first."""
        return list(self._data.keys())

    def items(self) -> list:
        """``(key, value)`` pairs, least recent first."""
        return list(self._data.items())

    def clear(self) -> None:
        self._data.clear()

    def set_maxsize(self, maxsize: int) -> list:
        """Re-bound the mapping; returns the values it evicted."""
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        return self._trim()

    def _trim(self) -> list:
        evicted = []
        while len(self._data) > self.maxsize:
            evicted.append(self._data.popitem(last=False)[1])
        return evicted
