"""Module and configuration enumeration for the configuration ILPs.

A *module* describes the jobs of one class occupying one class slot of a
machine; a *configuration* describes a whole machine as a multiset of
module sizes. Both are bounded multisets, enumerated here with safety caps
(the counts are exponential in ``1/delta``; hitting a cap raises
:class:`CapacityExceededError` instead of grinding forever).

All sizes are integers in the scaled units of the respective rounding
(see :mod:`repro.ptas.rounding`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.errors import CapacityExceededError

__all__ = ["Multiset", "enumerate_bounded_multisets", "splittable_modules",
           "ConfigurationSpace", "build_configuration_space",
           "configuration_cache_stats"]


class _WeightedMemo:
    """An LRU memo bounded by total *weight*, not entry count.

    ``lru_cache(maxsize=N)`` bounds how many results are kept, but a
    single enumeration can hold hundreds of thousands of multisets — N
    worst-case entries is effectively unbounded memory. This memo
    charges each cached value its element count and evicts
    least-recently-used entries once the sum exceeds ``max_weight``
    (the newest entry always stays, even alone over budget: the caller
    is using it right now). Thread-safe; exceptions propagate uncached;
    hit/miss/eviction counters feed the bench extras.
    """

    def __init__(self, fn: Callable, max_weight: int,
                 weight_of: Callable[[object], int]) -> None:
        self._fn = fn
        self._weight_of = weight_of
        self._lock = threading.Lock()
        self._data: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self.max_weight = max_weight
        self.weight = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.__name__ = getattr(fn, "__name__", "memo")
        self.__doc__ = fn.__doc__

    def __call__(self, *key):
        with self._lock:
            hit = self._data.get(key)
            if hit is not None:
                self.hits += 1
                self._data.move_to_end(key)
                return hit[0]
            self.misses += 1
        value = self._fn(*key)          # compute outside the lock
        weight = self._weight_of(value)
        with self._lock:
            if key not in self._data:
                self._data[key] = (value, weight)
                self.weight += weight
                while self.weight > self.max_weight and len(self._data) > 1:
                    _, (_, old) = self._data.popitem(last=False)
                    self.weight -= old
                    self.evictions += 1
        return value

    def cache_clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.weight = 0
            self.hits = self.misses = self.evictions = 0

    def cache_stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._data), "weight": self.weight,
                    "max_weight": self.max_weight}

#: A multiset as a sorted tuple of (value, count) pairs, value descending.
Multiset = tuple[tuple[int, int], ...]


def multiset_total(ms: Multiset) -> int:
    return sum(v * k for v, k in ms)


def multiset_items(ms: Multiset) -> int:
    return sum(k for _, k in ms)


def enumerate_bounded_multisets(values: Sequence[int], max_items: int,
                                max_total: int,
                                max_count_per_value: Sequence[int] | None = None,
                                cap: int = 300_000,
                                include_empty: bool = True
                                ) -> list[Multiset]:
    """All multisets over ``values`` with at most ``max_items`` elements and
    total at most ``max_total`` (optionally a per-value count limit).

    Memoised on the (hashable) arguments: the PTAS binary searches call
    this once per guess ``T``, and distinct guesses frequently round to
    the same module structure — the enumeration (exponential in
    ``1/delta``) is then paid once per structure instead of once per
    guess. Returns a fresh list each call; the cache keeps the
    enumeration as one ``{multiset: position}`` dict in this order,
    shared read-only with the configuration spaces (their ``index``) and
    the n-fold module columns.
    """
    key_counts = None if max_count_per_value is None \
        else tuple(max_count_per_value)
    return list(_enumerate_cached(tuple(values), max_items, max_total,
                                  key_counts, cap, include_empty))


def _enumerate_uncached(values: tuple[int, ...], max_items: int,
                        max_total: int,
                        max_count_per_value: tuple[int, ...] | None,
                        cap: int, include_empty: bool
                        ) -> dict[Multiset, int]:
    # failures (CapacityExceededError) propagate uncached, so a later call
    # with a higher cap is not poisoned
    listed = _enumerate_bounded_multisets(
        values, max_items, max_total, max_count_per_value, cap,
        include_empty)
    return {ms: i for i, ms in enumerate(listed)}


#: Total multisets kept across all cached enumerations — each is a
#: handful of machine words, so this is a few hundred MB worst case.
_ENUMERATE_WEIGHT_BUDGET = 2_000_000

_enumerate_cached = _WeightedMemo(_enumerate_uncached,
                                  _ENUMERATE_WEIGHT_BUDGET, len)


def _enumerate_bounded_multisets(values: Sequence[int], max_items: int,
                                 max_total: int,
                                 max_count_per_value: Sequence[int] | None,
                                 cap: int,
                                 include_empty: bool) -> list[Multiset]:
    vals = sorted(set(values), reverse=True)
    if max_count_per_value is not None:
        limit = {v: c for v, c in zip(values, max_count_per_value)}
    else:
        limit = None
    out: list[Multiset] = []

    def rec(idx: int, items_left: int, total_left: int,
            chosen: list[tuple[int, int]]) -> None:
        if len(out) > cap:
            raise CapacityExceededError("multisets", len(out), cap)
        if idx == len(vals):
            out.append(tuple(chosen))
            return
        v = vals[idx]
        kmax = min(items_left, total_left // v) if v > 0 else items_left
        if limit is not None:
            kmax = min(kmax, limit.get(v, 0))
        for k in range(kmax, -1, -1):
            if k:
                chosen.append((v, k))
            rec(idx + 1, items_left - k, total_left - k * v, chosen)
            if k:
                chosen.pop()

    rec(0, max_items, max_total, [])
    if not include_empty:
        out = [ms for ms in out if ms]
    return out


def splittable_modules(q: int, c: int) -> list[int]:
    """Module sizes of the splittable PTAS in units of ``delta^2 T / c``:
    ``{l * c : l = q .. q(q+4)}`` (split pieces are >= delta*T and multiples
    of delta^2*T; the maximum is the machine budget T-bar)."""
    return [ell * c for ell in range(q, q * (q + 4) + 1)]


@dataclass(frozen=True)
class ConfigurationSpace:
    """Enumerated configurations plus the (h, b) bucket structure.

    ``configs[k]`` is a multiset of module sizes; ``size[k] = Lambda(K)``;
    ``slots[k] = ||K||_1``; ``buckets`` maps ``(h, b)`` to the config
    indices with that size and slot count; ``index`` maps each
    configuration back to its ``k`` (the enumeration memo's own dict).
    The empty configuration (machine running only small classes, or
    nothing) is always present at the ``(0, 0)`` bucket.
    """

    configs: tuple[Multiset, ...]
    sizes: tuple[int, ...]
    slots: tuple[int, ...]
    buckets: dict[tuple[int, int], tuple[int, ...]]
    index: dict[Multiset, int] = field(repr=False, compare=False)

    @property
    def num_configs(self) -> int:
        return len(self.configs)

    def bucket_of(self, k: int) -> tuple[int, int]:
        return self.sizes[k], self.slots[k]


def build_configuration_space(module_sizes: Sequence[int], max_slots: int,
                              max_size: int,
                              cap: int = 300_000) -> ConfigurationSpace:
    """Enumerate all configurations over ``module_sizes`` with at most
    ``max_slots`` modules and total size at most ``max_size``.

    Memoised keyed by ``(module sizes, slot bound, size threshold, cap)``
    — the dual-approximation binary searches rebuild the same space for
    every guess whose rounding coincides. The returned space is shared
    and must be treated as read-only (all consumers do).
    """
    return _build_space_cached(tuple(module_sizes), max_slots, max_size,
                               cap)


def _build_space_uncached(module_sizes: tuple[int, ...], max_slots: int,
                          max_size: int, cap: int) -> ConfigurationSpace:
    index = _enumerate_cached(module_sizes, max_slots, max_size, None, cap,
                              True)
    raw = tuple(index)
    sizes = tuple(multiset_total(ms) for ms in raw)
    slots = tuple(multiset_items(ms) for ms in raw)
    buckets: dict[tuple[int, int], list[int]] = {}
    for k, (h, b) in enumerate(zip(sizes, slots)):
        buckets.setdefault((h, b), []).append(k)
    return ConfigurationSpace(raw, sizes, slots,
                              {k: tuple(v) for k, v in buckets.items()},
                              index)


#: Total configurations kept across all cached spaces (each config also
#: carries its size/slot/bucket/index entries, hence the smaller budget).
_SPACE_WEIGHT_BUDGET = 500_000

_build_space_cached = _WeightedMemo(
    _build_space_uncached, _SPACE_WEIGHT_BUDGET,
    lambda space: max(1, space.num_configs))


def configuration_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/weight counters of both memo layers — surfaced as
    ``repro bench --suite kernel`` extras and by the cache tests."""
    return {"enumerate": _enumerate_cached.cache_stats(),
            "spaces": _build_space_cached.cache_stats()}
