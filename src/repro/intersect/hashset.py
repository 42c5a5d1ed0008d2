"""Hopscotch hash set for vertex ids (§V).

The paper stores hashed neighborhoods as hopscotch hash tables (Herlihy,
Shavit & Tzafrir) with the hopscotch neighborhood ``H = 16`` — one cache
line of 4-byte vertex ids — and *bitmask* hop-information rather than
delta-chains, which the paper found experimentally faster.  This is a
faithful reimplementation: open addressing over a power-of-two table, every
element stored within ``H - 1`` slots of its home bucket, and a per-bucket
16-bit mask whose bit *i* says "slot home+i holds an element homed here".

Lookup therefore touches at most one 16-slot window: iterate the set bits
of the home bucket's mask and compare.  That bounded, branch-predictable
probe is what makes the early-exit intersection kernels profitable.

The solver itself hashes with the builtin ``set`` (see
:mod:`repro.core.lazygraph`): the kernels and the lazy graph charge the
work counters, so the table behind the probe does not change them, and in
Python the builtin is far cheaper.  This class is the reference
implementation, property-tested against ``set`` and raced in
``bench micro``.

Elements are non-negative integers (vertex ids).  The set is append-only
(matching neighborhood construction in Alg. 2, which never deletes), but a
``discard`` is provided for generality and tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

H = 16  # hopscotch neighborhood: one 64-byte cache line of int32 ids
_EMPTY = -1
_FIB = 0x9E3779B97F4A7C15  # Fibonacci multiplicative hashing constant


class HopscotchSet:
    """A set of non-negative ints backed by hopscotch open addressing."""

    __slots__ = ("_table", "_hop", "_mask", "_size", "_capacity", "_shift")

    def __init__(self, expected: int = 0):
        cap = 32
        # Size for a ~0.7 load factor; Alg. 2 reserves |N(v)| up front.
        while cap < max(expected, 1) * 10 // 7 + H:
            cap <<= 1
        self._allocate(cap)

    def _allocate(self, capacity: int) -> None:
        self._capacity = capacity
        self._mask = capacity - 1
        self._shift = 64 - capacity.bit_length() + 1  # 64 - log2(capacity)
        self._table = np.full(capacity, _EMPTY, dtype=np.int64)
        self._hop = np.zeros(capacity, dtype=np.uint32)
        self._size = 0

    # -- hashing -----------------------------------------------------------------

    def _home(self, value: int) -> int:
        # Fibonacci hashing over the top log2(capacity) bits of value*K mod
        # 2^64.  int() guards against numpy scalar overflow on the multiply.
        return ((int(value) * _FIB) & 0xFFFFFFFFFFFFFFFF) >> self._shift

    # -- public API -----------------------------------------------------------------

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "HopscotchSet":
        values = list(values)
        s = cls(expected=len(values))
        for v in values:
            s.add(v)
        return s

    def __len__(self) -> int:
        return self._size

    def __contains__(self, value: int) -> bool:
        return self.contains(value)

    def contains(self, value: int) -> bool:
        """Membership: scan the set bits of the home bucket's hop mask."""
        # _home inlined: this is the hottest call site in the solver.
        home = ((int(value) * _FIB) & 0xFFFFFFFFFFFFFFFF) >> self._shift
        mask = int(self._hop[home])
        table = self._table
        cap_mask = self._mask
        while mask:
            i = (mask & -mask).bit_length() - 1
            if table[(home + i) & cap_mask] == value:
                return True
            mask &= mask - 1
        return False

    def add(self, value: int) -> bool:
        """Insert; returns False if already present.

        Follows the hopscotch insertion protocol: linear-probe for a free
        slot, then repeatedly displace it backwards until it lies within
        the home neighborhood, resizing if displacement gets stuck.
        """
        if value < 0:
            raise ValueError("HopscotchSet stores non-negative ints")
        if self.contains(value):
            return False
        while not self._try_insert(value):
            self._resize()
        self._size += 1
        return True

    def _try_insert(self, value: int) -> bool:
        home = self._home(value)
        table = self._table
        cap = self._capacity
        cap_mask = self._mask
        # Find the first free slot by linear probing (bounded scan).
        free = -1
        for d in range(cap):
            slot = (home + d) & cap_mask
            if table[slot] == _EMPTY:
                free = slot
                free_dist = d
                break
        if free == -1:
            return False  # table full: resize
        # Hop the free slot backwards until it is within H-1 of home.
        while free_dist >= H:
            moved = False
            # Candidate slots that could relocate into `free`: the H-1
            # positions before it.
            for back in range(H - 1, 0, -1):
                cand = (free - back) & cap_mask
                cand_mask = int(self._hop[cand])
                if not cand_mask:
                    continue
                # The lowest set bit <= back identifies an element homed at
                # `cand` sitting at cand+i; moving it to `free` keeps it
                # within H of its home iff i < back ... i.e. always, since
                # distance becomes `back` < H.
                i = (cand_mask & -cand_mask).bit_length() - 1
                if i >= back:
                    continue
                victim_slot = (cand + i) & cap_mask
                table[free] = table[victim_slot]
                self._hop[cand] = np.uint32((cand_mask & ~(1 << i)) | (1 << back))
                table[victim_slot] = _EMPTY
                free = victim_slot
                free_dist -= (back - i)
                moved = True
                break
            if not moved:
                return False  # displacement stuck: resize
        table[free] = value
        self._hop[home] = np.uint32(int(self._hop[home]) | (1 << free_dist))
        return True

    def _resize(self) -> None:
        old = self._table[self._table != _EMPTY]
        self._allocate(self._capacity * 2)
        for v in old:
            if not self._try_insert(int(v)):  # pragma: no cover - double resize
                self._resize_into(int(v), old)
                return
        self._size = len(old)

    def _resize_into(self, pending: int, rest) -> None:  # pragma: no cover
        """Rare path: a resize that itself gets stuck grows again."""
        values = [pending] + [int(v) for v in rest]
        while True:
            self._allocate(self._capacity * 2)
            if all(self._try_insert(v) for v in values):
                self._size = len(values)
                return

    def discard(self, value: int) -> bool:
        """Remove if present; returns whether a removal happened."""
        home = self._home(value)
        mask = int(self._hop[home])
        while mask:
            i = (mask & -mask).bit_length() - 1
            slot = (home + i) & self._mask
            if self._table[slot] == value:
                self._table[slot] = _EMPTY
                self._hop[home] = np.uint32(int(self._hop[home]) & ~(1 << i))
                self._size -= 1
                return True
            mask &= mask - 1
        return False

    def __iter__(self) -> Iterator[int]:
        for v in self._table:
            if v != _EMPTY:
                yield int(v)

    def to_array(self) -> np.ndarray:
        """Members as a sorted ``int64`` array."""
        out = self._table[self._table != _EMPTY].copy()
        out.sort()
        return out

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def load_factor(self) -> float:
        return self._size / self._capacity

    def __repr__(self) -> str:
        return f"HopscotchSet(size={self._size}, capacity={self._capacity})"
