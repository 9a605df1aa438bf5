"""A byte-bounded, two-generation memo shared by the sampler and both models."""

from __future__ import annotations

from typing import Callable, Hashable


class Memo:
    """Key -> value, each entry charged in bytes, the total held under a cap.

    Entries live in two generations of at most half the cap each. A new entry
    goes into the current generation; when it would take that generation past
    its half, the current generation becomes the old one and the old one is
    dropped. A hit in the old generation moves the entry back into the current
    one, so entries that keep being asked for survive every rotation and the
    rest age out within two. `charge(key, value)` is the caller's upper bound
    on the bytes an entry holds, key, slot and object headers included; an
    entry charged more than half the cap is not stored. Charged bytes never
    exceed the cap. A memo is single-threaded: nothing in the package starts
    a thread, and two threads moving entries at once could lose an update to
    a generation's byte count.
    """

    def __init__(self, cap_bytes: int, charge: Callable[[Hashable, object], int]):
        self.cap_bytes = int(cap_bytes)
        self._half = self.cap_bytes // 2
        self._charge = charge
        self._new: dict = {}
        self._old: dict = {}
        self._new_bytes = self._old_bytes = 0

    def __len__(self) -> int:
        return len(self._new) + len(self._old)

    @property
    def charged_bytes(self) -> int:
        return self._new_bytes + self._old_bytes

    def items(self):
        """Every (key, value) held, current generation first."""
        return [*self._new.items(), *self._old.items()]

    def get(self, key):
        """The value stored under key, or None."""
        value = self._new.get(key)
        if value is not None:
            return value
        value = self._old.pop(key, None)
        if value is not None:
            self._old_bytes -= self._charge(key, value)
            self.put(key, value)
        return value

    def put(self, key, value) -> None:
        size = self._charge(key, value)
        if size > self._half:
            return
        prev = self._new.pop(key, None)
        if prev is not None:
            self._new_bytes -= self._charge(key, prev)
        if self._new_bytes + size > self._half:
            self._old, self._old_bytes = self._new, self._new_bytes
            self._new, self._new_bytes = {}, 0
        self._new[key] = value
        self._new_bytes += size
