"""Synchronized metadata access (ALDA's ``sync`` type specifier).

When a type is declared ``sync``, every map or set keyed by it must be
accessed under a lock (paper section 4.1).  Like the hand-tuned Eraser the
paper compares against, the runtime uses *hash-based locking*: a fixed
table of locks indexed by key hash, so the cost per protected operation is
one atomic RMW plus one lock-table cache access — contention itself is not
modelled (the VM's scheduler serializes handler execution anyway, which
matches how deterministic-replay evaluations of these analyses behave).
"""

from __future__ import annotations

_LOCK_TABLE_ENTRIES = 1024
_ATOMIC_CYCLES = 24


class SyncPolicy:
    """Bills lock acquire/release cost for synchronized metadata access."""

    def __init__(self, meter, space, name: str = "synclocks", memo=None) -> None:
        self.meter = meter
        self._profile = meter.profile
        self._touch = meter.touch
        self.table_base = space.reserve(_LOCK_TABLE_ENTRIES * 64, label=f"{name}-table")
        self.meter.footprint(_LOCK_TABLE_ENTRIES * 64)
        self.acquisitions = 0
        self._last_stripe = -1
        #: per-event memo shared with the analysis runtime: with lookup
        #: reduction on, fused handler code takes each stripe lock once
        #: per event and holds it across the co-keyed accesses.
        self.memo = memo

    def enter(self, key: int) -> None:
        """Acquire+release the stripe lock guarding ``key``'s metadata.

        With the per-event memo (CSE on), only the first acquisition of a
        stripe per event is billed.  Without it, immediately re-acquiring
        the stripe just released (the dominant pattern when unoptimized
        code locks per access) still hits an exclusive L1 line with a
        predicted CAS — billed at a fraction of a cold atomic.
        """
        self.acquisitions += 1
        stripe = (key * 0x9E3779B97F4A7C15) % _LOCK_TABLE_ENTRIES
        memo = self.memo
        if memo is not None:
            # Stripe keys are negative ints: disjoint from the memo's
            # line keys (positive ints) and slot keys (tuples).
            memo_key = -1 - stripe
            if memo_key in memo:
                return
            memo[memo_key] = True
        if stripe == self._last_stripe:
            self._profile.instr_cycles += _ATOMIC_CYCLES // 4
        else:
            self._profile.instr_cycles += _ATOMIC_CYCLES
            self._last_stripe = stripe
        self._touch(self.table_base + stripe * 64, 8)
