"""Deterministic seeded workload generator.

``generate(params, scale)`` turns a :class:`GenParams` vector into a valid
mini-IR module.  All randomness is drawn from ``random.Random(params.seed)``
at *generation* time, so the same params always produce byte-identical IR
text — across repeated calls, processes, and machines.  ``scale`` only
changes loop trip counts (the op mix is part of the seeded shape), which is
what lets one seed describe both a 2k-event smoke case and a million-event
stress trace.

The parameter vector covers the axes ISSUE/ROADMAP call out:

* ``load_density`` / ``store_density`` — shared-array access mix;
* ``malloc_churn`` — short-lived heap blocks (malloc/store/load/free);
* ``alias_depth`` — length of no-op pointer-copy chains feeding accesses;
* ``loop_nesting`` — 1..3 nested counted loops around the kernel;
* ``lock_discipline`` — ``none`` | ``consistent`` | ``inconsistent`` |
  ``per_iteration`` (a fresh heap mutex per kernel invocation — the
  lock-identity shape that broke the PR-9 lockset tier);
* ``escape_trick`` — park a stack buffer's address in a global via a
  data-dependent (statically TOP) store, then access it from the other
  thread — the escape-after-TOP-store shape of the second PR-9 hole;
* ``threads`` — 1, or 2 via ``spawn$worker``/``join``;
* ``call_shape`` — ``flat`` | ``deep`` (call chain) | ``recursive`` |
  ``scc`` (mutual recursion) | ``extern`` (opaque library call feeding an
  index).

``synthetic_workload(params)`` wraps the generator in an ordinary
:class:`repro.workloads.Workload` (suite ``"fuzz"``) so every downstream
subsystem — harness, trace store, partitioned replay, serve — takes it
with no special cases; ``registered()`` temporarily adds it to the global
workload registry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import asdict, dataclass, replace
from typing import Iterator, List, Optional, Tuple

from repro.fuzz import FuzzUsageError, bump
from repro.ir.builder import IRBuilder
from repro.ir.module import Module
from repro.ir.text import print_module
from repro.ir.validate import validate_module
from repro.workloads import register_workload, unregister_workload
from repro.workloads.base import Workload

LOCK_DISCIPLINES = ("none", "consistent", "inconsistent", "per_iteration")
CALL_SHAPES = ("flat", "deep", "recursive", "scc", "extern")

#: Analysis specs the generator targets (all three carry elision policies,
#: so every oracle matrix cell is meaningful for them).
TARGET_SPECS = ("eraser.full", "fasttrack.alda", "uaf.alda")

#: Shared array size in 64-bit words (power of two: indices are masked).
WORDS = 64
_MASK = WORDS - 1


@dataclass(frozen=True)
class GenParams:
    """Seeded parameter vector describing one generated workload."""

    seed: int
    events: int = 3000
    load_density: float = 0.35
    store_density: float = 0.35
    malloc_churn: float = 0.1
    alias_depth: int = 1
    loop_nesting: int = 1
    lock_discipline: str = "consistent"
    threads: int = 1
    call_shape: str = "flat"
    escape_trick: bool = False
    spec: str = "eraser.full"


def validate_params(params: GenParams) -> None:
    """Raise :class:`FuzzUsageError` on out-of-range parameters."""
    if params.events < 1:
        raise FuzzUsageError(f"events must be >= 1, got {params.events}")
    for field in ("load_density", "store_density", "malloc_churn"):
        value = getattr(params, field)
        if not 0.0 <= value <= 1.0:
            raise FuzzUsageError(f"{field} must be in [0, 1], got {value}")
    if not 0 <= params.alias_depth <= 8:
        raise FuzzUsageError(f"alias_depth must be in [0, 8], got {params.alias_depth}")
    if not 1 <= params.loop_nesting <= 3:
        raise FuzzUsageError(f"loop_nesting must be in [1, 3], got {params.loop_nesting}")
    if params.lock_discipline not in LOCK_DISCIPLINES:
        raise FuzzUsageError(
            f"unknown lock_discipline {params.lock_discipline!r}; "
            f"expected one of {', '.join(LOCK_DISCIPLINES)}"
        )
    if params.threads not in (1, 2):
        raise FuzzUsageError(f"threads must be 1 or 2, got {params.threads}")
    if params.call_shape not in CALL_SHAPES:
        raise FuzzUsageError(
            f"unknown call_shape {params.call_shape!r}; "
            f"expected one of {', '.join(CALL_SHAPES)}"
        )
    if params.spec not in TARGET_SPECS:
        raise FuzzUsageError(
            f"unknown spec {params.spec!r}; "
            f"expected one of {', '.join(TARGET_SPECS)}"
        )


def params_to_dict(params: GenParams) -> dict:
    return asdict(params)


def params_from_dict(data: dict) -> GenParams:
    try:
        params = GenParams(**data)
    except TypeError as exc:
        raise FuzzUsageError(f"bad parameter vector: {exc}") from None
    validate_params(params)
    return params


def params_digest(params: GenParams) -> str:
    """Content digest of the parameter vector (stable across processes)."""
    canon = json.dumps(params_to_dict(params), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def sample_params(case_seed: int, *, events: Optional[int] = None) -> GenParams:
    """Derive a full parameter vector from one case seed.

    The distribution deliberately over-weights the adversarial corners:
    per-iteration lock identity, escape tricks, and two-thread sharing
    show up in a large fraction of samples.
    """
    rng = random.Random(case_seed * 0x9E3779B97F4A7C15 + 1)
    threads = 2 if rng.random() < 0.6 else 1
    discipline = rng.choice(
        ("none", "consistent", "consistent", "inconsistent", "per_iteration", "per_iteration")
    )
    # The events draw is consumed even when an override is supplied:
    # otherwise ``--events`` shifts every subsequent draw and a repro
    # command embedding the sampled events regenerates a different vector.
    sampled_events = rng.randrange(800, 5000)
    return GenParams(
        seed=case_seed,
        events=events if events is not None else sampled_events,
        load_density=round(rng.uniform(0.15, 0.5), 3),
        store_density=round(rng.uniform(0.15, 0.5), 3),
        malloc_churn=round(rng.uniform(0.0, 0.3), 3),
        alias_depth=rng.randrange(0, 5),
        loop_nesting=rng.randrange(1, 4),
        lock_discipline=discipline,
        threads=threads,
        call_shape=rng.choice(CALL_SHAPES),
        escape_trick=threads == 2 and rng.random() < 0.4,
        spec=rng.choice(TARGET_SPECS),
    )


# ----------------------------------------------------------------------
# IR generation
# ----------------------------------------------------------------------

def _shared_addr(b: IRBuilder, arr, idx, c1: int, c2: int, alias_depth: int) -> str:
    """Masked address of a shared-array word, behind an alias-copy chain."""
    word = b.and_(b.add(b.mul(idx, c1), c2), _MASK)
    addr = b.add(arr, b.mul(word, 8))
    for _ in range(alias_depth):
        addr = b.add(addr, 0)  # pointer copy: exercises alias chains
    return addr


def _emit_leaf(b: IRBuilder, params: GenParams, ops: List[Tuple]) -> None:
    """The kernel leaf ``touch(arr, idx)``: the seeded shared-access mix."""
    b.function("touch", ["arr", "idx"])
    acc = b.and_("idx", _MASK)
    discipline = params.lock_discipline
    glk = b.global_addr("g_lock") if discipline in ("consistent", "inconsistent") else None
    hlk = b.call("malloc", [64]) if discipline == "per_iteration" else None

    def guard(locked: bool):
        lock = hlk if discipline == "per_iteration" else glk
        if discipline == "per_iteration":
            locked = True
        if locked and lock is not None:
            b.call("mutex_lock", [lock], void=True)
            return lock
        return None

    def unguard(lock) -> None:
        if lock is not None:
            b.call("mutex_unlock", [lock], void=True)

    for op in ops:
        kind = op[0]
        if kind == "load":
            _, c1, c2, locked = op
            addr = _shared_addr(b, "arr", "idx", c1, c2, params.alias_depth)
            lock = guard(locked)
            value = b.load(addr)
            unguard(lock)
            acc = b.xor(acc, value)
        elif kind == "store":
            _, c1, c2, locked = op
            addr = _shared_addr(b, "arr", "idx", c1, c2, params.alias_depth)
            lock = guard(locked)
            b.store(b.add(acc, c2), addr)
            unguard(lock)
        elif kind == "branch_store":
            _, c1, c2, locked = op
            cond = b.cmp("lt", b.and_(acc, 7), 4)
            with b.if_then(cond):
                addr = _shared_addr(b, "arr", "idx", c1, c2, params.alias_depth)
                lock = guard(locked)
                b.store(acc, addr)
                unguard(lock)
        elif kind == "churn":
            _, n_words = op
            block = b.call("malloc", [n_words * 8])
            b.store(acc, block)
            scratch = b.load(block)
            acc = b.xor(acc, scratch)
            b.call("free", [block], void=True)
        else:  # mix
            _, c = op
            acc = b.and_(b.add(b.mul(acc, 3), c), 0xFFFF)

    if hlk is not None:
        b.call("free", [hlk], void=True)
    b.ret(acc)


def _emit_call_shape(b: IRBuilder, shape: str) -> str:
    """Define the call-graph decoration and return the entry callee name."""
    if shape == "flat":
        return "touch"
    if shape == "deep":
        b.function("hop2", ["arr", "idx"])
        b.ret(b.call("touch", ["arr", "idx"]))
        b.function("hop1", ["arr", "idx"])
        b.ret(b.call("hop2", ["arr", b.add("idx", 1)]))
        return "hop1"
    if shape == "recursive":
        b.function("walk", ["arr", "idx", "d"])
        rec = b.block("rec")
        base = b.block("base")
        b.br(b.cmp("gt", "d", 0), rec, base)
        b.position_at(rec)
        here = b.call("touch", ["arr", "idx"])
        rest = b.call("walk", ["arr", b.add("idx", 1), b.sub("d", 1)])
        b.ret(b.xor(here, rest))
        b.position_at(base)
        b.ret(b.call("touch", ["arr", "idx"]))
        return "walk"
    if shape == "scc":
        for name, other in (("ping", "pong"), ("pong", "ping")):
            b.function(name, ["arr", "idx", "d"])
            rec = b.block("rec")
            base = b.block("base")
            b.br(b.cmp("gt", "d", 0), rec, base)
            b.position_at(rec)
            here = b.call("touch", ["arr", "idx"])
            rest = b.call(other, ["arr", b.add("idx", 1), b.sub("d", 1)])
            b.ret(b.xor(here, rest))
            b.position_at(base)
            b.ret(b.call("touch", ["arr", "idx"]))
        return "ping"
    return "touch"  # extern: indirection happens at the call site


def _emit_worker(b: IRBuilder, params: GenParams, inner_trips: List[int],
                 entry_callee: str) -> None:
    """``worker(arr, start, count)``: nested loops driving the kernel."""
    shape = params.call_shape
    b.function("worker", ["arr", "start", "count"])
    acc_slot = b.alloca(8)
    b.store(0, acc_slot)
    slot_addr = b.global_addr("g_slot") if params.escape_trick else None

    with contextlib.ExitStack() as stack:
        indices = [stack.enter_context(b.loop("count"))]
        for trips in inner_trips:
            indices.append(stack.enter_context(b.loop(trips)))
        idx = b.add("start", indices[0])
        for level, reg in enumerate(indices[1:], start=1):
            idx = b.add(idx, b.mul(reg, 2 * level + 1))

        if shape == "extern":
            mixed = b.call("ext_mix", [idx])
            idx = b.and_(mixed, _MASK)
            value = b.call("touch", ["arr", idx])
        elif shape in ("recursive", "scc"):
            value = b.call(entry_callee, ["arr", idx, 2])
        else:
            value = b.call(entry_callee, ["arr", idx])

        if slot_addr is not None:
            # Access main's stack buffer through the escaped pointer.
            stolen = b.load(slot_addr)
            cell = b.add(stolen, b.mul(b.and_(idx, _MASK), 8))
            b.store(b.xor(value, 1), cell)
            value = b.xor(value, b.load(cell))

        current = b.load(acc_slot)
        b.store(b.xor(current, value), acc_slot)

    total = b.global_addr("g_total")
    if params.lock_discipline != "none":
        glk = b.global_addr("g_lock")
        b.call("mutex_lock", [glk], void=True)
        b.store(b.add(b.load(total), b.load(acc_slot)), total)
        b.call("mutex_unlock", [glk], void=True)
    else:
        b.store(b.add(b.load(total), b.load(acc_slot)), total)
    b.ret(0)


def _trip_counts(params: GenParams, scale: int, rng: random.Random,
                 n_ops: int) -> Tuple[int, List[int]]:
    """Pick nested trip counts hitting roughly ``events * scale`` events."""
    inner_trips = [rng.randrange(2, 5) for _ in range(params.loop_nesting - 1)]
    inner_product = 1
    for trips in inner_trips:
        inner_product *= trips
    shape_mult = 3 if params.call_shape in ("recursive", "scc") else 1
    est_per_iter = 10 + shape_mult * (6 + 3 * n_ops + params.alias_depth)
    total_iters = max(2, (params.events * scale) // est_per_iter)
    outer = max(1, total_iters // (inner_product * params.threads))
    return outer, inner_trips


def generate(params: GenParams, scale: int = 1) -> Module:
    """Build the module for ``params`` — deterministic in (params, scale)."""
    validate_params(params)
    if scale < 1:
        raise FuzzUsageError(f"scale must be >= 1, got {scale}")
    rng = random.Random(params.seed ^ 0x5EED_F00D)

    # Seeded op mix for the kernel leaf (static: part of the program shape).
    n_ops = rng.randrange(3, 8)
    ops: List[Tuple] = []
    for _ in range(n_ops):
        roll = rng.random()
        locked = (
            params.lock_discipline == "consistent"
            or (params.lock_discipline == "inconsistent" and rng.random() < 0.5)
        )
        c1, c2 = rng.randrange(1, 8), rng.randrange(0, WORDS)
        if roll < params.load_density:
            ops.append(("load", c1, c2, locked))
        elif roll < params.load_density + params.store_density:
            kind = "branch_store" if rng.random() < 0.25 else "store"
            ops.append((kind, c1, c2, locked))
        elif roll < params.load_density + params.store_density + params.malloc_churn:
            ops.append(("churn", rng.randrange(2, 6)))
        else:
            ops.append(("mix", rng.randrange(1, 64)))
    if not any(op[0] in ("load", "store", "branch_store") for op in ops):
        ops.append(("store", 1, rng.randrange(0, WORDS), params.lock_discipline == "consistent"))

    outer, inner_trips = _trip_counts(params, scale, rng, n_ops)

    b = IRBuilder(Module(f"fuzz_s{params.seed}"))
    b.module.add_global("g_lock", 64)
    b.module.add_global("g_slot", 8)
    b.module.add_global("g_total", 8)

    _emit_leaf(b, params, ops)
    entry_callee = _emit_call_shape(b, params.call_shape)
    _emit_worker(b, params, inner_trips, entry_callee)

    b.function("main")
    arr = b.call("malloc", [WORDS * 8])
    with b.loop(WORDS) as i:
        b.store(b.add(b.mul(i, 7), 3), b.add(arr, b.mul(i, 8)))
    b.store(0, b.global_addr("g_total"))

    if params.escape_trick:
        # Stack buffer escapes through a data-dependent (statically TOP)
        # store into g_slot — after this, "stack-local" is a lie.
        stack_buf = b.alloca(WORDS * 8)
        with b.loop(WORDS) as i:
            b.store(i, b.add(stack_buf, b.mul(i, 8)))
        zero = b.and_(b.load(arr), 0)
        opaque_slot = b.add(b.global_addr("g_slot"), zero)
        b.store(stack_buf, opaque_slot)
    else:
        b.store(arr, b.global_addr("g_slot"))

    if params.threads == 2:
        half = max(1, outer // 2)
        child = b.call("spawn$worker", [arr, half, max(1, outer - half)])
        b.call("worker", [arr, 0, half], void=True)
        b.call("join", [child], void=True)
    else:
        b.call("worker", [arr, 0, outer], void=True)
    b.call("free", [arr], void=True)
    b.ret(0)

    unresolved = validate_module(b.module)
    allowed = {
        "malloc", "calloc", "free", "rand", "join",
        "mutex_lock", "mutex_unlock", "ext_mix",
        "spawn$worker", "global_addr$g_lock", "global_addr$g_slot",
        "global_addr$g_total",
    }
    unexpected = [name for name in unresolved if name not in allowed]
    if unexpected:  # pragma: no cover - generator bug guard
        raise FuzzUsageError(f"generator produced unresolved callees: {unexpected}")
    return b.module


# ----------------------------------------------------------------------
# Workload packaging
# ----------------------------------------------------------------------

def _ext_mix(vm, thread, args) -> int:
    """Deterministic opaque library call (the ``extern`` call shape)."""
    vm.profile.base_cycles += 25
    value = args[0] if args else 0
    return ((value * 2654435761) ^ (value >> 13)) & 0xFFFFFFFF


def _fuzz_externs():
    return {"ext_mix": _ext_mix}


def module_text_digest(module: Module) -> str:
    """sha256 of the printed IR text — the generator's determinism witness."""
    return hashlib.sha256(print_module(module).encode()).hexdigest()


def synthetic_workload(params: GenParams) -> Workload:
    """Wrap ``params`` as a registry-shaped :class:`Workload`."""
    validate_params(params)
    digest8 = module_text_digest(generate(params, 1))[:8]
    bump("modules_generated")
    return Workload(
        name=f"fuzz-s{params.seed}-{digest8}",
        suite="fuzz",
        build=lambda scale=1: generate(params, scale),
        threads=params.threads,
        extern_factory=_fuzz_externs if params.call_shape == "extern" else None,
        notes=f"generated: params {params_digest(params)[:12]} spec {params.spec}",
    )


@contextlib.contextmanager
def registered(params: GenParams) -> Iterator[Workload]:
    """Temporarily register the synthetic workload in the global registry."""
    workload = synthetic_workload(params)
    register_workload(workload)
    try:
        yield workload
    finally:
        unregister_workload(workload.name)


def scaled(params: GenParams, events: int) -> GenParams:
    """Same shape, different size — ``events`` replaces the size knob."""
    if events < 1:
        raise FuzzUsageError(f"events must be >= 1, got {events}")
    return replace(params, events=events)


# ----------------------------------------------------------------------
# Worker-pool task (cross-process determinism witness)
# ----------------------------------------------------------------------

def digest_task(params_dict: dict) -> dict:
    """Regenerate from a params dict and return content digests.

    Runs inside :class:`repro.exec.workers.PersistentWorkerPool` workers:
    identical digests across processes prove the generator is seeded by
    the vector alone, not process state.
    """
    from repro.trace.recorder import record_workload

    params = params_from_dict(params_dict)
    module = generate(params)
    workload = synthetic_workload(params)
    buffer = io.BytesIO()
    meta = record_workload(workload, 1, buffer)
    return {
        "module_sha": module_text_digest(module),
        "trace_sha": hashlib.sha256(buffer.getvalue()).hexdigest(),
        "payload_digest": meta.get("digest", ""),
        "workload": workload.name,
    }
