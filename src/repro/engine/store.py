"""The storage layer: paged state store, budgeted caches, out-of-core TS.

Everything an exploration produces used to stay resident: every state
object, every kernel memo, every intern table. This module bounds that
with one *memory budget* shared by three accounts:

``hot``
    A budgeted LRU of live state objects. The authoritative copy of every
    state is a *canonical frame* — the ``RW1`` record of
    :mod:`repro.engine.frames` holding the state's coded facts and call
    map, self-contained via a definition list against the store-creation
    term-table snapshot — appended to read-only page files and keyed by
    the dense state id that discovery order already assigns. Cold states
    are rehydrated from their page on demand.
``memos``
    The kernel's fact/instance/DO memos
    (:meth:`~repro.relational.kernel.RelationalKernel.attach_memo_budget`)
    wrapped in :class:`BudgetedDict`: pure caches whose eviction only
    costs recomputation, never correctness.
``interner``
    The symmetry :class:`~repro.engine.interning.StateInterner`'s
    exact-hit instance cache (class identity itself stays resident — a
    dropped *cache* entry recomputes, a dropped *class* would fork one).

Alongside the accounts, the *index* (per-state digest + page ref, edge
arrays, label intern) is charged but not evictable — it is the part of
the result that must stay addressable, and the recorded budget
high-water mark includes it honestly.

Bit-identity argument
---------------------
The paged backend never changes what the exploration computes, only
where it lives. States are deduplicated by the canonical frame: equal
states produce byte-identical frames (facts sorted by the run-independent
``TermTable.sort_key``, definitions emitted in reference order,
``sys.intern``-ed strings so pickle's memoization is process-independent),
so digest + byte-confirm equality coincides with state equality. The
frontier holds ``(state id, depth)`` pairs and rehydrates in pop order,
so interning order, edge order, growth traces, and observer replay are
exactly the sequential ones. Evicted memo entries recompute through the
same pure evaluators that filled them. ``tests/test_differential.py``
rebuilds every case under a tight budget and asserts bit-identity.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
import weakref
from array import array
from collections import OrderedDict
from typing import (
    Any, Dict, Iterator, List, MutableMapping, Optional, Tuple)

from repro import env
from repro.engine import frames
from repro.engine.generators import DetState
from repro.engine.wire import WireCodec
from repro.errors import ReproError
from repro.relational.coding import CodedInstance
from repro.relational.instance import Instance
from repro.semantics.transition_system import State, TransitionSystem

#: Default page-file rotation size. Pages are append-only and mmap-read;
#: 1 MiB keeps the open-file count tiny while bounding how much one
#: mmap covers.
PAGE_BYTES = 1 << 20

#: Hot-entry cost model: a rehydrated state object graph is roughly this
#: many times its compressed frame (measured on the gallery workloads),
#: floored so tiny states still pay their object headers.
HOT_BYTES_FACTOR = 12
HOT_BYTES_FLOOR = 512

#: Budget shares per account. ``index`` is charged, never evicted (it is
#: the addressable result); the evictable accounts shed their own LRU
#: tails when they outgrow their share *or* the summed charge would
#: exceed the enforcement target.
DEFAULT_SHARES = {"hot": 0.45, "memos": 0.30, "interner": 0.10,
                  "index": 0.15}

#: The budget enforces against this fraction of the stated cap. The
#: structural estimator cannot see CPython container overallocation,
#: allocator slack, or transient encode/decode buffers — the reserved
#: headroom absorbs them so the *measured* storage peak lands within
#: the budget the caller actually stated.
ENFORCE_FRACTION = 0.8


def resolve_memory_budget(explicit: Optional[int]) -> Optional[int]:
    """The effective budget: explicit arg, else ``REPRO_MEMORY_BUDGET``,
    gated by the ``REPRO_NO_SPILL`` kill switch. ``None`` means RAM."""
    if env.spill_disabled():
        return None
    budget = explicit if explicit is not None \
        else env.memory_budget_default()
    if budget is None:
        return None
    if budget <= 0:
        raise ReproError(f"memory_budget must be positive, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# Approximate sizing (budget accounting is structural, not exact)
# ---------------------------------------------------------------------------

_SAMPLE = 32


def approx_nbytes(obj: Any, _depth: int = 3) -> int:
    """A cheap structural estimate of an object's resident bytes.

    Budget accounting needs *relative* honesty (big entries must charge
    more than small ones), not byte-exactness: containers are sampled to
    ``_SAMPLE`` elements and extrapolated, recursion is depth-bounded,
    and unknown objects get a flat charge. Deliberately no ``sys.
    getsizeof`` recursion — this runs on every cache insert.
    """
    if obj is None or obj is True or obj is False:
        return 8
    kind = type(obj)
    if kind is int:
        return 32
    if kind is float:
        return 24
    if kind is str:
        return 56 + len(obj)
    if kind is bytes:
        return 33 + len(obj)
    if kind is CodedInstance:
        return obj.nbytes()
    if kind in (tuple, list):
        total = 56 + 8 * len(obj)
        if _depth > 0 and obj:
            sample = obj[:_SAMPLE]
            inner = sum(approx_nbytes(item, _depth - 1) for item in sample)
            total += inner * len(obj) // len(sample)
        return total
    if kind in (set, frozenset):
        total = 216 + 8 * len(obj)
        if _depth > 0 and obj:
            sample = list(obj)[:_SAMPLE] if len(obj) > _SAMPLE else obj
            inner = sum(approx_nbytes(item, _depth - 1) for item in sample)
            total += inner * len(obj) // max(1, len(sample))
        return total
    if kind is dict or isinstance(obj, dict):
        total = 64 + 16 * len(obj)
        if _depth > 0 and obj:
            items = list(obj.items())[:_SAMPLE]
            inner = sum(approx_nbytes(key, _depth - 1)
                        + approx_nbytes(value, _depth - 1)
                        for key, value in items)
            total += inner * len(obj) // len(items)
        return total
    if isinstance(obj, Instance):
        return 64 + 120 * len(obj)
    if isinstance(obj, DetState):
        return 64 + approx_nbytes(obj.instance, _depth) \
            + approx_nbytes(obj.call_map, _depth)
    return 128


# ---------------------------------------------------------------------------
# The shared budget and the budgeted LRU dict
# ---------------------------------------------------------------------------

class MemoryBudget:
    """One byte budget shared by named accounts.

    Each account charges/releases approximate byte costs; an account is
    *over* when its charge exceeds its share of the enforcement target
    (``ENFORCE_FRACTION`` of the stated total), at which point its owner
    (a :class:`BudgetedDict`, the store's hot LRU) sheds its own
    least-recently-used entries. Shedders also watch the *summed* charge:
    growth in a non-evictable account (the index, the edge arrays)
    squeezes the evictable caches so the total stays under the target.
    The high-water mark is the peak of the summed charges — what the
    bench compares against process peak memory.
    """

    def __init__(self, total: int,
                 shares: Optional[Dict[str, float]] = None):
        self.total = int(total)
        self.enforce_total = int(self.total * ENFORCE_FRACTION)
        self.shares = dict(DEFAULT_SHARES if shares is None else shares)
        self.charged: Dict[str, int] = {name: 0 for name in self.shares}
        self.evictions: Dict[str, int] = {name: 0 for name in self.shares}
        self.high_water = 0
        self._level = 0

    def limit(self, account: str) -> int:
        return int(self.enforce_total * self.shares.get(account, 0.0))

    def charge(self, account: str, amount: int) -> None:
        self.charged[account] = self.charged.get(account, 0) + amount
        level = self._level = self._level + amount
        if level > self.high_water:
            self.high_water = level

    def release(self, account: str, amount: int) -> None:
        self.charged[account] = self.charged.get(account, 0) - amount
        self._level -= amount

    def over(self, account: str) -> bool:
        return self.charged.get(account, 0) > self.limit(account)

    def note_eviction(self, account: str) -> None:
        self.evictions[account] = self.evictions.get(account, 0) + 1

    def stats_dict(self) -> Dict[str, Any]:
        return {
            "budget": self.total,
            "budget_enforce_target": self.enforce_total,
            "budget_high_water": self.high_water,
            "charged": dict(self.charged),
            "evictions": dict(self.evictions),
        }


class BudgetedDict(MutableMapping):
    """A dict-shaped LRU cache charged to a :class:`MemoryBudget` account.

    Drop-in for the kernel's memo dicts: lookups refresh recency,
    inserts charge an approximate cost and then shed this dict's own
    least-recently-used entries while the account is over its share.
    Eviction is always safe for the wrapped users — every budgeted memo
    is a pure cache whose entries recompute to equal values.

    Cost accounting is *sampled*: entries within one memo are shaped
    alike, so the cost function runs on every ``_COST_SAMPLE_EVERY``-th
    insert and the others charge a moving average of the sampled costs.
    This keeps inserts O(1) on the kernel's hottest memos while staying
    relatively honest across accounts (each entry still releases exactly
    what it charged).

    Recency bookkeeping is *pressure-gated*: ``move_to_end`` on every
    hit is pure overhead while the account sits far under its share, so
    hits only refresh LRU order once the account passes half its limit
    (``_lru_live``, refreshed on every insert). Below that, insertion
    order approximates recency — and nothing is close to evicting
    anyway. Shedding happens *before* the triggering insert is charged,
    so the summed charge never overshoots the enforcement target.
    """

    __slots__ = ("_data", "_costs", "budget", "account", "_cost_fn",
                 "_tick", "_avg_cost", "_limit", "_lru_live")

    _COST_SAMPLE_EVERY = 16

    def __init__(self, budget: MemoryBudget, account: str,
                 data: Optional[dict] = None, cost_fn=None):
        self.budget = budget
        self.account = account
        self._cost_fn = cost_fn or (
            lambda key, value: approx_nbytes(key) + approx_nbytes(value))
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._costs: Dict[Any, int] = {}
        self._tick = 0
        self._avg_cost: Optional[int] = None
        self._limit = budget.limit(account)
        self._lru_live = False
        if data:
            for key, value in data.items():
                self[key] = value

    _MISSING = object()

    def __getitem__(self, key):
        value = self._data[key]
        if self._lru_live:
            self._data.move_to_end(key)
        return value

    # MutableMapping's get/contains go through __getitem__ with a
    # try/except, which makes every memo *miss* raise internally — far
    # too slow for the kernel's hottest caches. Answer from the backing
    # dict directly.
    def get(self, key, default=None):
        found = self._data.get(key, self._MISSING)
        if found is self._MISSING:
            return default
        if self._lru_live:
            self._data.move_to_end(key)
        return found

    def __contains__(self, key):
        return key in self._data

    def __setitem__(self, key, value) -> None:
        budget = self.budget
        account = self.account
        old = self._costs.pop(key, None)
        if old is not None:
            budget.release(account, old)
            del self._data[key]
        tick = self._tick
        self._tick = tick + 1
        if tick % self._COST_SAMPLE_EVERY == 0 or self._avg_cost is None:
            cost = self._cost_fn(key, value)
            avg = self._avg_cost
            self._avg_cost = cost if avg is None else (3 * avg + cost) // 4
        else:
            cost = self._avg_cost
        charged = budget.charged.get(account, 0)
        limit = self._limit
        if (charged + cost > limit
                or budget._level + cost > budget.enforce_total):
            self._shed(cost)
        self._data[key] = value
        self._costs[key] = cost
        budget.charge(account, cost)
        self._lru_live = 2 * budget.charged[account] >= limit

    def __delitem__(self, key) -> None:
        del self._data[key]
        self.budget.release(self.account, self._costs.pop(key))

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def _shed(self, incoming: int = 0) -> None:
        budget = self.budget
        account = self.account
        data = self._data
        costs = self._costs
        charged = budget.charged
        limit = self._limit
        while len(data) > 1 and (
                charged.get(account, 0) + incoming > limit
                or budget._level + incoming > budget.enforce_total):
            key, _ = data.popitem(last=False)
            budget.release(account, costs.pop(key))
            budget.note_eviction(account)

    def clear(self) -> None:
        self.budget.release(self.account, sum(self._costs.values()))
        self._data.clear()
        self._costs.clear()

    def unwrap(self) -> dict:
        """Contents as a plain dict, releasing every charge."""
        found = dict(self._data)
        self.clear()
        return found


# ---------------------------------------------------------------------------
# Page files: append-only RW1 frames, mmap/pread reads
# ---------------------------------------------------------------------------

class _PageSet:
    """Append-only page files under one directory.

    ``append`` returns ``(page, offset, length)``; pages rotate at
    ``page_bytes``. Closed pages are read through ``mmap``; the active
    page is flushed and read with ``os.pread`` — both paths return the
    exact frame bytes that were appended.
    """

    def __init__(self, directory: str, page_bytes: int = PAGE_BYTES):
        self.directory = directory
        self.page_bytes = page_bytes
        self._maps: Dict[int, Any] = {}
        self._handle = None
        self._page = -1
        self._offset = 0
        self.pages_written = 0
        self.bytes_written = 0
        self.reads = 0
        self.bytes_read = 0
        self._dirty = False

    def _path(self, page: int) -> str:
        return os.path.join(self.directory, f"page-{page:05d}.rw1")

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.close()
        self._page += 1
        self._offset = 0
        self._handle = open(self._path(self._page), "w+b")
        self.pages_written += 1

    def append(self, frame: bytes) -> Tuple[int, int, int]:
        if self._handle is None or self._offset >= self.page_bytes:
            self._rotate()
        ref = (self._page, self._offset, len(frame))
        self._handle.write(frame)
        self._offset += len(frame)
        self.bytes_written += len(frame)
        self._dirty = True
        return ref

    def read(self, page: int, offset: int, length: int) -> bytes:
        self.reads += 1
        self.bytes_read += length
        if page == self._page:
            if self._dirty:
                self._handle.flush()
                self._dirty = False
            return os.pread(self._handle.fileno(), length, offset)
        found = self._maps.get(page)
        if found is None:
            import mmap
            with open(self._path(page), "rb") as handle:
                found = mmap.mmap(handle.fileno(), 0,
                                  access=mmap.ACCESS_READ)
            self._maps[page] = found
        return bytes(found[offset:offset + length])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        for mapped in self._maps.values():
            mapped.close()
        self._maps.clear()


# ---------------------------------------------------------------------------
# The canonical per-state frame codec
# ---------------------------------------------------------------------------

class StateCodec(WireCodec):
    """Self-contained canonical frames for single states.

    Unlike the session wire codec (token/delta streams whose encoding
    depends on dispatch history), every frame here is a pure function of
    the state and the store-creation snapshot: facts sorted by the
    run-independent ``TermTable.sort_key``, post-snapshot terms carried
    as by-value definitions in reference order, strings ``sys.intern``-ed
    so pickle's identity memo behaves identically in every process.
    Equal states therefore produce byte-identical frames — dedup by
    digest + byte compare *is* state equality — and frames written by a
    crashed run stay canonical after a checkpoint resume.
    """

    def _ref(self, code: int, defs: List[Any],
             def_index: Dict[int, int]) -> int:
        if code < self.snapshot_size:
            return code
        found = def_index.get(code)
        if found is None:
            table = self.kernel.table
            term = table.term(code)
            if table.is_call(code):
                arg_refs = tuple(
                    self._ref(table.code(arg), defs, def_index)
                    for arg in term.args)
                payload = ("c", sys.intern(term.function), arg_refs)
            else:
                value = sys.intern(term) if type(term) is str else term
                payload = ("v", value)
            found = len(defs)
            defs.append(payload)
            def_index[code] = found
        return self.snapshot_size + found

    def _canonical_facts(self, instance: Instance):
        # Facts recur across states, so the (sort-key-of-relation,
        # sort-keys-of-codes) tuple is memoized per coded fact — the
        # cache is bounded by the distinct facts of the run, like the
        # kernel's own coded-fact memos.
        keys = self.__dict__.setdefault("_fact_sort_keys", {})
        sort_key = self.kernel.table.sort_key

        def fact_key(fact):
            found = keys.get(fact)
            if found is None:
                found = (sort_key(fact[0]),
                         tuple(sort_key(code) for code in fact[1]))
                keys[fact] = found
            return found

        return sorted(self.kernel.coded_fact_set(instance), key=fact_key)

    def encode_state(self, state: State) -> bytes:
        if isinstance(state, DetState):
            kind, instance, call_map = "d", state.instance, state.call_map
        else:
            kind, instance, call_map = "i", state, ()
        defs: List[Any] = []
        def_index: Dict[int, int] = {}
        ref = self._ref
        facts = tuple(
            (ref(relation, defs, def_index),
             tuple(ref(code, defs, def_index) for code in codes))
            for relation, codes in self._canonical_facts(instance))
        coded_map = self._encode_map(call_map, defs, def_index)
        return frames.dumps((kind, facts, coded_map, defs))

    def decode_state(self, frame: bytes) -> State:
        kind, facts, coded_map, defs = frames.loads(frame)
        resolved = self._resolve_defs(defs)
        resolve = self._resolve
        coded_facts = frozenset(
            (resolve(relation, resolved),
             tuple(resolve(code, resolved) for code in codes))
            for relation, codes in facts)
        instance = self.kernel._intern_coded_instance(coded_facts)
        if kind == "i":
            return instance
        return DetState(instance, self._decode_map(coded_map, resolved))


# ---------------------------------------------------------------------------
# The paged state store
# ---------------------------------------------------------------------------

class PagedStore:
    """States as canonical frames in append-only pages + a hot LRU.

    Only fingerprints stay unconditionally resident: a 16-byte digest
    and a page ref per state (the ``index`` account). Live objects pass
    through the budgeted ``hot`` LRU and rehydrate from their page on
    demand. ``adopt_frame`` ingests frames already written by the
    checkpoint layer without re-encoding.

    Frame encoding is *lazy*: a newly interned state stays a hot live
    object and its canonical frame is produced only when something
    actually needs the bytes — eviction under budget pressure (the
    spill), ``raw_frame`` (checkpointing, dedup byte-confirmation), or a
    digest probe while adopted checkpoint frames are not yet hash-mapped.
    Under an ample budget nothing evicts, so the store's steady-state
    cost is hash-map bookkeeping, not per-state encodes. Dedup through
    ``hash(state)`` + object equality *is* state equality, so laziness
    never changes what gets interned.
    """

    backend = "paged"

    def __init__(self, kernel, budget: MemoryBudget,
                 directory: Optional[str] = None,
                 page_bytes: int = PAGE_BYTES):
        self.kernel = kernel
        self.budget = budget
        self.codec = StateCodec(kernel, len(kernel.table))
        self._own_dir = directory is None
        self.directory = directory or tempfile.mkdtemp(
            prefix="repro-store-")
        self._pages = _PageSet(self.directory, page_bytes)
        self._digests: Dict[bytes, int] = {}
        self._by_hash: Dict[int, Any] = {}  # hash(state) -> sid | [sids]
        self._page_of = array("q")  # -1 while the frame is unwritten
        self._offset_of = array("q")
        self._length_of = array("q")
        self._hashed = bytearray()  # per sid: in _by_hash yet?
        self._unhashed = 0  # adopted frames not yet hash-mapped
        self._frame_len_est = 256  # EMA of flushed frame lengths
        self._hot: "OrderedDict[int, State]" = OrderedDict()
        self._hot_costs: Dict[int, int] = {}
        self._hot_limit = budget.limit("hot")
        self._hot_lru_live = False
        self.rehydrations = 0
        self.dedup_checks = 0
        self.frontier_cold_peak = 0
        self._finalizer = weakref.finalize(
            self, _release_store, self._pages,
            self.directory if self._own_dir else None)

    # -- internals ---------------------------------------------------------

    def rebase_snapshot(self, snapshot_size: int) -> None:
        """Re-anchor the codec on a restored checkpoint's snapshot size
        (must happen before any state is interned)."""
        if len(self):
            raise ReproError(
                "cannot rebase a store that already holds states")
        self.codec.snapshot_size = snapshot_size

    def _hot_insert(self, sid: int, state: State, frame_len: int) -> None:
        cost = max(HOT_BYTES_FLOOR, HOT_BYTES_FACTOR * frame_len)
        budget = self.budget
        hot = self._hot
        charged = budget.charged
        limit = self._hot_limit
        # Shed *before* charging — against both the hot share and the
        # summed total, so index/edge growth squeezes the hot cache and
        # the charged level never overshoots the enforcement target.
        while len(hot) > 1 and (
                charged.get("hot", 0) + cost > limit
                or budget._level + cost > budget.enforce_total):
            old_sid, old_state = hot.popitem(last=False)
            if self._page_of[old_sid] < 0:
                # The spill: the evicted state's canonical frame is
                # encoded here, under budget pressure, not at intern.
                self._flush(old_sid, old_state)
            budget.release("hot", self._hot_costs.pop(old_sid))
            budget.note_eviction("hot")
        hot[sid] = state
        self._hot_costs[sid] = cost
        budget.charge("hot", cost)
        self._hot_lru_live = 2 * charged["hot"] >= limit

    def _reserve(self) -> int:
        sid = len(self._page_of)
        self._page_of.append(-1)
        self._offset_of.append(0)
        self._length_of.append(0)
        self._hashed.append(1)
        # Index charge: digest bytes object (~49) + dict slot (~104) +
        # the three array cells (24) — honest CPython sizes, so the
        # recorded charge tracks what the index really costs.
        self.budget.charge("index", 176)
        return sid

    def _write(self, sid: int, frame: bytes, digest: bytes) -> None:
        if digest in self._digests:
            raise ReproError(
                "state digest collision in the paged store (two "
                "distinct states share a 128-bit fingerprint)")
        page, offset, length = self._pages.append(frame)
        self._page_of[sid] = page
        self._offset_of[sid] = offset
        self._length_of[sid] = length
        self._digests[digest] = sid
        self._frame_len_est = (3 * self._frame_len_est + length) // 4

    def _flush(self, sid: int, state: State) -> bytes:
        frame = self.codec.encode_state(state)
        self._write(sid, frame,
                    hashlib.blake2b(frame, digest_size=16).digest())
        return frame

    def raw_frame(self, sid: int) -> bytes:
        if self._page_of[sid] < 0:
            # Unwritten implies hot (eviction always flushes first).
            return self._flush(sid, self._hot[sid])
        return self._pages.read(self._page_of[sid], self._offset_of[sid],
                                self._length_of[sid])

    def _hash_insert(self, state_hash: int, sid: int) -> None:
        bucket = self._by_hash.get(state_hash)
        if bucket is None:
            self._by_hash[state_hash] = sid
            self.budget.charge("index", 132)
        elif type(bucket) is list:
            bucket.append(sid)
            self.budget.charge("index", 64)
        else:
            self._by_hash[state_hash] = [bucket, sid]
            self.budget.charge("index", 196)
        if not self._hashed[sid]:
            self._hashed[sid] = 1
            self._unhashed -= 1

    def _hash_candidates(self, state: State):
        bucket = self._by_hash.get(hash(state))
        if bucket is None:
            return ()
        return bucket if type(bucket) is list else (bucket,)

    # -- the store interface ----------------------------------------------

    def intern(self, state: State) -> Tuple[int, bool]:
        # Dedup fast path: hash + object equality is exactly state
        # equality, and every live-interned state is hash-mapped, so a
        # duplicate candidate never pays a canonical-frame encode.
        state_hash = hash(state)
        for sid in self._hash_candidates(state):
            if self.fetch(sid) == state:
                self.dedup_checks += 1
                return sid, False
        if self._unhashed:
            # Adopted checkpoint frames not yet rehydrated can only be
            # matched through the digest map, so this path (eagerly
            # encoding the candidate) stays on until every adopted frame
            # has been fetched and hash-mapped.
            frame = self.codec.encode_state(state)
            digest = hashlib.blake2b(frame, digest_size=16).digest()
            found = self._digests.get(digest)
            if found is not None:
                self.dedup_checks += 1
                if self.raw_frame(found) != frame:
                    raise ReproError(
                        "state digest collision in the paged store (two "
                        "distinct states share a 128-bit fingerprint)")
                self._hash_insert(state_hash, found)
                return found, False
            sid = self._reserve()
            self._write(sid, frame, digest)
            self._hash_insert(state_hash, sid)
            self._hot_insert(sid, state, len(frame))
            return sid, True
        sid = self._reserve()
        self._hash_insert(state_hash, sid)
        self._hot_insert(sid, state, self._frame_len_est)
        return sid, True

    def adopt_frame(self, frame: bytes) -> Tuple[int, bool]:
        """Ingest an already-canonical frame (checkpoint resume) without
        re-encoding; the decoded object stays cold until fetched."""
        digest = hashlib.blake2b(frame, digest_size=16).digest()
        found = self._digests.get(digest)
        if found is not None:
            return found, False
        sid = self._reserve()
        self._write(sid, frame, digest)
        self._hashed[sid] = 0
        self._unhashed += 1
        return sid, True

    def fetch(self, sid: int) -> State:
        found = self._hot.get(sid)
        if found is not None:
            if self._hot_lru_live:
                self._hot.move_to_end(sid)
            return found
        frame = self.raw_frame(sid)
        state = self.codec.decode_state(frame)
        self.rehydrations += 1
        if not self._hashed[sid]:
            self._hash_insert(hash(state), sid)
        self._hot_insert(sid, state, len(frame))
        return state

    def contains(self, state: State) -> bool:
        for sid in self._hash_candidates(state):
            found = self._hot.get(sid)
            if found is None:
                found = self.codec.decode_state(self.raw_frame(sid))
            if found == state:
                return True
        if self._unhashed:
            frame = self.codec.encode_state(state)
            digest = hashlib.blake2b(frame, digest_size=16).digest()
            found = self._digests.get(digest)
            return found is not None and self.raw_frame(found) == frame
        return False

    def __len__(self) -> int:
        return len(self._page_of)

    def note_frontier_cold(self, cold: int) -> None:
        if cold > self.frontier_cold_peak:
            self.frontier_cold_peak = cold

    def hot_count(self) -> int:
        return len(self._hot)

    def stats_dict(self) -> Dict[str, Any]:
        found = {
            "backend": self.backend,
            "states": len(self),
            "pages_written": self._pages.pages_written,
            "bytes_written": self._pages.bytes_written,
            "page_reads": self._pages.reads,
            "bytes_read": self._pages.bytes_read,
            "rehydrations": self.rehydrations,
            "dedup_checks": self.dedup_checks,
            "hot_states": len(self._hot),
            "unflushed_states": sum(
                1 for page in self._page_of if page < 0),
            "frontier_cold_peak": self.frontier_cold_peak,
        }
        found.update(self.budget.stats_dict())
        return found

    def close(self) -> None:
        self._finalizer()


def _release_store(pages: _PageSet, directory: Optional[str]) -> None:
    pages.close()
    if directory is not None:
        shutil.rmtree(directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# A transition system backed by the store
# ---------------------------------------------------------------------------

def _instance_of(state: State) -> Instance:
    return state.instance if isinstance(state, DetState) else state


def _lazy_field(backing: str):
    """Property pair for the base dataclass fields: reads materialize,
    writes (the dataclass ``__init__``, restorers) go to the backing."""

    def get(self):
        if not self.__dict__.get("_materialized", True):
            self._materialize()
        return self.__dict__[backing]

    def set(self, value):
        self.__dict__[backing] = value

    return property(get, set)


class StoredTransitionSystem(TransitionSystem):
    """A :class:`TransitionSystem` whose states live in a state store.

    During exploration only the id-level core is resident: the store's
    fingerprints/pages, columnar edge arrays with interned labels, and a
    truncated-id set. Every inherited object-level accessor transparently
    *materializes* first — rehydrating all states in discovery order into
    the base ``_db``/``_edges``, which is bit-identical to the in-RAM
    build by construction. Id-level overrides (``__len__``, ``stats``,
    ``edge_count``, ``values`` …) answer without materializing, so a
    ``keep_ts=False`` verification never inflates the full object graph.
    """

    _db = _lazy_field("_db_data")
    _edges = _lazy_field("_edges_data")
    truncated_states = _lazy_field("_trunc_data")

    def __init__(self, schema, initial: State, store: PagedStore,
                 name: str = ""):
        self.__dict__["_materialized"] = True  # plain until store set
        TransitionSystem.__init__(self, schema, initial, name=name)
        self.store = store
        self.__dict__["_materialized"] = False
        self._truncated_ids: set = set()
        self._edge_src = array("q")
        self._edge_dst = array("q")
        self._edge_label = array("q")
        self._labels: List[Optional[str]] = []
        self._label_codes: Dict[Optional[str], int] = {}
        self._cur_src = -1
        self._cur_seen: set = set()
        self._edge_budget = getattr(store, "budget", None)

    # -- id-level construction (used by the explorer) ----------------------

    def intern_state(self, state: State, instance: Optional[Instance] = None
                     ) -> Tuple[int, bool]:
        sid, is_new = self.store.intern(state)
        if is_new:
            (instance if instance is not None
             else _instance_of(state)).validate(self.schema)
        return sid, is_new

    def add_edge_id(self, source: int, target: int,
                    label: Optional[str]) -> None:
        code = self._label_codes.get(label)
        if code is None:
            code = len(self._labels)
            self._label_codes[label] = code
            self._labels.append(label)
        if source != self._cur_src:
            # Sources are expanded once, in id order — edges arrive
            # grouped by source, so set-dedup (base ``_edges`` is a set)
            # only needs the current group.
            self._cur_src = source
            self._cur_seen = set()
        key = (code, target)
        if key in self._cur_seen:
            return
        self._cur_seen.add(key)
        self._edge_src.append(source)
        self._edge_dst.append(target)
        self._edge_label.append(code)
        if self._edge_budget is not None:
            # Three 8-byte array cells: the edge arrays grow with the
            # result and are charged (not evictable) like the index.
            self._edge_budget.charge("index", 24)

    def mark_truncated_id(self, sid: int) -> None:
        self._truncated_ids.add(sid)

    def fetch(self, sid: int) -> State:
        return self.store.fetch(sid)

    # -- materialization ---------------------------------------------------

    def _materialize(self) -> None:
        self.__dict__["_materialized"] = True
        store = self.store
        db = self.__dict__["_db_data"]
        edges = self.__dict__["_edges_data"]
        states = [store.fetch(sid) for sid in range(len(store))]
        for state in states:
            db[state] = _instance_of(state)
            edges.setdefault(state, set())
        labels = self._labels
        for position in range(len(self._edge_src)):
            edges[states[self._edge_src[position]]].add(
                (labels[self._edge_label[position]],
                 states[self._edge_dst[position]]))
        self.__dict__["_trunc_data"].update(
            states[sid] for sid in self._truncated_ids)

    @property
    def materialized(self) -> bool:
        return self.__dict__["_materialized"]

    # -- id-level accessors (no materialization) ---------------------------

    def __len__(self) -> int:
        if self.materialized:
            return len(self.__dict__["_db_data"])
        return len(self.store)

    def __contains__(self, state: State) -> bool:
        if self.materialized:
            return state in self.__dict__["_db_data"]
        return self.store.contains(state)

    def db(self, state: State) -> Instance:
        if not self.materialized and isinstance(state, (DetState, Instance)):
            # The instance is derivable from the state itself — exactly
            # what add_state stores for these state shapes.
            return _instance_of(state)
        return super().db(state)

    def edge_count(self) -> int:
        if self.materialized:
            return super().edge_count()
        return len(self._edge_src)

    def is_total(self) -> bool:
        if self.materialized:
            return super().is_total()
        with_edges = len(set(self._edge_src))
        return with_edges == len(self.store)

    def _stream_instances(self) -> Iterator[Instance]:
        store = self.store
        for sid in range(len(store)):
            yield _instance_of(store.fetch(sid))

    def values(self):
        if self.materialized:
            return super().values()
        found: set = set()
        for instance in self._stream_instances():
            found |= instance.active_domain()
        return frozenset(found)

    adom = values

    def max_state_size(self) -> int:
        if self.materialized:
            return super().max_state_size()
        return max((len(instance.active_domain())
                    for instance in self._stream_instances()), default=0)

    def stats_truncated(self) -> int:
        if self.materialized:
            return len(self.__dict__["_trunc_data"])
        return len(self._truncated_ids)

    def stats(self) -> Dict[str, Any]:
        if self.materialized:
            return super().stats()
        # One streaming pass through the bounded hot LRU — a
        # keep_ts=False verification reads these without ever holding
        # the full object graph.
        values: set = set()
        max_adom = 0
        for instance in self._stream_instances():
            adom = instance.active_domain()
            values |= adom
            if len(adom) > max_adom:
                max_adom = len(adom)
        return {
            "states": len(self),
            "edges": self.edge_count(),
            "values": len(values),
            "max_adom": max_adom,
            "truncated": self.stats_truncated(),
            "total": self.is_total(),
        }
