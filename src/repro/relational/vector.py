"""Vectorized columnar execution of compiled join plans.

:mod:`repro.fol.compile` evaluates a :class:`~repro.fol.compile.
CompiledQuery` tuple-at-a-time: a backtracking join that extends one
register list per candidate tuple. This module executes the *same* compiled
node tree batched: the working set is a ``(rows, n_slots)`` numpy int64
matrix of register rows (``UNBOUND`` = -1), and every node maps a matrix to
the matrix of all its extensions with whole-relation operations — constant
masks, sort-merge semi-joins on slot columns, batched ``_pad`` domain
expansion. The per-relation columns come from
:meth:`~repro.relational.coding.CodedInstance.columns`.

Semantics contract: identical to the interpreted plan *as a set of
bindings* (the documented compiled-query contract — every consumer
deduplicates, sorts, or checks existence), which the differential battery
in ``tests/test_vector.py`` pins against both the interpreted kernel path
and the reference evaluator.

Backend selection is automatic and per call:

* numpy absent — the interpreted kernel path runs, unchanged;
* ``REPRO_NO_VECTOR=1`` — kill switch, same fallback;
* a row-budget overflow (:data:`MAX_ROWS`) or tiny instances below
  :data:`MIN_TUPLES` — the batched execution would lose to its own
  constant factors, so the caller falls back per evaluation.

Every entry point returns ``None`` to request the interpreted fallback
rather than raising, so callers need no numpy-conditional code.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - which arm runs depends on the install
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro import env
from repro.errors import ReproError
from repro.fol.compile import (
    CompiledQuery, _And, _Atom, _Eq, _Exists, _False, _Forall, _Node, _Not,
    _Or, _True)
from repro.relational.coding import UNBOUND, CodedInstance

#: Hard cap on the working-set row count of one evaluation. A blowup past
#: this (cross products of wide domains) would materialize what the
#: interpreted path streams; the evaluation aborts and the caller falls
#: back.
MAX_ROWS = 2_000_000

#: Instances with fewer total tuples than this take the interpreted path:
#: at that size the per-call numpy overhead (array construction, unique,
#: searchsorted) exceeds the whole backtracking join.
MIN_TUPLES = 24

#: Frontier blocks warming fewer distinct instances than this skip the
#: batched pass: stacking/splitting two or three groups costs about as
#: much as the per-state calls it would replace.
MIN_BATCH_GROUPS = 4

#: ... and blocks whose distinct instances stack fewer total tuples than
#: this skip it too: a batched numpy call must bring at least as much
#: work as ``MIN_BATCH_GROUPS`` per-state calls each worth vectorizing,
#: else the per-call constants eat the amortization (thin-instance
#: families like ``chain``/``blowup`` land here and honestly show ~1x).
MIN_BATCH_TUPLES = MIN_TUPLES * MIN_BATCH_GROUPS

#: Adaptive per-plan backoff (see ``binding_matrix``): a vector evaluation
#: counts as a *loss* when its wall time exceeds the interpreted-path
#: estimate ``BACKOFF_NS_PER_TUPLE * (tuples + rows)``; after
#: ``BACKOFF_AFTER`` consecutive losses the plan is pinned to the
#: interpreted backend for the rest of the kernel's life.
BACKOFF_AFTER = 12
BACKOFF_NS_PER_TUPLE = 1200


class VectorUnsupported(ReproError):
    """The evaluation cannot (or should not) run vectorized."""


def numpy_available() -> bool:
    """Numpy importable."""
    return _np is not None


def vector_enabled() -> bool:
    """The vector backend switch, read per call (cheap at per-evaluation
    granularity) so tests can flip ``REPRO_NO_VECTOR`` on a kernel that
    is already built."""
    return numpy_available() and not env.vector_disabled()


def require_numpy():
    if _np is None:
        raise VectorUnsupported("numpy is not available")
    return _np


def _total_tuples(coded: CodedInstance) -> int:
    cache = coded.vector_cache()
    found = cache.get("total_tuples")
    if found is None:
        found = sum(len(tuples) for tuples in coded.by_relation.values())
        cache["total_tuples"] = found
    return found


def worth_vectorizing(coded: CodedInstance) -> bool:
    """Size heuristic: batched execution only pays on instances with
    enough tuples to amortize the per-call numpy constants."""
    return _total_tuples(coded) >= MIN_TUPLES


# ---------------------------------------------------------------------------
# Join primitives
# ---------------------------------------------------------------------------

def _encode_keys(left, right):
    """Join keys for two ``(n, k)`` arrays under row equality: equal rows
    get equal keys.

    Preferred path is arithmetic packing — one lexicographic-monotone
    int64 per row (codes are small dense ints, so the mixed-radix product
    rarely overflows); it needs no sort of either side. The fallback for
    huge value ranges is ``np.unique(axis=0)`` over the stacked rows,
    which pays a void-dtype argsort."""
    np = _np
    l_keys, r_keys = _pack_rows(left, right)
    if l_keys is not None:
        return l_keys, r_keys
    combined = np.concatenate([left, right], axis=0)
    _, inverse = np.unique(combined, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)  # numpy 2.x returns the original shape
    return inverse[: len(left)], inverse[len(left):]


def _pack_rows(left, right):
    """Mixed-radix row keys of two ``(n, k)`` arrays, or ``(None, None)``
    when the per-column ranges could overflow int64. Values are shifted by
    one so ``UNBOUND`` (-1) packs cleanly; packing preserves row
    lexicographic order."""
    np = _np
    k = left.shape[1]
    radixes = []
    for column in range(k):
        high = 0
        if len(left):
            high = max(high, int(left[:, column].max()))
        if len(right):
            high = max(high, int(right[:, column].max()))
        radixes.append(high + 2)
    total = 1
    for radix in radixes:
        total *= radix
        if total > (1 << 62):
            return None, None

    def pack(rows):
        if not len(rows):
            return np.empty(0, dtype=np.int64)
        key = rows[:, 0] + 1
        for column in range(1, k):
            key = key * radixes[column] + (rows[:, column] + 1)
        return key

    return pack(left), pack(right)


def _sorted_unique(values):
    """The distinct entries of a 1-D array, or the distinct rows of a 2-D
    one, in (lexicographic) order: ``np.unique(values)`` and
    ``np.unique(values, axis=0)``. Those flag-less calls import
    ``numpy.ma`` on numpy 2.x (to check ``np.ma.is_masked``); a sort plus
    a neighbour-inequality mask does not."""
    np = _np
    if not len(values):
        return values
    if values.ndim == 1:
        ordered = np.sort(values)
        differs = ordered[1:] != ordered[:-1]
    else:
        ordered = values[np.lexsort(values.T[::-1])]
        differs = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[np.concatenate(([True], differs))]


def _join_ids(b_ids, t_ids):
    """All matching pairs of two 1-D id arrays (sort-merge expansion).

    Returns parallel index arrays ``(row_sel, tuple_sel)`` with
    ``b_ids[row_sel[i]] == t_ids[tuple_sel[i]]`` covering every match,
    row-major in ``b_ids`` order."""
    np = _np
    order = np.argsort(t_ids, kind="stable")
    sorted_ids = t_ids[order]
    lo = np.searchsorted(sorted_ids, b_ids, side="left")
    hi = np.searchsorted(sorted_ids, b_ids, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total > MAX_ROWS:
        raise VectorUnsupported(f"join produces {total} rows")
    row_sel = np.repeat(np.arange(len(b_ids)), counts)
    if total == 0:
        return row_sel, row_sel.copy()
    starts = np.repeat(lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                           counts)
    return row_sel, order[starts + offsets]


def _member_rows(probe, tuples):
    """Boolean mask: which rows of ``probe`` occur as rows of ``tuples``."""
    np = _np
    if probe.shape[1] == 0:
        return np.full(len(probe), bool(len(tuples)))
    if probe.shape[1] == 1:
        p_ids, t_ids = probe[:, 0], tuples[:, 0]
    else:
        p_ids, t_ids = _encode_keys(probe, tuples)
    # Sort only the (small) relation side; probes stay unsorted.
    table = np.sort(t_ids)
    if not len(table):
        return np.zeros(len(probe), dtype=bool)
    position = np.searchsorted(table, p_ids)
    position[position == len(table)] = len(table) - 1
    return table[position] == p_ids


# Per-(atom, instance) columnar info: tuples filtered by the atom's
# constants and intra-atom duplicate-slot equalities, projected to the
# first-occurrence column of each distinct slot. Cached on the coded
# instance (plan nodes are kernel-owned, so ids are stable while the
# kernel — and with it the instance cache — is alive). Shared by the
# per-instance executor and the frontier-batch executor, so a block warm
# and a later per-state evaluation reuse one filtered projection.
def _atom_info_for(coded: CodedInstance, node: _Atom):
    cache = coded.vector_cache()
    key = ("atom", id(node))
    found = cache.get(key)
    if found is None:
        np = _np
        columns = coded.columns(node.relation)
        if columns is None:
            found = (None, ())
        else:
            mask = np.ones(len(columns), dtype=bool)
            first_position: Dict[int, int] = {}
            for position, (is_const, value) in enumerate(node.specs):
                if is_const:
                    mask &= columns[:, position] == value
                else:
                    first = first_position.get(value)
                    if first is None:
                        first_position[value] = position
                    else:
                        mask &= columns[:, position] \
                            == columns[:, first]
            slots = tuple(first_position)
            filtered = columns[mask] if not mask.all() else columns
            values = filtered[:, [first_position[slot]
                                  for slot in slots]] \
                if slots else filtered[:, :0]
            found = (values, slots)
        cache[key] = found
    return found


# ---------------------------------------------------------------------------
# The batched evaluator
# ---------------------------------------------------------------------------

class _Executor:
    """Evaluates one compiled node tree over one coded instance, batched.

    ``bindings(node, regs)`` maps a register matrix to ``(extended,
    parent)`` where ``parent[i]`` is the input row that produced output row
    ``i`` (the batched twin of ``iter_bindings``); ``holds(node, regs)``
    decides closed truth per row (the twin of ``holds``).
    """

    __slots__ = ("coded", "domain", "stats")

    def __init__(self, coded: CodedInstance, domain: FrozenSet[int],
                 stats: Optional[Dict[str, int]] = None):
        self.coded = coded
        self.domain = _np.fromiter(sorted(domain), dtype=_np.int64,
                                   count=len(domain))
        self.stats = stats

    # -- bindings -----------------------------------------------------------

    def bindings(self, node: _Node, regs):
        np = _np
        n = len(regs)
        if n == 0:
            return regs, np.empty(0, dtype=np.intp)
        if isinstance(node, _Atom):
            return self._atom_bindings(node, regs)
        if isinstance(node, _And):
            parent = np.arange(n, dtype=np.intp)
            for sub in node.ordered:
                regs, step = self.bindings(sub, regs)
                parent = parent[step]
                if not len(regs):
                    break
            return regs, parent
        if isinstance(node, _Eq):
            return self._eq_bindings(node, regs)
        if isinstance(node, _Exists):
            if node.vacuous:
                vacuous = self._vacuous_mask(regs)
                if vacuous is not None:
                    keep = np.nonzero(~vacuous)[0]
                    extended, parent = self.bindings(node.sub, regs[keep])
                    return extended, keep[parent]
            return self.bindings(node.sub, regs)
        if isinstance(node, _Not):
            padded, parent = self._pad(node.free, regs)
            keep = ~self.holds(node.sub, padded)
            return padded[keep], parent[keep]
        if isinstance(node, _Forall):
            padded, parent = self._pad(node.free, regs)
            keep = ~self.holds(node.neg_exists, padded)
            return padded[keep], parent[keep]
        if isinstance(node, _Or):
            parts, parents = [], []
            for sub, others in node.children:
                extended, parent = self.bindings(sub, regs)
                extended, padded_parent = self._pad(others, extended)
                parts.append(extended)
                parents.append(parent[padded_parent])
            return (np.concatenate(parts),
                    np.concatenate(parents))
        if isinstance(node, _True):
            return regs, np.arange(n, dtype=np.intp)
        if isinstance(node, _False):
            return self._empty(regs)
        raise VectorUnsupported(f"cannot vectorize node {node!r}")

    def _empty(self, regs):
        np = _np
        return regs[:0], np.empty(0, dtype=np.intp)

    def _budget(self, total: int) -> None:
        if total > MAX_ROWS:
            raise VectorUnsupported(f"working set of {total} rows")
        if self.stats is not None and total > self.stats.get("rows_peak", 0):
            self.stats["rows_peak"] = total

    def _atom_info(self, node: _Atom):
        return _atom_info_for(self.coded, node)

    def _vacuous_mask(self, regs):
        """Per-row mask marking rows whose evaluation domain is empty (a
        vacuous ``Exists`` is false there), or ``None`` when no row
        qualifies. The batch executor overrides this with a per-group
        decision."""
        if len(self.domain):
            return None
        return _np.ones(len(regs), dtype=bool)

    def _expand_domain(self, regs, rows, slots: Sequence[int]):
        """Cross ``rows`` (indexes into ``regs``) with the evaluation
        domain: every input row repeats once per domain value, with every
        slot in ``slots`` set to that value. Returns ``(extended,
        row_sel)`` with ``row_sel[i]`` the ``regs`` index output row ``i``
        came from. The batch executor overrides this with per-group
        domains."""
        np = _np
        d = len(self.domain)
        self._budget(len(rows) * d)
        extended = np.repeat(regs[rows], d, axis=0)
        assigned = np.tile(self.domain, len(rows))
        for slot in slots:
            extended[:, slot] = assigned
        return extended, np.repeat(rows, d)

    def _atom_bindings(self, node: _Atom, regs):
        np = _np
        values, slots = self._atom_info(node)
        if values is None or not len(values):
            return self._empty(regs)
        if not slots:
            # Constants only: each row survives iff any tuple matched.
            return regs, np.arange(len(regs), dtype=np.intp)
        k = len(slots)
        slot_list = list(slots)
        bound = regs[:, slot_list] != UNBOUND
        patterns = bound.astype(np.int64) @ (1 << np.arange(k,
                                                            dtype=np.int64))
        parts, parents = [], []
        for pattern in _sorted_unique(patterns):
            rows = np.nonzero(patterns == pattern)[0]
            batch = regs[rows]
            bound_cols = [i for i in range(k) if (int(pattern) >> i) & 1]
            free_cols = [i for i in range(k) if not (int(pattern) >> i) & 1]
            if bound_cols:
                if len(bound_cols) == 1:
                    b_ids = batch[:, slots[bound_cols[0]]]
                    t_ids = values[:, bound_cols[0]]
                else:
                    b_ids, t_ids = _encode_keys(
                        batch[:, [slots[c] for c in bound_cols]],
                        values[:, bound_cols])
                row_sel, tuple_sel = _join_ids(b_ids, t_ids)
            else:
                total = len(rows) * len(values)
                self._budget(total)
                row_sel = np.repeat(np.arange(len(rows)), len(values))
                tuple_sel = np.tile(np.arange(len(values)), len(rows))
            extended = batch[row_sel]
            for column in free_cols:
                extended[:, slots[column]] = values[tuple_sel, column]
            parts.append(extended)
            parents.append(rows[row_sel])
        result = np.concatenate(parts)
        self._budget(len(result))
        return result, np.concatenate(parents).astype(np.intp, copy=False)

    def _eq_bindings(self, node: _Eq, regs):
        np = _np
        n = len(regs)
        l_const, l_value = node.left
        r_const, r_value = node.right
        left = np.full(n, l_value, dtype=np.int64) if l_const \
            else regs[:, l_value]
        right = np.full(n, r_value, dtype=np.int64) if r_const \
            else regs[:, r_value]
        left_bound = left != UNBOUND
        right_bound = right != UNBOUND
        parts, parents = [], []

        both = left_bound & right_bound
        if both.any():
            keep = np.nonzero(both & (left == right))[0]
            parts.append(regs[keep])
            parents.append(keep)
        bind_right = left_bound & ~right_bound
        if bind_right.any():  # right side must be a slot (consts are bound)
            rows = np.nonzero(bind_right)[0]
            extended = regs[rows].copy()
            extended[:, r_value] = left[rows]
            parts.append(extended)
            parents.append(rows)
        bind_left = ~left_bound & right_bound
        if bind_left.any():
            rows = np.nonzero(bind_left)[0]
            extended = regs[rows].copy()
            extended[:, l_value] = right[rows]
            parts.append(extended)
            parents.append(rows)
        neither = ~left_bound & ~right_bound
        if neither.any():  # enumerate one shared value over the domain
            rows = np.nonzero(neither)[0]
            extended, row_sel = self._expand_domain(
                regs, rows, (l_value, r_value))
            parts.append(extended)
            parents.append(row_sel)
        if not parts:
            return self._empty(regs)
        return (np.concatenate(parts),
                np.concatenate(parents).astype(np.intp, copy=False))

    def _pad(self, slots: Sequence[int], regs):
        """Batched ``_pad``: expand every still-unbound slot over the
        domain (rows keep their identity through ``parent``)."""
        np = _np
        parent = np.arange(len(regs), dtype=np.intp)
        for slot in slots:
            if not len(regs):
                break
            unbound = regs[:, slot] == UNBOUND
            if not unbound.any():
                continue
            rows = np.nonzero(unbound)[0]
            expanded, row_sel = self._expand_domain(regs, rows, (slot,))
            regs = np.concatenate([regs[~unbound], expanded])
            parent = np.concatenate([parent[~unbound], parent[row_sel]])
            self._budget(len(regs))
        return regs, parent

    # -- holds --------------------------------------------------------------

    def holds(self, node: _Node, regs):
        np = _np
        n = len(regs)
        if isinstance(node, _Atom):
            return self._atom_holds(node, regs)
        if isinstance(node, _And):
            mask = np.ones(n, dtype=bool)
            for sub in node.original:
                mask &= self.holds(sub, regs)
                if not mask.any():
                    break
            return mask
        if isinstance(node, _Or):
            mask = np.zeros(n, dtype=bool)
            for sub, _ in node.children:
                mask |= self.holds(sub, regs)
                if mask.all():
                    break
            return mask
        if isinstance(node, _Not):
            return ~self.holds(node.sub, regs)
        if isinstance(node, _Eq):
            return self._eq_holds(node, regs)
        if isinstance(node, _Exists):
            vacuous = self._vacuous_mask(regs) if node.vacuous else None
            _, parent = self.bindings(node.sub, regs)
            mask = np.zeros(n, dtype=bool)
            mask[parent] = True
            if vacuous is not None:
                mask &= ~vacuous
            return mask
        if isinstance(node, _Forall):
            return ~self.holds(node.neg_exists, regs)
        if isinstance(node, _True):
            return np.ones(n, dtype=bool)
        if isinstance(node, _False):
            return np.zeros(n, dtype=bool)
        raise VectorUnsupported(f"cannot vectorize node {node!r}")

    def _atom_holds(self, node: _Atom, regs):
        np = _np
        n = len(regs)
        specs = node.specs
        resolved = np.empty((n, len(specs)), dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        for position, (is_const, value) in enumerate(specs):
            if is_const:
                resolved[:, position] = value
            else:
                column = regs[:, value]
                resolved[:, position] = column
                # A tuple containing an unbound variable matches nothing
                # (reference semantics).
                ok &= column != UNBOUND
        columns = self.coded.columns(node.relation)
        if columns is None:
            return np.zeros(n, dtype=bool)
        return ok & _member_rows(resolved, columns)

    def _eq_holds(self, node: _Eq, regs):
        np = _np
        n = len(regs)
        l_const, l_value = node.left
        r_const, r_value = node.right
        left = np.full(n, l_value, dtype=np.int64) if l_const \
            else regs[:, l_value]
        right = np.full(n, r_value, dtype=np.int64) if r_const \
            else regs[:, r_value]
        left_bound = left != UNBOUND
        right_bound = right != UNBOUND
        mask = left_bound & right_bound & (left == right)
        if not l_const and not r_const and l_value == r_value:
            # Reference: an unbound variable equals itself, nothing else.
            mask |= ~left_bound & ~right_bound
        return mask


# ---------------------------------------------------------------------------
# The frontier-batch executor
# ---------------------------------------------------------------------------

class _BatchExecutor(_Executor):
    """Evaluates one compiled node tree over a *block* of coded instances
    in one pass.

    Register matrices carry one extra trailing column — ``gid_slot``, the
    index of the group (distinct frontier instance) a row belongs to. The
    trick that makes the whole inherited join machinery batch-correct
    unchanged: every atom's column block and every relation's raw tuple
    matrix get the group id appended as an extra column, and the gid slot
    joins like any other *always-bound* register. ``_encode_keys`` then
    folds the state id into the mixed-radix packed keys, so one sort-merge
    join per atom serves the whole frontier and rows never match across
    groups. Only three primitives see groups explicitly: atom column
    stacking, domain expansion (per-group domains, a gid sort-merge join
    against the stacked domain table), and the vacuous-``Exists`` mask
    (groups with empty domains).
    """

    __slots__ = ("codeds", "gid_slot", "domain_gids", "domain_values",
                 "_empty_gids", "_atom_cache", "_columns_cache")

    def __init__(self, codeds: Sequence[CodedInstance],
                 domains: Sequence[FrozenSet[int]], gid_slot: int,
                 stats: Optional[Dict[str, int]] = None):
        np = _np
        self.coded = None
        self.domain = None
        self.stats = stats
        self.codeds = codeds
        self.gid_slot = gid_slot
        self._atom_cache: Dict[int, tuple] = {}
        self._columns_cache: Dict[str, object] = {}
        gids, values, empty = [], [], []
        for gid, domain in enumerate(domains):
            if not domain:
                empty.append(gid)
                continue
            ordered = np.fromiter(sorted(domain), dtype=np.int64,
                                  count=len(domain))
            gids.append(np.full(len(ordered), gid, dtype=np.int64))
            values.append(ordered)
        self.domain_gids = np.concatenate(gids) if gids \
            else np.empty(0, dtype=np.int64)
        self.domain_values = np.concatenate(values) if values \
            else np.empty(0, dtype=np.int64)
        self._empty_gids = np.array(empty, dtype=np.int64)

    def _atom_info(self, node: _Atom):
        found = self._atom_cache.get(id(node))
        if found is None:
            np = _np
            parts, slots = [], None
            for gid, coded in enumerate(self.codeds):
                values, group_slots = _atom_info_for(coded, node)
                if values is None:
                    continue
                slots = group_slots  # a function of the node alone
                if not len(values):
                    continue
                parts.append(np.concatenate(
                    [values, np.full((len(values), 1), gid,
                                     dtype=np.int64)], axis=1))
            if slots is None:  # relation absent in every group
                found = (None, ())
            else:
                stacked = np.concatenate(parts) if parts \
                    else np.empty((0, len(slots) + 1), dtype=np.int64)
                found = (stacked, slots + (self.gid_slot,))
            self._atom_cache[id(node)] = found
            return found
        return found

    def _stacked_columns(self, relation):
        """Raw tuple matrix of ``relation`` across the block, gid column
        appended; ``None`` when the relation is empty everywhere."""
        if relation in self._columns_cache:
            return self._columns_cache[relation]
        np = _np
        parts = []
        for gid, coded in enumerate(self.codeds):
            columns = coded.columns(relation)
            if columns is None or not len(columns):
                continue
            parts.append(np.concatenate(
                [columns, np.full((len(columns), 1), gid,
                                  dtype=np.int64)], axis=1))
        found = np.concatenate(parts) if parts else None
        self._columns_cache[relation] = found
        return found

    def _atom_holds(self, node: _Atom, regs):
        np = _np
        n = len(regs)
        specs = node.specs
        tuples = self._stacked_columns(node.relation)
        if tuples is None:
            return np.zeros(n, dtype=bool)
        resolved = np.empty((n, len(specs) + 1), dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        for position, (is_const, value) in enumerate(specs):
            if is_const:
                resolved[:, position] = value
            else:
                column = regs[:, value]
                resolved[:, position] = column
                ok &= column != UNBOUND
        resolved[:, len(specs)] = regs[:, self.gid_slot]
        return ok & _member_rows(resolved, tuples)

    def _vacuous_mask(self, regs):
        if not len(self._empty_gids):
            return None
        return _np.isin(regs[:, self.gid_slot], self._empty_gids)

    def _expand_domain(self, regs, rows, slots: Sequence[int]):
        # Per-group domains: sort-merge join of each row's gid against the
        # stacked (gid, value) domain table.
        row_sel, dom_sel = _join_ids(regs[rows, self.gid_slot],
                                     self.domain_gids)
        self._budget(len(row_sel))
        extended = regs[rows][row_sel]
        assigned = self.domain_values[dom_sel]
        for slot in slots:
            extended[:, slot] = assigned
        return extended, rows[row_sel]


# ---------------------------------------------------------------------------
# Kernel-facing entry points (all return None to request fallback)
# ---------------------------------------------------------------------------

def binding_matrix(plan: CompiledQuery, coded: CodedInstance,
                   domain: FrozenSet[int],
                   regs: Optional[List[int]] = None,
                   stats: Optional[Dict[str, int]] = None):
    """All satisfying register rows as an ``(n, n_slots)`` int64 matrix,
    or ``None`` when the backend is off, the instance is too small, the
    plan has backed off to the interpreted backend, or the evaluation
    overflows its row budget (callers fall back to the interpreted join).

    Adaptive per-plan backoff: small plans over small instances can lose
    to the interpreted join even past :data:`MIN_TUPLES` (the numpy
    constants per call dwarf the work). Each evaluation is timed against
    the linear estimate ``BACKOFF_NS_PER_TUPLE * (tuples + answer rows)``;
    :data:`BACKOFF_AFTER` *consecutive* losses pin the plan (its
    ``backoff`` counter saturates) and later calls return ``None``
    immediately. A single win resets the streak. The estimate — not a
    trial run of the interpreted join — keeps the decision deterministic
    enough for the hot-path gate and costs nothing extra."""
    if not worth_vectorizing(coded) or not vector_enabled():
        return None
    if plan.backoff is not None and plan.backoff >= BACKOFF_AFTER:
        if stats is not None:
            stats["pin_skips"] = stats.get("pin_skips", 0) + 1
        return None
    np = _np
    base = np.array(
        [plan.fresh_regs() if regs is None else regs], dtype=np.int64)
    executor = _Executor(coded, domain, stats)
    started = time.perf_counter()
    try:
        matrix, _ = executor.bindings(plan.root, base)
    except VectorUnsupported:
        if stats is not None:
            stats["fallbacks"] = stats.get("fallbacks", 0) + 1
        return None
    elapsed = time.perf_counter() - started
    budget = BACKOFF_NS_PER_TUPLE * (
        _total_tuples(coded) + len(matrix)) * 1e-9
    if elapsed > budget:
        plan.backoff = (plan.backoff or 0) + 1
        if plan.backoff == BACKOFF_AFTER and stats is not None:
            stats["plans_pinned"] = stats.get("plans_pinned", 0) + 1
    else:
        plan.backoff = None
    return matrix


def distinct_projection(matrix, columns: Iterable[int]
                        ) -> List[Tuple[int, ...]]:
    """Distinct rows of ``matrix`` restricted to ``columns``, as Python
    int tuples in lexicographic order."""
    np = _np
    if not len(matrix):
        return []
    sub = matrix[:, list(columns)]
    if sub.shape[1] == 1:
        return [(code,) for code in _sorted_unique(sub[:, 0]).tolist()]
    keys, _ = _pack_rows(sub, sub[:0])
    if keys is not None:
        # Packing preserves lexicographic order, so key order = row order.
        _, first = np.unique(keys, return_index=True)
        distinct = sub[first]
    else:
        distinct = _sorted_unique(sub)
    return list(map(tuple, distinct.tolist()))


def binding_matrix_batch(plan: CompiledQuery,
                         codeds: Sequence[CodedInstance],
                         domains: Sequence[FrozenSet[int]],
                         regs: Optional[List[int]] = None,
                         stats: Optional[Dict[str, int]] = None):
    """All satisfying register rows of ``plan`` over a *block* of coded
    instances, as one ``(n, n_slots + 1)`` int64 matrix whose trailing
    column is the group id; split per group with :func:`split_by_group`.

    ``regs`` is the shared seed row (parameter bindings are kernel-global
    codes, so frontier siblings share it). The per-instance
    :data:`MIN_TUPLES` gate and plan backoff pins do not apply here —
    amortizing tiny per-state evaluations over the block is the point of
    batching; the caller gates on block *width* instead
    (:data:`MIN_BATCH_GROUPS`). Returns ``None`` to request the per-state
    fallback."""
    if not vector_enabled() or not codeds:
        return None
    np = _np
    gid_slot = plan.n_slots
    base = np.empty((len(codeds), gid_slot + 1), dtype=np.int64)
    base[:, :gid_slot] = np.array(
        [plan.fresh_regs() if regs is None else regs], dtype=np.int64)
    base[:, gid_slot] = np.arange(len(codeds), dtype=np.int64)
    executor = _BatchExecutor(codeds, domains, gid_slot, stats)
    try:
        matrix, _ = executor.bindings(plan.root, base)
    except VectorUnsupported:
        if stats is not None:
            stats["fallbacks"] = stats.get("fallbacks", 0) + 1
        return None
    return matrix


def split_by_group(matrix, n_groups: int, gid_slot: int):
    """Split a batched binding matrix into its per-group matrices, gid
    column dropped (it is the trailing column by construction)."""
    np = _np
    order = np.argsort(matrix[:, gid_slot], kind="stable")
    ordered = matrix[order]
    bounds = np.searchsorted(ordered[:, gid_slot],
                             np.arange(n_groups + 1))
    return [ordered[bounds[gid]:bounds[gid + 1], :gid_slot]
            for gid in range(n_groups)]


def constraint_rows_hold(matrix, sides) -> bool:
    """Check compiled equality-constraint sides over every binding row.

    ``sides`` are ``((l_const, l_value), (r_const, r_value))`` pairs as in
    :class:`repro.relational.kernel._CompiledConstraint`."""
    np = _np
    for (l_const, l_value), (r_const, r_value) in sides:
        left = l_value if l_const else matrix[:, l_value]
        right = r_value if r_const else matrix[:, r_value]
        if np.any(left != right):
            return False
    return True
