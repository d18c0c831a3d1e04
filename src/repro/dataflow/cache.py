"""Digest-keyed analysis caching (the batch/serving scenario).

Repeated ``analyze``/``optimize``/``repro report`` calls on an unchanged
program redo the whole pipeline — parse-independent phases included —
even though everything downstream of the AST is a pure function of the
program text plus a handful of option values.  This module memoizes the
expensive pure stages behind a stable **program digest**
(:func:`program_digest`: SHA-256 of the canonical pretty-printing, so
two structurally identical programs share cache entries regardless of
how their ASTs were produced):

* :func:`cached_build_pfg` — PFG construction per digest;
* the gen/kill local sets — memoized *on the graph object* by
  :func:`repro.reachdefs.genkill.compute_genkill` (PFG nodes hash by
  identity, so a gen/kill table is only meaningful for the exact graph
  it was computed from; the memo is dropped by ``graph._invalidate()``
  on mutation);
* full ``analyze`` results — keyed by digest **plus** every
  result-affecting option (order, solver, preserved), in
  :func:`repro.analyze`.

All entries live in bounded-LRU :class:`AnalysisCache` instances
(:data:`GLOBAL_CACHE` is the process-wide default).  Hits, misses and
evictions are counted both on the cache object and — when an
observability session is installed — as ``cache.hits`` /
``cache.misses`` / ``cache.evictions`` plus per-namespace
``cache.<ns>.hits`` / ``cache.<ns>.misses`` counters in
:mod:`repro.obs`.

Invalidation is by construction, not by tracking: a cache key *is* the
program content (digest) plus options, so an edited program simply
misses.  The only mutable state cached anywhere is the gen/kill memo,
which is attached to its graph and cleared by the graph's own
``_invalidate`` hook.  Callers who mutate a *returned* graph or result
in place are outside the contract (the analysis pipeline never does).

One identity caveat: PFG nodes hold *statement objects*, and the
interpreter (the dynamic soundness oracle) links runtime events to
blocks by statement identity.  Graphs and results are therefore only
valid for the exact AST they were computed from; cache reads validate
this (``graph.source_program is program``) and treat a same-digest,
different-parse entry as a miss.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..obs import get_metrics

#: Default LRU bound — big enough for a test-suite's worth of figures and
#: generator programs, small enough that full results can't pile up.
DEFAULT_MAXSIZE = 128

_MISSING = object()

#: Public miss sentinel for :meth:`AnalysisCache.get`.  Pass it as the
#: ``default`` to distinguish a cache **miss** from a legitimately cached
#: ``None`` value: ``cache.get(key, MISSING) is MISSING`` is True only on
#: a miss.  (The bare ``get(key)`` form keeps returning ``None`` on a
#: miss for existing callers — but with that form a cached ``None`` is
#: indistinguishable from a miss and would be recomputed forever.)
MISSING = _MISSING


class AnalysisCache:
    """A bounded LRU mapping cache keys to arbitrary values.

    Keys are tuples whose first element names the **namespace**
    (``"pfg"``, ``"analyze"``, …) — used only for per-namespace metric
    counters; all namespaces share the one LRU so the bound is global.

    **Concurrency**: every operation that touches the store or counters
    holds an :class:`threading.RLock` — the ``repro serve`` daemon runs
    concurrent sessions against warm caches (and any threaded client may
    share :data:`GLOBAL_CACHE`); an unguarded LRU reorder racing an
    eviction would corrupt the ``OrderedDict``.  The lock is re-entrant
    because a ``valid`` predicate may itself consult the cache.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, enabled: bool = True):
        self.maxsize = maxsize
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._store

    @staticmethod
    def _namespace(key: Tuple) -> str:
        return str(key[0]) if isinstance(key, tuple) and key else "misc"

    def get(self, key: Tuple, default=None, valid=None):
        """The cached value for ``key``, or ``default`` (counts a hit/miss
        and refreshes LRU recency).  Disabled caches always miss.

        ``default`` defaults to ``None`` for backwards compatibility;
        callers that may legitimately cache ``None`` should pass the
        module-level :data:`MISSING` sentinel and compare with ``is`` —
        otherwise a cached ``None`` looks like a miss and is recomputed
        (and double-counted as a miss) forever.

        ``valid`` is an optional predicate over the stored value; an
        entry it rejects is dropped and counted as a miss (used for the
        AST-identity check — see :func:`cached_build_pfg`).
        """
        if not self.enabled:
            return default
        m = get_metrics()
        ns = self._namespace(key)
        with self._lock:
            value = self._store.get(key, _MISSING)
            if value is not _MISSING and valid is not None and not valid(value):
                del self._store[key]
                value = _MISSING
            if value is _MISSING:
                self.misses += 1
                if m.enabled:
                    m.inc("cache.misses")
                    m.inc(f"cache.{ns}.misses")
                return default
            self._store.move_to_end(key)
            self.hits += 1
            if m.enabled:
                m.inc("cache.hits")
                m.inc(f"cache.{ns}.hits")
            return value

    def put(self, key: Tuple, value: object) -> None:
        """Store ``value`` under ``key``, evicting the least recently used
        entry when full.  No-op on a disabled cache."""
        if not self.enabled:
            return
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            if len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self.evictions += 1
                m = get_metrics()
                if m.enabled:
                    m.inc("cache.evictions")

    def clear(self) -> None:
        """Drop all entries (counters are kept — they describe the
        process, not the current contents)."""
        with self._lock:
            self._store.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._store),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: Process-wide default cache used by :func:`repro.analyze` and
#: :func:`cached_build_pfg`.  Tests clear it between cases (autouse
#: fixture); benchmarks disable it to measure the real work.
GLOBAL_CACHE = AnalysisCache()


def program_digest(program) -> str:
    """A stable content digest of ``program``: SHA-256 over its canonical
    pretty-printing.  Structurally identical programs digest identically
    regardless of AST provenance or formatting of the original source."""
    from ..lang.pretty import pretty  # deferred: lang imports have no dataflow dep,
    # but keeping cache importable from anywhere means importing lazily here.

    text = pretty(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cached_build_pfg(program, cache: Optional[AnalysisCache] = None):
    """:func:`repro.pfg.build_pfg` memoized by program digest.

    The returned graph is shared across hits — safe because the analysis
    pipeline treats graphs as immutable after construction (and the
    gen/kill memo rides on the graph, so a shared graph also shares its
    local sets).  The digest is stamped on the graph as
    ``graph.program_digest``, and the source AST as
    ``graph.source_program``.

    **AST-identity validation**: PFG nodes hold *statement objects*, and
    the interpreter links runtime events to blocks by statement identity
    — a graph is only valid for the exact AST it was built from.  A
    digest hit whose entry came from a *different parse* of the same
    text is therefore rejected (counted as a miss) and rebuilt; digest
    addressing still gives content-level invalidation for free (an
    edited program simply misses).
    """
    from ..pfg import build_pfg

    store = GLOBAL_CACHE if cache is None else cache
    if not store.enabled:
        return build_pfg(program)
    digest = program_digest(program)
    key = ("pfg", digest)
    graph = store.get(key, MISSING, valid=lambda g: g.source_program is program)
    if graph is not MISSING:
        return graph
    graph = build_pfg(program)
    graph.program_digest = digest
    graph.source_program = program
    store.put(key, graph)
    return graph
