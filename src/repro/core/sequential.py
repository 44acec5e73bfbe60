"""Faithful single-machine reference implementation of the RLC index.

This module mirrors the paper's Algorithm 1 (query) and Algorithm 2
(indexing via backward/forward kernel-based search with pruning rules
PR1/PR2/PR3). It is the correctness anchor for the distributed builder and
also the per-query-latency subject for the Table V benchmarks (the paper's
implementation is single-threaded Java; this is its Python twin).

Entries are stored per vertex as ``{mr: set(hub)}``. Algorithm 1 walks two
entry lists sorted by access id and matches ``(hub, mr)`` pairs; only
``mr == L`` can ever match, so here the ``mr`` filter is pushed down to a
hash probe on ``(vertex, mr)``: Case 2 is a set membership test and Case 1 a
set intersection. The paper's sorted lists are a storage layout and change no
answer. The kernel-BFS reads a label-partitioned adjacency, so it touches
only the edges whose label the state machine expects.

Two ambiguities in the paper's pseudocode are resolved as follows (both are
forced by Theorem 3 / Lemma 5 — see DESIGN.md §3):

- Algorithm 2 line 34-35 (`if i=1 and insert(...) then continue`) is
  implemented as *continue on prune*: when a completed repeat's entry is
  pruned by PR1/PR2 the search does not expand past that vertex (that is
  PR3); when the entry is recorded the search continues. Stopping on a
  *successful* insert would strand vertices further along the path with no
  entry and no coverage.
- The kernel-BFS of kernel ``L`` is seeded with every vertex whose
  kernel-search sequence is an exact power of ``L`` (every sequence is an
  exact power of its MR, so this is "the frontier of kernel candidate
  ``MR(seq)``"), each marked visited in the completed state. Seeding only
  depth-``|L|`` vertices breaks completeness when a deeper exact-power vertex
  is PR3-pruned through one branch but extensible through another.

Also contains :func:`brute_force_closure` — an exponential-free reference for
the concise transitive closure ``S^k`` used as ground truth in tests, built on
the paper's §IV observation that ``u ~L+~> v`` iff ``(u, v)`` is in the
transitive closure of the exact-``L``-path hop relation.
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable

from repro.core.labels import Seq, check_constraint, encode, is_primitive, mr

Adjacency = dict[int, list[tuple[str, int]]]
#: Per-vertex entries ``{vertex: {mr: {hub}}}`` (one of L_out / L_in).
Entries = dict[int, dict[Seq, set[int]]]

_NOTHING: dict = {}
_NO_HUBS: frozenset[int] = frozenset()


def inout_order(out_adj: Adjacency, in_adj: Adjacency) -> dict[int, int]:
    """IN-OUT access ids (§V-B): 1-based rank by ``(|out|+1)*(|in|+1)`` desc,
    ties by ascending vertex id."""
    vertices = sorted(set(out_adj) | set(in_adj))
    scored = sorted(
        vertices,
        key=lambda v: (-(len(out_adj.get(v, ())) + 1) * (len(in_adj.get(v, ())) + 1), v),
    )
    return {v: i + 1 for i, v in enumerate(scored)}


def label_partition(adj: Adjacency) -> dict[int, dict[str, list[int]]]:
    """``{vertex: {label: [neighbour]}}`` from an adjacency list."""
    out: dict[int, dict[str, list[int]]] = {}
    for x, nbrs in adj.items():
        by_label = out[x] = {}
        for lbl, y in nbrs:
            by_label.setdefault(lbl, []).append(y)
    return out


@dataclass
class BuildStats:
    """Pruning-rule firings and recorded entries of one Algorithm 2 run."""

    pr1_probes: int = 0  #: PR1 queries against the current index
    pr1_prunes: int = 0  #: probes answered true, so no entry was recorded
    pr2_prunes: int = 0  #: inserts skipped because aid(root) > aid(vertex)
    pr3_cuts: int = 0  #: kernel-BFS completions not expanded after a prune
    entries: int = 0  #: entries recorded


class SequentialRlcIndex:
    """The RLC index of Definition 4, built by the paper's Algorithm 2."""

    def __init__(self, out_adj: Adjacency, in_adj: Adjacency, k: int):
        self.k = k
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.aid = inout_order(out_adj, in_adj)
        self.l_out: Entries = {}
        self.l_in: Entries = {}
        self.stats = BuildStats()
        self._build()

    @classmethod
    def from_entries(
        cls,
        aid: dict[int, int],
        k: int,
        out_entries: list[tuple[int, int, Seq]],
        in_entries: list[tuple[int, int, Seq]],
    ) -> "SequentialRlcIndex":
        """Wrap already-built entries ``(vertex, hub, mr)`` (e.g. collected
        from a distributed :class:`repro.core.index.RlcIndex`) so Algorithm 1
        runs on them without rebuilding. ``stats`` stays all zero."""
        self = object.__new__(cls)
        self.k = k
        self.out_adj = {}
        self.in_adj = {}
        self.aid = aid
        self.l_out = {}
        self.l_in = {}
        self.stats = BuildStats()
        for store, rows in ((self.l_out, out_entries), (self.l_in, in_entries)):
            for v, h, m in rows:
                store.setdefault(v, {}).setdefault(m, set()).add(h)
        return self

    # -- Algorithm 1 -------------------------------------------------------
    def query(self, s: int, t: int, constraint: Iterable[str]) -> bool:
        """Evaluate the RLC query ``(s, t, constraint+)``; Algorithm 1.
        Raises ValueError unless the constraint is a minimum repeat of
        length <= k."""
        return self._reach(s, t, check_constraint(constraint, self.k))

    def _reach(self, s: int, t: int, L: Seq) -> bool:
        """Algorithm 1 for a constraint already known to be valid."""
        out_s = self.l_out.get(s, _NOTHING).get(L, _NO_HUBS)
        in_t = self.l_in.get(t, _NOTHING).get(L, _NO_HUBS)
        # Case 2 of Definition 4: a direct entry; Case 1: a common hub.
        return t in out_s or s in in_t or not out_s.isdisjoint(in_t)

    def entries(self) -> tuple[dict[int, set[tuple[int, Seq]]], dict[int, set[tuple[int, Seq]]]]:
        """Index contents as ``{vertex: {(hub, mr)}}`` for L_out and L_in."""
        return tuple(
            {v: {(h, m) for m, hubs in by_mr.items() for h in hubs} for v, by_mr in store.items()}
            for store in (self.l_out, self.l_in)
        )

    def entry_count(self) -> int:
        return sum(
            len(hubs) for store in (self.l_out, self.l_in)
            for by_mr in store.values() for hubs in by_mr.values()
        )

    def size_bytes(self) -> int:
        """Storage estimate matching RlcIndex.size_bytes: 8-byte vertex id +
        the encoded mr bytes per entry (Table IV's IS column)."""
        return sum(
            (8 + len(encode(m))) * len(hubs) for store in (self.l_out, self.l_in)
            for by_mr in store.values() for m, hubs in by_mr.items()
        )

    # -- Algorithm 2 -------------------------------------------------------
    def _build(self) -> None:
        order = sorted(self.aid, key=self.aid.get)
        in_by_label = label_partition(self.in_adj)
        out_by_label = label_partition(self.out_adj)
        mr_memo: dict[Seq, Seq] = {}
        for v in order:
            self._kbs(v, True, in_by_label, mr_memo)
            self._kbs(v, False, out_by_label, mr_memo)

    def _insert(self, visited: int, root: int, L: Seq, backward: bool) -> bool:
        """Paper's ``insert``: PR2 then PR1, else record. Returns True iff
        the entry was recorded (False means a pruning rule fired)."""
        stats = self.stats
        if self.aid[root] > self.aid[visited]:  # PR2
            stats.pr2_prunes += 1
            return False
        stats.pr1_probes += 1
        s, t = (visited, root) if backward else (root, visited)
        if self._reach(s, t, L):  # PR1 (also dedups identical entries)
            stats.pr1_prunes += 1
            return False
        # backward: (root, L) into L_out(visited); forward: into L_in(visited)
        store = self.l_out if backward else self.l_in
        store.setdefault(visited, {}).setdefault(L, set()).add(root)
        stats.entries += 1
        return True

    def _kbs(
        self,
        root: int,
        backward: bool,
        by_label: dict[int, dict[str, list[int]]],
        mr_memo: dict[Seq, Seq],
    ) -> None:
        """One kernel-based search from ``root`` (§V-B): kernel-search to
        depth ``k`` (all paths, no traversal pruning) then one kernel-BFS per
        kernel candidate with PR3. ``by_label`` is the search direction's
        adjacency partitioned by label; ``mr_memo`` caches ``mr`` for the
        whole build."""
        adj = self.in_adj if backward else self.out_adj
        k = self.k
        # --- kernel-search: BFS over (vertex, seq), deduplicated ----------
        frontier: set[tuple[int, Seq]] = {(root, ())}
        seen: set[tuple[int, Seq]] = set(frontier)
        seeds: dict[Seq, set[int]] = defaultdict(set)
        for _depth in range(k):
            nxt: set[tuple[int, Seq]] = set()
            for x, seq in frontier:
                for lbl, y in adj.get(x, ()):
                    seq2 = (lbl,) + seq if backward else seq + (lbl,)
                    key = (y, seq2)
                    if key in seen:
                        continue
                    seen.add(key)
                    L = mr_memo.get(seq2)
                    if L is None:
                        L = mr_memo[seq2] = mr(seq2)
                    self._insert(y, root, L, backward)
                    # Every sequence is an exact power of its MR: y seeds the
                    # kernel-BFS of kernel candidate L.
                    seeds[L].add(y)
                    nxt.add(key)
            frontier = nxt
        # --- kernel-BFS per kernel candidate ------------------------------
        for L, vset in seeds.items():
            m = len(L)
            # state = 1-based index of the next label of L to consume
            # (consumed back-to-front for backward search, front-to-back
            # conceptually — the wrap order below realizes both).
            visited: set[tuple[int, int]] = {(y, m) for y in vset}
            queue: deque[tuple[int, int]] = deque(visited)
            while queue:
                x, j = queue.popleft()
                expect = L[j - 1] if backward else L[m - j]
                j2 = m if j == 1 else j - 1
                for y in by_label.get(x, _NOTHING).get(expect, ()):
                    if (y, j2) in visited:
                        continue
                    if j == 1 and not self._insert(y, root, L, backward):
                        self.stats.pr3_cuts += 1
                        continue  # PR3: pruned completion — skip y entirely
                    visited.add((y, j2))
                    queue.append((y, j2))


# ---------------------------------------------------------------------------
# Reference concise closure (ETC ground truth for tests)
# ---------------------------------------------------------------------------

def brute_force_closure(out_adj: Adjacency, k: int) -> set[tuple[int, int, Seq]]:
    """All ``(u, v, L)`` with ``u ~L+~> v`` and ``|L| <= k`` (``L`` primitive).

    §IV reduction: enumerate all exact label sequences of length <= k (BFS
    with (vertex, seq) dedup), keep the primitive ones as per-``L`` hop
    relations, then take each hop relation's transitive closure.
    """
    hops: dict[Seq, set[tuple[int, int]]] = defaultdict(set)
    for u in out_adj:
        frontier = {(u, ())}
        seen = set(frontier)
        for _ in range(k):
            nxt = set()
            for x, seq in frontier:
                for lbl, y in out_adj.get(x, ()):
                    key = (y, seq + (lbl,))
                    if key not in seen:
                        seen.add(key)
                        nxt.add(key)
            frontier = nxt
            for y, seq in nxt:
                if is_primitive(seq):
                    hops[seq].add((u, y))
    closure: set[tuple[int, int, Seq]] = set()
    for L, rel in hops.items():
        succ: dict[int, set[int]] = defaultdict(set)
        for a, b in rel:
            succ[a].add(b)
        for u in {a for a, _ in rel}:
            reach: set[int] = set()
            stack = list(succ[u])
            while stack:
                b = stack.pop()
                if b in reach:
                    continue
                reach.add(b)
                stack.extend(succ.get(b, ()))
            closure.update((u, v, L) for v in reach)
    return closure
