"""Distributed RLC-index construction (paper Algorithm 2 → batched dataflow).

**Hop-lifted KBS.** Every label sequence recorded by Algorithm 2 is an exact
power of its minimum repeat, so the kernel-based search from a root — the
depth-``k`` kernel-search plus the per-kernel state-machine kernel-BFS —
collapses into one BFS over the *hop relation* ``R_mr = {(a, b) : some path
a→b spells exactly mr}`` for each primitive ``mr`` of length ≤ k: a vertex
``v`` earns entry ``(root, mr)`` iff ``v`` reaches the root through one or
more ``R_mr`` hops. The hop table (:func:`repro.core.closure.mr_hops`) is
computed once per build with ``k`` label-partitioned self-joins; each BFS
level is then a single join, which replaces the paper's per-edge automaton
stepping (our sequential reference implements that faithfully) with
``O(hop-diameter)`` dataflow iterations.

**Batched rank order.** Hubs are processed in IN-OUT rank order in
geometrically growing batches; all roots of a batch search simultaneously
(frontier rows ``(root, mr, vertex)``). Pruning per candidate entry:

- **PR2**: dropped when ``aid(root) > aid(vertex)``;
- **PR1**: dropped when the *pre-batch* index snapshot already answers the
  entry's query — the same :func:`repro.core.index.covered_pairs` join used
  at query time. Restricting PR1 to the pre-batch snapshot keeps the paper's
  Lemma 4/5 completeness induction intact: pruning coverage only ever comes
  from strictly lower-rank, fully processed hubs.
- **PR3**: a pruned vertex does not expand — nothing beyond it is traversed.
  (In hop space every frontier vertex is a completed repeat, so the paper's
  "PR3 fires only in kernel-BFS" caveat — kernel-search must keep exploring
  to enumerate *other* kernels — disappears: each ``mr``'s BFS is already
  independent.)

**One fixpoint.** Each batch and direction is the shared semi-naive fixpoint
(:func:`repro.core.closure.semi_naive`, the same loop as the ETC closure)
over *recorded* entries: seed ``prune(roots ⋈ hop)``, step ``prune(delta ⋈
hop)``. Because PR1/PR2 are a row filter against the fixed pre-batch
snapshot, a pruned candidate is dropped wherever it is reached, which gives
the entries of a BFS that also remembers pruned vertices.

With batch size 1 this matches the sequential algorithm's pruning power;
larger batches trade bounded intra-batch redundancy (batch-mates cannot
prune each other) for parallelism. Tests cross-validate answers against the
sequential index and the brute-force closure on many graphs.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.closure import Budget, mr_hops, semi_naive
from repro.core.graph import LabeledGraph
from repro.core.index import RlcIndex, covered_pairs, empty_entries


def batch_schedule(n: int, first: int = 32, cap: int = 512) -> list[int]:
    """Geometric batch sizes: small early batches maximize pruning coverage
    from the top-ranked hubs, later batches amortize job overhead."""
    out, size = [], first
    while n > 0:
        b = min(size, n)
        out.append(b)
        n -= b
        size = min(size * 2, cap)
    return out


def build_rlc_index(
    graph: LabeledGraph,
    k: int,
    budget: Budget | None = None,
    first_batch: int = 32,
    batch_cap: int = 512,
) -> RlcIndex:
    """Build the RLC index of ``graph`` for parameter ``k``."""
    spark: SparkSession = graph.edges.sparkSession
    budget = (budget or Budget(max_iterations=1_000_000)).start()
    rank = graph.inout_rank().localCheckpoint()
    order = [r.id for r in rank.orderBy("aid").collect()]
    hops = mr_hops(graph, k).localCheckpoint()
    hop_b = hops.select(
        F.col("mr").alias("_hm"), F.col("dst").alias("_at"), F.col("src").alias("_to")
    )
    hop_f = hops.select(
        F.col("mr").alias("_hm"), F.col("src").alias("_at"), F.col("dst").alias("_to")
    )
    l_out = empty_entries(spark).localCheckpoint()
    l_in = empty_entries(spark).localCheckpoint()
    pos = 0
    for batch, bsize in enumerate(batch_schedule(len(order), first_batch, batch_cap)):
        roots = spark.createDataFrame(
            [(v,) for v in order[pos : pos + bsize]], "root long"
        )
        pos += bsize
        new_out = _pruned_hop_bfs(hop_b, roots, l_out, l_in, rank, True, budget, batch)
        new_in = _pruned_hop_bfs(hop_f, roots, l_out, l_in, rank, False, budget, batch)
        # Entries land after both phases: PR1 sees only the pre-batch state.
        l_out = l_out.unionByName(
            new_out.select("vertex", F.col("root").alias("hub"), "mr")
        ).localCheckpoint()
        l_in = l_in.unionByName(
            new_in.select("vertex", F.col("root").alias("hub"), "mr")
        ).localCheckpoint()
    return RlcIndex(k=k, l_out=l_out, l_in=l_in, rank=rank)


def _prune(
    cand: DataFrame,
    l_out: DataFrame,
    l_in: DataFrame,
    rank: DataFrame,
    backward: bool,
) -> DataFrame:
    """Apply PR2 then PR1 to candidate entries ``(root, vertex, mr)``;
    return the surviving (to-be-recorded) candidates."""
    a_root = rank.select(F.col("id").alias("root"), F.col("aid").alias("_ar"))
    a_vert = rank.select(F.col("id").alias("vertex"), F.col("aid").alias("_av"))
    kept = (
        cand.join(a_root, "root")
        .join(a_vert, "vertex")
        .where(F.col("_ar") <= F.col("_av"))  # PR2
        .select("root", "vertex", "mr")
    )
    # PR1: the candidate's pair, oriented by search direction.
    src, dst = ("vertex", "root") if backward else ("root", "vertex")
    covered = covered_pairs(kept, l_out, l_in, src_col=src, dst_col=dst)
    return kept.join(covered, ["root", "vertex", "mr"], "left_anti")


def _pruned_hop_bfs(
    hop: DataFrame,
    roots: DataFrame,
    l_out: DataFrame,
    l_in: DataFrame,
    rank: DataFrame,
    backward: bool,
    budget: Budget,
    batch: int,
) -> DataFrame:
    """BFS over the hop relation from all roots at once with PR1–PR3: the
    :func:`semi_naive` fixpoint over *recorded* entries ``(root, vertex, mr)``.

    PR1/PR2 (:func:`_prune`) filter each candidate against the fixed
    pre-batch snapshot, so a pruned candidate is dropped wherever it is
    reached; PR3 holds because a round expands recorded entries only.
    """

    def step(rec: DataFrame) -> DataFrame:
        cand = rec.join(
            hop, (F.col("vertex") == F.col("_at")) & (F.col("mr") == F.col("_hm"))
        ).select("root", "mr", F.col("_to").alias("vertex"))
        return _prune(cand, l_out, l_in, rank, backward)

    # Duplicate-free as the fixpoint needs: hop rows are, and roots are distinct.
    first = roots.join(hop, roots["root"] == F.col("_at")).select(
        "root", F.col("_hm").alias("mr"), F.col("_to").alias("vertex")
    )
    seed = _prune(first, l_out, l_in, rank, backward).localCheckpoint()
    what = f"build_rlc_index(batch {batch}, {'L_out' if backward else 'L_in'})"
    return semi_naive(seed, step, budget, what)
