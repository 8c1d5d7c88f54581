package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.graph.PartitionedGraph
import repro.query.{ExecutionPlan, Pattern}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Routes machine-id keys to their own partition: machine t == partition t.
  * This is what lets the engine zip the per-machine state with the adjacency
  * blocks and the answers without a shuffle — the paper's "no shuffle of
  * intermediate results" invariant.
  */
final class MidPartitioner(m: Int) extends Partitioner {
  override def numPartitions: Int = m
  override def getPartition(key: Any): Int = key.asInstanceOf[Int]
  override def equals(other: Any): Boolean = other match {
    case p: MidPartitioner => p.numPartitions == m
    case _                 => false
  }
  override def hashCode(): Int = m
}

/** One machine's partition of the data graph, indexed by vertex id
  * ([[PartitionedGraph.adjBlock]]): `nbrs(v)` is the sorted adjacency of
  * `v` if this machine owns it, and null otherwise. It answers `fetchV` and
  * `verifyE` requests and round 0; expand reads a copy of it,
  * [[MachineState.known]], that also holds the fetched lists (DESIGN.md D10).
  */
final case class AdjBlock(mid: Int, nbrs: Array[Array[Int]]) {
  /** The block as a map, for callers outside the engine. */
  @transient lazy val adj: Map[Int, Array[Int]] =
    nbrs.indices.iterator.filter(nbrs(_) != null).map(v => v -> nbrs(v)).toMap

  private def orNull(v: Int): Array[Int] = if (v >= 0 && v < nbrs.length) nbrs(v) else null

  def hasEdge(a: Int, b: Int): Boolean = {
    val nb = orNull(a)
    nb != null && java.util.Arrays.binarySearch(nb, b) >= 0
  }

  /** The adjacency of `v`, which this machine must own: a `fetchV` or
    * `verifyE` request for any other vertex was misrouted, and answering it
    * would silently lose or refute ECs.
    */
  def adjOf(v: Int): Array[Int] = {
    val nb = orNull(v)
    if (nb == null) throw new IllegalStateException(s"machine $mid does not own vertex $v")
    nb
  }

  /** The `verifyE` answer to a batch of [[PlanCtx.packedKey]]s whose smaller
    * endpoints this machine owns: the keys that are data edges, in order.
    */
  def existing(keys: Array[Long]): Array[Long] =
    keys.filter(k => java.util.Arrays.binarySearch(adjOf(PlanCtx.smaller(k)), PlanCtx.larger(k)) >= 0)
}

/** Static, serializable context shared by all R-Meef phases. */
final case class PlanCtx(
    pattern: Pattern,
    sb: Vector[(Int, Int)],
    pivOf: Vector[Int],                    // pivot of unit i
    unitLeaves: Vector[Vector[Int]],       // unit i's leaves, in matching order
    depths: Vector[Int],                   // trie depth after round i
    morder: Vector[Int],                   // matching order (trie level -> pattern vertex)
    pos: Array[Int],                       // pattern vertex -> matching-order position
    checkPartners: Array[Array[Int]],      // per pattern vertex: earlier-matched verification partners
    sbPartners: Array[Array[(Int, Boolean)]], // per later endpoint: (other, otherIsSmaller)
    unitVerifEdges: Vector[Vector[(Int, Int)]], // per round: sibling + cross-unit edges
    startSpan: Int) {
  def numRounds: Int = pivOf.size
  def uStart: Int = pivOf.head

  // unitVerifEdges flattened to (a0, b0, a1, b1, ...) for `refuted`, which
  // runs once per EC of the previous round, and for expand's EVI
  val verifFlat: Array[Array[Int]] =
    unitVerifEdges.map(_.flatMap { case (a, b) => Vector(a, b) }.toArray).toArray

  /** Prop. 2 without removal: an EC of round `i` with image `f` (query
    * vertex -> data vertex) is refuted iff one of its verification edges
    * maps to a key in `failed` (sorted [[PlanCtx.packedKey]]s). The rule is
    * exact: a failed key is a data edge that does not exist, so an EC whose
    * edge could be checked locally and was absent was never built.
    */
  def refuted(i: Int, failed: Array[Long], f: Array[Int]): Boolean = {
    val es = verifFlat(i)
    var k  = 0
    while (k < es.length) {
      if (java.util.Arrays.binarySearch(failed, PlanCtx.packedKey(f(es(k)), f(es(k + 1)))) >= 0) return true
      k += 2
    }
    false
  }

  /** Calls `fn` with the image `f` of every EC of round `i` in `trie` that
    * `failed` does not refute. `f` is one array, reused between calls.
    */
  def foreachUnrefuted(trie: EmbeddingTrie, i: Int, failed: Array[Long])(fn: Array[Int] => Unit): Unit = {
    val f = new Array[Int](pattern.n)
    (0 until trie.levelSize(trie.depth - 1)).foreach { leaf =>
      var n = leaf
      var l = trie.depth - 1
      while (l >= 0) { f(morder(l)) = trie.vertex(l, n); n = trie.parent(l, n); l -= 1 }
      if (!refuted(i, failed, f)) fn(f)
    }
  }
}

object PlanCtx {
  /** Undirected data-edge key, (smaller, larger) packed into one Long. The
    * EVI and `failed` keep these in sorted arrays: one object for Spark's
    * size estimate of the cached state, a lookup per EC that allocates
    * nothing, and one `verifyE` record per machine pair.
    */
  def packedKey(a: Int, b: Int): Long = (math.min(a, b).toLong << 32) | math.max(a, b)
  /** The endpoints of a [[packedKey]]. */
  def smaller(key: Long): Int = (key >>> 32).toInt
  def larger(key: Long): Int  = key.toInt

  /** Sorts `keys` in place and returns them without repeats: `keys` itself
    * if it had none, else a trimmed copy.
    */
  def sortedDistinct(keys: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(keys)
    var n = 0
    keys.foreach { k => if (n == 0 || keys(n - 1) != k) { keys(n) = k; n += 1 } }
    if (n == keys.length) keys else java.util.Arrays.copyOf(keys, n)
  }

  def apply(plan: ExecutionPlan, sb: Vector[(Int, Int)]): PlanCtx = {
    val p      = plan.pattern
    val morder = plan.matchingOrder
    val pos    = Array.fill(p.n)(-1)
    morder.zipWithIndex.foreach { case (u, i) => pos(u) = i }
    val unitLeaves = plan.units.map(u => u.leaves.sortBy(pos))
    val depths = plan.units.indices.map(i => 1 + plan.units.take(i + 1).map(_.leaves.size).sum).toVector
    val verif  = plan.units.indices.map(i => plan.verificationEdges(i)).toVector
    val check  = Array.fill(p.n)(mutable.ArrayBuffer[Int]())
    verif.flatten.foreach { case (a, b) =>
      if (pos(a) < pos(b)) check(b) += a else check(a) += b
    }
    val sbp = Array.fill(p.n)(mutable.ArrayBuffer[(Int, Boolean)]())
    sb.foreach { case (a, b) =>
      if (pos(a) < pos(b)) sbp(b) += ((a, true)) else sbp(a) += ((b, false))
    }
    PlanCtx(p, sb, plan.units.map(_.piv), unitLeaves, depths, morder, pos,
      check.map(_.toArray), sbp.map(_.toArray), verif, p.span(plan.units.head.piv))
  }
}

/** Per-machine R-Meef state. Phases never mutate a previous state's
  * structures (DESIGN.md deviation D8): expand builds a fresh trie and
  * filter only records `failed`, so Spark lineage recomputation is always
  * safe. `evi` holds the undetermined edge keys of the trie's round (Def.
  * 5) until filter; `failed` holds, after filter, those that verifyE
  * refuted. Both are sorted [[PlanCtx.packedKey]]s without repeats.
  * `trie` is the flat level-array trie of the current round, so caching
  * the state costs Spark's size estimate a few arrays, not a walk over
  * every node. `known` is the machine's whole view of adjacency, indexed
  * by vertex id: the owned lists from init, the foreign lists fetched since,
  * and null for every other vertex. It has one entry per data vertex, and
  * expand copies it before adding to it (D10).
  */
final class MachineState(
    val mid: Int,
    val groups: Vector[Vector[Int]],
    val trie: EmbeddingTrie,
    val evi: Array[Long],
    val failed: Array[Long],
    val known: Array[Array[Int]],
    val resultChunks: List[Vector[Array[Int]]],
    val stats: MachineStats) extends Serializable {

  /** Distinct pivot images of the unrefuted ECs whose adjacency is not
    * known, in vertex order, to fetch for round `i` — the paper's single
    * batched fetchV request (§3.2 Expand). Owned lists are known from init,
    * so `owner` is not read; the traced replay still passes it.
    */
  def pendingFetch(ctx: PlanCtx, i: Int, owner: Array[Int]): Iterator[Int] = {
    val piv     = ctx.pivOf(i)
    val pending = new java.util.BitSet(known.length)
    ctx.foreachUnrefuted(trie, i - 1, failed) { f =>
      if (known(f(piv)) == null) pending.set(f(piv))
    }
    Iterator.iterate(pending.nextSetBit(0))(v => pending.nextSetBit(v + 1)).takeWhile(_ >= 0)
  }

  /** The EVI split by the owner of each key's smaller endpoint: one sorted,
    * non-empty batch per machine to ask — the paper's batched verifyE
    * request (§3.2 Verify).
    */
  def eviByOwner(owner: Array[Int], m: Int): Seq[(Int, Array[Long])] = {
    val batches = Array.fill(m)(new mutable.ArrayBuilder.ofLong)
    evi.foreach(k => batches(owner(PlanCtx.smaller(k))) += k)
    batches.indices.map(t => (t, batches(t).result())).filter(_._2.nonEmpty)
  }

  /** The failed keys: the EVI minus the keys that verifyE `confirmed`,
    * sorted. A confirmed key outside the EVI is a misrouted answer.
    */
  def failedKeys(confirmed: Array[Long]): Array[Long] = {
    confirmed.foreach { k =>
      if (java.util.Arrays.binarySearch(evi, k) < 0)
        throw new IllegalStateException(s"machine $mid: confirmed edge (${PlanCtx.smaller(k)}, ${PlanCtx.larger(k)}) is not in its EVI")
    }
    val sorted = confirmed.sorted
    evi.filter(k => java.util.Arrays.binarySearch(sorted, k) < 0)
  }

  /** The EVI as (smaller, larger) pairs, for callers outside the engine. */
  def eviKeys: Iterator[(Int, Int)] = evi.iterator.map(k => (PlanCtx.smaller(k), PlanCtx.larger(k)))
}

/** Result of one RADS run. */
final case class RadsRun(
    count: Long,
    embeddings: Vector[Array[Int]],
    metrics: RadsMetrics,
    plan: ExecutionPlan)

/** The R-Meef dataflow (§3.2, Appendix B) on Spark.
  *
  * Layout: `m` logical machines == `m` RDD partitions, and machine t is
  * partition t ([[MidPartitioner]]). Per-machine state (embedding trie, EVI,
  * known adjacency) lives in an `RDD[(mid, MachineState)]` and the
  * adjacency blocks in an `RDD[(mid, AdjBlock)]` with the same partitioner,
  * so the two are zipped partition by partition. A round runs one expand,
  * before it (in every round but the first) one request/response cycle for
  * `fetchV`, and after it, if the round has a verification edge, one for
  * `verifyE` and the filter; each cycle shuffles the requests to their
  * owners and the answers back. The intermediate results never move, which
  * is the paper's central claim against the join-based systems.
  *
  * Each region group ends in one action, a collect of every machine's group
  * count and stats from the group's last state; group 0 always runs, and a
  * collecting run then gathers the results. The stage that first reads a
  * state computes and caches it, and after a group's job every state but the
  * last is unpersisted (D8). A final round with no verification edge
  * harvests inside its expand.
  */
object RMeefEngine {

  def run(spark: SparkSession, pg: PartitionedGraph, ctx: PlanCtx, plan: ExecutionPlan,
          cfg: Rads.Config): RadsRun = {

    val sc  = spark.sparkContext
    val m   = pg.m
    val t0  = System.currentTimeMillis()
    val part = new MidPartitioner(m)
    val ownerBc = sc.broadcast(pg.owner)

    // shuffled once so that tasks zipping with it read the cached blocks; a
    // parallelized RDD would ship its machine's block inside every such task
    val adjRdd: RDD[(Int, AdjBlock)] = sc
      .parallelize((0 until m).map(t => (t, AdjBlock(t, pg.adjBlock(t)))), m)
      .partitionBy(part)
      .persist(StorageLevel.MEMORY_ONLY)

    /** Sends each request `(owner, (requester, q))` to its owner, answers it
      * there from the owner's block, and sends every answer back to its
      * requester.
      */
    def exchange[Q, A: ClassTag](reqs: RDD[(Int, (Int, Q))])(serve: (AdjBlock, Q) => Iterator[A]): RDD[(Int, A)] =
      reqs.partitionBy(part).zipPartitions(adjRdd) { (rIter, aIter) =>
        val block = aIter.next()._2
        rIter.flatMap { case (_, (reqMid, q)) => serve(block, q).map(a => (reqMid, a)) }
      }.partitionBy(part)

    // persisted states, oldest first: after a group's job only the newest is read again
    val kept = mutable.ArrayBuffer[RDD[(Int, MachineState)]]()
    def keep(next: RDD[(Int, MachineState)]): RDD[(Int, MachineState)] = { kept += next.persist(); next }

    // the cached states, the blocks and the owner broadcast go when the run
    // ends, also when a job fails
    try {
      // ---- init: candidates, border distance, SM-E, region groups (computed by group 0's job) ----
      var state = keep(adjRdd.mapValues(block =>
        Phases.init(ctx, block.mid, block, ownerBc.value, cfg.budgetBytes, cfg.smeEnabled, cfg.seed,
          cfg.keepEmbeddings)))
      // every machine's (group count, stats) after the last group; the lazy iterator reads it before each group
      var report = Array.empty[(Int, MachineStats)]
      for (g <- Iterator.from(0).takeWhile(g => g == 0 || g < report.map(_._1).max); i <- 0 until ctx.numRounds) {
        val verify    = ctx.unitVerifEdges(i).nonEmpty
        val lastRound = i == ctx.numRounds - 1
        // -- expand: build ECs of P_i into a fresh trie + EVI; filter here if nothing to verify --
        def expand(sIter: Iterator[(Int, MachineState)], aIter: Iterator[(Int, AdjBlock)],
                   fetched: Iterable[(Int, Array[Int])]): Iterator[(Int, MachineState)] = {
          val (mid, st) = sIter.next()
          val next = Phases.expand(ctx, st, aIter.next()._2, fetched, ownerBc.value, g, i)
          Iterator((mid,
            if (verify) next else Phases.unverified(ctx, next, i, harvest = lastRound, keep = cfg.keepEmbeddings)))
        }
        // round 0 pivots are local by construction, so only later rounds fetchV
        val expanded = keep(
          if (i == 0) state.zipPartitions(adjRdd)(expand(_, _, Nil))
          else {
            val fetchResp = exchange(state.flatMap { case (mid, st) =>
              st.pendingFetch(ctx, i, ownerBc.value).map(v => (ownerBc.value(v), (mid, v)))
            })((block, v) => Iterator((v, block.adjOf(v))))
            state.zipPartitions(adjRdd, fetchResp)((sIter, aIter, rIter) =>
              expand(sIter, aIter, rIter.map(_._2).toVector))
          })

        state =
          if (!verify) expanded
          else {
            // -- verifyE + filter (and harvest on the final round) --
            // one batch of keys per (requester, owner) pair; answered with the
            // keys that exist, and an empty answer is not sent
            val verResp = exchange(expanded.flatMap { case (mid, st) =>
              st.eviByOwner(ownerBc.value, m).map { case (t, keys) => (t, (mid, keys)) }
            })((block, keys) => Iterator(block.existing(keys)).filter(_.nonEmpty))
            keep(expanded.zipPartitions(verResp) { (sIter, rIter) =>
              val (mid, st) = sIter.next()
              val failed = st.failedKeys(rIter.flatMap(_._2).toArray)
              Iterator((mid, Phases.filter(ctx, st, failed, harvest = lastRound, keep = cfg.keepEmbeddings)))
            })
          }
        if (lastRound) { // the group's one job: it computes every state the group kept
          report = state.map { case (_, st) => (st.groups.size, st.stats) }.collect()
          while (kept.size > 1) kept.remove(0).unpersist(blocking = false)
        }
      }

      // ---- gather: the last report's stats; the results only with keepEmbeddings ----
      val stats = report.map(_._2).reduce(_ + _)
      val count = stats.smeEmbeddings + stats.distEmbeddings
      val embeddings = if (!cfg.keepEmbeddings) Vector.empty
        else state.flatMap(_._2.resultChunks.iterator.flatten).collect().toVector
      if (cfg.keepEmbeddings && embeddings.size != count)
        throw new IllegalStateException(s"collected ${embeddings.size} embeddings, but the machines counted $count")
      RadsRun(count, embeddings,
        RadsMetrics(stats, ctx.numRounds, System.currentTimeMillis() - t0), plan)
    } finally {
      kept.foreach(_.unpersist(blocking = false))
      adjRdd.unpersist(blocking = false)
      ownerBc.destroy()
    }
  }
}
