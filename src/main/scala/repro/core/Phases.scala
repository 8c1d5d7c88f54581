package repro.core

import repro.graph.PartitionedGraph
import scala.collection.mutable

/** Pure per-machine R-Meef phase functions (Algorithms 1, 2 and 4).
  *
  * No function mutates a previous state (deviation D8), so the surrounding
  * Spark lineage can be recomputed safely.
  */
object Phases {

  /** Init (per machine): candidate set of dp0.piv, border distance, the
    * SM-E split (Prop. 1), SM-E enumeration, and region grouping (Alg. 3).
    * Without `keepEmbeddings`, SM-E only counts its embeddings.
    */
  def init(
      ctx: PlanCtx,
      mid: Int,
      block: AdjBlock,
      owner: Array[Int],
      budgetBytes: Double,
      smeEnabled: Boolean,
      seed: Long,
      keepEmbeddings: Boolean = true): MachineState = {

    val p      = ctx.pattern
    val uStart = ctx.uStart
    val nbrs   = block.nbrs
    val local  = Array.range(0, nbrs.length).filter(nbrs(_) != null)

    // --- border distance (Def. 1) ---
    val bd = PartitionedGraph.borderDistance(local, nbrs(_), owner)

    // --- candidates of dp0.piv + SM-E split ---
    val candidates = local.filter(v => nbrs(v).length >= p.degree(uStart))
    val (smeCands, distCands) =
      if (smeEnabled) candidates.partition(v => bd(v) >= ctx.startSpan)
      else (Array.empty[Int], candidates)

    // --- SM-E: single-machine enumeration restricted to local vertices ---
    // A foreign vertex has no adjacency here, so LocalEnum's degree filter
    // (degree ≥ 1 in a connected pattern) rejects it, and the roots are
    // local. By Prop. 1 every embedding rooted at an SM-E candidate lies
    // within its owner's vertices, so SM-E misses none.
    val adjOf: Int => Array[Int] = v => if (owner(v) == mid) nbrs(v) else Array.empty[Int]
    val sme = LocalEnum.enumerate(p, adjOf, ctx.sb, smeCands.toVector,
      rootVertex = uStart, keepEmbeddings = keepEmbeddings)

    // --- memory estimate (§6) and region groups (Alg. 3) ---
    val node = EmbeddingTrie.NodeBytes.toDouble
    val estPerRoot =
      if (smeCands.nonEmpty) math.max(node, node * sme.partials / smeCands.length)
      else {
        val avgDeg = if (local.nonEmpty) local.iterator.map(nbrs(_).length).sum.toDouble / local.length else 1.0
        node * math.max(2.0, avgDeg) * p.n
      }
    val groups = RegionGroups.group(distCands.toVector, adjOf, estPerRoot, budgetBytes, seed + mid)

    val stats = MachineStats(
      smeCandidates = smeCands.length, distCandidates = distCands.length,
      smeEmbeddings = sme.count, regionGroups = groups.size)
    // a copy of one entry per data vertex: no state shares the cached block
    new MachineState(mid, groups, new EmbeddingTrie(1),
      Array.emptyLongArray, Array.emptyLongArray, java.util.Arrays.copyOf(nbrs, owner.length),
      resultChunks = if (sme.embeddings.nonEmpty) List(sme.embeddings) else Nil,
      stats = stats)
  }

  /** Expand (Algorithms 1–2): grow every embedding of P_{i-1} that verifyE
    * did not refute into the ECs of P_i through the pivot's adjacency,
    * building a fresh trie and the EVI of undetermined edges (sorted packed
    * keys, repeats dropped once at the end). For round 0
    * the sources are the region group's candidate vertices. A pivot of an
    * unrefuted EC whose adjacency is neither known nor in `fetched` is an
    * error, not a pruned branch. Adjacency is read from the state's
    * vertex-indexed `known` array; a non-empty `fetched` goes into a copy
    * of it, so no earlier state changes (D8, D10).
    */
  def expand(
      ctx: PlanCtx,
      st: MachineState,
      block: AdjBlock,
      fetched: Iterable[(Int, Array[Int])],
      owner: Array[Int],
      g: Int,
      i: Int): MachineState = {

    val p     = ctx.pattern
    val mid   = st.mid
    val known =
      if (fetched.isEmpty) st.known
      else { val k = st.known.clone(); fetched.foreach { case (v, nb) => k(v) = nb }; k }

    val piv     = ctx.pivOf(i)
    val leaves  = ctx.unitLeaves(i)
    val newTrie = new EmbeddingTrie(ctx.depths(i))
    val base    = ctx.depths(i) - leaves.size // trie level of unit i's first leaf
    val verif   = ctx.verifFlat(i)
    val evi     = new mutable.ArrayBuilder.ofLong
    val f       = Array.fill(p.n)(-1)
    var cacheHits = 0L

    // status of a data edge: 1 if it exists, 0 if not, -1 if it cannot be decided here
    def edgeStatus(x: Int, y: Int): Int = {
      val ax = known(x)
      if (ax != null) { if (java.util.Arrays.binarySearch(ax, y) >= 0) 1 else 0 }
      else {
        val ay = known(y)
        if (ay == null) -1 else if (java.util.Arrays.binarySearch(ay, x) >= 0) 1 else 0
      }
    }

    /** Algorithm 2 over unit i's leaves from k on, below the node last pushed one level up. */
    def adjEnum(k: Int, pivAdj: Array[Int]): Boolean = {
      val u     = leaves(k)
      val degU  = p.degree(u)
      val sbU   = ctx.sbPartners(u)
      val check = ctx.checkPartners(u)
      var any = false
      var ci = 0
      while (ci < pivAdj.length) {
        val v = pivAdj(ci)
        var ok = LocalEnum.unused(f, v)
        if (ok) { // candidate-level degree filter when adjacency is known
          val av = known(v)
          if (av != null && av.length < degU) ok = false
        }
        var j = 0
        while (ok && j < sbU.length) {
          val other = sbU(j)._1
          if (f(other) != -1) ok = if (sbU(j)._2) f(other) < v else v < f(other)
          j += 1
        }
        j = 0
        while (ok && j < check.length) {
          val w = f(check(j))
          if (w != -1 && edgeStatus(v, w) == 0) ok = false
          j += 1
        }
        if (ok) {
          f(u) = v
          newTrie.push(base + k, v)
          if (k == leaves.size - 1) {
            // EC of P_i complete: register its undetermined edges (Def. 4)
            var e = 0
            while (e < verif.length) {
              val a = f(verif(e))
              val b = f(verif(e + 1))
              if (edgeStatus(a, b) == -1) evi += PlanCtx.packedKey(a, b)
              e += 2
            }
            any = true
          } else if (adjEnum(k + 1, pivAdj)) any = true
          else newTrie.pop(base + k)
          f(u) = -1
        }
        ci += 1
      }
      any
    }

    if (i == 0) {
      val cands = if (g < st.groups.size) st.groups(g) else Vector.empty
      cands.foreach { v =>
        f(piv) = v
        newTrie.push(0, v)
        if (!adjEnum(0, block.adjOf(v))) newTrie.pop(0)
        f(piv) = -1
      }
    } else {
      // Depth-first copy of the old trie, with the next unvisited node of each
      // level as its cursor; at old leaves that verifyE did not refute, expand
      // unit i below the copy.
      val old  = st.trie
      val last = old.depth - 1
      val next = new Array[Int](old.depth)
      def copyExpand(level: Int, n: Int): Boolean = {
        val u = ctx.morder(level)
        f(u) = old.vertex(level, n)
        var success = false
        if (level < last || !ctx.refuted(i - 1, st.failed, f)) {
          newTrie.push(level, f(u))
          if (level < last) {
            val c = level + 1
            while (next(c) < old.levelSize(c) && old.parent(c, next(c)) == n) {
              if (copyExpand(c, next(c))) success = true
              next(c) += 1
            }
          } else {
            val vPiv   = f(piv)
            val pivAdj = known(vPiv)
            if (pivAdj == null)
              throw new IllegalStateException(s"machine $mid, round $i: no adjacency for pivot vertex $vPiv")
            if (owner(vPiv) != mid && st.known(vPiv) != null) cacheHits += 1
            success = adjEnum(0, pivAdj)
          }
          if (!success) newTrie.pop(level)
        }
        f(u) = -1
        success
      }
      (0 until old.levelSize(0)).foreach(copyExpand(0, _))
    }
    newTrie.compact()

    val stats = st.stats.copy(
      fetchedVertices = st.stats.fetchedVertices + fetched.size,
      fetchedAdjEntries = st.stats.fetchedAdjEntries + fetched.iterator.map(_._2.length.toLong).sum,
      cacheHits = st.stats.cacheHits + cacheHits,
      sumEtNodes = st.stats.sumEtNodes + newTrie.nodeCount,
      sumElBytes = st.stats.sumElBytes + newTrie.elBytes,
      peakEtBytes = math.max(st.stats.peakEtBytes, newTrie.etBytes))
    new MachineState(mid, st.groups, newTrie, PlanCtx.sortedDistinct(evi.result()), Array.emptyLongArray,
      known, st.resultChunks, stats)
  }

  /** Verify & filter (Prop. 2) without a rebuild: the trie is kept as it is
    * and `failed`, the EVI keys that verifyE refuted (sorted
    * [[PlanCtx.packedKey]]s, see [[MachineState.failedKeys]]), is recorded,
    * so the next round's copy, its fetch requests and the harvest skip
    * every refuted EC ([[PlanCtx.refuted]]). On the final round, harvest the
    * surviving embeddings: count them, and with `keep` copy them into a
    * result chunk (a count-only run keeps none).
    */
  def filter(
      ctx: PlanCtx,
      st: MachineState,
      failed: Array[Long],
      harvest: Boolean,
      keep: Boolean): MachineState = {

    val verified = st.stats.copy(verifyEdges = st.stats.verifyEdges + st.evi.length)
    if (!harvest)
      new MachineState(st.mid, st.groups, st.trie, Array.emptyLongArray, failed,
        st.known, st.resultChunks, verified)
    else {
      val round = ctx.depths.indexOf(st.trie.depth)
      val harvested = Vector.newBuilder[Array[Int]]
      var found = 0L
      ctx.foreachUnrefuted(st.trie, round, failed) { f => found += 1; if (keep) harvested += f.clone() }
      val chunk = harvested.result()
      val stats = verified.copy(distEmbeddings = verified.distEmbeddings + found)
      new MachineState(st.mid, st.groups, new EmbeddingTrie(1), Array.emptyLongArray,
        Array.emptyLongArray, st.known, if (chunk.nonEmpty) chunk :: st.resultChunks else st.resultChunks, stats)
    }
  }

  /** [[filter]] for round `i` with no verification edge: nothing fails, and an EVI throws. */
  def unverified(ctx: PlanCtx, st: MachineState, i: Int, harvest: Boolean, keep: Boolean = true): MachineState =
    if (st.evi.nonEmpty) throw new IllegalStateException(
      s"machine ${st.mid}, round $i: ${st.evi.length} undetermined edges in a round with no verification edge")
    else if (harvest) filter(ctx, st, Array.emptyLongArray, harvest = true, keep) else st

  /** [[filter]] with the failed keys as (a, b) pairs, for callers outside the engine. */
  def filter(ctx: PlanCtx, st: MachineState, failedEdges: Set[(Int, Int)], harvest: Boolean,
             keep: Boolean = true): MachineState =
    filter(ctx, st, PlanCtx.sortedDistinct(failedEdges.iterator.map((PlanCtx.packedKey _).tupled).toArray),
      harvest, keep)
}
