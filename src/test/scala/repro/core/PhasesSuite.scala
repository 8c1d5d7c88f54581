package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Graph, GraphGen, PartitionedGraph}
import repro.query.{Automorphism, DecompUnit, ExecutionPlan, Pattern, Planner, Queries}

/** The filter of Prop. 2 (the paper's Example 6(b)) at the level of the
  * phase functions, on one machine and without Spark: an EC whose
  * undetermined edge fails verifyE must vanish from the next round's
  * expand, its fetch requests and the final harvest, while the ECs that
  * share its prefix survive.
  */
class PhasesSuite extends AnyFunSuite {

  // Two triangles sharing u1. Round 0 matches (u0; u1, u2) and verifies the
  // sibling edge (u1, u2); round 1 matches (u1; u3, u4) and verifies (u3, u4).
  private val bowtie =
    Pattern("bowtie", 5, Vector((0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (3, 4)))
  private val ctx = PlanCtx(
    ExecutionPlan(bowtie, Vector(DecompUnit(0, Vector(1, 2)), DecompUnit(1, Vector(3, 4)))),
    Vector.empty)

  // Machine 0 owns vertex 0 alone, so every edge between its neighbours
  // 1, 2, 3 is undetermined there; only (1, 2) exists. Below 1, only
  // (5, 6) of the edges among 5, 6, 7 exists. Vertex 4 is isolated.
  private val g = Graph.fromEdges(10, Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (1, 6),
    (1, 7), (5, 6), (3, 8), (3, 9), (8, 9)))
  private val owner = Array.tabulate(10)(v => if (v == 0) 0 else 1)
  private val block = AdjBlock(0, PartitionedGraph(g, owner, 2).adjBlock(0))

  /** verifyE answered by the data graph: the EVI keys that are no edge. */
  private def verify(st: MachineState): Set[(Int, Int)] =
    st.eviKeys.filterNot { case (a, b) => g.hasEdge(a, b) }.toSet

  private def paths(t: EmbeddingTrie): Set[Seq[Int]] =
    (0 until t.resultCount.toInt).map(t.pathOf(_).toSeq).toSet

  private def fetch(vs: Set[Int]): Map[Int, Array[Int]] = vs.map(v => v -> g.neighbors(v)).toMap

  private lazy val round0 = {
    val init = Phases.init(ctx, 0, block, owner, budgetBytes = 1e9, smeEnabled = false, seed = 1)
    Phases.expand(ctx, init, block, Map.empty, owner, g = 0, i = 0)
  }
  private lazy val failed0 = verify(round0)
  private lazy val filtered0 = Phases.filter(ctx, round0, failed0, harvest = false)
  private lazy val round1 =
    Phases.expand(ctx, filtered0, block, fetch(filtered0.pendingFetch(ctx, 1, owner).toSet), owner, g = 0, i = 1)

  test("round 0 leaves two undetermined edges that fail") {
    assert(paths(round0.trie) == Set(Seq(0, 1, 2), Seq(0, 1, 3), Seq(0, 2, 1), Seq(0, 2, 3),
      Seq(0, 3, 1), Seq(0, 3, 2)))
    assert(round0.eviKeys.toSet == Set((1, 2), (1, 3), (2, 3)))
    // (1, 2) is registered by both (0, 1, 2) and (0, 2, 1), and kept once
    assert(round0.evi.toSeq == Seq(PlanCtx.packedKey(1, 2), PlanCtx.packedKey(1, 3), PlanCtx.packedKey(2, 3)))
    assert(failed0 == Set((1, 3), (2, 3)))
  }

  test("filter keeps the trie and records the failed keys") {
    assert(filtered0.trie eq round0.trie)
    assert(filtered0.eviKeys.isEmpty)
    assert(filtered0.failed.length == failed0.size)
    assert(filtered0.stats.verifyEdges == 3)
  }

  test("a round with no verification edge passes on its state, and an EVI there fails loudly") {
    assert(Phases.unverified(ctx, filtered0, 0, harvest = false) eq filtered0)
    val e = intercept[IllegalStateException](Phases.unverified(ctx, round0, 0, harvest = false))
    assert(e.getMessage.contains("machine 0") && e.getMessage.contains("round 0"))
    assert(e.getMessage.contains("3 undetermined edges"))
    intercept[IllegalStateException](Phases.unverified(ctx, round0, 0, harvest = true))
  }

  test("pendingFetch omits pivots that only refuted ECs need") {
    // u1 = 3 only in the refuted ECs (0, 3, 1) and (0, 3, 2)
    assert(filtered0.pendingFetch(ctx, 1, owner).toSet == Set(1, 2))
    val unfiltered = Phases.filter(ctx, round0, Set.empty[(Int, Int)], harvest = false)
    assert(unfiltered.pendingFetch(ctx, 1, owner).toSet == Set(1, 2, 3))
  }

  test("the next expand copies no refuted EC; ECs sharing its prefix survive") {
    // (0, 1, 2) shares (0, 1) with the refuted (0, 1, 3); (0, 2, 1) survives
    // but has no extension, since 2's only neighbours are 0 and 1.
    assert(paths(round1.trie).map(_.take(3)) == Set(Seq(0, 1, 2)))
    assert(round1.trie.resultCount == 6) // ordered pairs of {5, 6, 7}
    // 0, 1, 2, then 5, 6, 7 and six leaves: no ancestor of a refuted EC alone
    assert(round1.trie.nodeCount == 12)
    // Without the failed keys, (0, 1, 3) would grow below the same fetched pivot.
    val unfiltered = Phases.filter(ctx, round0, Set.empty[(Int, Int)], harvest = false)
    val grown = Phases.expand(ctx, unfiltered, block, fetch(Set(1, 2, 3)), owner, g = 0, i = 1)
    assert(paths(grown.trie).map(_.take(3)).contains(Seq(0, 1, 3)))
  }

  test("sibling distinctness holds in the expanded tries (Def. 11(3))") {
    Seq(round0.trie, round1.trie).foreach { t =>
      (1 until t.depth).foreach { l =>
        val siblings = (0 until t.levelSize(l)).groupBy(t.parent(l, _)).values
        siblings.foreach(ns => assert(ns.map(t.vertex(l, _)).distinct.size == ns.size))
      }
    }
  }

  test("a pivot whose adjacency was not fetched fails the expand loudly") {
    val e = intercept[IllegalStateException](
      Phases.expand(ctx, filtered0, block, Map.empty, owner, g = 0, i = 1))
    assert(e.getMessage.contains("machine 0") && e.getMessage.contains("round 1"))
    assert(e.getMessage.contains("vertex 1"))
  }

  test("the harvest omits refuted ECs and equals the reference") {
    val failed1 = verify(round1)
    assert(failed1 == Set((5, 7), (6, 7)))
    val done = Phases.filter(ctx, round1, failed1, harvest = true)
    val harvested = done.resultChunks.flatten.map(_.toSeq).toSet
    assert(harvested == Set(Seq(0, 1, 2, 5, 6), Seq(0, 1, 2, 6, 5)))
    assert(done.stats.distEmbeddings == 2)
    val reference = LocalEnum.reference(bowtie, g, Nil).embeddings.filter(_(0) == 0).map(_.toSeq).toSet
    assert(harvested == reference)
  }

  test("a count-only harvest keeps no result chunk and counts as a collecting one") {
    val failed1 = verify(round1)
    val collect = Phases.filter(ctx, round1, failed1, harvest = true)
    val count   = Phases.filter(ctx, round1, failed1, harvest = true, keep = false)
    assert(round1.resultChunks.isEmpty && count.resultChunks.isEmpty)
    assert(collect.resultChunks.flatten.size == 2)
    assert(count.stats == collect.stats && count.stats.distEmbeddings == 2)
  }

  test("an expand that fetched copies the previous cache; one that fetched nothing shares it (D8)") {
    val init = Phases.init(ctx, 0, block, owner, budgetBytes = 1e9, smeEnabled = false, seed = 1)
    assert(init.known.length == g.n && init.known.indices.forall(v => (init.known(v) == null) == (owner(v) != 0)))
    assert(Phases.expand(ctx, init, block, Map.empty, owner, g = 0, i = 0).known eq init.known)
    val before = filtered0.known.clone()
    assert(round1.known ne filtered0.known)
    assert(filtered0.known.indices.forall(v => filtered0.known(v) eq before(v)))
    assert(Set(1, 2).forall(v => round1.known(v).toSeq == g.neighbors(v).toSeq))
    // with both pivots cached, the expand fetches nothing and counts two hits
    val cached = new MachineState(0, filtered0.groups, filtered0.trie, filtered0.evi, filtered0.failed,
      round1.known, filtered0.resultChunks, filtered0.stats)
    val again = Phases.expand(ctx, cached, block, Map.empty, owner, g = 0, i = 1)
    assert(again.known eq round1.known)
    assert(again.stats.cacheHits == 2 && again.stats.fetchedVertices == 0)
    assert(paths(again.trie) == paths(round1.trie))
  }

  test("init knows exactly the owned lists; a fetching expand adds its lists to a copy") {
    def ownedOnly(st: MachineState): Boolean = (0 until g.n).forall(v =>
      if (owner(v) == 0) st.known(v).toSeq == g.neighbors(v).toSeq else st.known(v) == null)
    val init = Phases.init(ctx, 0, block, owner, budgetBytes = 1e9, smeEnabled = false, seed = 1)
    assert(ownedOnly(init))
    // round 1 fetched the pivots 1 and 2
    assert((0 until g.n).forall(v =>
      if (owner(v) == 0 || v == 1 || v == 2) round1.known(v).toSeq == g.neighbors(v).toSeq
      else round1.known(v) == null))
    // the fetch changed neither the previous state nor the block
    assert(ownedOnly(filtered0))
    assert((0 until g.n).forall(v => (block.nbrs.lift(v).orNull != null) == (owner(v) == 0)))
  }

  test("a count-only init keeps no SM-E result chunk and counts as a collecting one") {
    val road = GraphGen.roadLite(10, 10, seed = 3)
    val pg   = PartitionedGraph.metis(road, 2, seed = 4)
    val q1   = PlanCtx(Planner.dataPlan(Queries.q1, road.degreeCounts), Automorphism.symmetryBreaking(Queries.q1))
    val sme = (0 until 2).map { t =>
      val b = AdjBlock(t, pg.adjBlock(t))
      val collect = Phases.init(q1, t, b, pg.owner, budgetBytes = 2048, smeEnabled = true, seed = 1)
      val count   = Phases.init(q1, t, b, pg.owner, budgetBytes = 2048, smeEnabled = true, seed = 1,
        keepEmbeddings = false)
      assert(count.resultChunks.isEmpty)
      assert(collect.resultChunks.flatten.size == collect.stats.smeEmbeddings)
      assert(count.stats == collect.stats && count.groups == collect.groups)
      count.stats.smeEmbeddings
    }
    assert(sme.sum > 0)
  }
}
