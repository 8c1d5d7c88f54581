package repro.core

import org.apache.spark.StageCounter
import repro.SparkSpec
import repro.graph.{GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Planner, Queries}

/** RADS (SM-E + R-Meef) vs the single-machine ground truth, across
  * partitioners, machine counts and memory budgets.
  */
class RadsEngineSuite extends SparkSpec {

  private def canon(es: Seq[Array[Int]]): Set[Seq[Int]] = es.map(_.toSeq).toSet

  private def check(gName: String, g: repro.graph.Graph, pg: PartitionedGraph,
                    q: repro.query.Pattern, cfg: Rads.Config = Rads.Config()): RadsRun = {
    val run = Rads.enumerate(spark, pg, q, cfg)
    val ref = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q))
    assert(run.count == ref.count, s"$gName/${q.name}: got ${run.count}, want ${ref.count}")
    assert(canon(run.embeddings) == canon(ref.embeddings), s"$gName/${q.name} sets differ")
    run
  }

  private val grid = GraphGen.grid(8, 8)
  private val pl   = GraphGen.powerLaw(150, 3, 24, seed = 2)
  private val road = GraphGen.roadLite(10, 10, seed = 3)

  test("all main queries on a metis-partitioned grid, m=3") {
    val pg = PartitionedGraph.metis(grid, 3, seed = 1)
    Queries.main.foreach(q => check("grid", grid, pg, q))
  }

  test("all main queries on a metis-partitioned power-law graph, m=4") {
    val pg = PartitionedGraph.metis(pl, 4, seed = 2)
    Queries.main.foreach(q => check("pl", pl, pg, q))
  }

  test("clique queries on the power-law graph, m=4") {
    val pg = PartitionedGraph.metis(pl, 4, seed = 3)
    Queries.cliquey.foreach(q => check("pl", pl, pg, q))
  }

  test("hash partitioning (worst locality) still gives exact results") {
    val pg = PartitionedGraph.hashed(pl, 4)
    Seq(Queries.q1, Queries.q2, Queries.q4, Queries.tq1).foreach(q => check("pl-hash", pl, pg, q))
  }

  test("hash partitioning leaves almost no SM-E candidates (nearly all vertices near a border)") {
    val pg  = PartitionedGraph.hashed(pl, 4)
    val run = check("pl-hash", pl, pg, Queries.q2)
    val m   = run.metrics.machines
    // a vertex whose whole neighborhood shares its residue class can still be
    // interior (BD = ∞), but those are rare — the bulk must go distributed
    assert(m.smeCandidates * 10 < m.distCandidates,
      s"sme=${m.smeCandidates} dist=${m.distCandidates}")
  }

  test("m=1: everything is SM-E and communication is zero") {
    val pg  = PartitionedGraph.metis(pl, 1)
    val run = check("pl-m1", pl, pg, Queries.q4)
    assert(run.metrics.comm.totalBytes == 0)
    assert(run.metrics.machines.distCandidates == 0)
    assert(run.metrics.machines.distEmbeddings == 0)
  }

  test("road-like graph: most of the work is SM-E (the paper's RoadNet story)") {
    val pg  = PartitionedGraph.metis(road, 2, seed = 4)
    val run = check("road", road, pg, Queries.q1)
    val m   = run.metrics.machines
    assert(m.smeCandidates > m.distCandidates,
      s"sme=${m.smeCandidates} dist=${m.distCandidates}")
  }

  test("one region group per machine over 2 rounds runs 14 stages, count-only") {
    val pg = PartitionedGraph.metis(pl, 4, seed = 2)
    val q  = Queries.q4
    val (stages, run) = StageCounter.around(spark.sparkContext)(
      Rads.enumerate(spark, pg, q, Rads.Config(budgetBytes = 1e9, keepEmbeddings = false)))
    assert(run.count == LocalEnum.reference(q, pl, Automorphism.symmetryBreaking(q)).count)
    assert(run.metrics.rounds == 2)
    // Φ = 1 GB puts each machine's distributed candidates in one group
    assert(run.metrics.machines.regionGroups >= 1 && run.metrics.machines.regionGroups <= pg.m)
    val init   = 2 // ship the adjacency blocks to their machines; init + the group count
    val round0 = 1 + 3 // expand; verifyE requests to owners, answers back, filter
    val round1 = 3 + 3 // fetchV requests to owners, answers back, expand; then verifyE as in round 0
    val gather = 2 // result count; stats
    assert(stages == init + round0 + round1 + gather)
  }

  test("disabling SM-E still yields exact results (ablation)") {
    val pg = PartitionedGraph.metis(pl, 3, seed = 5)
    Seq(Queries.q1, Queries.q4).foreach(q =>
      check("pl-noSme", pl, pg, q, Rads.Config(smeEnabled = false)))
  }

  test("disabling SM-E increases communication") {
    val pg   = PartitionedGraph.metis(road, 2, seed = 6)
    val on   = Rads.enumerate(spark, pg, Queries.q1)
    val off  = Rads.enumerate(spark, pg, Queries.q1, Rads.Config(smeEnabled = false))
    assert(on.count == off.count)
    assert(on.metrics.comm.totalBytes <= off.metrics.comm.totalBytes)
  }

  test("a tiny region-group budget still yields exact results (§6 robustness)") {
    val pg = PartitionedGraph.metis(pl, 3, seed = 7)
    val run = check("pl-tinyΦ", pl, pg, Queries.q4, Rads.Config(budgetBytes = 64))
    assert(run.metrics.machines.regionGroups > 1, "tiny Φ must force multiple groups")
  }

  test("smaller budget bounds the peak trie size") {
    val pg  = PartitionedGraph.hashed(pl, 2)
    val big = Rads.enumerate(spark, pg, Queries.q2, Rads.Config(budgetBytes = 1e9))
    val sml = Rads.enumerate(spark, pg, Queries.q2, Rads.Config(budgetBytes = 400))
    assert(big.count == sml.count)
    assert(sml.metrics.machines.peakEtBytes <= big.metrics.machines.peakEtBytes)
    assert(sml.metrics.machines.regionGroups >= big.metrics.machines.regionGroups)
  }

  test("metrics: totalEmbeddings equals the result count") {
    val pg  = PartitionedGraph.metis(pl, 3, seed = 8)
    val run = Rads.enumerate(spark, pg, Queries.q3)
    assert(run.metrics.totalEmbeddings == run.count)
  }

  test("metrics: trie bytes never exceed list bytes (§5 compression)") {
    val pg  = PartitionedGraph.metis(pl, 3, seed = 9)
    val run = Rads.enumerate(spark, pg, Queries.q5)
    val m   = run.metrics.machines
    assert(m.sumEtBytes <= m.sumElBytes || m.sumElBytes == 0,
      s"et=${m.sumEtBytes} el=${m.sumElBytes}")
  }

  test("RanS and RanM plans produce the same result set") {
    val pg = PartitionedGraph.metis(pl, 3, seed = 10)
    val q  = Queries.q4
    (1L to 3L).foreach { s =>
      check("pl-ranS", pl, pg, q, Rads.Config(plan = Some(Planner.ranS(q, s))))
      check("pl-ranM", pl, pg, q, Rads.Config(plan = Some(Planner.ranM(q, s))))
    }
  }

  test("every minimum-round q4 plan returns the reference result set, metis and hash, m=4") {
    val q     = Queries.q4
    val plans = Planner.candidatePlans(q)
    assert(plans.size == 8)
    Seq("pl" -> PartitionedGraph.metis(pl, 4, seed = 2), "pl-hash" -> PartitionedGraph.hashed(pl, 4))
      .foreach { case (gName, pg) =>
        plans.foreach(plan => check(s"$gName $plan", pl, pg, q, Rads.Config(plan = Some(plan))))
      }
  }

  test("with no plan given, Rads.enumerate runs the data-aware plan") {
    val q   = Queries.q4
    val run = Rads.enumerate(spark, PartitionedGraph.metis(pl, 4, seed = 2), q,
      Rads.Config(keepEmbeddings = false))
    assert(run.plan == Planner.dataPlan(q, pl.degreeCounts))
    assert(run.plan != Planner.bestPlan(q))
  }

  test("metis vs hash: same results, metis needs less communication") {
    val q     = Queries.q1
    val metis = Rads.enumerate(spark, PartitionedGraph.metis(grid, 4, seed = 11), q)
    val hash  = Rads.enumerate(spark, PartitionedGraph.hashed(grid, 4), q)
    assert(metis.count == hash.count)
    assert(metis.metrics.comm.totalBytes < hash.metrics.comm.totalBytes,
      s"metis=${metis.metrics.comm.totalBytes} hash=${hash.metrics.comm.totalBytes}")
  }

  test("foreign-vertex caching: fetches never exceed distinct foreign vertices") {
    val pg  = PartitionedGraph.hashed(pl, 3)
    val run = Rads.enumerate(spark, pg, Queries.q3)
    assert(run.metrics.machines.fetchedVertices <= 3L * pl.n)
  }

  test("results are valid embeddings (edges + injectivity + symmetry breaking)") {
    val pg = PartitionedGraph.metis(pl, 4, seed = 12)
    val q  = Queries.q8
    val sb = Automorphism.symmetryBreaking(q)
    val run = Rads.enumerate(spark, pg, q)
    run.embeddings.foreach { f =>
      assert(f.toSet.size == q.n)
      q.edges.foreach { case (a, b) => assert(pl.hasEdge(f(a), f(b))) }
      assert(Automorphism.satisfies(sb, f))
    }
  }
}
