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

  /** Per round of `plan`: whether it has a verification edge, and so runs verifyE. */
  private def hasVerifyE(plan: repro.query.ExecutionPlan): Vector[Boolean] =
    plan.units.indices.map(plan.verificationEdges(_).nonEmpty).toVector

  /** Runs `q` on `pg` (count-only unless `keep`) and returns its stage and
    * job counts, after checking the count, that rounds with a verification
    * edge are exactly `verified`, and that every stage runs one task per
    * machine (machine t is partition t).
    */
  private def pinned(pg: PartitionedGraph, q: repro.query.Pattern, budgetBytes: Double,
                     verified: Vector[Boolean], keep: Boolean = false,
                     plan: Option[repro.query.ExecutionPlan] = None): (Long, Long, RadsRun) = {
    val (stages, jobs, tasks, run) = StageCounter.around(spark.sparkContext)(
      Rads.enumerate(spark, pg, q, Rads.Config(budgetBytes = budgetBytes, keepEmbeddings = keep, plan = plan)))
    assert(run.count == LocalEnum.reference(q, pg.graph, Automorphism.symmetryBreaking(q)).count)
    assert(hasVerifyE(run.plan) == verified)
    assert(tasks == pg.m * stages, s"$tasks tasks in $stages stages on ${pg.m} machines")
    (stages, jobs, run)
  }

  /** The most region groups any machine of `pg` forms for `plan` under `budgetBytes`. */
  private def maxGroups(pg: PartitionedGraph, plan: repro.query.ExecutionPlan, budgetBytes: Double): Int = {
    val cfg = Rads.Config()
    val ctx = PlanCtx(plan, Automorphism.symmetryBreaking(plan.pattern))
    (0 until pg.m).map(t => Phases.init(ctx, t, AdjBlock(t, pg.adjBlock(t)), pg.owner, budgetBytes,
      cfg.smeEnabled, cfg.seed).groups.size).max
  }

  test("one region group per machine: q4 runs 1 job and 6 stages, count-only") {
    val pg = PartitionedGraph.metis(pl, 4, seed = 2)
    // Φ = 1 GB puts each machine's distributed candidates in one group
    val (stages, jobs, run) = pinned(pg, Queries.q4, 1e9, Vector(false, true))
    assert(run.metrics.machines.regionGroups >= 1 && run.metrics.machines.regionGroups <= pg.m)
    val ship  = 1 // ship the adjacency blocks to their machines
    // fetchV requests to owners (computing init and expand 0), answers back;
    // expand 1 + verifyE requests to owners, answers back; filter and the report
    val group = 5
    assert(stages == ship + group)
    assert(jobs == 1)
  }

  test("one region group per machine: q6 runs 1 job and 10 stages, count-only") {
    val pg = PartitionedGraph.metis(pl, 4, seed = 2)
    // rounds 0-2 have no verification edge, so they run no verifyE and no filter
    val (stages, jobs, run) = pinned(pg, Queries.q6, 1e9, Vector(false, false, false, true))
    assert(run.metrics.machines.regionGroups >= 1 && run.metrics.machines.regionGroups <= pg.m)
    val ship   = 1
    val fetchV = 3 * 2 // rounds 1-3: requests to owners (computing the previous expand), answers back
    val verify = 3     // expand 3 + verifyE requests to owners, answers back, filter and the report
    assert(stages == ship + fetchV + verify)
    assert(jobs == 1)
  }

  test("G region groups: q4 runs G jobs and 5G + 1 stages, count-only") {
    val pg     = PartitionedGraph.metis(pl, 4, seed = 2)
    val budget = 2048.0
    val groups = maxGroups(pg, Planner.dataPlan(Queries.q4, pl.degreeCounts), budget)
    assert(groups > 1)
    val (stages, jobs, _) = pinned(pg, Queries.q4, budget, Vector(false, true))
    assert(jobs == groups)
    assert(stages == 5 * groups + 1)
  }

  test("G region groups: q5 verifying in rounds 0 and 1 runs G jobs, count-only") {
    val pg     = PartitionedGraph.metis(pl, 4, seed = 2)
    val budget = 2048.0
    val plan   = Planner.candidatePlans(Queries.q5).find(hasVerifyE(_) == Vector(true, true)).get
    val groups = maxGroups(pg, plan, budget)
    assert(groups > 1)
    val (stages, jobs, _) = pinned(pg, Queries.q5, budget, Vector(true, true), plan = Some(plan))
    assert(jobs == groups)
    // round 0: expand + verifyE requests, answers; round 1: fetchV requests
    // (computing the filter), answers, expand + verifyE requests, answers;
    // filter and the report
    assert(stages == 7 * groups + 1)
  }

  test("G region groups: a collecting q4 run runs G + 1 jobs") {
    val pg     = PartitionedGraph.metis(pl, 4, seed = 2)
    val budget = 2048.0
    val groups = maxGroups(pg, Planner.dataPlan(Queries.q4, pl.degreeCounts), budget)
    val (stages, jobs, run) = pinned(pg, Queries.q4, budget, Vector(false, true), keep = true)
    assert(run.embeddings.size == run.count)
    assert(jobs == groups + 1)
    assert(stages == 5 * groups + 2) // the gather reads the cached last state in one more stage
  }

  test("m=1: one job, the reference count and no communication") {
    val pg = PartitionedGraph.metis(pl, 1)
    // no machine has a distributed candidate, so group 0 runs over empty tries
    val (stages, jobs, run) = pinned(pg, Queries.q4, 1e9, Vector(false, true))
    assert(run.metrics.machines.regionGroups == 0)
    assert(run.metrics.comm.totalBytes == 0)
    assert(jobs == 1)
    assert(stages == 6)
  }

  test("pinned counters: q4 and q6 on the power-law graph, metis and hash, m=4, several groups") {
    // (count, region groups, fetched vertices, fetched adjacency entries,
    //  cache hits, verified edges, trie nodes, peak trie bytes), all summed
    //  over the machines but the peak. A change to how expand looks up
    //  adjacency must leave every one of them as it is.
    val pinned = Map(
      ("metis", "q4") -> Seq(2539L, 52L, 207L, 1302L, 296L, 520L, 11760L, 38260L),
      ("metis", "q6") -> Seq(15664L, 70L, 444L, 2553L, 58082L, 66L, 136107L, 438540L),
      ("hash", "q4")  -> Seq(2539L, 52L, 257L, 1583L, 894L, 628L, 12012L, 38080L),
      ("hash", "q6")  -> Seq(15664L, 70L, 444L, 2553L, 56021L, 59L, 136047L, 436260L))
    Seq("metis" -> PartitionedGraph.metis(pl, 4, seed = 2), "hash" -> PartitionedGraph.hashed(pl, 4)).foreach { case (n, pg) =>
      Seq(Queries.q4, Queries.q6).foreach { q =>
        val run = Rads.enumerate(spark, pg, q, Rads.Config(budgetBytes = 2048, keepEmbeddings = false))
        val s = run.metrics.machines
        assert(Seq(run.count, s.regionGroups, s.fetchedVertices, s.fetchedAdjEntries, s.cacheHits,
          s.verifyEdges, s.sumEtNodes, s.peakEtBytes) == pinned((n, q.name)), s"$n/${q.name}")
      }
    }
  }

  test("every q3, q5 and path-5 plan and four q6 plans return the reference, m=3") {
    val pg  = PartitionedGraph.metis(pl, 3, seed = 13)
    val cfg = Rads.Config(budgetBytes = 2048)
    val q3 = Planner.candidatePlans(Queries.q3)
    assert(q3.size == 20 && q3.forall(p => !hasVerifyE(p)(0) && !hasVerifyE(p)(1)))
    val q5 = Planner.candidatePlans(Queries.q5)
    assert(q5.size == 2 && q5.map(hasVerifyE(_).head).toSet == Set(true, false))
    val q6 = Planner.candidatePlans(Queries.q6).take(4)
    // no round verifies, so the final round harvests inside its expand
    val path = Planner.candidatePlans(Queries.path(5))
    assert(path.forall(p => p.numRounds > 1 && !hasVerifyE(p).contains(true)))
    Seq(Queries.q3 -> q3, Queries.q5 -> q5, Queries.q6 -> q6, Queries.path(5) -> path).foreach { case (q, plans) =>
      plans.foreach { plan =>
        val run = check(s"pl $plan", pl, pg, q, cfg.copy(plan = Some(plan)))
        assert(run.metrics.machines.regionGroups > pg.m, s"$plan: Φ must force several groups per machine")
      }
    }
  }

  test("no persisted RDD outlives Rads.enumerate, count-only or collecting") {
    val pg = PartitionedGraph.metis(pl, 3, seed = 14)
    Seq(false, true).foreach { keep =>
      Seq(Queries.q4, Queries.q5, Queries.q6).foreach { q =>
        val before = spark.sparkContext.getPersistentRDDs.keySet
        val run = Rads.enumerate(spark, pg, q, Rads.Config(budgetBytes = 2048, keepEmbeddings = keep))
        assert(run.metrics.machines.regionGroups > pg.m)
        assert(spark.sparkContext.getPersistentRDDs.keySet.filterNot(before).isEmpty, s"${q.name}, keepEmbeddings = $keep")
      }
    }
  }

  test("a run that fails inside a job leaves no persisted RDD behind") {
    val pg   = PartitionedGraph.metis(pl, 3, seed = 14)
    val q    = Queries.q4
    val plan = Planner.dataPlan(q, pl.degreeCounts)
    val ctx  = PlanCtx(plan, Automorphism.symmetryBreaking(q))
    // a round-1 pivot that round 1 itself matches has no image yet, so the expand throws
    val broken = ctx.copy(pivOf = ctx.pivOf.updated(1, ctx.unitLeaves(1).head))
    val before = spark.sparkContext.getPersistentRDDs.keySet
    intercept[org.apache.spark.SparkException](
      RMeefEngine.run(spark, pg, broken, plan, Rads.Config(budgetBytes = 2048, keepEmbeddings = false)))
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
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
