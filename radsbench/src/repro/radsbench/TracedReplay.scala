package repro.radsbench

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.{CollectionAccumulator, LongAccumulator}
import repro.core._
import repro.graph.PartitionedGraph
import repro.query.{Automorphism, Pattern, Planner}
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag
import scala.util.control.NonFatal

/** Time one machine spent in one phase at one dataflow step. */
final case class Span(phase: String, step: Int, mid: Int, nanos: Long)

/** What tasks of one traced query record: spans, plus counts that the
  * engine's own metrics do not carry.
  */
final class Tracer(sc: SparkContext) extends Serializable {
  val spans: CollectionAccumulator[Span] = sc.collectionAccumulator[Span]("spans")
  val fetchBytes: LongAccumulator   = sc.longAccumulator("fetchBytes")
  val verifyBytes: LongAccumulator  = sc.longAccumulator("verifyBytes")
  val verifyFailed: LongAccumulator = sc.longAccumulator("verifyFailed")
  val ecs: LongAccumulator          = sc.longAccumulator("ecs")
  val lastRoundEcs: LongAccumulator = sc.longAccumulator("lastRoundEcs")

  def time[T](phase: String, step: Int, mid: Int)(body: => T): T = {
    val t0 = System.nanoTime()
    val r  = body
    spans.add(Span(phase, step, mid, System.nanoTime() - t0))
    r
  }

  /** Critical path of the phases: per step the slowest machine, summed. */
  def criticalSeconds(phases: String*): Double =
    spans.value.asScala.filter(s => phases.contains(s.phase)).groupBy(s => (s.phase, s.step))
      .values.map(_.map(_.nanos).max).sum / 1e9
}

/** One traced query execution. */
final case class QueryTrace(
    query: String,
    count: Long,
    wallNanos: Long,
    planNanos: Long,
    gatherNanos: Long,
    rounds: Int,
    stats: MachineStats,
    tracer: Tracer)

/** Replays the R-Meef dataflow of `RMeefEngine.run` job for job, calling the
  * same public phase functions, with a span around each call. The engine
  * itself carries no tracing, so per-layer times come from this replay and
  * the end-to-end metrics from untraced runs; their difference in wall time
  * is the tracing overhead.
  */
object TracedReplay {

  def replay(spark: SparkSession, pg: PartitionedGraph, q: Pattern, budgetBytes: Double): QueryTrace = {
    val sc  = spark.sparkContext
    val cfg = Rads.Config(budgetBytes = budgetBytes, keepEmbeddings = false)
    val tr  = new Tracer(sc)
    val t0  = System.nanoTime()
    val plan = Planner.bestPlan(q, cfg.rho)
    val planNanos = System.nanoTime() - t0
    val ctx = PlanCtx(plan, Automorphism.symmetryBreaking(q))

    val m    = pg.m
    val last = ctx.numRounds - 1
    val part = new MidPartitioner(m)
    val ownerBc = sc.broadcast(pg.owner)
    val adjRdd: RDD[(Int, AdjBlock)] = sc
      .parallelize((0 until m).map(t => (t, AdjBlock(t, pg.adjBlock(t)))), m)
      .partitionBy(part)
      .persist(StorageLevel.MEMORY_ONLY)
    adjRdd.count()

    def emptyResp[T: ClassTag]: RDD[(Int, T)] =
      sc.parallelize(Seq.empty[(Int, T)], m).partitionBy(part)

    var state: RDD[(Int, MachineState)] = sc
      .parallelize((0 until m).map(t => (t, t)), m)
      .partitionBy(part)
      .zipPartitions(adjRdd) { (tIter, aIter) =>
        val mid   = tIter.next()._1
        val block = aIter.next()._2
        Iterator((mid, tr.time("init", 0, mid)(
          Phases.init(ctx, mid, block, ownerBc.value, budgetBytes, cfg.smeEnabled, cfg.seed))))
      }
      .persist(StorageLevel.MEMORY_ONLY)
    val maxGroups = state.map(_._2.groups.size).reduce(math.max)

    def materialize(next: RDD[(Int, MachineState)]): RDD[(Int, MachineState)] = {
      val persisted = next.persist(StorageLevel.MEMORY_ONLY)
      persisted.count()
      state.unpersist(blocking = false)
      persisted
    }

    for (g <- 0 until maxGroups; i <- 0 until ctx.numRounds) {
      val step = g * ctx.numRounds + i
      val fetchResp: RDD[(Int, (Int, Array[Int]))] =
        if (i == 0) emptyResp[(Int, Array[Int])]
        else {
          val reqs = state.flatMap { case (mid, st) =>
            tr.time("fetch.request", step, mid)(
              st.pendingFetch(ctx, i, ownerBc.value).map(v => (ownerBc.value(v), (mid, v))).toVector)
          }
          reqs.partitionBy(part).zipPartitions(adjRdd) { (rIter, aIter) =>
            val block = aIter.next()._2
            tr.time("fetch.serve", step, block.mid)(rIter.map { case (_, (reqMid, v)) =>
              val nb = block.adj.getOrElse(v, Array.empty[Int])
              tr.fetchBytes.add(8L + 8L * (1 + nb.length))
              (reqMid, (v, nb))
            }.toVector).iterator
          }.partitionBy(part)
        }

      state = materialize(
        state.zipPartitions(adjRdd, fetchResp) { (sIter, aIter, rIter) =>
          val (mid, st) = sIter.next()
          val block     = aIter.next()._2
          val fetched   = tr.time("fetch.receive", step, mid)(rIter.map { case (_, (v, nb)) => v -> nb }.toMap)
          val next = tr.time("expand", step, mid)(
            Phases.expand(ctx, st, block, fetched, ownerBc.value, g, i))
          val ecs = next.trie.resultCount
          tr.ecs.add(ecs)
          if (i == last) tr.lastRoundEcs.add(ecs)
          Iterator((mid, next))
        })

      val verResp: RDD[(Int, ((Int, Int), Boolean))] = {
        val reqs = state.flatMap { case (mid, st) =>
          tr.time("verify.request", step, mid)(
            st.eviKeys.map { case (a, b) => (ownerBc.value(a), (mid, a, b)) }.toVector)
        }
        reqs.partitionBy(part).zipPartitions(adjRdd) { (rIter, aIter) =>
          val block = aIter.next()._2
          tr.time("verify.serve", step, block.mid)(rIter.map { case (_, (reqMid, a, b)) =>
            val exists = block.hasEdge(a, b)
            tr.verifyBytes.add(17)
            if (!exists) tr.verifyFailed.add(1)
            (reqMid, ((a, b), exists))
          }.toVector).iterator
        }.partitionBy(part)
      }
      state = materialize(
        state.zipPartitions(verResp) { (sIter, rIter) =>
          val (mid, st) = sIter.next()
          val failed = tr.time("verify.receive", step, mid)(
            rIter.collect { case (_, (key, exists)) if !exists => key }.toSet)
          Iterator((mid, tr.time("filter", step, mid)(Phases.filter(ctx, st, failed, harvest = i == last))))
        })
    }

    val tg    = System.nanoTime()
    val count = state.flatMap(_._2.resultChunks.iterator.flatten).count()
    val stats = state.map(_._2.stats).reduce(_ + _)
    val gatherNanos = System.nanoTime() - tg
    state.unpersist(blocking = false)
    adjRdd.unpersist(blocking = false)
    ownerBc.destroy()
    QueryTrace(q.name, count, System.nanoTime() - t0, planNanos, gatherNanos, ctx.numRounds, stats, tr)
  }

  /** Per-layer metrics of one traced pass, next to the untraced pass `e2e`
    * that ran just before it in the same process.
    */
  private def passMetrics(qs: Seq[QueryTrace], e2e: Pass, budgetBytes: Double,
                          cores: Int): Seq[Metric] = {
    def sum(f: QueryTrace => Double): Double = qs.map(f).sum
    def crit(phases: String*): Double = sum(_.tracer.criticalSeconds(phases: _*))
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    def lratio(a: Long, b: Long): Double = ratio(a.toDouble, b.toDouble)
    val st      = qs.map(_.stats).reduce(_ + _)
    val sp      = e2e.spark
    val wall    = sum(_.wallNanos.toDouble) / 1e9
    val e2eWall = e2e.wallNanos / 1e9
    val plan    = sum(_.planNanos.toDouble) / 1e9
    val init    = crit("init")
    val fetch   = crit("fetch.request", "fetch.serve", "fetch.receive")
    val expand  = crit("expand")
    val verify  = crit("verify.request", "verify.serve", "verify.receive")
    val filter  = crit("filter")
    val gather  = sum(_.gatherNanos.toDouble) / 1e9
    Seq(
      Metric("query.plan_s", plan, "s"),
      Metric("query.rounds", sum(_.rounds.toDouble), "count"),
      Metric("core.init_s", init, "s"),
      Metric("core.sme_share", lratio(st.smeCandidates, st.smeCandidates + st.distCandidates), "ratio"),
      Metric("core.region_groups", st.regionGroups.toDouble, "count"),
      Metric("core.fetch_s", fetch, "s"),
      Metric("core.fetch_vertices", st.fetchedVertices.toDouble, "count"),
      Metric("core.fetch_bytes", sum(_.tracer.fetchBytes.sum.toDouble), "B"),
      Metric("core.cache_hit_ratio", lratio(st.cacheHits, st.cacheHits + st.fetchedVertices), "ratio"),
      Metric("core.expand_s", expand, "s"),
      Metric("core.ecs", sum(_.tracer.ecs.sum.toDouble), "count"),
      Metric("core.verify_s", verify, "s"),
      Metric("core.verify_edges", st.verifyEdges.toDouble, "count"),
      Metric("core.verify_bytes", sum(_.tracer.verifyBytes.sum.toDouble), "B"),
      Metric("core.verify_fail_ratio", ratio(sum(_.tracer.verifyFailed.sum.toDouble), st.verifyEdges.toDouble), "ratio"),
      Metric("core.filter_s", filter, "s"),
      Metric("core.ec_survival_ratio",
        ratio(st.distEmbeddings.toDouble, sum(_.tracer.lastRoundEcs.sum.toDouble)), "ratio"),
      Metric("core.trie_nodes", st.sumEtNodes.toDouble, "count"),
      Metric("core.el_et_ratio", lratio(st.sumElBytes, st.sumEtBytes), "ratio"),
      Metric("core.peak_trie_bytes", st.peakEtBytes.toDouble, "B"),
      Metric("core.peak_over_budget", st.peakEtBytes / budgetBytes, "ratio"),
      Metric("core.gather_s", gather, "s"),
      Metric("core.results", sum(_.count.toDouble), "count"),
      Metric("dataflow.jobs", sp.jobs.toDouble, "count"),
      Metric("dataflow.stages", sp.stages.toDouble, "count"),
      Metric("dataflow.tasks", sp.tasks.toDouble, "count"),
      Metric("dataflow.executor_run_s", sp.executorRunNanos / 1e9, "s"),
      Metric("dataflow.executor_cpu_s", sp.executorCpuNanos / 1e9, "s"),
      Metric("dataflow.gc_s", sp.gcNanos / 1e9, "s"),
      Metric("dataflow.deserialize_s", sp.deserializeNanos / 1e9, "s"),
      Metric("dataflow.shuffle_read_bytes", sp.shuffleReadBytes.toDouble, "B"),
      Metric("dataflow.core_utilization", ratio(sp.executorRunNanos / 1e9, e2eWall * cores), "ratio"),
      Metric("dataflow.overhead_s", wall - (plan + init + fetch + expand + verify + filter + gather), "s"),
      Metric("trace.overhead_s", wall - e2eWall, "s"))
  }

  /** Alternates untraced and traced passes for `seconds`; every replayed
    * count must equal the untraced count of the same query in the same round.
    * Each metric is the median over the rounds.
    */
  def layerMetrics(spark: SparkSession, pg: PartitionedGraph, w: Workload, e2e: EndToEnd,
                   checker: Checker, seconds: Int, genSeconds: Double,
                   partitionSeconds: Double, referenceSeconds: Double): Seq[Metric] = {
    val cores = spark.sparkContext.defaultParallelism
    val rounds = EndToEnd.timed(seconds) {
      val untraced = e2e.pass()
      val traced = untraced.runs.zip(w.queries).map { case (run, q) =>
        try {
          val t = replay(spark, pg, q, w.budgetBytes)
          checker.check("replay", q.name, t.count, run.count)
          Some(t)
        } catch {
          case NonFatal(e) => checker.check("replay", q.name, -1, run.count, e.toString); None
        }
      }
      (untraced, traced)
    }
    EndToEnd.printQueryRows(rounds.map(_._1))
    val ok = rounds.collect { case (u, t) if t.forall(_.isDefined) => (u, t.flatten) }
    require(ok.nonEmpty, "every traced pass failed")
    val medians = ok.map { case (u, t) => passMetrics(t, u, w.budgetBytes, cores) }.transpose
      .map(ms => ms.head.copy(value = Stats.median(ms.map(_.value))))
    val e2eWall = Stats.median(rounds.map(_._1.wallNanos / 1e9))
    Seq(
      Metric("graph.gen_s", genSeconds, "s"),
      Metric("graph.partition_s", partitionSeconds, "s"),
      Metric("graph.border_fraction", pg.borderFraction, "ratio")) ++ medians ++ Seq(
      Metric("reference.local_enum_s", referenceSeconds, "s"),
      Metric("reference.gap_x", e2eWall / referenceSeconds, "x"))
  }
}
