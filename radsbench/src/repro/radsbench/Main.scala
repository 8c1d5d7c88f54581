package repro.radsbench

import org.apache.spark.sql.SparkSession
import repro.core.LocalEnum
import repro.graph.PartitionedGraph
import repro.query.Automorphism

/** Median and tail percentile of a sample. */
object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Linear-interpolated percentile `p` in [0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val r = p / 100 * (s.size - 1)
    val lo = r.toInt
    if (lo + 1 >= s.size) s.last else s(lo) + (r - lo) * (s(lo + 1) - s(lo))
  }

  /** Highest tail percentile with at least ten of `n` samples above it. */
  def tailPercentile(n: Int): Option[Double] =
    Seq(99.9, 99.0, 95.0, 90.0, 75.0).find(p => n * (100 - p) / 100 >= 10)
}

/** A metric as printed by name, with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Sets up (Spark session, dataset generation, METIS-lite partitioning and
  * the seed's renumbering) five times and keeps the last, computes the
  * reference counts once, warms up with passes for ten seconds, then
  * measures passes for `--seconds`. With `--trace 0` it reports the
  * end-to-end metrics; with `--trace 1` it alternates untraced passes with
  * the traced replay and reports the per-layer metrics. The last line of
  * standard output is the JSON result.
  */
object Main {
  private val setupRepeats = 5
  private val warmupSeconds = 10

  final case class Setup(spark: SparkSession, pg: PartitionedGraph,
                         totalNanos: Long, genNanos: Long, partitionNanos: Long)

  private def setup(w: Workload, seed: Long): Setup = {
    val t0 = System.nanoTime()
    val spark = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName(s"radsbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    val t1 = System.nanoTime()
    val g = w.dataset()
    val t2 = System.nanoTime()
    val metis = PartitionedGraph.metis(g, Workloads.machines, Workloads.partitionSeed)
    val t3 = System.nanoTime()
    val pg = Workloads.renumber(metis, seed)
    Setup(spark, pg, System.nanoTime() - t0, t2 - t1, t3 - t2)
  }

  private def parse(args: Array[String]): Map[String, String] = {
    require(args.length % 2 == 0 && args.grouped(2).forall(_.head.startsWith("--")),
      s"usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>, got ${args.mkString(" ")}")
    val m = args.grouped(2).map(a => a(0).drop(2) -> a(1)).toMap
    require(Set("workload", "seed", "seconds", "trace").forall(m.contains),
      "--workload, --seed, --seconds and --trace are all required")
    m
  }

  def main(args: Array[String]): Unit = {
    val opts    = parse(args)
    val w       = Workloads.byName(opts("workload"))
    val seed    = opts("seed").toLong
    val seconds = opts("seconds").toInt
    val traced  = opts("trace") == "1"
    require(seconds >= 1 && Set("0", "1").contains(opts("trace")), "bad --seconds or --trace")

    val setups = (1 to setupRepeats).map { k =>
      val s = setup(w, seed)
      if (k < setupRepeats) s.spark.stop()
      s
    }
    val Setup(spark, pg, _, _, _) = setups.last
    val g = pg.graph
    println(s"workload ${w.name} seed $seed: |V|=${g.n} |E|=${g.numEdges} " +
      s"machines=${pg.m} cores=${spark.sparkContext.defaultParallelism} " +
      s"budget=${w.budgetBytes.toLong}B queries=${w.queries.map(_.name).mkString(",")}")

    // reference counts: once per process, outside every timed pass
    val reference = w.queries.map { q =>
      val t0 = System.nanoTime()
      val c  = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false).count
      (q.name, c, System.nanoTime() - t0)
    }
    val checker = new Checker(reference.map(r => r._1 -> r._2).toMap)
    val e2e     = new EndToEnd(spark, pg, w, checker)
    EndToEnd.timed(warmupSeconds)(e2e.pass())

    val metrics =
      if (!traced) {
        val passes = EndToEnd.timed(seconds)(e2e.pass())
        EndToEnd.printQueryRows(passes)
        val walls = passes.map(_.wallNanos / 1e9)
        val tail = Stats.tailPercentile(walls.size).fold("no tail percentile has 10 samples beyond it")(
          p => f"p$p%.1f ${Stats.percentile(walls, p)}%.4f s")
        println(f"wall_s median ${Stats.median(walls)}%.4f s over n=${walls.size} passes; $tail; " +
          s"passes ${walls.map(w => f"$w%.3f").mkString(" ")}")
        println(s"failed_frac ${checker.failed.toDouble / checker.attempted} ratio " +
          s"(${checker.failed} of ${checker.attempted} query executions)")
        def med(f: Pass => Double) = Stats.median(passes.map(f))
        Seq(
          Metric("wall_s", Stats.median(walls), "s"),
          Metric("setup_s", Stats.median(setups.map(_.totalNanos / 1e9)), "s"),
          Metric("comm_bytes", med(_.commBytes.toDouble), "B"),
          Metric("shuffle_bytes", med(_.spark.shuffleWriteBytes.toDouble), "B"))
      } else {
        TracedReplay.layerMetrics(spark, pg, w, e2e, checker, seconds,
          genSeconds = Stats.median(setups.map(_.genNanos / 1e9)),
          partitionSeconds = Stats.median(setups.map(_.partitionNanos / 1e9)),
          referenceSeconds = reference.map(_._3).sum / 1e9)
      }

    metrics.foreach(m => println(f"${m.name}%-28s ${m.value}%18.6f ${m.unit}"))
    spark.stop()
    println(json(checker, metrics))
  }

  private def json(checker: Checker, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": ${checker.failed == 0}, "attempted": ${checker.attempted}, """ +
      s""""failed": ${checker.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }
}
