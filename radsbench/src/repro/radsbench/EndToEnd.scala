package repro.radsbench

import org.apache.spark.radsbench.{SparkTotals, StageListener}
import org.apache.spark.sql.SparkSession
import repro.core.Rads
import repro.graph.PartitionedGraph
import repro.query.Pattern
import scala.collection.mutable
import scala.util.control.NonFatal

/** One query execution: `count` is -1 when it threw. */
final case class QueryRun(
    query: String,
    wallNanos: Long,
    count: Long,
    commBytes: Long,
    spark: SparkTotals)

/** One pass over a workload's queries, run back to back. */
final case class Pass(runs: Seq[QueryRun]) {
  def wallNanos: Long = runs.map(_.wallNanos).sum
  def commBytes: Long = runs.map(_.commBytes).sum
  def spark: SparkTotals = runs.map(_.spark).foldLeft(SparkTotals())(_ + _)
}

/** Counts query executions and checks each result count; `reference` holds
  * the single-thread `LocalEnum.reference` counts, computed once per process.
  */
final class Checker(val reference: Map[String, Long]) {
  private var attempts = 0L
  private val failures = mutable.ArrayBuffer[String]()

  def attempted: Long = attempts
  def failed: Long = failures.size.toLong

  /** Records one execution of `query` by `engine`; `count` < 0 means it threw. */
  def check(engine: String, query: String, count: Long, expected: Long, error: String = ""): Unit = {
    attempts += 1
    val msg =
      if (count < 0) Some(s"$engine $query threw $error")
      else if (count != expected) Some(s"$engine $query counted $count, expected $expected")
      else None
    msg.foreach { m => failures += m; println(s"FAILED $m") }
  }
}

/** The untraced end-to-end runner: `Rads.enumerate`, count-only, one query
  * at a time, with Spark totals read from the listener around each query.
  */
final class EndToEnd(spark: SparkSession, pg: PartitionedGraph, w: Workload, checker: Checker) {
  val listener = new StageListener(spark.sparkContext)
  private val cfg = Rads.Config(budgetBytes = w.budgetBytes, keepEmbeddings = false)

  def pass(): Pass = Pass(w.queries.map(run))

  private def run(q: Pattern): QueryRun = {
    val before = listener.snapshot()
    val t0 = System.nanoTime()
    val (count, comm, error) =
      try {
        val r = Rads.enumerate(spark, pg, q, cfg)
        (r.count, r.metrics.comm.totalBytes, "")
      } catch { case NonFatal(e) => (-1L, 0L, e.toString) }
    val wall = System.nanoTime() - t0
    checker.check("rads", q.name, count, checker.reference(q.name), error)
    QueryRun(q.name, wall, count, comm, listener.snapshot() - before)
  }
}

object EndToEnd {
  /** Runs `pass` until `seconds` have elapsed, at least once. */
  def timed[T](seconds: Int)(pass: => T): Seq[T] = {
    val end = System.nanoTime() + seconds * 1000000000L
    val out = mutable.ArrayBuffer(pass)
    while (System.nanoTime() < end) out += pass
    out.toSeq
  }

  /** Prints one row per query: medians over the passes. */
  def printQueryRows(passes: Seq[Pass]): Unit = {
    println(f"${"query"}%-6s ${"wall_s"}%10s ${"comm_B"}%12s ${"results"}%12s ${"jobs"}%6s")
    passes.head.runs.map(_.query).foreach { q =>
      val runs = passes.map(_.runs.find(_.query == q).get)
      println(f"$q%-6s ${Stats.median(runs.map(_.wallNanos / 1e9))}%10.4f " +
        f"${Stats.median(runs.map(_.commBytes.toDouble))}%12.0f " +
        f"${runs.head.count}%12d ${Stats.median(runs.map(_.spark.jobs.toDouble))}%6.0f")
    }
  }
}
