package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{BaselineMetrics, IntermediateOverflowException}
import scala.collection.mutable

/** A join baseline's run: its embeddings (persisted, columns `v{u}`), their
  * number and its shuffle accounting.
  */
final case class BaselineRun(df: DataFrame, count: Long, metrics: BaselineMetrics)

/** The shuffle accounting of one join-baseline run, timed from its
  * construction. Every intermediate the engine materializes (a PSgL
  * superstep, a TwinTwig/SEED unit or join round, a Crystal join step) goes
  * through [[apply]] and is priced at its own width: tuples × columns × 8 B
  * (DESIGN.md §2, D6). What the run persists through the tally is released
  * when the run ends: by [[result]], or by the overflow it throws.
  */
final class Tally(maxIntermediate: Long) {
  private val t0     = System.currentTimeMillis()
  private var tuples = 0L
  private var bytes  = 0L
  private val cached = mutable.ArrayBuffer[DataFrame]()

  /** Persists `df` until the run ends and returns it. */
  def keep(df: DataFrame): DataFrame = { cached += df.persist(); df }

  /** Persists and counts `df`, charges its tuples and returns their number.
    * More than `maxIntermediate` tuples throw [[IntermediateOverflowException]],
    * the simulated out-of-memory failure.
    */
  def apply(df: DataFrame): Long = {
    val c = keep(df).count()
    if (c > maxIntermediate) { release(); throw new IntermediateOverflowException(c, maxIntermediate) }
    tuples += c
    bytes  += c * df.columns.length * 8L
    c
  }

  /** The run returning `out` with its `count` and the totals charged so far.
    * `out` must be counted: it stays cached for the caller, and everything
    * else the tally persisted is released.
    */
  def result(name: String, rounds: Int, out: DataFrame, count: Long): BaselineRun = {
    cached.filterInPlace(_ ne out)
    release()
    BaselineRun(out, count, BaselineMetrics(name, tuples, bytes, rounds, System.currentTimeMillis() - t0))
  }

  private def release(): Unit = { cached.foreach(_.unpersist()); cached.clear() }
}
