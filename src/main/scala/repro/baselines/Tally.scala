package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{BaselineMetrics, IntermediateOverflowException}

/** A join baseline's run: its embeddings (persisted, columns `v{u}`), their
  * number and its shuffle accounting.
  */
final case class BaselineRun(df: DataFrame, count: Long, metrics: BaselineMetrics)

/** The shuffle accounting of one join-baseline run, timed from its
  * construction. Every intermediate the engine materializes (a PSgL
  * superstep, a TwinTwig/SEED unit or join round, a Crystal join step) goes
  * through [[apply]] and is priced at its own width: tuples × columns × 8 B
  * (DESIGN.md §2, D6).
  */
final class Tally(maxIntermediate: Long) {
  private val t0     = System.currentTimeMillis()
  private var tuples = 0L
  private var bytes  = 0L

  /** Persists and counts `df`, charges its tuples and returns their number.
    * More than `maxIntermediate` tuples throw [[IntermediateOverflowException]],
    * the simulated out-of-memory failure.
    */
  def apply(df: DataFrame): Long = {
    val c = df.persist().count()
    if (c > maxIntermediate) throw new IntermediateOverflowException(c, maxIntermediate)
    tuples += c
    bytes  += c * df.columns.length * 8L
    c
  }

  /** The run returning `out` with its `count` and the totals charged so far. */
  def result(name: String, rounds: Int, out: DataFrame, count: Long): BaselineRun =
    BaselineRun(out, count, BaselineMetrics(name, tuples, bytes, rounds, System.currentTimeMillis() - t0))
}
