package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{BaselineMetrics, IntermediateOverflowException, LocalEnum}
import repro.graph.PartitionedGraph
import repro.query.Pattern

/** PSgL (Shao et al., SIGMOD'14): Pregel-style graph exploration.
  *
  * Query vertices are matched one at a time in breadth-first order
  * ([[JoinEnum.extend]]); every step the set of partial matches is shuffled
  * to the machines owning the next expansion vertex's adjacency and
  * extended there. We model each step as a join of the partial-match
  * DataFrame against the edge DataFrame: the join's shuffle IS the
  * partial-result exchange the paper's communication charts attribute to
  * PSgL. No compression, no memory control (the paper's points (2) and (3)
  * of §8 against PSgL).
  */
object PSgL {

  final case class Run(df: DataFrame, count: Long, metrics: BaselineMetrics)

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): Run = {
    val t0    = System.currentTimeMillis()
    val u0    = LocalEnum.order(p, 0).head
    val start = spark.range(pg.graph.n).select(col("id").cast("int").as(s"v$u0"))
    var shuffledTuples = 0L
    var shuffledBytes  = 0L
    val out = JoinEnum.extend(pg.edgesDf(spark), p, sb, start, Vector(u0),
      onStep = (df, step) => {
        val c = df.persist().count() // one superstep: partials materialize and move
        if (c > maxIntermediate) throw new IntermediateOverflowException(c, maxIntermediate)
        shuffledTuples += c
        shuffledBytes  += c * (step + 1) * 8L
      }).persist()
    val count = out.count()
    Run(out, count,
      BaselineMetrics("PSgL", shuffledTuples, shuffledBytes, p.n - 1, System.currentTimeMillis() - t0))
  }
}
