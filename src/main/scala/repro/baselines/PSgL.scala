package repro.baselines

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
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

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): BaselineRun = {
    val tally = new Tally(maxIntermediate)
    val start = spark.range(pg.graph.n).select(col("id").cast("int").as("v0"))
    // each step is one superstep: the partial matches materialize and move
    val out   = JoinEnum.extend(pg.edgesDf(spark), p, sb, start, Vector(0), onStep = tally(_)).persist()
    tally.result("PSgL", p.n - 1, out, out.count())
  }
}
