package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.graph.PartitionedGraph
import repro.query.Pattern

/** TwinTwig (Lai et al., PVLDB'15): decompose the pattern into stars of at
  * most TWO edges ("twin twigs"), then multi-round joins, shuffling every
  * intermediate result on the join key — the memory/network behavior the
  * paper's experiments show collapsing on dense graphs. It is SEED's greedy
  * and unit joins with no clique units and two leaves per star.
  */
object TwinTwig {

  /** Twin-twig units (pivot, 1–2 leaves): every pattern edge covered by
    * exactly one unit, consecutive units connected.
    */
  def decompose(p: Pattern): Vector[(Int, Vector[Int])] =
    units(p).collect { case Seed.StarUnit(piv, lf) => (piv, lf) }

  private def units(p: Pattern): Vector[Seed.Unit_] = Seed.decompose(p, cliqueSizes = Nil, maxLeaves = 2)

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): BaselineRun =
    UnitJoins.run(spark, pg, "TwinTwig", p, sb, units(p), maxIntermediate)
}
