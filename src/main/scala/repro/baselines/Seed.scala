package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.graph.PartitionedGraph
import repro.query.Pattern
import scala.collection.mutable

/** SEED (Lai et al., PVLDB'16): like TwinTwig but decomposition units may
  * be CLIQUES (triangles, 4-cliques) as well as stars — cliques are matched
  * as a unit (the paper's star-clique-preserved storage lets SEED list them
  * per machine), which shrinks the number of join rounds and the
  * intermediate volume on clique-rich queries. Deviation D5: left-deep
  * instead of bushy joins.
  */
object Seed {

  sealed trait Unit_ {
    /** The unit's pattern vertices, in the column order of its matches. */
    def vs: Vector[Int]
    /** The pattern edges the unit covers, as (smaller, larger). */
    def edges: Vector[(Int, Int)]
  }
  final case class CliqueUnit(vs: Vector[Int]) extends Unit_ {
    def edges: Vector[(Int, Int)] = for (a <- vs; b <- vs if a < b) yield (a, b)
  }
  final case class StarUnit(piv: Int, leaves: Vector[Int]) extends Unit_ {
    def vs: Vector[Int] = piv +: leaves
    def edges: Vector[(Int, Int)] = leaves.map(l => (math.min(piv, l), math.max(piv, l)))
  }

  /** Greedy: the first clique, by size in `cliqueSizes` order, with an
    * uncovered edge and overlap with the matched part; otherwise a star of
    * at most `maxLeaves` uncovered edges, pivoted at the matched vertex with
    * the most of them (any vertex for the first unit). With no cliques and
    * two leaves this is TwinTwig's decomposition.
    */
  def decompose(p: Pattern, cliqueSizes: Seq[Int] = Seq(4, 3), maxLeaves: Int = Int.MaxValue): Vector[Unit_] = {
    val uncovered = mutable.LinkedHashSet.from(p.edges)
    val touched   = mutable.Set[Int]()
    val units     = mutable.ArrayBuffer[Unit_]()
    def incident(v: Int) = uncovered.filter { case (a, b) => a == v || b == v }

    while (uncovered.nonEmpty) {
      val first = units.isEmpty
      val clique = cliqueSizes.iterator.flatMap(p.cliques).map(CliqueUnit(_)).find { c =>
        c.edges.exists(uncovered.contains) && (first || c.vs.exists(touched.contains))
      }
      val unit = clique.getOrElse {
        val cands = if (first) 0 until p.n else touched.toVector.filter(incident(_).nonEmpty)
        val piv   = cands.maxBy(v => (incident(v).size, -v))
        StarUnit(piv, incident(piv).take(maxLeaves).toVector.map { case (a, b) => if (a == piv) b else a })
      }
      units += unit
      uncovered --= unit.edges
      touched ++= unit.vs
    }
    units.toVector
  }

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): BaselineRun =
    UnitJoins.run(spark, pg, "SEED", p, sb, decompose(p), maxIntermediate)
}
