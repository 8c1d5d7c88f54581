package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.PartitionedGraph
import repro.query.Pattern
import scala.collection.mutable

/** The one run of the unit-join baselines (TwinTwig, SEED): per-unit match
  * DataFrames (each unit enumerated on the edge relation) and the multi-round
  * fold join that shuffles intermediates — exactly the cost the paper's §8
  * attributes to these systems.
  */
object UnitJoins {

  /** Matches of one unit on the edge relation, columns `v{u}` for its
    * vertices: [[JoinEnum.extend]] over the unit renumbered to 0..k-1
    * (vertex 0 the pivot or first clique vertex), from the edges as (v0, v1).
    */
  def unitDf(edges: DataFrame, unit: Seed.Unit_): DataFrame = {
    val vs  = unit.vs
    val idx = vs.zipWithIndex.toMap
    val p   = Pattern("unit", vs.size, unit.edges.map { case (a, b) => (idx(a), idx(b)) })
    val start = edges.select(col("src").as("v0"), col("dst").as("v1"))
    JoinEnum.extend(edges, p, Nil, start, Vector(0, 1))
      .select(vs.indices.map(i => col(s"v$i").as(s"v${vs(i)}")): _*)
  }

  /** Runs a unit-join baseline (TwinTwig, SEED): matches every unit on the
    * edge relation, then left-deep joins them in order, with injectivity and
    * symmetry breaking applied as soon as their columns exist. The units
    * must cover exactly the pattern's edges, and each must share a vertex
    * with the ones before it. Every unit's matches and every join's output
    * are tallied: the MapReduce rounds whose shuffles the paper's §8 charges
    * to these systems.
    */
  def run(spark: SparkSession, pg: PartitionedGraph, name: String, p: Pattern, sb: Seq[(Int, Int)],
          units: Vector[Seed.Unit_], maxIntermediate: Long): BaselineRun = {
    require(units.flatMap(_.edges).toSet == p.edges.toSet, s"$name units must cover exactly the edges of ${p.name}")
    val tally = new Tally(maxIntermediate)
    val edges = tally.keep(pg.edgesDf(spark))
    val matches = units.map(unitDf(edges, _))

    val mapped = mutable.ArrayBuffer.from(units.head.vs)
    tally(matches.head)
    var df = JoinEnum.whereSb(matches.head, sb, mapped, units.head.vs)
    units.zip(matches).tail.foreach { case (unit, unitDf) =>
      val shared = unit.vs.filter(mapped.contains)
      require(shared.nonEmpty, "unit join needs a shared vertex")
      val fresh  = unit.vs.filterNot(mapped.contains)
      tally(unitDf)
      // rename the unit's shared columns, join on equality
      var u = unitDf
      shared.foreach(s => u = u.withColumnRenamed(s"v$s", s"_j$s"))
      df = df.join(u, shared.map(s => col(s"v$s") === col(s"_j$s")).reduce(_ && _))
      shared.foreach(s => df = df.drop(s"_j$s"))
      for (f <- fresh; w <- mapped) df = df.where(col(s"v$f") =!= col(s"v$w"))
      for (i <- fresh.indices; j <- 0 until i)
        df = df.where(col(s"v${fresh(i)}") =!= col(s"v${fresh(j)}"))
      mapped ++= fresh
      df = JoinEnum.whereSb(df, sb, mapped, fresh)
      tally(df)
    }
    val out = df.select((0 until p.n).map(i => col(s"v$i")): _*).persist()
    tally.result(name, units.size, out, out.count())
  }
}
