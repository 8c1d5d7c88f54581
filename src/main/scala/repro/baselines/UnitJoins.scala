package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.PartitionedGraph
import repro.query.Pattern
import scala.collection.mutable

/** The one run of the unit-join baselines (TwinTwig, SEED): per-unit match
  * DataFrames (stars / cliques from the edge relation) and the multi-round
  * fold join that shuffles intermediates — exactly the cost the paper's §8
  * attributes to these systems.
  */
object UnitJoins {

  /** Matches of a star unit: pivot + 1..k leaves (no leaf-leaf edges).
    * Columns `v{piv}`, `v{leaf_i}`; leaves mapped injectively.
    */
  def starDf(edges: DataFrame, piv: Int, leaves: Vector[Int]): DataFrame = {
    var df = edges.select(col("src").as(s"v$piv"), col("dst").as(s"v${leaves.head}"))
    leaves.tail.foreach { l =>
      val e = edges.select(col("src").as("_s"), col("dst").as(s"v$l"))
      df = df.join(e, col(s"v$piv") === col("_s")).drop("_s")
    }
    for (i <- leaves.indices; j <- 0 until i)
      df = df.where(col(s"v${leaves(i)}") =!= col(s"v${leaves(j)}"))
    df
  }

  /** Matches of a triangle unit on pattern vertices (a, b, c). */
  def triangleDf(edges: DataFrame, a: Int, b: Int, c: Int): DataFrame = {
    val e1 = edges.select(col("src").as(s"v$a"), col("dst").as(s"v$b"))
    val e2 = edges.select(col("src").as("_s"), col("dst").as(s"v$c"))
    val e3 = edges.select(col("src").as("_ts"), col("dst").as("_td"))
    e1.join(e2, col(s"v$b") === col("_s")).drop("_s")
      .join(e3, col(s"v$a") === col("_ts") && col(s"v$c") === col("_td"), "left_semi")
      .where(col(s"v$a") =!= col(s"v$c"))
  }

  /** Matches of a 4-clique unit on pattern vertices (a, b, c, d). */
  def k4Df(edges: DataFrame, a: Int, b: Int, c: Int, d: Int): DataFrame = {
    var df = triangleDf(edges, a, b, c)
    val e  = edges.select(col("src").as("_s"), col("dst").as(s"v$d"))
    df = df.join(e, col(s"v$a") === col("_s")).drop("_s")
    Seq(b, c).foreach { x =>
      val e2 = edges.select(col("src").as("_fs"), col("dst").as("_fd"))
      df = df.join(e2, col(s"v$d") === col("_fs") && col(s"v$x") === col("_fd"), "left_semi")
    }
    df.where(col(s"v$d") =!= col(s"v$b")).where(col(s"v$d") =!= col(s"v$c"))
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
    val edges = pg.edgesDf(spark).persist()
    edges.count()
    val matches = units.map {
      case Seed.CliqueUnit(Vector(a, b, c)) => triangleDf(edges, a, b, c)
      case Seed.CliqueUnit(vs)              => k4Df(edges, vs(0), vs(1), vs(2), vs(3))
      case Seed.StarUnit(piv, lf)           => starDf(edges, piv, lf)
    }

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
    val run = tally.result(name, units.size, out, out.count())
    edges.unpersist(blocking = false)
    run
  }
}
