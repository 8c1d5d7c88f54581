package repro.baselines

import repro.{Oracle, SparkSpec}
import repro.core.LocalEnum
import repro.graph.{GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Queries}

class JoinEnumSuite extends SparkSpec {

  private val g  = GraphGen.gnm(50, 130, seed = 31)
  private val pg = PartitionedGraph.metis(g, 2, seed = 1)
  private lazy val edges = pg.edgesDf(spark).persist()

  private def canonDf(df: org.apache.spark.sql.DataFrame): Set[Seq[Int]] =
    df.collect().map(r => (0 until r.length).map(i => r.getInt(i)): Seq[Int]).toSet

  // PSgL is JoinEnum.extend from every vertex; BaselineEnginesSuite compares
  // its result sets on q1-q5 only
  Queries.main.foreach { q =>
    test(s"JoinEnum matches the local reference on ${q.name}") {
      val sb  = Automorphism.symmetryBreaking(q)
      val run = PSgL.run(spark, pg, q, sb)
      val ref = LocalEnum.reference(q, g, sb)
      assert(canonDf(run.df) == ref.embeddings.map(_.toSeq).toSet, q.name)
      run.df.unpersist()
    }
  }

  test("duckSql agrees with the local reference (oracle of the oracle)") {
    Seq(Queries.q1, Queries.q2, Queries.q4, Queries.tq2).foreach { q =>
      val sb  = Automorphism.symmetryBreaking(q)
      val ref = LocalEnum.reference(q, g, sb)
      val df  = repro.core.Rads.toDf(spark, q, ref.embeddings)
      Oracle.assertEquivalent(df, JoinEnum.duckSql(q, sb), "edges" -> edges)
    }
  }

  test("duckSql includes one relation per pattern edge") {
    val sql = JoinEnum.duckSql(Queries.q6, Nil)
    assert((1 to Queries.q6.numEdges).forall(i => sql.contains(s"edges e$i")))
  }

  test("duckSql applies symmetry-breaking conditions") {
    val sb  = Automorphism.symmetryBreaking(Queries.q1)
    val sql = JoinEnum.duckSql(Queries.q1, sb)
    assert(sb.nonEmpty && sql.contains(" < "))
  }

  test("extend() from a partial mapping completes the pattern") {
    val q  = Queries.q2
    val sb = Automorphism.symmetryBreaking(q)
    // seed: all edges as (v0, v1) candidates of the triangle base
    val seed = edges.select(
      org.apache.spark.sql.functions.col("src").as("v0"),
      org.apache.spark.sql.functions.col("dst").as("v1"))
    val df  = JoinEnum.extend(edges, q, sb, seed, Vector(0, 1))
    val ref = LocalEnum.reference(q, g, sb)
    assert(canonDf(df) == ref.embeddings.map(_.toSeq).toSet)
  }

  test("empty graph region yields no embeddings") {
    val tiny = PartitionedGraph.metis(GraphGen.path(3), 1)
    val run  = PSgL.run(spark, tiny, Queries.tq2, Automorphism.symmetryBreaking(Queries.tq2))
    assert(run.count == 0 && run.df.count() == 0)
    run.df.unpersist()
  }
}
