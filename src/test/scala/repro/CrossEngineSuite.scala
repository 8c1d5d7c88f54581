package repro

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.baselines.{PSgL, TwinTwig}
import repro.core.{LocalEnum, Rads}
import repro.graph.{GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Queries}

/** Randomized cross-engine agreement (ScalaCheck without the scalatest
  * bridge: properties are checked explicitly).
  */
class CrossEngineSuite extends SparkSpec {

  private def checkProp(p: Prop, n: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p)
    assert(res.passed, res.status.toString)
  }

  private val genGraph = for {
    n    <- Gen.choose(20, 60)
    m    <- Gen.choose(n, 3 * n)
    seed <- Gen.choose(1L, 10000L)
  } yield GraphGen.gnm(n, m, seed)

  private val genQuery = Gen.oneOf(Queries.q1, Queries.q2, Queries.q3, Queries.q4, Queries.tq1)

  test("property: RADS count equals the local reference on random graphs") {
    checkProp(Prop.forAll(genGraph, genQuery, Gen.choose(1, 4)) { (g, q, m) =>
      val pg  = PartitionedGraph.metis(g, m, seed = 7)
      val run = Rads.enumerate(spark, pg, q, Rads.Config(keepEmbeddings = false))
      val ref = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false)
      run.count == ref.count
    }, 6)
  }

  test("property: RADS under hash partitioning equals the reference") {
    checkProp(Prop.forAll(genGraph, genQuery) { (g, q) =>
      val pg  = PartitionedGraph.hashed(g, 3)
      val run = Rads.enumerate(spark, pg, q, Rads.Config(keepEmbeddings = false))
      val ref = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false)
      run.count == ref.count
    }, 5)
  }

  test("property: TwinTwig equals the reference") {
    checkProp(Prop.forAll(genGraph, Gen.oneOf(Queries.q1, Queries.q2, Queries.q4)) { (g, q) =>
      val pg  = PartitionedGraph.metis(g, 2, seed = 3)
      val run = TwinTwig.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      val ref = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false)
      val ok  = run.count == ref.count
      run.df.unpersist()
      ok
    }, 4)
  }

  test("property: PSgL equals the reference") {
    checkProp(Prop.forAll(genGraph, Gen.oneOf(Queries.q1, Queries.q3)) { (g, q) =>
      val pg  = PartitionedGraph.metis(g, 2, seed = 4)
      val run = PSgL.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      val ref = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false)
      val ok  = run.count == ref.count
      run.df.unpersist()
      ok
    }, 4)
  }

  test("property: |all| == |broken| x |Aut| on random graphs") {
    checkProp(Prop.forAll(genGraph, genQuery) { (g, q) =>
      val aut = Automorphism.automorphisms(q).size
      val all = LocalEnum.reference(q, g, Nil, keepEmbeddings = false).count
      val brk = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false).count
      all == brk * aut
    }, 20)
  }
}
