package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Graph, PartitionedGraph}

/** The batched verifyE protocol without Spark: the EVI as sorted packed
  * keys, split into one batch per owner machine, answered by the owner with
  * the keys that are edges, and turned back into the failed keys by the
  * requester. Misrouted requests and answers fail loudly.
  */
class VerifyBatchSuite extends AnyFunSuite {

  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  private def stateWith(evi: Array[Long]): MachineState =
    new MachineState(0, Vector.empty, new EmbeddingTrie(1), evi, Array.emptyLongArray, Array.empty[Array[Int]], Nil,
      MachineStats())

  private val genKeys: Gen[Array[Long]] = Gen.oneOf(
    Gen.const(Array.emptyLongArray),
    Gen.choose(0L, 50L).flatMap(k => Gen.choose(1, 20).map(Array.fill(_)(k))), // every key the same
    Gen.listOf(Gen.choose(0L, 60L)).map(_.toArray),
    Gen.listOf(Gen.choose(Long.MinValue, Long.MaxValue)).map(_.toArray))

  /** A sorted EVI without repeats over vertices 0 until 12. */
  private val genEvi: Gen[Array[Long]] =
    Gen.listOf(Gen.zip(Gen.choose(0, 11), Gen.choose(0, 11)).suchThat { case (a, b) => a != b })
      .map(es => PlanCtx.sortedDistinct(es.map { case (a, b) => PlanCtx.packedKey(a, b) }.toArray))

  test("property: sortedDistinct equals distinct.sorted") {
    checkProp(Prop.forAll(genKeys) { xs =>
      val expected = xs.distinct.sorted.toSeq
      PlanCtx.sortedDistinct(xs.clone()).toSeq == expected
    })
    assert(PlanCtx.sortedDistinct(Array.emptyLongArray).isEmpty)
    assert(PlanCtx.sortedDistinct(Array(7L, 7L, 7L)).toSeq == Seq(7L))
  }

  test("eviByOwner sends every key to the owner of its smaller endpoint, once") {
    val owner = Array.tabulate(12)(v => v % 3)
    checkProp(Prop.forAll(genEvi) { evi =>
      val batches = stateWith(evi).eviByOwner(owner, 4)
      batches.forall { case (t, keys) =>
        keys.nonEmpty && keys.forall(k => owner(PlanCtx.smaller(k)) == t) &&
          keys.sliding(2).forall(p => p.length < 2 || p(0) < p(1))
      } && batches.map(_._1).distinct.size == batches.size &&
        batches.flatMap(_._2).sorted.toSeq == evi.toSeq
    })
  }

  test("property: the failed keys are the EVI minus the confirmed keys, sorted") {
    checkProp(Prop.forAll(genEvi.flatMap(evi => Gen.someOf(evi.toSeq).map(c => (evi, c.toArray)))) {
      case (evi, confirmed) =>
        val failed = stateWith(evi).failedKeys(confirmed.reverse)
        failed.toSeq == evi.toSeq.filterNot(confirmed.toSet) &&
          failed.toSeq == failed.toSeq.sorted && failed.distinct.length == failed.length
    })
  }

  test("a confirmed key outside the EVI fails the requester loudly") {
    val st = stateWith(Array(PlanCtx.packedKey(1, 2), PlanCtx.packedKey(2, 3)))
    assert(st.failedKeys(Array(PlanCtx.packedKey(2, 3))).toSeq == Seq(PlanCtx.packedKey(1, 2)))
    val e = intercept[IllegalStateException](st.failedKeys(Array(PlanCtx.packedKey(1, 3))))
    assert(e.getMessage.contains("machine 0") && e.getMessage.contains("(1, 3)"))
  }

  private val block = AdjBlock(1, Array(null, Array(2, 5, 9), Array(1), null, Array.emptyIntArray))

  test("AdjBlock.existing answers exactly the keys that are edges") {
    val keys = Array((1, 2), (1, 3), (1, 5), (1, 9), (2, 7), (4, 5)).map { case (a, b) => PlanCtx.packedKey(a, b) }
    assert(block.existing(keys).toSeq == Seq((1, 2), (1, 5), (1, 9)).map { case (a, b) => PlanCtx.packedKey(a, b) })
    assert(block.existing(Array.emptyLongArray).isEmpty)
  }

  test("a request for a vertex the block does not own fails loudly") {
    val e = intercept[IllegalStateException](block.existing(Array(PlanCtx.packedKey(1, 2), PlanCtx.packedKey(3, 4))))
    assert(e.getMessage == "machine 1 does not own vertex 3")
    assert(block.adjOf(4).isEmpty) // an owned vertex without neighbours is no error
    assert(intercept[IllegalStateException](block.adjOf(7)).getMessage == "machine 1 does not own vertex 7")
  }

  test("property: an AdjBlock of pg.adjBlock answers adjOf, hasEdge and existing as the graph does") {
    val genPg: Gen[PartitionedGraph] = for {
      n     <- Gen.choose(0, 16)
      edges <- Gen.listOf(Gen.zip(Gen.choose(0, 15), Gen.choose(0, 15)))
      owner <- Gen.listOfN(n, Gen.choose(0, 2))
    } yield PartitionedGraph(Graph.fromEdges(n, edges.filter { case (a, c) => a < n && c < n }), owner.toArray, 3)
    checkProp(Prop.forAll(genPg) { pg =>
      val g  = pg.graph
      val vs = -1 to 17
      (0 until 3).forall { t =>
        val b = AdjBlock(t, pg.adjBlock(t))
        def owns(v: Int) = v >= 0 && v < g.n && pg.owner(v) == t
        val owned = vs.forall(v =>
          if (owns(v)) b.adjOf(v) eq g.neighbors(v)
          else scala.util.Try(b.adjOf(v)).failed.toOption.exists(_.isInstanceOf[IllegalStateException]))
        val edges = vs.forall(a => vs.forall(c => b.hasEdge(a, c) == (owns(a) && g.hasEdge(a, c))))
        val keys  = pg.localVertices(t).flatMap(a => vs.filter(_ > a).map(PlanCtx.packedKey(a, _)))
        val exist = b.existing(keys).toSeq == keys.toSeq.filter(k => g.hasEdge(PlanCtx.smaller(k), PlanCtx.larger(k)))
        owned && edges && exist && b.nbrs.length == g.n && b.adj.keySet == pg.localVertices(t).toSet &&
          b.adj.forall { case (v, nb) => nb eq g.neighbors(v) }
      }
    })
  }

  test("adjOf throws for a foreign vertex inside the array and for one beyond its end") {
    assert(block.nbrs.length == 5 && block.nbrs(3) == null)
    assert(intercept[IllegalStateException](block.adjOf(3)).getMessage == "machine 1 does not own vertex 3")
    assert(intercept[IllegalStateException](block.adjOf(5)).getMessage == "machine 1 does not own vertex 5")
    assert(intercept[IllegalStateException](block.adjOf(-1)).getMessage == "machine 1 does not own vertex -1")
  }
}
