package repro.core

import repro.SparkSpec
import repro.graph.{Graph, GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Pattern, Queries}

/** Degenerate inputs and structural edge cases for the RADS engine. */
class RadsEdgeCaseSuite extends SparkSpec {

  private def refCount(q: Pattern, g: Graph): Long =
    LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false).count

  test("single-edge pattern counts every edge once") {
    val g  = GraphGen.gnm(40, 100, seed = 1)
    val q  = Pattern("edge", 2, Vector((0, 1)))
    val pg = PartitionedGraph.metis(g, 3, seed = 1)
    val r  = Rads.enumerate(spark, pg, q)
    assert(r.count == g.numEdges)
    assert(r.count == refCount(q, g))
  }

  test("star patterns (single-unit plans, zero verification edges)") {
    val g  = GraphGen.powerLaw(120, 3, 24, seed = 2)
    val pg = PartitionedGraph.metis(g, 3, seed = 2)
    Seq(Queries.star(2), Queries.star(3), Queries.star(4)).foreach { q =>
      val r = Rads.enumerate(spark, pg, q)
      assert(r.count == refCount(q, g), q.name)
      assert(r.metrics.rounds == 1, s"${q.name}: stars need exactly one round")
    }
  }

  test("path patterns across machine boundaries") {
    val g  = GraphGen.path(30)
    val pg = PartitionedGraph(g, Array.tabulate(30)(v => if (v < 15) 0 else 1), 2)
    Seq(Queries.path(3), Queries.path(4), Queries.path(5)).foreach { q =>
      assert(Rads.enumerate(spark, pg, q).count == refCount(q, g), q.name)
    }
  }

  test("triangle pattern with every vertex on a different machine") {
    val g  = Graph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val pg = PartitionedGraph(g, Array(0, 1, 2), 3)
    val r  = Rads.enumerate(spark, pg, Queries.triangle)
    assert(r.count == 1)
    // one round verifying one undetermined edge: a 16 B request and a 1 B answer
    assert(r.metrics.comm == CommStats(0, 0, 16, 1))
  }

  test("disconnected data graph") {
    val g = Graph.fromEdges(12,
      Seq((0, 1), (1, 2), (0, 2), (6, 7), (7, 8), (6, 8), (10, 11)))
    val pg = PartitionedGraph.metis(g, 2, seed = 3)
    assert(Rads.enumerate(spark, pg, Queries.triangle).count == 2)
  }

  test("graph smaller than the pattern") {
    val g  = GraphGen.path(3)
    val pg = PartitionedGraph.metis(g, 2, seed = 4)
    assert(Rads.enumerate(spark, pg, Queries.q6).count == 0)
  }

  test("pattern equal to the whole data graph") {
    val g  = GraphGen.cycle(6)
    val pg = PartitionedGraph(g, Array(0, 0, 0, 1, 1, 1), 2)
    assert(Rads.enumerate(spark, pg, Queries.q6).count == 1)
  }

  test("m larger than needed (more machines than busy partitions)") {
    val g  = GraphGen.gnm(30, 70, seed = 5)
    val pg = PartitionedGraph.metis(g, 6, seed = 5)
    assert(Rads.enumerate(spark, pg, Queries.q2).count == refCount(Queries.q2, g))
  }

  test("dense clique data graph (maximum sharing of undetermined edges)") {
    val g  = GraphGen.clique(12)
    val pg = PartitionedGraph.hashed(g, 3)
    // C(12,3) triangles
    assert(Rads.enumerate(spark, pg, Queries.triangle).count == 220)
    // K4s: C(12,4)
    assert(Rads.enumerate(spark, pg, Queries.tq2).count == 495)
  }

  test("undirected verification is orientation-independent (hub graph)") {
    // star data graph: hub on machine 0, leaves scattered
    val g  = Graph.fromEdges(9, (1 until 9).map(i => (0, i)))
    val pg = PartitionedGraph(g, Array.tabulate(9)(_ % 3), 3)
    assert(Rads.enumerate(spark, pg, Queries.star(3)).count == refCount(Queries.star(3), g))
  }
}
