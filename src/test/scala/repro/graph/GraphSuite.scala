package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphSuite extends AnyFunSuite {

  test("fromEdges dedups, drops self-loops, symmetrizes") {
    val g = Graph.fromEdges(4, Seq((0, 1), (1, 0), (0, 1), (2, 2), (2, 3)))
    assert(g.numEdges == 2)
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(!g.hasEdge(2, 2))
    assert(g.hasEdge(3, 2))
  }

  test("adjacency arrays are sorted") {
    val g = Graph.fromEdges(5, Seq((3, 1), (3, 0), (3, 4), (3, 2)))
    assert(g.neighbors(3).toSeq == Seq(0, 1, 2, 4))
  }

  test("degree and avgDegree") {
    val g = GraphGen.cycle(6)
    assert((0 until 6).forall(g.degree(_) == 2))
    assert(g.avgDegree == 2.0)
  }

  test("hasEdge binary search negative cases") {
    val g = GraphGen.path(4)
    assert(g.hasEdge(1, 2) && !g.hasEdge(0, 2) && !g.hasEdge(0, 3))
  }

  test("edges iterator yields each edge once as (min,max)") {
    val g = GraphGen.cycle(4)
    assert(g.edges.toSet == Set((0, 1), (1, 2), (2, 3), (0, 3)))
  }

  test("bfsDistances on a path") {
    val g = GraphGen.path(5)
    assert(g.bfsDistances(0).toSeq == Seq(0, 1, 2, 3, 4))
    assert(g.bfsDistances(2).toSeq == Seq(2, 1, 0, 1, 2))
  }

  test("bfsDistances marks unreachable as MaxValue") {
    val g = Graph.fromEdges(4, Seq((0, 1)))
    val d = g.bfsDistances(0)
    assert(d(1) == 1 && d(2) == Int.MaxValue && d(3) == Int.MaxValue)
  }

  test("isConnected") {
    assert(GraphGen.cycle(5).isConnected)
    assert(!Graph.fromEdges(3, Seq((0, 1))).isConnected)
  }

  test("diameter of path, cycle, clique") {
    assert(GraphGen.path(7).diameter() == 6)
    assert(GraphGen.cycle(8).diameter() == 4)
    assert(GraphGen.clique(5).diameter() == 1)
  }

  test("diameter of grid") {
    assert(GraphGen.grid(3, 4).diameter() == 5) // (rows-1)+(cols-1)
  }

  test("triangleCount on known graphs") {
    assert(GraphGen.clique(4).triangleCount == 4)
    assert(GraphGen.clique(5).triangleCount == 10)
    assert(GraphGen.cycle(5).triangleCount == 0)
    assert(Graph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2))).triangleCount == 1)
  }

  test("fromEdges rejects out-of-range edges") {
    assertThrows[IllegalArgumentException](Graph.fromEdges(2, Seq((0, 5))))
  }
}
