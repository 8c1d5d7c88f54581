package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSuite extends AnyFunSuite {

  test("roadLite is connected and sparse") {
    val g = GraphGen.roadLite(20, 20, seed = 1)
    assert(g.n == 400)
    assert(g.isConnected)
    assert(g.avgDegree < 3.5, s"avgDeg=${g.avgDegree}")
  }

  test("roadLite has a large diameter relative to size") {
    val g = GraphGen.roadLite(25, 25, seed = 2)
    assert(g.diameter() >= 24, "a road-like graph must have a grid-scale diameter")
  }

  test("roadLite is deterministic in seed") {
    val a = GraphGen.roadLite(12, 12, seed = 5)
    val b = GraphGen.roadLite(12, 12, seed = 5)
    assert(a.edges.toSet == b.edges.toSet)
    val c = GraphGen.roadLite(12, 12, seed = 6)
    assert(a.edges.toSet != c.edges.toSet)
  }

  test("powerLaw hits the requested scale and cap") {
    val g = GraphGen.powerLaw(800, edgesPerVertex = 4, maxDegree = 40, seed = 3)
    assert(g.n == 800)
    assert(g.avgDegree > 4.0 && g.avgDegree < 10.0, s"avgDeg=${g.avgDegree}")
    // cap is approximate (seed clique + fallbacks) but must bound hubs
    assert((0 until g.n).map(g.degree).max <= 40 + 4, s"max=${(0 until g.n).map(g.degree).max}")
  }

  test("powerLaw degree distribution is skewed") {
    val g    = GraphGen.powerLaw(1200, 3, 64, seed = 4)
    val degs = (0 until g.n).map(g.degree).sorted
    val p50  = degs(g.n / 2)
    val p99  = degs((g.n * 99) / 100)
    assert(p99 >= 3 * p50, s"p50=$p50 p99=$p99 — expected a heavy tail")
  }

  test("dblpLite matches the DBLP profile direction (avg degree ~6.6)") {
    val g = GraphGen.dblpLite(2000, seed = 7)
    assert(g.avgDegree > 4.5 && g.avgDegree < 9.0, s"avgDeg=${g.avgDegree}")
  }

  test("ljLite is denser than dblpLite") {
    val d = GraphGen.dblpLite(1500, seed = 8)
    val l = GraphGen.powerLaw(1500, 6, 64, seed = 8)
    assert(l.avgDegree > d.avgDegree)
  }

  test("ukLite has more triangles per edge than ljLite (clustering pass)") {
    val l = GraphGen.powerLaw(1500, 6, 64, seed = 9)
    val u = GraphGen.ukLite(1500, seed = 9)
    val lRatio = l.triangleCount.toDouble / l.numEdges
    val uRatio = u.triangleCount.toDouble / u.numEdges
    assert(uRatio > lRatio, s"uk=$uRatio lj=$lRatio")
  }

  test("gnm produces the requested number of edges") {
    val g = GraphGen.gnm(200, 500, seed = 10)
    assert(g.numEdges == 500)
  }

  test("gnm deterministic") {
    assert(GraphGen.gnm(50, 100, 1).edges.toSet == GraphGen.gnm(50, 100, 1).edges.toSet)
  }

  test("named toys have expected shapes") {
    assert(GraphGen.path(5).numEdges == 4)
    assert(GraphGen.cycle(5).numEdges == 5)
    assert(GraphGen.clique(5).numEdges == 10)
    assert(GraphGen.grid(3, 3).numEdges == 12)
  }
}
