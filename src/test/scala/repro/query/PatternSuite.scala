package repro.query

import org.scalatest.funsuite.AnyFunSuite

class PatternSuite extends AnyFunSuite {

  test("edges are normalized and deduped") {
    val p = Pattern("t", 3, Vector((1, 0), (0, 1), (2, 1)))
    assert(p.edges == Vector((0, 1), (1, 2)))
  }

  test("q1 is the triangle-free square") {
    assert(Queries.q1.n == 4 && Queries.q1.numEdges == 4)
    assert(Queries.q1.graph.triangleCount == 0)
  }

  test("q2, q4, q5 contain a triangle (Crystal's favourable queries)") {
    Seq(Queries.q2, Queries.q4, Queries.q5).foreach(q => assert(q.graph.triangleCount > 0, q.name))
  }

  test("q1, q3, q6, q7, q8 are triangle-free (paper: no cliques > 2)") {
    Seq(Queries.q1, Queries.q3, Queries.q6, Queries.q7, Queries.q8)
      .foreach(q => assert(q.graph.triangleCount == 0, q.name))
  }

  test("queries after q4 have 6 vertices (paper: comm explodes at 6)") {
    Seq(Queries.q5, Queries.q6, Queries.q7, Queries.q8).foreach(q => assert(q.n == 6, q.name))
  }

  test("q5 is q4 plus the end vertex u5") {
    assert(Queries.q5.edges.toSet == Queries.q4.edges.toSet + ((2, 5)))
    assert(Queries.q5.degree(5) == 1)
  }

  test("all queries are connected") {
    Queries.all.foreach(q => assert(q.isConnected, q.name))
  }

  test("a disconnected pattern is rejected by name") {
    val e = intercept[IllegalArgumentException](Pattern("split", 4, Vector((0, 1), (2, 3))))
    assert(e.getMessage.contains("split"))
  }

  test("clique queries contain the advertised cliques") {
    assert(Queries.tq2.numEdges == 6 && Queries.tq2.graph.triangleCount == 4) // K4
    assert(Queries.tq1.graph.triangleCount == 2)                              // diamond
    assert(Queries.tq4.graph.triangleCount == 2)                              // bowtie
  }

  test("span (Def. 2) on simple patterns") {
    val p5 = Queries.path(5)
    assert(p5.span(0) == 4 && p5.span(2) == 2)
    assert(Queries.cycle(6).span(0) == 3)
    assert(Queries.star(4).span(0) == 1 && Queries.star(4).span(1) == 2)
  }

  test("span of the paper's Figure 4-like pattern picks the center") {
    // a path 0-1-2-3-4: center has the smallest span
    val p = Queries.path(5)
    assert((0 until 5).minBy(p.span) == 2)
  }

  test("diameter = max span") {
    assert(Queries.q6.diameter == 3)
    assert(Queries.q7.diameter == 3) // dist(2,5) in K3,3 minus (2,5)
  }

  test("dist matrix is symmetric") {
    val p = Queries.q4
    for (a <- 0 until p.n; b <- 0 until p.n) assert(p.dist(a)(b) == p.dist(b)(a))
  }

  test("byName round-trips") {
    Queries.all.foreach(q => assert(Queries.byName(q.name) eq q))
    assertThrows[IllegalArgumentException](Queries.byName("nope"))
  }

  test("generated patterns: path/cycle/star/clique shapes") {
    assert(Queries.path(4).numEdges == 3)
    assert(Queries.cycle(4).numEdges == 4)
    assert(Queries.star(3).numEdges == 3)
    assert(Queries.clique(4).numEdges == 6)
  }
}
