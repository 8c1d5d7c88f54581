package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Graph, GraphGen}
import repro.query.{Automorphism, Queries}

class LocalEnumSuite extends AnyFunSuite {

  private def sb(q: repro.query.Pattern) = Automorphism.symmetryBreaking(q)

  test("triangles in K4 = 4 (symmetry-broken)") {
    val r = LocalEnum.reference(Queries.triangle, GraphGen.clique(4), sb(Queries.triangle))
    assert(r.count == 4)
  }

  test("triangles in K5 = 10; squares in K5 = 15") {
    assert(LocalEnum.reference(Queries.triangle, GraphGen.clique(5), sb(Queries.triangle)).count == 10)
    // C(5,4) vertex sets x 3 distinct 4-cycles each
    assert(LocalEnum.reference(Queries.q1, GraphGen.clique(5), sb(Queries.q1)).count == 15)
  }

  test("squares in a grid = unit faces") {
    val r = LocalEnum.reference(Queries.q1, GraphGen.grid(5, 5), sb(Queries.q1))
    assert(r.count == 16)
  }

  test("6-cycles in C6 graph = 1; 5-cycles in C6 = 0") {
    assert(LocalEnum.reference(Queries.q6, GraphGen.cycle(6), sb(Queries.q6)).count == 1)
    assert(LocalEnum.reference(Queries.q3, GraphGen.cycle(6), sb(Queries.q3)).count == 0)
  }

  test("K4 instances in K6 = 15") {
    assert(LocalEnum.reference(Queries.tq2, GraphGen.clique(6), sb(Queries.tq2)).count == 15)
  }

  test("no embeddings of a denser pattern in a sparse graph") {
    assert(LocalEnum.reference(Queries.tq2, GraphGen.cycle(10), sb(Queries.tq2)).count == 0)
  }

  test("embeddings are injective and edge-preserving") {
    val g = GraphGen.gnm(30, 80, seed = 1)
    val q = Queries.q4
    val r = LocalEnum.reference(q, g, sb(q))
    r.embeddings.foreach { f =>
      assert(f.toSet.size == q.n)
      q.edges.foreach { case (a, b) => assert(g.hasEdge(f(a), f(b))) }
      assert(Automorphism.satisfies(sb(q), f))
    }
  }

  test("count matches embeddings.size when kept") {
    val g = GraphGen.gnm(25, 60, seed = 2)
    val r = LocalEnum.reference(Queries.q2, g, sb(Queries.q2))
    assert(r.count == r.embeddings.size)
  }

  test("keepEmbeddings=false still counts") {
    val g  = GraphGen.gnm(25, 60, seed = 2)
    val r1 = LocalEnum.reference(Queries.q2, g, sb(Queries.q2), keepEmbeddings = false)
    val r2 = LocalEnum.reference(Queries.q2, g, sb(Queries.q2))
    assert(r1.count == r2.count && r1.embeddings.isEmpty)
  }

  test("order() starts at the root and keeps connectivity") {
    Queries.all.foreach { q =>
      (0 until q.n).foreach { root =>
        val ord = LocalEnum.order(q, root)
        assert(ord.head == root)
        assert(ord.sorted == (0 until q.n).toVector)
        ord.zipWithIndex.drop(1).foreach { case (u, i) =>
          assert(q.neighbors(u).exists(w => ord.take(i).contains(w)), s"${q.name} root $root")
        }
      }
    }
  }

  test("restricting roots restricts results to that start-vertex image") {
    val g  = GraphGen.grid(4, 4)
    val q  = Queries.q1
    val r  = LocalEnum.enumerate(q, g.neighbors, sb(q), roots = Seq(0), rootVertex = 0)
    r.embeddings.foreach(f => assert(f(0) == 0))
    val all = LocalEnum.reference(q, g, sb(q))
    assert(r.count == all.embeddings.count(_(0) == 0))
  }

  test("an empty adjacency confines the search (SM-E locality)") {
    val g     = GraphGen.grid(4, 4)
    val local = (v: Int) => v < 8 // only the top two rows
    val q     = Queries.q1
    val r = LocalEnum.enumerate(q, v => if (local(v)) g.neighbors(v) else Array.empty[Int],
      sb(q), roots = (0 until 8).filter(local), rootVertex = 0)
    r.embeddings.foreach(f => assert(f.forall(local)))
    assert(r.count == 3) // the 3 unit squares fully inside rows 0–1
  }

  test("partials >= count (trie-node estimate upper bounds results)") {
    val g = GraphGen.gnm(40, 120, seed = 3)
    val r = LocalEnum.reference(Queries.q3, g, sb(Queries.q3), keepEmbeddings = false)
    assert(r.partials >= r.count)
  }

  test("union over disjoint root sets equals the whole") {
    val g  = GraphGen.gnm(30, 90, seed = 4)
    val q  = Queries.q2
    val s  = sb(q)
    val all = LocalEnum.reference(q, g, s).count
    val parts = (0 until 3).map { k =>
      LocalEnum.enumerate(q, g.neighbors, s, roots = (0 until g.n).filter(_ % 3 == k),
        rootVertex = 0).count
    }.sum
    assert(parts == all)
  }
}
