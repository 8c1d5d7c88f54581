package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class PartitionerSuite extends AnyFunSuite {

  private val grid = GraphGen.grid(12, 12)
  private val pl   = GraphGen.powerLaw(600, 3, 48, seed = 5)

  test("hash partition covers all machines and is balanced") {
    val owner = GraphPartitioner.hash(grid, 4)
    assert(owner.forall(t => t >= 0 && t < 4))
    val sizes = owner.groupBy(identity).values.map(_.length)
    assert(sizes.max - sizes.min <= 1)
  }

  test("metisLite assigns every vertex exactly one machine") {
    val owner = GraphPartitioner.metisLite(grid, 4, seed = 1)
    assert(owner.length == grid.n)
    assert(owner.forall(t => t >= 0 && t < 4))
    assert(owner.toSet == Set(0, 1, 2, 3))
  }

  test("metisLite balance within cap") {
    val owner = GraphPartitioner.metisLite(pl, 4, seed = 2)
    val sizes = owner.groupBy(identity).values.map(_.length)
    assert(sizes.max <= math.ceil(pl.n / 4.0).toInt + 1, s"sizes=$sizes")
  }

  test("metisLite m=1 puts everything on machine 0") {
    assert(GraphPartitioner.metisLite(grid, 1).forall(_ == 0))
  }

  test("metisLite preserves locality better than hash on a grid") {
    val metis = PartitionedGraph(grid, GraphPartitioner.metisLite(grid, 4, seed = 3), 4)
    val hash  = PartitionedGraph(grid, GraphPartitioner.hash(grid, 4), 4)
    assert(metis.borderFraction < hash.borderFraction,
      s"metis=${metis.borderFraction} hash=${hash.borderFraction}")
  }

  test("metisLite deterministic in seed") {
    val a = GraphPartitioner.metisLite(pl, 3, seed = 11)
    val b = GraphPartitioner.metisLite(pl, 3, seed = 11)
    assert(a.toSeq == b.toSeq)
  }

  test("metisLite handles disconnected graphs") {
    val g = Graph.fromEdges(10, Seq((0, 1), (1, 2), (5, 6), (6, 7)))
    val owner = GraphPartitioner.metisLite(g, 2, seed = 4)
    assert(owner.length == 10 && owner.forall(t => t == 0 || t == 1))
  }

  test("border vertices: neighbors on other machines") {
    val pg = PartitionedGraph(GraphGen.path(6), Array(0, 0, 0, 1, 1, 1), 2)
    assert(pg.isBorder(2) && pg.isBorder(3))
    assert(!pg.isBorder(0) && !pg.isBorder(1) && !pg.isBorder(4) && !pg.isBorder(5))
    assert(pg.borderVertices(0).toSeq == Seq(2))
    assert(pg.borderVertices(1).toSeq == Seq(3))
  }

  test("border distance on a split path (Def. 1)") {
    val pg = PartitionedGraph(GraphGen.path(6), Array(0, 0, 0, 1, 1, 1), 2)
    assert(pg.borderDistance(2) == 0)
    assert(pg.borderDistance(1) == 1)
    assert(pg.borderDistance(0) == 2)
    assert(pg.borderDistance(3) == 0)
    assert(pg.borderDistance(5) == 2)
  }

  test("border distance is MaxValue when a machine has no border (m=1)") {
    val pg = PartitionedGraph.metis(GraphGen.cycle(8), 1)
    assert((0 until 8).forall(pg.borderDistance(_) == Int.MaxValue))
  }

  test("border distance brute-force agreement on a random graph") {
    val g  = GraphGen.gnm(80, 160, seed = 6)
    val pg = PartitionedGraph.metis(g, 3, seed = 7)
    // brute force: BFS within local subgraph from each vertex to nearest border
    (0 until g.n).foreach { v =>
      val t = pg.owner(v)
      val dist = collection.mutable.Map(v -> 0)
      val q    = collection.mutable.ArrayDeque(v)
      var best = Int.MaxValue
      while (q.nonEmpty) {
        val x = q.removeHead()
        if (pg.isBorder(x)) best = math.min(best, dist(x))
        g.neighbors(x).foreach { w =>
          if (pg.owner(w) == t && !dist.contains(w)) { dist(w) = dist(x) + 1; q.append(w) }
        }
      }
      assert(pg.borderDistance(v) == best, s"vertex $v: got ${pg.borderDistance(v)}, want $best")
    }
  }

  test("localVertices partitions the vertex set") {
    val pg  = PartitionedGraph.metis(pl, 4, seed = 8)
    val all = pg.localVertices.flatten.sorted
    assert(all.toSeq == (0 until pl.n))
  }

  test("adjBlock holds exactly the owned adjacency") {
    val pg = PartitionedGraph.metis(grid, 3, seed = 9)
    (0 until 3).foreach { t =>
      val block = pg.adjBlock(t)
      assert(block.length == grid.n)
      assert(block.indices.filter(block(_) != null) == pg.localVertices(t).toSeq)
      pg.localVertices(t).foreach(v => assert(block(v).toSeq == grid.neighbors(v).toSeq))
    }
  }

  test("borderFraction is 0 for m=1") {
    assert(PartitionedGraph.metis(grid, 1).borderFraction == 0.0)
  }
}
