package repro.core

import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite

class EmbeddingTrieSuite extends AnyFunSuite {

  /** Example 6 of the paper: three ECs of P_0 over (u0, u1, u2), pushed
    * depth-first: (0, 1, 2), (0, 1, 9), (0, 9, 11).
    */
  private def example6: EmbeddingTrie = {
    val t = new EmbeddingTrie(3)
    t.push(0, 0)
    t.push(1, 1); t.push(2, 2); t.push(2, 9)
    t.push(1, 9); t.push(2, 11)
    t
  }

  private def paths(t: EmbeddingTrie): Seq[Seq[Int]] = (0 until t.resultCount.toInt).map(t.pathOf(_).toSeq)

  /** Children of node `n` at `level`: its run in the next level. */
  private def children(t: EmbeddingTrie, level: Int, n: Int): Seq[Int] =
    (0 until t.levelSize(level + 1)).filter(t.parent(level + 1, _) == n)

  /** Parent indices never decrease within a level, and every node above
    * the last level has a child.
    */
  private def assertDepthFirst(t: EmbeddingTrie): Unit =
    (1 until t.depth).foreach { l =>
      val ps = (0 until t.levelSize(l)).map(t.parent(l, _))
      assert(ps == ps.sorted, s"level $l parents $ps")
      assert(ps.distinct == (0 until t.levelSize(l - 1)), s"level ${l - 1} has a node without a child")
    }

  test("Example 6(a): three ECs share prefixes") {
    val t = example6
    assert(t.resultCount == 3)
    assert(t.nodeCount == 6) // v0; v1, v9; v2, v9, v11
    assert(t.levelSize(0) == 1 && t.vertex(0, 0) == 0)
    assert(paths(t) == Seq(Seq(0, 1, 2), Seq(0, 1, 9), Seq(0, 9, 11)))
  }

  test("childCount tracks attached children") {
    val t = example6
    assert(children(t, 0, 0).map(t.vertex(1, _)) == Seq(1, 9))
    assert(children(t, 1, 0).size == 2 && children(t, 1, 1).size == 1)
  }

  test("compression: trie never larger than the list representation") {
    val t = example6
    assert(t.etBytes <= t.elBytes + 3 * 20) // shared prefixes shrink storage
    // many results sharing a long prefix compress strongly
    val big = new EmbeddingTrie(4)
    big.push(0, 1); big.push(1, 2); big.push(2, 3)
    (0 until 50).foreach(i => big.push(3, 100 + i))
    assert(big.elBytes == 50L * 4 * 8)
    assert(big.etBytes == (3 + 50) * 20L)
    assert(big.etBytes < big.elBytes)
  }

  test("unique IDs: every result is a distinct leaf reference") {
    val t = example6
    assert(paths(t).distinct.size == t.resultCount) // leaf indices 0 until resultCount
  }

  test("pathOf retrieves the stored result") {
    val t = new EmbeddingTrie(4)
    t.push(0, 5); t.push(1, 8); t.push(2, 1); t.push(3, 6) // leaf 0
    t.push(0, 7); t.push(1, 3); t.push(2, 9); t.push(3, 4) // leaf 1
    assert(t.pathOf(1).toSeq == Seq(7, 3, 9, 4))
    assert(t.pathOf(0).toSeq == Seq(5, 8, 1, 6))
  }

  test("push/pop growth (the Algorithm 2 protocol)") {
    val t = new EmbeddingTrie(3)
    t.push(0, 5)
    t.push(1, 6); t.push(2, 7)
    t.push(1, 8); t.pop(1)            // 8 had no extension
    t.push(0, 9); t.push(1, 1); t.pop(1); t.pop(0) // nor did 9's subtree
    t.push(0, 2); t.push(1, 3); t.push(2, 4)
    assert(t.nodeCount == 6)
    assert(paths(t) == Seq(Seq(5, 6, 7), Seq(2, 3, 4)))
    assert(t.parent(1, 1) == 1 && t.parent(2, 1) == 1)
    assertDepthFirst(t)
  }

  test("pop rejects a node that has children") {
    val t = new EmbeddingTrie(2)
    t.push(0, 1); t.push(1, 2)
    assertThrows[IllegalArgumentException](t.pop(0))
  }

  test("leaves at uniform depth; partial chains are invisible until attached") {
    val t = new EmbeddingTrie(3)
    t.push(0, 1) // a root with no depth-3 path below it
    assert(t.resultCount == 0)
    assert(paths(t).isEmpty)
  }

  test("elBytes/etBytes accounting") {
    val t = example6
    assert(t.elBytes == 3L * 3 * 8)
    assert(t.etBytes == 6L * 20)
    t.compact()
    assert(t.etBytes == 6L * 20 && paths(t).size == 3)
  }

  test("depth-first invariant: parents never decrease, inner nodes have children") {
    assertDepthFirst(example6)
    val rng = new scala.util.Random(3)
    val t = new EmbeddingTrie(4)
    def grow(level: Int): Boolean = {
      var any = false
      (0 until 1 + rng.nextInt(3)).foreach { v =>
        t.push(level, v)
        val kept = if (level == t.depth - 1) rng.nextInt(4) > 0 else grow(level + 1)
        if (kept) any = true else t.pop(level)
      }
      any
    }
    (0 until 20).foreach { r => t.push(0, r); if (!grow(1)) t.pop(0) }
    assert(t.resultCount > 0)
    assertDepthFirst(t)
  }

  test("footprint: a compacted trie of 1M nodes is at most 16 B per node") {
    val t = new EmbeddingTrie(3)
    (0 until 1000).foreach { a =>
      t.push(0, a)
      (0 until 10).foreach { b =>
        t.push(1, b)
        (0 until 100).foreach(c => t.push(2, c))
      }
    }
    t.compact()
    assert(t.nodeCount == 1011000L)
    val perNode = SizeEstimator.estimate(t).toDouble / t.nodeCount
    assert(perNode <= 16.0, f"$perNode%.1f B per node")
  }
}
