package repro.core

import org.scalatest.funsuite.AnyFunSuite

class EmbeddingTrieSuite extends AnyFunSuite {

  /** Example 6 of the paper: three ECs of P_0 over (u0, u1, u2). */
  private def example6: EmbeddingTrie = {
    val t = new EmbeddingTrie(3)
    t.insertPath(Array(0, 1, 2))
    t.insertPath(Array(0, 1, 9))
    t.insertPath(Array(0, 9, 11))
    t
  }

  test("Example 6(a): three ECs share prefixes") {
    val t = example6
    assert(t.resultCount == 3)
    assert(t.nodeCount == 6) // v0; v1, v9; v2, v9, v11
    assert(t.roots.size == 1 && t.roots.head.v == 0)
  }

  test("childCount tracks attached children") {
    val t = example6
    assert(t.roots.head.childCount == 2)
  }

  test("compression: trie never larger than the list representation") {
    val t = example6
    assert(t.etBytes <= t.elBytes + 3 * 20) // shared prefixes shrink storage
    // many results sharing a long prefix compress strongly
    val big = new EmbeddingTrie(4)
    (0 until 50).foreach(i => big.insertPath(Array(1, 2, 3, 100 + i)))
    assert(big.elBytes == 50L * 4 * 8)
    assert(big.etBytes == (3 + 50) * 20L)
    assert(big.etBytes < big.elBytes)
  }

  test("unique IDs: every result is a distinct leaf reference") {
    val t = example6
    val ids = t.leaves.toVector
    assert(ids.size == 3)
    assert(ids.toSet.size == 3)
  }

  test("pathOf retrieves the stored result") {
    val t = new EmbeddingTrie(4)
    val leaf = t.insertPath(Array(7, 3, 9, 4))
    assert(t.pathOf(leaf).toSeq == Seq(7, 3, 9, 4))
  }

  test("mkNode/attach growth (the Algorithm 2 protocol)") {
    val t = new EmbeddingTrie(2)
    val root = t.mkNode(5, null)
    val kid  = t.mkNode(6, root)
    t.attach(kid)   // child attached first (deep-first success)
    t.attach(root)
    assert(t.nodeCount == 2)
    assert(t.results.map(_.toSeq).toSeq == Seq(Seq(5, 6)))
  }

  test("sibling distinctness holds after prefix-sharing inserts (Def. 11(3))") {
    val t = new EmbeddingTrie(3)
    t.insertPath(Array(0, 1, 2)); t.insertPath(Array(0, 1, 3)); t.insertPath(Array(0, 2, 2))
    def check(n: EtNode): Unit = if (n.children != null) {
      val vs = n.children.map(_.v)
      assert(vs.distinct.size == vs.size)
      n.children.foreach(check)
    }
    t.roots.foreach(check)
  }

  test("leaves at uniform depth; partial chains are invisible until attached") {
    val t = new EmbeddingTrie(3)
    val r = t.mkNode(1, null)
    t.attach(r) // root attached but no depth-3 path below it
    assert(t.resultCount == 0)
    assert(t.leaves.isEmpty)
  }

  test("insertPath rejects wrong-length paths") {
    val t = new EmbeddingTrie(3)
    assertThrows[IllegalArgumentException](t.insertPath(Array(1, 2)))
  }

  test("elBytes/etBytes accounting") {
    val t = example6
    assert(t.elBytes == 3L * 3 * 8)
    assert(t.etBytes == 6L * 20)
  }
}
