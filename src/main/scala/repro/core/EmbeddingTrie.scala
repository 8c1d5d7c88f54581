package repro.core

/** Compact storage of intermediate results (§5).
  *
  * Every result of the current sub-pattern `P_i` is a root-to-leaf path of
  * `depth` nodes whose levels follow the matching order (Def. 10). A node is
  * the paper's (v, parentN): level `l` is two int arrays, the data vertex
  * of each node and the index of its parent in level `l - 1`. Nodes are
  * appended depth-first, so a node's children are one contiguous run of
  * the next level, and a leaf's index is the result's unique ID (the
  * paper's "address of its leaf node"). A trie is O(depth) objects.
  *
  * Algorithm 2's create-then-attach is [[push]], then [[pop]] if the subtree
  * below the node failed, so every node above the last level has a child.
  * ECs that verifyE refutes are not removed: they are skipped where the trie
  * is read — by the next round's copy, its fetch requests and the final
  * harvest ([[PlanCtx.refuted]]).
  */
final class EmbeddingTrie(val depth: Int) extends Serializable {
  private val vs   = Array.fill(depth)(new Array[Int](8))
  private val par  = Array.fill(depth)(new Array[Int](8))
  private val size = new Array[Int](depth)

  /** Number of nodes at `level`. */
  def levelSize(level: Int): Int = size(level)

  /** Data vertex of node `n` at `level`. */
  def vertex(level: Int, n: Int): Int = vs(level)(n)

  /** Index in `level - 1` of the parent of node `n` at `level` (-1 for a root). */
  def parent(level: Int, n: Int): Int = par(level)(n)

  /** Appends `v` at `level` as the last child of the last node one level up. */
  def push(level: Int, v: Int): Unit = {
    val n = size(level)
    if (n == vs(level).length) {
      vs(level) = java.util.Arrays.copyOf(vs(level), math.max(8, 2 * n))
      par(level) = java.util.Arrays.copyOf(par(level), math.max(8, 2 * n))
    }
    vs(level)(n) = v
    par(level)(n) = if (level == 0) -1 else size(level - 1) - 1
    size(level) = n + 1
  }

  /** Removes the last node at `level`, which must have no children. */
  def pop(level: Int): Unit = {
    val n = size(level) - 1
    require(level == depth - 1 || size(level + 1) == 0 || par(level + 1)(size(level + 1) - 1) < n,
      s"pop of a node with children at level $level")
    size(level) = n
  }

  /** Shrinks every level to its size, once the trie is built. */
  def compact(): Unit = (0 until depth).foreach { l =>
    vs(l) = java.util.Arrays.copyOf(vs(l), size(l))
    par(l) = java.util.Arrays.copyOf(par(l), size(l))
  }

  def nodeCount: Long = size.foldLeft(0L)(_ + _)

  def resultCount: Long = size(depth - 1).toLong

  /** The data-vertex path of result `leaf`, root first (Retrieval of §5). */
  def pathOf(leaf: Int): Array[Int] = {
    val out = new Array[Int](depth)
    var n = leaf
    var l = depth - 1
    while (l >= 0) { out(l) = vs(l)(n); n = par(l)(n); l -= 1 }
    out
  }

  /** Bytes in the paper's trie model: [[EmbeddingTrie.NodeBytes]] per node. */
  def etBytes: Long = nodeCount * EmbeddingTrie.NodeBytes

  /** Bytes of the equivalent flat embedding list: 8 B per mapped vertex. */
  def elBytes: Long = resultCount * depth * 8L
}

object EmbeddingTrie {
  /** Bytes of one trie node in the paper's model (§5). */
  val NodeBytes: Long = 20L
}
