package repro.core

import scala.collection.mutable

/** One node of the embedding trie (Def. 11): a data vertex, a parent
  * pointer, and its children. The paper's node carries only
  * (v, parentN, childCount); we additionally keep the child list for
  * traversal but account bytes with the paper's 20 B/node model
  * (8 B vertex + 8 B parent pointer + 4 B childCount).
  */
final class EtNode(val v: Int, val parent: EtNode) extends Serializable {
  private[core] var children: mutable.ArrayBuffer[EtNode] = _
  def childCount: Int = if (children == null) 0 else children.size
  def isLeaf: Boolean = childCount == 0
  private[core] def add(c: EtNode): Unit = {
    if (children == null) children = new mutable.ArrayBuffer[EtNode](2)
    children += c
  }
}

/** Compact storage of intermediate results (§5).
  *
  * Every result of the current sub-pattern `P_i` is a root-to-leaf path of
  * `depth` nodes whose levels follow the matching order (Def. 10). Leaf
  * node identity (the JVM reference) is the result's unique ID — exactly
  * the paper's "address of its leaf node in memory".
  *
  * The paper's Removal operation is not performed: a trie is never changed
  * once its round is expanded. ECs that verifyE refutes stay in it and are
  * skipped where the trie is read — by the next round's copy, its fetch
  * requests and the final harvest ([[PlanCtx.refuted]]).
  */
final class EmbeddingTrie(val depth: Int) extends Serializable {
  val roots = new mutable.ArrayBuffer[EtNode]()
  private var nNodes: Long = 0

  def nodeCount: Long = nNodes

  /** Create a detached node (Algorithm 2 creates first, attaches only if the
    * subtree below it succeeds).
    */
  def mkNode(v: Int, parent: EtNode): EtNode = new EtNode(v, parent)

  /** Attach a node under its parent (or as a root). Counts the node. */
  def attach(node: EtNode): Unit = {
    if (node.parent == null) roots += node else node.parent.add(node)
    nNodes += 1
  }

  /** All current result leaves (nodes at depth `depth`). */
  def leaves: Iterator[EtNode] = {
    def rec(n: EtNode, level: Int): Iterator[EtNode] =
      if (level == depth) Iterator.single(n)
      else if (n.children == null) Iterator.empty
      else n.children.iterator.flatMap(c => rec(c, level + 1))
    roots.iterator.flatMap(r => rec(r, 1))
  }

  /** The data-vertex path of a result, root first (Retrieval of §5). */
  def pathOf(leaf: EtNode): Array[Int] = {
    val out = new Array[Int](depth)
    var n = leaf; var i = depth - 1
    while (n != null) { out(i) = n.v; i -= 1; n = n.parent }
    require(i == -1, s"leaf at wrong depth (expected $depth)")
    out
  }

  def results: Iterator[Array[Int]] = leaves.map(pathOf)

  def resultCount: Long = leaves.size.toLong

  /** Bytes in the paper's trie model: 20 B per node. */
  def etBytes: Long = nNodes * 20L

  /** Bytes of the equivalent flat embedding list: 8 B per mapped vertex. */
  def elBytes: Long = resultCount * depth * 8L

  /** Insert a full path, sharing existing prefixes (used by tests;
    * the engine grows tries through mkNode/attach as in Algorithms 1–2).
    */
  def insertPath(path: Array[Int]): EtNode = {
    require(path.length == depth, s"path length ${path.length} != depth $depth")
    var parent: EtNode = null
    var siblings: mutable.ArrayBuffer[EtNode] = roots
    var i = 0
    while (i < path.length) {
      val v = path(i)
      val existing = if (siblings == null) None else siblings.find(_.v == v)
      val node = existing match {
        case Some(nd) if i < path.length - 1 => nd // never merge into an existing leaf: results are unique
        case _ =>
          val nd = mkNode(v, parent)
          attach(nd)
          nd
      }
      parent = node
      siblings = node.children
      i += 1
    }
    parent
  }
}
