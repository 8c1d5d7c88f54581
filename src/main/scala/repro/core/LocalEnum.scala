package repro.core

import repro.query.Pattern
import scala.collection.mutable

/** Single-machine backtracking subgraph enumerator ("TurboIso-lite").
  *
  * Serves two roles in the reproduction:
  *  - the SM-E phase of RADS (§3.1): enumerate all embeddings rooted at the
  *    candidates whose border distance ≥ span(u_start), entirely inside one
  *    machine's partition;
  *  - the ground-truth reference the test suite compares every distributed
  *    engine against.
  *
  * Matching order: BFS from the root query vertex, preferring vertices with
  * more already-matched neighbors, then higher degree. Candidates of a
  * query vertex are the intersection of the adjacency of all matched
  * pattern-neighbors, so every pattern edge incident to a matched vertex is
  * verified by construction.
  */
object LocalEnum {

  /** @param count       number of embeddings found
    * @param embeddings  the embeddings (query-vertex indexed), if kept
    * @param partials    number of successful partial extensions — the
    *                    trie-node count estimate the paper's §6 memory
    *                    estimator derives from SM-E
    */
  final case class Result(count: Long, embeddings: Vector[Array[Int]], partials: Long)

  /** Matching order starting at `start` (the root, or vertices already
    * matched): greedy BFS maximizing matched neighbors, then degree, then id.
    */
  def order(p: Pattern, start: Int*): Vector[Int] = {
    val out  = mutable.ArrayBuffer.from(start)
    val seen = mutable.Set.from(start)
    while (out.size < p.n) {
      val cands = (0 until p.n).filterNot(seen.contains)
        .filter(u => p.neighbors(u).exists(seen.contains))
      val next = cands.minBy(u => (-p.neighbors(u).count(seen.contains), -p.degree(u), u))
      out += next; seen += next
    }
    out.toVector
  }

  /** Injectivity: `v` is the image of no query vertex in `f` (-1 where
    * unmapped). A scan, not a set, because patterns have a few vertices.
    */
  def unused(f: Array[Int], v: Int): Boolean = {
    var j = 0
    while (j < f.length && f(j) != v) j += 1
    j == f.length
  }

  /** Enumerate embeddings with `f(rootVertex)` ranging over `roots`.
    *
    * @param adjOf   total adjacency function (sorted arrays; empty array for
    *                vertices whose adjacency this machine does not hold)
    * @param sb      Grochow–Kellis conditions (a, b) meaning f(a) < f(b)
    */
  def enumerate(
      p: Pattern,
      adjOf: Int => Array[Int],
      sb: Seq[(Int, Int)],
      roots: Iterable[Int],
      rootVertex: Int = 0,
      keepEmbeddings: Boolean = true): Result = {

    val ord = order(p, rootVertex)
    val pos = Array.fill(p.n)(-1)
    ord.zipWithIndex.foreach { case (u, i) => pos(u) = i }
    // symmetry-breaking conditions indexed by the later-matched endpoint
    val sbAt: Array[List[(Int, Boolean)]] = Array.fill(p.n)(Nil)
    sb.foreach { case (a, b) =>
      if (pos(a) < pos(b)) sbAt(b) ::= ((a, true))  // f(a) < f(b), b matched later
      else sbAt(a) ::= ((b, false))                 // f(a) < f(b), a matched later
    }

    val f    = Array.fill(p.n)(-1)
    var count = 0L
    var partials = 0L
    val keep = mutable.ArrayBuffer[Array[Int]]()

    def rec(k: Int): Unit = {
      if (k == p.n) { count += 1; if (keepEmbeddings) keep += f.clone(); return }
      val u = ord(k)
      val matchedNbrs = p.neighbors(u).filter(f(_) >= 0)
      // candidates: smallest adjacency first, membership-check the rest
      val lists = matchedNbrs.map(un => adjOf(f(un))).sortBy(_.length)
      val base  = lists.head
      var i = 0
      while (i < base.length) {
        val v = base(i)
        if (unused(f, v) && adjOf(v).length >= p.degree(u)) {
          var ok = true
          var j = 1
          while (ok && j < lists.length) {
            if (java.util.Arrays.binarySearch(lists(j), v) < 0) ok = false
            j += 1
          }
          if (ok) ok = sbAt(u).forall { case (other, otherIsSmaller) =>
            f(other) == -1 || (if (otherIsSmaller) f(other) < v else v < f(other))
          }
          if (ok) {
            f(u) = v; partials += 1
            rec(k + 1)
            f(u) = -1
          }
        }
        i += 1
      }
    }

    roots.foreach { r =>
      if (adjOf(r).length >= p.degree(ord.head)) {
        f(ord.head) = r; partials += 1
        rec(1)
        f(ord.head) = -1
      }
    }
    Result(count, keep.toVector, partials)
  }

  /** Ground truth over a full in-memory graph. */
  def reference(p: Pattern, g: repro.graph.Graph, sb: Seq[(Int, Int)],
                keepEmbeddings: Boolean = true): Result =
    enumerate(p, g.neighbors, sb, 0 until g.n, rootVertex = 0, keepEmbeddings = keepEmbeddings)
}
