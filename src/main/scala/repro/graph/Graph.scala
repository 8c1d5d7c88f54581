package repro.graph

import scala.collection.mutable

/** Immutable undirected graph in adjacency-array (CSR-ish) form.
  *
  * Vertices are `0 until n`; every adjacency array is sorted ascending so
  * `hasEdge` is a binary search and neighbor intersection is a linear merge.
  * This is the substrate every engine in the reproduction shares: the data
  * graph the paper enumerates over, the per-machine partition view, and the
  * clique index (built by `LocalEnum`) all operate on this structure.
  */
final class Graph private (val adj: Array[Array[Int]]) extends Serializable {

  /** Number of vertices. */
  val n: Int = adj.length

  /** Number of undirected edges (each counted once). */
  val numEdges: Long = adj.iterator.map(_.length.toLong).sum / 2

  /** Average degree `2|E|/|V|`. */
  def avgDegree: Double = if (n == 0) 0.0 else 2.0 * numEdges / n

  def degree(v: Int): Int = adj(v).length

  /** Degree histogram: `degreeCounts(d)` vertices have degree d; its length
    * is the maximum degree plus one.
    */
  lazy val degreeCounts: Array[Long] = {
    val counts = new Array[Long](if (n == 0) 1 else adj.iterator.map(_.length).max + 1)
    adj.foreach(nb => counts(nb.length) += 1)
    counts
  }

  def neighbors(v: Int): Array[Int] = adj(v)

  /** Edge test via binary search over the sorted adjacency of `a`. */
  def hasEdge(a: Int, b: Int): Boolean =
    java.util.Arrays.binarySearch(adj(a), b) >= 0

  /** Each undirected edge once, as (min, max). */
  def edges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(a => adj(a).iterator.filter(_ > a).map(b => (a, b)))

  /** BFS distances from `src`; unreachable vertices get `Int.MaxValue`. */
  def bfsDistances(src: Int): Array[Int] = {
    val dist = Array.fill(n)(Int.MaxValue)
    val q    = new mutable.ArrayDeque[Int]()
    dist(src) = 0
    q.append(src)
    while (q.nonEmpty) {
      val v = q.removeHead()
      var i = 0
      val nb = adj(v)
      while (i < nb.length) {
        val w = nb(i)
        if (dist(w) == Int.MaxValue) { dist(w) = dist(v) + 1; q.append(w) }
        i += 1
      }
    }
    dist
  }

  /** True iff the graph is connected (vacuously true for n <= 1). */
  def isConnected: Boolean =
    n <= 1 || bfsDistances(0).forall(_ != Int.MaxValue)

  /** Graph diameter (longest shortest path over reachable pairs).
    *
    * Exact (all-sources BFS) when `n <= exactLimit`; otherwise estimated by
    * BFS from `samples` deterministic sources — the standard approximation
    * the paper's Table 1 "Diameter" column needs at our scale.
    */
  def diameter(exactLimit: Int = 4000, samples: Int = 64): Int = {
    val sources =
      if (n <= exactLimit) (0 until n)
      else (0 until samples).map(i => (i.toLong * 2654435761L % n).toInt)
    var best = 0
    sources.foreach { s =>
      val d = bfsDistances(s)
      var i = 0
      while (i < n) { val x = d(i); if (x != Int.MaxValue && x > best) best = x; i += 1 }
    }
    best
  }

  /** Number of triangles (each counted once). */
  def triangleCount: Long = {
    var count = 0L
    var a = 0
    while (a < n) {
      val nb = adj(a)
      var i = 0
      while (i < nb.length) {
        val b = nb(i)
        if (b > a) {
          // merge-intersect adj(a) and adj(b), counting common c > b
          var x = 0; var y = 0
          val na = adj(a); val nb2 = adj(b)
          while (x < na.length && y < nb2.length) {
            val ca = na(x); val cb = nb2(y)
            if (ca == cb) { if (ca > b) count += 1; x += 1; y += 1 }
            else if (ca < cb) x += 1
            else y += 1
          }
        }
        i += 1
      }
      a += 1
    }
    count
  }

  override def toString: String = s"Graph(n=$n, m=$numEdges, avgDeg=${"%.2f".format(avgDegree)})"
}

object Graph {

  /** Build from an edge list; self-loops dropped, duplicates merged, both
    * directions stored, adjacency sorted.
    */
  def fromEdges(n: Int, edgeList: IterableOnce[(Int, Int)]): Graph = {
    val sets = Array.fill(n)(new mutable.TreeSet[Int]())
    edgeList.iterator.foreach { case (a, b) =>
      require(a >= 0 && a < n && b >= 0 && b < n, s"edge ($a,$b) out of range [0,$n)")
      if (a != b) { sets(a) += b; sets(b) += a }
    }
    new Graph(sets.map(_.toArray))
  }
}
