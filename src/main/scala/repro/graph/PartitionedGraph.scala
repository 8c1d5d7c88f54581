package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** A data graph plus its assignment of vertices to `m` logical machines.
  *
  * Mirrors the paper's storage model (§2): each vertex's full adjacency list
  * lives on exactly one machine (its owner); a vertex is a *border* vertex
  * of its machine iff some neighbor is owned elsewhere. Border distance
  * (Def. 1) is computed by multi-source BFS from the border set restricted
  * to machine-local vertices — the restriction is sound for Prop. 1 because
  * any walk leaving the partition crosses a border vertex first (DESIGN §6).
  */
final case class PartitionedGraph(graph: Graph, owner: Array[Int], m: Int) {
  require(owner.length == graph.n, "owner map must cover all vertices")
  require(owner.forall(t => t >= 0 && t < m), "owner out of range")

  /** Border test: some neighbor lives on a different machine. */
  def isBorder(v: Int): Boolean = {
    val t  = owner(v)
    val nb = graph.neighbors(v)
    var i  = 0
    while (i < nb.length) { if (owner(nb(i)) != t) return true; i += 1 }
    false
  }

  /** Vertices owned by each machine. */
  lazy val localVertices: Array[Array[Int]] = {
    val bufs = Array.fill(m)(new mutable.ArrayBuilder.ofInt)
    var v = 0
    while (v < graph.n) { bufs(owner(v)) += v; v += 1 }
    bufs.map(_.result())
  }

  /** Border vertices per machine (V^b_{G_t}). */
  lazy val borderVertices: Array[Array[Int]] =
    localVertices.map(_.filter(isBorder))

  /** Border distance per vertex (Def. 1): BFS distance, within the owner's
    * local subgraph, to the nearest border vertex of that machine.
    * `Int.MaxValue` when the machine has no border vertices reachable (e.g.
    * m = 1, or an interior island) — such vertices always qualify for SM-E.
    */
  lazy val borderDistance: Array[Int] =
    PartitionedGraph.borderDistance(Array.range(0, graph.n), graph.neighbors, owner)

  /** Owned adjacency of machine `t`, indexed by vertex id: null for a vertex `t` does not own. */
  def adjBlock(t: Int): Array[Array[Int]] =
    Array.tabulate(graph.n)(v => if (owner(v) == t) graph.neighbors(v) else null)

  /** Fraction of vertices that are border vertices (partition-quality stat). */
  def borderFraction: Double =
    if (graph.n == 0) 0.0 else borderVertices.iterator.map(_.length).sum.toDouble / graph.n

  /** Edge DataFrame with BOTH directions, columns (src, dst) — the input for
    * all join-based baseline engines and for the DuckDB oracle.
    */
  def edgesDf(spark: SparkSession): DataFrame = {
    import spark.implicits._
    val both = graph.edges.flatMap { case (a, b) => Iterator((a, b), (b, a)) }.toSeq
    spark.createDataset(both).toDF("src", "dst")
  }
}

object PartitionedGraph {
  /** Border distance (Def. 1) of the vertices `vs`: multi-source BFS from
    * those that have a neighbour on another machine, never leaving the
    * owner's machine. Indexed by vertex id; `Int.MaxValue` for vertices
    * outside `vs` and for those no border vertex reaches. `vs` must hold
    * every vertex of each machine it touches; `adj` need only cover `vs`,
    * so one machine can pass its own adjacency block.
    */
  def borderDistance(vs: Array[Int], adj: Int => Array[Int], owner: Array[Int]): Array[Int] = {
    val dist = Array.fill(owner.length)(Int.MaxValue)
    val q    = new mutable.ArrayDeque[Int]()
    vs.foreach { v => if (adj(v).exists(w => owner(w) != owner(v))) { dist(v) = 0; q.append(v) } }
    while (q.nonEmpty) {
      val v  = q.removeHead()
      val t  = owner(v)
      val nb = adj(v)
      var i  = 0
      while (i < nb.length) {
        val w = nb(i)
        if (owner(w) == t && dist(w) == Int.MaxValue) { dist(w) = dist(v) + 1; q.append(w) }
        i += 1
      }
    }
    dist
  }

  /** Partition with METIS-lite (the default, like the paper's METIS). */
  def metis(g: Graph, m: Int, seed: Long = 17): PartitionedGraph =
    PartitionedGraph(g, GraphPartitioner.metisLite(g, m, seed), m)

  /** Partition by hash — the locality-free stress case for tests. */
  def hashed(g: Graph, m: Int): PartitionedGraph =
    PartitionedGraph(g, GraphPartitioner.hash(g, m), m)
}
