package repro.query

import repro.graph.Graph

/** A small connected query pattern (unlabeled, undirected — §2 of the paper).
  *
  * Vertices are `0 until n`. Patterns are tiny (≤ ~10 vertices) so distance
  * matrices and automorphism groups are computed eagerly.
  */
final case class Pattern(name: String, n: Int, edgeList: Vector[(Int, Int)]) {
  /** Normalized unique edges (a < b). */
  val edges: Vector[(Int, Int)] =
    edgeList.map { case (a, b) => (math.min(a, b), math.max(a, b)) }.distinct.sorted

  require(edges.forall { case (a, b) => a >= 0 && b < n && a != b }, s"bad edges in $name")

  val graph: Graph = Graph.fromEdges(n, edges)
  require(graph.isConnected, s"pattern $name is not connected")

  def degree(u: Int): Int = graph.degree(u)
  def neighbors(u: Int): Array[Int] = graph.neighbors(u)
  def hasEdge(a: Int, b: Int): Boolean = graph.hasEdge(a, b)
  def numEdges: Int = edges.size

  /** The k-cliques of the pattern as ascending vertex lists, in combination order. */
  def cliques(k: Int): Vector[Vector[Int]] =
    (0 until n).combinations(k).map(_.toVector)
      .filter(vs => vs.forall(a => vs.forall(b => a == b || hasEdge(a, b)))).toVector

  /** All-pairs shortest distances (BFS per vertex — patterns are tiny). */
  lazy val dist: Array[Array[Int]] = Array.tabulate(n)(u => graph.bfsDistances(u))

  /** Span (Def. 2): max distance from u to any other pattern vertex. */
  def span(u: Int): Int = dist(u).max

  def diameter: Int = (0 until n).map(span).max

  def isConnected: Boolean = graph.isConnected

  override def toString: String = s"$name(n=$n, e=${edges.size})"
}

/** The query set of the paper's evaluation.
  *
  * Figure 7 is an image; q1..q8 are reconstructed from the text's
  * constraints (DESIGN.md §3): q2/q4/q5 contain a triangle, q1/q3/q6/q7/q8
  * are triangle-free, queries after q4 have 6 vertices, q5 is q4 plus the
  * end vertex u5. tq1..tq4 are the App. C.4 clique-heavy queries.
  */
object Queries {
  val triangle: Pattern = Pattern("triangle", 3, Vector((0, 1), (1, 2), (0, 2)))

  val q1: Pattern = Pattern("q1", 4, Vector((0, 1), (1, 2), (2, 3), (3, 0)))
  val q2: Pattern = Pattern("q2", 4, Vector((0, 1), (1, 2), (0, 2), (0, 3)))
  val q3: Pattern = Pattern("q3", 5, Vector((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
  val q4: Pattern = Pattern("q4", 5, Vector((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)))
  val q5: Pattern = Pattern("q5", 6, q4.edges :+ ((2, 5)))
  val q6: Pattern = Pattern("q6", 6, Vector((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
  val q7: Pattern = Pattern("q7", 6,
    Vector((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4))) // K3,3 minus (2,5)
  val q8: Pattern = Pattern("q8", 6, q6.edges :+ ((0, 3)))

  val tq1: Pattern = Pattern("tq1", 4, Vector((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))) // diamond
  val tq2: Pattern = Pattern("tq2", 4, Vector((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))) // K4
  val tq3: Pattern = Pattern("tq3", 5, tq2.edges :+ ((3, 4))) // K4 + pendant
  val tq4: Pattern = Pattern("tq4", 5,
    Vector((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))) // bowtie

  val main: Seq[Pattern]    = Seq(q1, q2, q3, q4, q5, q6, q7, q8)
  val cliquey: Seq[Pattern] = Seq(tq1, tq2, tq3, tq4)
  val all: Seq[Pattern]     = main ++ cliquey :+ triangle

  def byName(s: String): Pattern =
    all.find(_.name == s).getOrElse(throw new IllegalArgumentException(s"unknown query $s"))

  def path(k: Int): Pattern  = Pattern(s"path$k", k, (0 until k - 1).map(i => (i, i + 1)).toVector)
  def cycle(k: Int): Pattern = Pattern(s"cycle$k", k, (0 until k).map(i => (i, (i + 1) % k)).toVector)
  def star(k: Int): Pattern  = Pattern(s"star$k", k + 1, (1 to k).map(i => (0, i)).toVector)
  def clique(k: Int): Pattern =
    Pattern(s"clique$k", k, (for (a <- 0 until k; b <- 0 until a) yield (b, a)).toVector)
}
