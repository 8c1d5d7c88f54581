package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Deterministic synthetic data-graph generators.
  *
  * The paper evaluates on RoadNet, DBLP, LiveJournal and UK2002, none of
  * which is available offline (DESIGN.md §3, deviation D1). Each generator
  * below preserves the property the paper uses the corresponding dataset
  * for: `roadLite` is sparse with a huge diameter (SM-E catches almost all
  * work), `dblpLite` is small and moderately dense, `powerLaw` is the capped
  * power-law social graph, and `ukLite` adds triangle closure for a web-like
  * clustered graph. All are deterministic in (size, seed).
  */
object GraphGen {

  /** Road-network substitute: a rows x cols grid keeping its BFS spanning
    * tree plus a deterministic fraction of the remaining grid edges.
    * Average degree ~2.4, diameter O(rows+cols), always connected.
    */
  def roadLite(rows: Int, cols: Int, seed: Long = 11, extraFrac: Double = 0.25): Graph = {
    val rng = new Random(seed)
    val n   = rows * cols
    def id(r: Int, c: Int) = r * cols + c
    val tree  = mutable.ArrayBuffer[(Int, Int)]()
    val other = mutable.ArrayBuffer[(Int, Int)]()
    for (r <- 0 until rows; c <- 0 until cols) {
      // right edges: tree edges on row 0, optional elsewhere; down edges: tree.
      if (c + 1 < cols) {
        if (r == 0) tree += ((id(r, c), id(r, c + 1)))
        else other += ((id(r, c), id(r, c + 1)))
      }
      if (r + 1 < rows) tree += ((id(r, c), id(r + 1, c)))
    }
    val kept = other.filter(_ => rng.nextDouble() < extraFrac)
    Graph.fromEdges(n, tree ++ kept)
  }

  /** Power-law graph by preferential attachment with a hard degree cap.
    *
    * Each new vertex draws `edgesPerVertex` targets from the running
    * endpoint list (preferential) with uniform fallback; targets at the
    * degree cap are resampled so hub blow-up stays bounded — without the
    * cap, 6-vertex cycle queries explode combinatorially at bench scale.
    */
  def powerLaw(n: Int, edgesPerVertex: Int, maxDegree: Int, seed: Long): Graph = {
    require(n > edgesPerVertex + 1, s"n=$n too small for m=$edgesPerVertex")
    val rng       = new Random(seed)
    val deg       = Array.fill(n)(0)
    val endpoints = new mutable.ArrayBuffer[Int](2 * n * edgesPerVertex)
    val edges     = mutable.LinkedHashSet[(Int, Int)]()
    def addEdge(a: Int, b: Int): Unit = {
      val e = (math.min(a, b), math.max(a, b))
      if (a != b && !edges.contains(e)) {
        edges += e; deg(a) += 1; deg(b) += 1
        endpoints += a; endpoints += b
      }
    }
    // seed clique over the first m+1 vertices
    for (a <- 0 to edgesPerVertex; b <- 0 until a) addEdge(a, b)
    for (v <- (edgesPerVertex + 1) until n) {
      var attached = 0
      var attempts = 0
      while (attached < edgesPerVertex && attempts < 20 * edgesPerVertex) {
        val t =
          if (rng.nextDouble() < 0.85 && endpoints.nonEmpty) endpoints(rng.nextInt(endpoints.size))
          else rng.nextInt(v)
        if (t != v && deg(t) < maxDegree && !edges.contains((math.min(v, t), math.max(v, t)))) {
          addEdge(v, t); attached += 1
        }
        attempts += 1
      }
      if (attached == 0) addEdge(v, rng.nextInt(v)) // keep connected-ish
    }
    Graph.fromEdges(n, edges)
  }

  /** DBLP substitute: small, avg degree ~6.6, power law. */
  def dblpLite(n: Int = 3000, seed: Long = 21): Graph =
    powerLaw(n, edgesPerVertex = 3, maxDegree = 48, seed = seed)

  /** UK2002 substitute: power law plus a triangle-closure pass for web-like
    * clustering (more cliques — the regime where SEED/Crystal clique units
    * pay off).
    */
  def ukLite(n: Int = 8000, seed: Long = 41,
             edgesPerVertex: Int = 6, maxDegree: Int = 72): Graph = {
    val base = powerLaw(n, edgesPerVertex = edgesPerVertex, maxDegree = maxDegree, seed = seed)
    val rng  = new Random(seed * 7 + 1)
    val extra = mutable.ArrayBuffer[(Int, Int)]()
    var i = 0
    while (i < n) { // close a wedge at ~1 vertex in 3
      val v  = rng.nextInt(n)
      val nb = base.neighbors(v)
      if (nb.length >= 2) {
        val a = nb(rng.nextInt(nb.length))
        val b = nb(rng.nextInt(nb.length))
        if (a != b) extra += ((a, b))
      }
      i += 3
    }
    Graph.fromEdges(n, base.edges ++ extra)
  }

  /** Erdos–Renyi G(n, m) — used by randomized cross-engine tests. */
  def gnm(n: Int, m: Int, seed: Long): Graph = {
    val rng   = new Random(seed)
    val edges = mutable.LinkedHashSet[(Int, Int)]()
    var guard = 0
    while (edges.size < m && guard < 50 * m) {
      val a = rng.nextInt(n); val b = rng.nextInt(n)
      if (a != b) edges += ((math.min(a, b), math.max(a, b)))
      guard += 1
    }
    Graph.fromEdges(n, edges)
  }

  /** Simple named toys for unit tests. */
  def path(n: Int): Graph  = Graph.fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))
  def cycle(n: Int): Graph = Graph.fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))
  def clique(n: Int): Graph =
    Graph.fromEdges(n, for (a <- 0 until n; b <- 0 until a) yield (a, b))
  def grid(rows: Int, cols: Int): Graph = {
    def id(r: Int, c: Int) = r * cols + c
    val es = for {
      r <- 0 until rows; c <- 0 until cols
      e <- Seq((c + 1 < cols, (id(r, c), id(r, c + 1))), (r + 1 < rows, (id(r, c), id(r + 1, c))))
      if e._1
    } yield e._2
    Graph.fromEdges(rows * cols, es)
  }
}
