package repro.query

import scala.collection.mutable
import scala.util.Random

/** A decomposition unit (Def. 6): a pivot plus a non-empty leaf set, every
  * leaf adjacent to the pivot in the pattern.
  */
final case class DecompUnit(piv: Int, leaves: Vector[Int]) {
  require(leaves.nonEmpty, "decomposition unit needs at least one leaf")
}

/** An execution plan (Def. 7): a unit sequence where each later pivot is
  * already matched, together with the derived edge classification
  * (expansion / sibling / cross-unit — §3.2) and the matching order
  * (Def. 10) the embedding trie is organized by.
  */
final case class ExecutionPlan(pattern: Pattern, units: Vector[DecompUnit]) {
  private val p = pattern

  // --- validity (Defs. 6 & 7) ---
  units.foreach(u => u.leaves.foreach(l =>
    require(p.hasEdge(u.piv, l), s"leaf $l not adjacent to pivot ${u.piv} in ${p.name}")))
  locally {
    val seen = mutable.Set[Int]()
    units.zipWithIndex.foreach { case (u, i) =>
      if (i == 0) { seen += u.piv }
      else require(seen.contains(u.piv), s"unit $i pivot ${u.piv} not in P_{i-1}")
      u.leaves.foreach { l =>
        require(!seen.contains(l), s"leaf $l reappears in unit $i")
        seen += l
      }
    }
    require(seen.size == p.n, s"plan covers ${seen.size} of ${p.n} vertices")
  }

  def numRounds: Int = units.size

  /** Vertices of the induced sub-pattern P_i (after processing unit i). */
  lazy val prefixVertices: Vector[Set[Int]] = {
    val acc = mutable.ArrayBuffer[Set[Int]]()
    var cur = Set.empty[Int]
    units.foreach { u => cur = cur + u.piv ++ u.leaves; acc += cur }
    acc.toVector
  }

  /** Expansion edges of unit i: pivot–leaf. */
  def starEdges(i: Int): Vector[(Int, Int)] = units(i).leaves.map(l => (units(i).piv, l))

  /** Sibling edges of unit i: pattern edges between two leaves of unit i. */
  def sibEdges(i: Int): Vector[(Int, Int)] = {
    val lf = units(i).leaves
    (for { a <- lf; b <- lf if a < b && p.hasEdge(a, b) } yield (a, b)).toVector
  }

  /** Cross-unit edges of unit i: leaf of unit i to an earlier non-pivot
    * vertex (for i = 0 there is no earlier pattern, so none).
    */
  def croEdges(i: Int): Vector[(Int, Int)] = {
    if (i == 0) return Vector.empty
    val prev = prefixVertices(i - 1)
    val piv  = units(i).piv
    (for { l <- units(i).leaves; u <- prev if u != piv && p.hasEdge(u, l) } yield (u, l)).toVector
  }

  /** Verification edges of unit i (sibling + cross-unit). */
  def verificationEdges(i: Int): Vector[(Int, Int)] = sibEdges(i) ++ croEdges(i)

  /** Eq. 3 score: verification edges weighted toward early rounds. */
  def score3(rho: Double = 1.0): Double =
    units.indices.map(i => verificationEdges(i).size / math.pow(i + 1, rho)).sum

  /** Eq. 4 score: adds the pivot-degree component. */
  def score4(rho: Double = 1.0): Double =
    units.indices.map { i =>
      verificationEdges(i).size / math.pow(i + 1, rho) + p.degree(units(i).piv).toDouble / (i + 1)
    }.sum

  /** First unit index that u pivots; -1 if none. */
  private def pivotUnitOf(u: Int): Int = units.indexWhere(_.piv == u)

  /** Matching order (Def. 10): the query-vertex list the trie levels follow.
    * Per unit: pivot first (if unseen), then leaves that pivot later units
    * (ordered by the unit they pivot), then remaining leaves by descending
    * degree then id.
    */
  lazy val matchingOrder: Vector[Int] = {
    val out  = mutable.ArrayBuffer[Int]()
    val seen = mutable.Set[Int]()
    units.zipWithIndex.foreach { case (u, _) =>
      if (!seen.contains(u.piv)) { out += u.piv; seen += u.piv }
      val (pivLeaves, plainLeaves) = u.leaves.partition(l => pivotUnitOf(l) >= 0)
      pivLeaves.sortBy(pivotUnitOf).foreach { l => out += l; seen += l }
      plainLeaves.sortBy(l => (-p.degree(l), l)).foreach { l => out += l; seen += l }
    }
    require(out.size == p.n, "matching order must cover all pattern vertices")
    out.toVector
  }

  /** Every pattern edge is a star, sibling or cross-unit edge of exactly one
    * unit (checked by tests; used to prove nothing is ever left unverified).
    */
  def classifiedEdges: Vector[(Int, Int)] =
    units.indices.flatMap(i => starEdges(i) ++ sibEdges(i) ++ croEdges(i))
      .map { case (a, b) => (math.min(a, b), math.max(a, b)) }.toVector

  override def toString: String =
    units.zipWithIndex
      .map { case (u, i) => s"dp$i(piv=${u.piv},lf=${u.leaves.mkString(",")})" }
      .mkString(s"Plan[${p.name}: ", " ; ", "]")
}

/** Computes execution plans per §4: minimum rounds via minimum connected
  * dominating sets (Thm. 1), tie-broken by the span of dp0.piv (§4.2) and
  * the SC scores (§4.3, eqs. 3–4). `dataPlan` adds one key from the data
  * graph's degree sequence before the SC scores (DESIGN.md D9). Also
  * provides the App. C.2 baselines RanS (random stars) and RanM (min-round,
  * otherwise random).
  */
object Planner {

  /** All minimum connected dominating sets, plus the connected domination
    * number c_P (the minimum possible number of rounds, Thm. 1).
    */
  def minCds(p: Pattern): (Int, Vector[Set[Int]]) = {
    val vs = (0 until p.n).toVector
    for (size <- 1 to p.n) {
      val found = vs.combinations(size).map(_.toSet).filter(d => isCds(p, d)).toVector
      if (found.nonEmpty) return (size, found)
    }
    (p.n, Vector(vs.toSet)) // unreachable for connected patterns
  }

  private def isCds(p: Pattern, d: Set[Int]): Boolean = {
    val dominated = (0 until p.n).forall(v => d.contains(v) || p.neighbors(v).exists(d.contains))
    dominated && inducedConnected(p, d)
  }

  private def inducedConnected(p: Pattern, d: Set[Int]): Boolean = {
    if (d.isEmpty) return false
    val seen = mutable.Set(d.head)
    val q    = mutable.ArrayDeque(d.head)
    while (q.nonEmpty) {
      val v = q.removeHead()
      p.neighbors(v).foreach(w => if (d.contains(w) && !seen.contains(w)) { seen += w; q.append(w) })
    }
    seen.size == d.size
  }

  /** Every minimum-round plan: each sequence of c_P units (Def. 7) that
    * matches the whole pattern. The first pivot is any vertex, each later
    * pivot a matched vertex that has not pivoted yet, and a unit's leaves
    * any non-empty set of its pivot's unmatched neighbours. By Thm. 1 the
    * pivots form an MCDS, so this covers every spanning tree of every MCDS.
    */
  def candidatePlans(p: Pattern): Vector[ExecutionPlan] = {
    val depth = minCds(p)._1
    def search(units: Vector[DecompUnit], matched: Set[Int]): Iterator[Vector[DecompUnit]] =
      if (matched.size == p.n) Iterator(units)
      else if (units.size == depth) Iterator.empty
      else {
        val pivots =
          if (units.isEmpty) 0 until p.n else matched.toVector.sorted.filterNot(v => units.exists(_.piv == v))
        pivots.iterator.flatMap { piv =>
          val free = p.neighbors(piv).toVector.filterNot(matched)
          (1 to free.size).iterator.flatMap(free.combinations)
            .flatMap(lf => search(units :+ DecompUnit(piv, lf), matched + piv ++ lf))
        }
      }
    search(Vector.empty, Set.empty).map(ExecutionPlan(p, _)).toVector
  }

  /** The paper's plan: min rounds → min span of dp0.piv → max eq.3 score →
    * max eq.4 score → deterministic tiebreak. It sees the pattern only;
    * `Rads.enumerate` runs [[dataPlan]] unless given a plan.
    */
  def bestPlan(p: Pattern, rho: Double = 1.0): ExecutionPlan = rank(p, rho)(_ => 0L)

  /** The first candidate plan in [[dataPlan]]'s order, with `dataKey` as its data key. */
  private def rank(p: Pattern, rho: Double)(dataKey: ExecutionPlan => Long): ExecutionPlan = {
    val cands = candidatePlans(p)
    require(cands.nonEmpty, s"no candidate plan for ${p.name}")
    cands.minBy(pl => (pl.numRounds, p.span(pl.units.head.piv), dataKey(pl),
      -pl.score3(rho), -pl.score4(rho), pl.toString))
  }

  /** The round-0 EC count the degree sequence fixes: every data vertex of
    * degree at least deg_P(dp0.piv) is a start candidate, and each ordered
    * k-tuple of its distinct neighbours is one EC, for k = |dp0.leaves|.
    * Round 0 is the only round no earlier verification has pruned.
    * `degreeCounts(d)` is the number of data vertices of degree d
    * (`Graph.degreeCounts`). Saturates at `Long.MaxValue`.
    */
  def round0Ecs(pl: ExecutionPlan, degreeCounts: Array[Long]): Long = {
    val k = pl.units.head.leaves.size
    // d ≥ deg_P(dp0.piv) ≥ k, so every factor d − j is positive
    def ecsAt(d: Int): Long =
      (0 until k).foldLeft(degreeCounts(d))((t, j) => Math.multiplyExact(t, (d - j).toLong))
    try (pl.pattern.degree(pl.units.head.piv) until degreeCounts.length)
      .foldLeft(0L)((sum, d) => Math.addExact(sum, ecsAt(d)))
    catch { case _: ArithmeticException => Long.MaxValue }
  }

  /** The plan `Rads.enumerate` runs by default: min rounds → min span of
    * dp0.piv → min round-0 ECs on the data graph → max eq.3 score → max
    * eq.4 score → deterministic tiebreak. `bestPlan` is the same order
    * without the data key.
    */
  def dataPlan(p: Pattern, degreeCounts: Array[Long], rho: Double = 1.0): ExecutionPlan =
    rank(p, rho)(round0Ecs(_, degreeCounts))

  /** App. C.2 baseline RanS: random star decomposition, no size limit. */
  def ranS(p: Pattern, seed: Long): ExecutionPlan = {
    val rng     = new Random(seed)
    val covered = mutable.Set(rng.nextInt(p.n))
    val units   = mutable.ArrayBuffer[DecompUnit]()
    while (covered.size < p.n) {
      val pivs = covered.toVector.filter(v => p.neighbors(v).exists(w => !covered.contains(w)))
      val piv  = pivs(rng.nextInt(pivs.size))
      val lf   = p.neighbors(piv).filter(w => !covered.contains(w)).toVector
      units += DecompUnit(piv, lf)
      covered ++= lf
    }
    ExecutionPlan(p, units.toVector)
  }

  /** App. C.2 baseline RanM: a random minimum-round plan (ignores §4.2/§4.3).
    * `SplittableRandom` mixes the seed; `java.util.Random`'s first draw under
    * a power-of-two bound is the same for seeds 1–5.
    */
  def ranM(p: Pattern, seed: Long): ExecutionPlan = {
    val cands = candidatePlans(p)
    cands(new java.util.SplittableRandom(seed).nextInt(cands.size))
  }
}
