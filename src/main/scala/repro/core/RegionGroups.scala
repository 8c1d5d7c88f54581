package repro.core

import scala.collection.mutable
import scala.util.Random

/** Region grouping of the start-vertex candidates (§6, Algorithm 3).
  *
  * Groups are grown greedily by neighborhood proximity (eq. 5):
  * `proximity(v, rg) = |adj(v) ∩ N(rg)| / |adj(v)|`, so each group stays a
  * "region" whose results share verification edges and fetched foreign
  * vertices. Growth stops when the memory estimate φ(rg) (per-root trie
  * bytes measured during SM-E) would exceed the budget Φ.
  */
object RegionGroups {

  /** @param candidates      candidate vertices of dp0.piv on this machine
    * @param adjOf           adjacency lookup (this machine's local block)
    * @param estBytesPerRoot φ contribution of one candidate (SM-E derived)
    * @param budgetBytes     Φ, the per-group memory budget
    */
  def group(
      candidates: Vector[Int],
      adjOf: Int => Array[Int],
      estBytesPerRoot: Double,
      budgetBytes: Double,
      seed: Long): Vector[Vector[Int]] = {
    if (candidates.isEmpty) return Vector.empty
    val perRoot   = math.max(1.0, estBytesPerRoot)
    val maxPerGrp = math.max(1, (budgetBytes / perRoot).toInt)
    val rng       = new Random(seed)
    val cands     = candidates.distinct.toArray
    val adjs      = cands.map(adjOf)
    // neighbour -> the candidates whose adjacency holds it, once per entry
    val holders: Map[Int, Array[Int]] =
      cands.indices.flatMap(c => adjs(c).map(w => (w, c))).groupMap(_._1)(_._2).view.mapValues(_.toArray).toMap
    val inter     = new Array[Int](cands.length) // |adj(c) ∩ N(rg)|, counted per adjacency entry
    val remaining = mutable.ArrayBuffer.from(cands.indices) // candidate positions, in input order
    val groups    = mutable.ArrayBuffer[Vector[Int]]()

    while (remaining.nonEmpty) {
      // Alg. 3 line 1: a (deterministic) random start vertex
      val start = remaining.remove(rng.nextInt(remaining.size))
      val rg    = mutable.ArrayBuffer(cands(start))
      val nb    = mutable.HashSet[Int]()
      def join(c: Int): Unit =
        adjs(c).foreach(w => if (nb.add(w)) holders.get(w).foreach(_.foreach(h => inter(h) += 1)))
      join(start)
      // Alg. 3 lines 4–9: grow by max proximity while φ(rg) < Φ
      while (remaining.nonEmpty && rg.size < maxPerGrp) {
        var bestAt   = -1
        var bestProx = -1.0
        remaining.indices.foreach { k =>
          val c    = remaining(k)
          val prox = if (adjs(c).isEmpty) 0.0 else inter(c).toDouble / adjs(c).length
          if (prox > bestProx || (prox == bestProx && cands(c) < cands(remaining(bestAt)))) {
            bestAt = k; bestProx = prox
          }
        }
        val best = remaining.remove(bestAt)
        rg += cands(best)
        join(best)
      }
      nb.foreach(w => holders.get(w).foreach(_.foreach(h => inter(h) = 0)))
      groups += rg.toVector
    }
    groups.toVector
  }
}
