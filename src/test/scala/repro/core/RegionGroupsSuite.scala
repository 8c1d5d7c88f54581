package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import scala.collection.mutable
import scala.util.Random

class RegionGroupsSuite extends AnyFunSuite {

  /** Algorithm 3 as first written: every growth step recounts
    * |adj(v) ∩ N(rg)| for every remaining candidate.
    */
  private def rescanGroups(candidates: Vector[Int], adjOf: Int => Array[Int], estBytesPerRoot: Double,
                           budgetBytes: Double, seed: Long): Vector[Vector[Int]] = {
    if (candidates.isEmpty) return Vector.empty
    val maxPerGrp = math.max(1, (budgetBytes / math.max(1.0, estBytesPerRoot)).toInt)
    val rng       = new Random(seed)
    val remaining = mutable.LinkedHashSet.from(candidates)
    val groups    = mutable.ArrayBuffer[Vector[Int]]()
    while (remaining.nonEmpty) {
      val start = remaining.iterator.drop(rng.nextInt(remaining.size)).next()
      remaining -= start
      val rg    = mutable.ArrayBuffer(start)
      val nbSet = mutable.HashSet.from(adjOf(start))
      while (remaining.nonEmpty && rg.size < maxPerGrp) {
        var best = -1
        var bestProx = -1.0
        remaining.foreach { v =>
          val adj  = adjOf(v)
          val prox = if (adj.isEmpty) 0.0 else adj.count(nbSet.contains).toDouble / adj.length
          if (prox > bestProx || (prox == bestProx && (best == -1 || v < best))) { best = v; bestProx = prox }
        }
        remaining -= best
        rg += best
        nbSet ++= adjOf(best)
      }
      groups += rg.toVector
    }
    groups.toVector
  }

  private val g = GraphGen.powerLaw(300, 3, 32, seed = 5)

  test("groups partition the candidate set") {
    val cands  = (0 until 300 by 2).toVector
    val groups = RegionGroups.group(cands, g.neighbors, estBytesPerRoot = 100, budgetBytes = 2000, seed = 1)
    assert(groups.flatten.sorted == cands.sorted)
    assert(groups.flatten.distinct.size == cands.size)
  }

  test("group sizes respect the budget Φ") {
    val cands  = (0 until 200).toVector
    val groups = RegionGroups.group(cands, g.neighbors, estBytesPerRoot = 100, budgetBytes = 1000, seed = 2)
    groups.foreach(rg => assert(rg.size <= 10, s"group of ${rg.size} exceeds Φ/est = 10"))
  }

  test("a large budget produces a single group") {
    val cands  = (0 until 50).toVector
    val groups = RegionGroups.group(cands, g.neighbors, 100, budgetBytes = 1e9, seed = 3)
    assert(groups.size == 1)
  }

  test("a tiny budget produces singleton groups") {
    val cands  = (0 until 20).toVector
    val groups = RegionGroups.group(cands, g.neighbors, 100, budgetBytes = 100, seed = 4)
    assert(groups.forall(_.size == 1))
    assert(groups.size == 20)
  }

  test("empty candidates → no groups") {
    assert(RegionGroups.group(Vector.empty, g.neighbors, 100, 1000, 5).isEmpty)
  }

  test("grouping is deterministic in the seed") {
    val cands = (0 until 100).toVector
    val a = RegionGroups.group(cands, g.neighbors, 100, 1500, seed = 6)
    val b = RegionGroups.group(cands, g.neighbors, 100, 1500, seed = 6)
    assert(a == b)
  }

  test("proximity grouping beats interleaved grouping on a two-cluster graph") {
    // two disjoint cliques: groups should not mix clusters (Figure 6's point)
    val twoCl  = repro.graph.Graph.fromEdges(20,
      (for (a <- 0 until 10; b <- 0 until a) yield (a, b)) ++
      (for (a <- 10 until 20; b <- 10 until a) yield (b, a)))
    val cands  = (0 until 20).toVector
    val groups = RegionGroups.group(cands, twoCl.neighbors, 100, budgetBytes = 1000, seed = 7)
    groups.foreach { rg =>
      val clusters = rg.map(_ / 10).distinct
      assert(clusters.size == 1, s"group $rg mixes the two clusters")
    }
  }

  test("each group (beyond its start) grows by maximum proximity") {
    val cands  = Vector(0, 1, 2, 3, 4, 5)
    val groups = RegionGroups.group(cands, g.neighbors, 100, budgetBytes = 300, seed = 8)
    assert(groups.map(_.size).sum == 6)
  }

  test("property: incremental proximity counts give the groups of a full rescan") {
    val rng = new Random(11)
    (0 until 100).foreach { trial =>
      val n     = 20 + rng.nextInt(120)
      val graph = GraphGen.gnm(n, n * (1 + rng.nextInt(5)), seed = trial)
      val cands = rng.shuffle((0 until n).toVector).take(1 + rng.nextInt(n)) :+ rng.nextInt(n)
      val est   = 50.0 + rng.nextInt(200)
      val phi   = est * (1 + rng.nextInt(40))
      val seed  = rng.nextLong()
      assert(RegionGroups.group(cands, graph.neighbors, est, phi, seed) ==
        rescanGroups(cands, graph.neighbors, est, phi, seed), s"trial $trial")
    }
  }
}
