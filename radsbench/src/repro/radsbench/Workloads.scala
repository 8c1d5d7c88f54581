package repro.radsbench

import repro.core.Rads
import repro.graph.{Graph, GraphGen, PartitionedGraph}
import repro.query.{Pattern, Queries}
import scala.util.Random

/** One benchmark workload: a dataset, the queries of one pass, and the
  * region-group budget Φ the engine runs with.
  */
final case class Workload(
    name: String,
    dataset: () => Graph,
    queries: Seq[Pattern],
    budgetBytes: Double)

/** The workloads. Each dataset is one of `repro.bench.BenchData`'s graphs,
  * generated and partitioned with BenchData's seeds (7 and 17). The workload
  * seed draws a numbering of its vertices (see [[renumber]]), so every seed
  * poses the same enumeration problem with the same answer, while the ids
  * that symmetry breaking, candidate order and region grouping depend on
  * change from seed to seed.
  */
object Workloads {
  /** Logical machines (partitions of the data graph). */
  val machines = 4
  val graphSeed = 7L
  val partitionSeed = 17L

  private val defaultBudget = Rads.Config().budgetBytes

  val all: Seq[Workload] = Seq(
    // SM-E handles almost every start candidate: measures the fixed cost per round.
    Workload("road-sme", () => GraphGen.roadLite(70, 70, seed = graphSeed), Queries.main, defaultBudget),
    // verifyE and filter dominate: many undetermined edges, nearly all fail.
    Workload("uk-verify",
      () => GraphGen.ukLite(4000, seed = graphSeed, edgesPerVertex = 4, maxDegree = 48),
      Seq(Queries.q4), defaultBudget),
    // fetchV and the foreign cache dominate; the trie peaks far above Φ.
    Workload("lj-cycle",
      () => GraphGen.powerLaw(3500, edgesPerVertex = 4, maxDegree = 40, seed = graphSeed),
      Seq(Queries.q6), defaultBudget),
    // a small Φ splits each machine into many region groups.
    Workload("dblp-budget", () => GraphGen.dblpLite(2500, seed = graphSeed), Seq(Queries.q4), 64 * 1024.0))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload $name (one of ${all.map(_.name).mkString(", ")})"))

  /** `pg` with vertex v renumbered to `perm(v)`, for a permutation drawn
    * from `seed`; each vertex keeps its owner machine.
    */
  def renumber(pg: PartitionedGraph, seed: Long): PartitionedGraph = {
    val n     = pg.graph.n
    val perm  = new Random(seed).shuffle((0 until n).toVector).toArray
    val owner = new Array[Int](n)
    for (v <- 0 until n) owner(perm(v)) = pg.owner(v)
    PartitionedGraph(Graph.fromEdges(n, pg.graph.edges.map { case (a, b) => (perm(a), perm(b)) }),
      owner, pg.m)
  }
}
