package repro.baselines

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.graph.{Graph, PartitionedGraph}
import repro.query.Pattern
import scala.collection.mutable

/** Crystal-lite (Qiao et al., PVLDB'17 — deviation D4 in DESIGN.md).
  *
  * Faithful pieces: a *precomputed on-disk clique index* (all triangles and
  * 4-cliques, plus the edge relation) whose byte size reproduces Table 2;
  * query processing that *retrieves the largest clique sub-pattern directly
  * from the index* (the paper's "the triangle crystal can be directly
  * loaded") and extends the remaining vertices by joins
  * ([[JoinEnum.extend]]'s order, with no special place for degree-1 "bud"
  * vertices). Simplified away: the vertex-cover core, bud-set compression
  * and the `code(I_P)` compression algebra.
  */
object Crystal {

  /** The clique index. `bytesOnDisk` is what Table 2 compares against the
    * plain adjacency-list file of the data graph.
    */
  final case class CliqueIndex(
      triangles: Array[(Int, Int, Int)],
      k4s: Array[(Int, Int, Int, Int)],
      bytesOnDisk: Long,
      dir: Path)

  /** Enumerate all triangles / 4-cliques of `g` and persist them as the
    * on-disk index (text, same encoding as the data-graph file so the
    * Table 2 size comparison is apples-to-apples).
    */
  def buildIndex(g: Graph, dir: Path): CliqueIndex = {
    Files.createDirectories(dir)
    val tris = mutable.ArrayBuffer[(Int, Int, Int)]()
    val k4s  = mutable.ArrayBuffer[(Int, Int, Int, Int)]()
    var a = 0
    while (a < g.n) {
      val na = g.neighbors(a).filter(_ > a)
      var i = 0
      while (i < na.length) {
        val b = na(i)
        val common = Graph.intersectSorted(na, g.neighbors(b)).filter(_ > b)
        var j = 0
        while (j < common.length) {
          val c = common(j)
          tris += ((a, b, c))
          // extend to 4-cliques: d > c adjacent to a, b, c
          val commonD = Graph.intersectSorted(common, g.neighbors(c)).filter(_ > c)
          var k = 0
          while (k < commonD.length) { k4s += ((a, b, c, commonD(k))); k += 1 }
          j += 1
        }
        i += 1
      }
      a += 1
    }
    // persist: edges (2-cliques), triangles, 4-cliques
    val pe = dir.resolve("cliques2.txt")
    val pt = dir.resolve("cliques3.txt")
    val pk = dir.resolve("cliques4.txt")
    writeLines(pe, g.edges.map { case (x, y) => s"$x $y" })
    writeLines(pt, tris.iterator.map { case (x, y, z) => s"$x $y $z" })
    writeLines(pk, k4s.iterator.map { case (x, y, z, w) => s"$x $y $z $w" })
    val bytes = Seq(pe, pt, pk).map(Files.size).sum
    CliqueIndex(tris.toArray, k4s.toArray, bytes, dir)
  }

  private def writeLines(p: Path, lines: Iterator[String]): Unit = {
    val w = Files.newBufferedWriter(p)
    try lines.foreach { l => w.write(l); w.write('\n') }
    finally w.close()
  }

  /** The data-graph adjacency-list file (the paper's on-disk format),
    * written for the Table 2 size comparison; returns its byte size.
    */
  def writeGraphFile(g: Graph, file: Path): Long = {
    Files.createDirectories(file.getParent)
    writeLines(file, (0 until g.n).iterator.map(v => (v +: g.neighbors(v).toSeq).mkString(" ")))
    Files.size(file)
  }

  /** Largest clique of the pattern (vertex list), up to size 4. */
  def largestPatternClique(p: Pattern): Vector[Int] = (4 to 2 by -1).iterator.flatMap(p.cliques).next()

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          index: CliqueIndex, maxIntermediate: Long = Long.MaxValue): BaselineRun = {
    val tally  = new Tally(maxIntermediate)
    val edges  = pg.edgesDf(spark).persist()
    edges.count()
    val clique = largestPatternClique(p)

    val seedDf: DataFrame = clique.size match {
      case k if k >= 3 =>
        // load the crystal straight from the index: all injective orderings
        val rows = (if (k == 4) index.k4s.iterator.map(t => Seq(t._1, t._2, t._3, t._4))
                    else index.triangles.iterator.map(t => Seq(t._1, t._2, t._3)))
          .flatMap(vs => vs.permutations)
          .map(Row.fromSeq)
          .toSeq
        val schema = StructType(clique.map(u => StructField(s"v$u", IntegerType, nullable = false)))
        spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
      case _ =>
        edges.select(col("src").as(s"v${clique(0)}"), col("dst").as(s"v${clique(1)}"))
    }

    // each join step is one MR round of the crystal join and is charged; the last
    // is the result, which is charged itself only if the clique covers the pattern
    val out   = JoinEnum.extend(edges, p, sb, seedDf, clique, onStep = tally(_))
    val count = if (clique.size == p.n) tally(out) else out.persist().count()
    val run   = tally.result("Crystal", p.n - clique.size, out, count)
    edges.unpersist(blocking = false)
    run
  }
}
