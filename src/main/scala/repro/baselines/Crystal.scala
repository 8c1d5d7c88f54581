package repro.baselines

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.core.LocalEnum
import repro.graph.{Graph, PartitionedGraph}
import repro.query.{Automorphism, Pattern, Queries}

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

  /** The clique index, each clique ascending and the lists in lexicographic
    * order. `bytesOnDisk` is what Table 2 compares against the plain
    * adjacency-list file of the data graph.
    */
  final case class CliqueIndex(
      triangles: Array[Array[Int]],
      k4s: Array[Array[Int]],
      bytesOnDisk: Long,
      dir: Path)

  /** Enumerate all triangles / 4-cliques of `g` ([[LocalEnum.reference]] on
    * the k-clique with f(0) < … < f(k-1)) and persist them as the on-disk
    * index (text, same encoding as the data-graph file so the Table 2 size
    * comparison is apples-to-apples).
    */
  def buildIndex(g: Graph, dir: Path): CliqueIndex = {
    Files.createDirectories(dir)
    def cliques(k: Int) =
      LocalEnum.reference(Queries.clique(k), g, Automorphism.symmetryBreaking(Queries.clique(k))).embeddings.toArray
    val tris = cliques(3)
    val k4s  = cliques(4)
    // persist: edges (2-cliques), triangles, 4-cliques
    val pe = dir.resolve("cliques2.txt")
    val pt = dir.resolve("cliques3.txt")
    val pk = dir.resolve("cliques4.txt")
    writeLines(pe, g.edges.map { case (x, y) => s"$x $y" })
    writeLines(pt, tris.iterator.map(_.mkString(" ")))
    writeLines(pk, k4s.iterator.map(_.mkString(" ")))
    val bytes = Seq(pe, pt, pk).map(Files.size).sum
    CliqueIndex(tris, k4s, bytes, dir)
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
    val edges  = tally.keep(pg.edgesDf(spark))
    val clique = largestPatternClique(p)

    val seedDf: DataFrame =
      if (clique.size >= 3) {
        // load the crystal straight from the index: all injective orderings
        val rows = (if (clique.size == 4) index.k4s else index.triangles).iterator
          .flatMap(_.toSeq.permutations).map(Row.fromSeq).toSeq
        val schema = StructType(clique.map(u => StructField(s"v$u", IntegerType, nullable = false)))
        spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
      } else edges.select(col("src").as(s"v${clique(0)}"), col("dst").as(s"v${clique(1)}"))

    // each join step is one MR round of the crystal join and is charged; the last
    // is the result, which is charged itself only if the clique covers the pattern
    val out   = JoinEnum.extend(edges, p, sb, seedDf, clique, onStep = tally(_))
    val count = if (clique.size == p.n) tally(out) else out.persist().count()
    tally.result("Crystal", p.n - clique.size, out, count)
  }
}
