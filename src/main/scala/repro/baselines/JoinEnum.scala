package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.LocalEnum
import repro.query.Pattern
import scala.collection.mutable

/** Generic edge-at-a-time enumeration via Catalyst joins (BigJoin-style,
  * Ammar et al. [2]) and the DuckDB SQL generator every oracle test uses.
  *
  * Both sides build the same logical query: one relation per pattern edge,
  * connected along a BFS matching order, with injectivity and the shared
  * Grochow–Kellis symmetry-breaking conditions. Output columns are
  * `v{queryVertex}`.
  */
object JoinEnum {

  /** Extend `start` (columns `v{u}` for `mapped` vertices) to the full
    * pattern, one vertex per step along [[LocalEnum.order]] from `mapped`.
    * Used by PSgL from every vertex, by TwinTwig and SEED to match each
    * unit from its first edge, and by Crystal to grow from an index-seeded
    * clique.
    *
    * @param onStep called with the intermediate DataFrame after each
    *               expansion step (for counting shuffled intermediates)
    */
  def extend(
      edges: DataFrame,
      p: Pattern,
      sb: Seq[(Int, Int)],
      start: DataFrame,
      mapped: Vector[Int],
      onStep: DataFrame => Unit = _ => ()): DataFrame = {
    var df   = whereSb(start, sb, mapped, mapped)
    val seen = mutable.ArrayBuffer.from(mapped)
    LocalEnum.order(p, mapped: _*).drop(mapped.size).foreach { u =>
      val nbrs   = p.neighbors(u).filter(seen.contains).toVector
      val first  = nbrs.head
      val e      = edges.select(col("src").as("_es"), col("dst").as("_ed"))
      df = df.join(e, col(s"v$first") === col("_es"))
        .withColumnRenamed("_ed", s"v$u").drop("_es")
      nbrs.tail.foreach { other =>
        val e2 = edges.select(col("src").as("_fs"), col("dst").as("_fd"))
        df = df.join(e2, col(s"v$u") === col("_fs") && col(s"v$other") === col("_fd"), "left_semi")
      }
      seen.foreach(w => df = df.where(col(s"v$u") =!= col(s"v$w")))
      seen += u
      df = whereSb(df, sb, seen, Seq(u))
      onStep(df)
    }
    df.select((0 until p.n).map(i => col(s"v$i")): _*)
  }

  /** `df` with the conditions (a, b) of `sb` that the `fresh` vertices make
    * checkable: both ends in `mapped`, at least one of them fresh. Applied
    * after each step, every condition filters as soon as its columns exist.
    */
  def whereSb(df: DataFrame, sb: Seq[(Int, Int)], mapped: collection.Seq[Int], fresh: Seq[Int]): DataFrame =
    sb.filter { case (a, b) => mapped.contains(a) && mapped.contains(b) && (fresh.contains(a) || fresh.contains(b)) }
      .foldLeft(df) { case (d, (a, b)) => d.where(col(s"v$a") < col(s"v$b")) }

  /** DuckDB SQL equivalent over an `edges(src, dst)` table that stores both
    * directions. All columns are stored as VARCHAR by the Oracle, hence the
    * BIGINT casts on every comparison.
    */
  def duckSql(p: Pattern, sb: Seq[(Int, Int)], table: String = "edges"): String = {
    val ord  = LocalEnum.order(p, 0)
    val expr = mutable.Map[Int, String]()
    val from = mutable.ArrayBuffer[String]()
    val cond = mutable.ArrayBuffer[String]()
    var ai   = 0
    def cast(s: String) = s"CAST($s AS BIGINT)"

    // defining aliases: one per new vertex along the matching order
    expr(ord.head) = null // placeholder; defined by the first alias below
    ord.drop(1).foreach { u =>
      val parent = p.neighbors(u).filter(expr.contains).head
      ai += 1
      val a = s"e$ai"
      from += s"$table $a"
      if (expr(parent) == null) expr(parent) = s"$a.src" // first alias defines the root too
      else cond += s"${cast(s"$a.src")} = ${cast(expr(parent))}"
      expr(u) = s"$a.dst"
    }
    // remaining pattern edges: one filtering alias each
    val definingEdges = {
      val es = mutable.Set[(Int, Int)]()
      val seen = mutable.ArrayBuffer(ord.head)
      ord.drop(1).foreach { u =>
        val parent = p.neighbors(u).filter(seen.contains).head
        es += ((math.min(parent, u), math.max(parent, u)))
        seen += u
      }
      es
    }
    p.edges.filterNot(definingEdges.contains).foreach { case (a, b) =>
      ai += 1
      val al = s"e$ai"
      from += s"$table $al"
      cond += s"${cast(s"$al.src")} = ${cast(expr(a))}"
      cond += s"${cast(s"$al.dst")} = ${cast(expr(b))}"
    }
    // injectivity
    for (x <- 0 until p.n; y <- 0 until x)
      cond += s"${cast(expr(x))} <> ${cast(expr(y))}"
    // symmetry breaking
    sb.foreach { case (a, b) => cond += s"${cast(expr(a))} < ${cast(expr(b))}" }

    val sel = (0 until p.n).map(u => s"${cast(expr(u))} AS v$u").mkString(", ")
    s"SELECT $sel FROM ${from.mkString(", ")}" +
      (if (cond.nonEmpty) s" WHERE ${cond.mkString(" AND ")}" else "")
  }
}
