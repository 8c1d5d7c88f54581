package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import repro.graph.PartitionedGraph
import repro.query.{Automorphism, ExecutionPlan, Pattern, Planner}

/** Public facade of the RADS reproduction: computes the execution plan
  * (§4), derives symmetry-breaking conditions, runs SM-E + R-Meef, and
  * exposes results as a DataFrame for oracle checks.
  */
object Rads {

  /** @param budgetBytes  Φ — the per-region-group memory budget (§6)
    * @param smeEnabled   disable to force every candidate through R-Meef
    *                     (ablation; §3.1 split on by default)
    * @param plan         optional plan override (RanS / RanM experiments)
    */
  final case class Config(
      budgetBytes: Double = (4L << 20).toDouble,
      smeEnabled: Boolean = true,
      rho: Double = 1.0,
      seed: Long = 99,
      keepEmbeddings: Boolean = true,
      plan: Option[ExecutionPlan] = None)

  def enumerate(
      spark: SparkSession,
      pg: PartitionedGraph,
      pattern: Pattern,
      cfg: Config = Config()): RadsRun = {
    val plan = cfg.plan.getOrElse(Planner.bestPlan(pattern, cfg.rho))
    val sb   = Automorphism.symmetryBreaking(pattern)
    val ctx  = PlanCtx(plan, sb)
    RMeefEngine.run(spark, pg, ctx, plan, cfg)
  }

  /** Canonical embedding DataFrame: column `v{i}` = data vertex matched to
    * query vertex i — the shape every engine and the DuckDB oracle share.
    */
  def toDf(spark: SparkSession, p: Pattern, embeddings: Seq[Array[Int]]): DataFrame = {
    val schema = StructType((0 until p.n).map(i => StructField(s"v$i", IntegerType, nullable = false)))
    val rows   = embeddings.map(e => Row.fromSeq(e.toSeq))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 4), schema)
  }
}
