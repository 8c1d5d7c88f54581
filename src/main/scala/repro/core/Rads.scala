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

  /** @param budgetBytes    Φ — the per-region-group memory budget (§6)
    * @param smeEnabled     disable to force every candidate through R-Meef
    *                       (ablation; §3.1 split on by default)
    * @param rho            the exponent ρ of the round weight in the SC
    *                       scores (eqs. 3–4) the planner ranks plans by
    * @param seed           seeds the start draws of region grouping (Alg. 3)
    * @param keepEmbeddings collect the embeddings into `RadsRun.embeddings`;
    *                       when false SM-E and the harvest only count them
    * @param plan           the execution plan to run. `None` runs
    *                       `Planner.dataPlan` on the data graph's degree
    *                       sequence; `Some(Planner.bestPlan(q))` runs the
    *                       paper's plan, `Some(Planner.ranS/ranM(q, s))`
    *                       the App. C.2 baselines
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
    val plan = cfg.plan.getOrElse(Planner.dataPlan(pattern, pg.graph.degreeCounts, cfg.rho))
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
