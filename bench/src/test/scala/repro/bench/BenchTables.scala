package repro.bench

import java.nio.file.Paths
import org.apache.spark.sql.SparkSession
import repro.baselines.{BaselineRun, Crystal, PSgL, Seed, TwinTwig}
import repro.core.{IntermediateOverflowException, LocalEnum, Rads}
import repro.graph.{Graph, GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Planner, Queries}

/** The bench-scale datasets (DESIGN.md §3 substitutions, deviation D1/D2).
  * Sizes are chosen so 8 queries x 5 engines x 4 datasets finish locally
  * while preserving the paper's sparse/dense/clustered contrasts.
  */
object BenchData {
  val machines = 4

  lazy val road: Graph = GraphGen.roadLite(70, 70, seed = 7)
  lazy val dblp: Graph = GraphGen.dblpLite(2500, seed = 7)
  // denser-than-DBLP but with capped hubs: 6-vertex cycle queries stay in
  // the tens of millions of embeddings rather than billions (deviation D2)
  lazy val lj: Graph   = GraphGen.powerLaw(3500, edgesPerVertex = 4, maxDegree = 40, seed = 7)
  lazy val uk: Graph   = GraphGen.ukLite(4000, seed = 7, edgesPerVertex = 4, maxDegree = 48)

  def graph(name: String): Graph = name match {
    case "RoadNet" => road
    case "DBLP" => dblp
    case "LiveJournal" => lj
    case "UK2002" => uk
    case other => throw new IllegalArgumentException(other)
  }

  private val pgCache = scala.collection.mutable.Map[String, PartitionedGraph]()
  def pg(name: String): PartitionedGraph =
    pgCache.getOrElseUpdate(name, PartitionedGraph.metis(graph(name), machines, seed = 17))

  val names: Seq[String] = Seq("RoadNet", "DBLP", "LiveJournal", "UK2002")

  def mb(bytes: Long): String = f"${bytes / 1048576.0}%.2f"
  def kb(bytes: Long): String = f"${bytes / 1024.0}%.1f"
}

/** One computation per evaluation-section table; each returns its rows and
  * prints the formatted table (captured by `bench_output.txt`).
  */
object BenchTables {
  import BenchData._

  private def sbOf(q: repro.query.Pattern) = Automorphism.symmetryBreaking(q)

  def banner(title: String): Unit = {
    println()
    println("=" * 78)
    println(s"== $title")
    println("=" * 78)
  }

  // ------------------------------------------------------------------ Table 1
  final case class Profile(name: String, v: Int, e: Long, avgDeg: Double, diameter: Int)

  def table1(): Seq[Profile] = {
    banner("Table 1: Profiles of datasets (synthetic substitutes, DESIGN.md D1)")
    println(f"${"Dataset"}%-14s ${"|V|"}%8s ${"|E|"}%10s ${"AvgDeg"}%8s ${"Diameter"}%9s")
    val rows = names.map { n =>
      val g = graph(n)
      val p = Profile(n, g.n, g.numEdges, g.avgDegree, g.diameter())
      println(f"${p.name}%-14s ${p.v}%8d ${p.e}%10d ${p.avgDeg}%8.2f ${p.diameter}%9d")
      p
    }
    rows
  }

  // ------------------------------------------------------------------ Table 2
  final case class IndexSize(name: String, graphBytes: Long, indexBytes: Long,
                             triangles: Long, k4s: Long) {
    def ratio: Double = indexBytes.toDouble / graphBytes
  }

  def table2(): Seq[IndexSize] = {
    banner("Table 2: Size of the Crystal clique-index files vs the data-graph file")
    println(f"${"Dataset"}%-14s ${"GraphFile"}%12s ${"IndexFile"}%12s ${"Ratio"}%7s ${"Tris"}%10s ${"K4s"}%9s")
    val out = Paths.get("target", "bench-out")
    val rows = names.map { n =>
      val g  = graph(n)
      val gb = Crystal.writeGraphFile(g, out.resolve(s"$n.adj.txt"))
      val ix = Crystal.buildIndex(g, out.resolve(s"$n-index"))
      val r  = IndexSize(n, gb, ix.bytesOnDisk, ix.triangles.length, ix.k4s.length)
      println(f"${r.name}%-14s ${mb(r.graphBytes)}%10sMB ${mb(r.indexBytes)}%10sMB ${r.ratio}%7.2f ${r.triangles}%10d ${r.k4s}%9d")
      r
    }
    rows
  }

  // -------------------------------------------------------------- Tables 3–4
  final case class Compression(query: String, embeddings: Long, elBytes: Long, etBytes: Long) {
    def ratio: Double = if (etBytes == 0) 1.0 else elBytes.toDouble / etBytes
  }

  def compressionTable(spark: SparkSession, dataset: String, tableNo: Int): Seq[Compression] = {
    banner(s"Table $tableNo: intermediate-result storage, embedding list (EL) vs embedding trie (ET) — $dataset")
    println(f"${"Query"}%-7s ${"Results"}%10s ${"EL"}%12s ${"ET"}%12s ${"EL/ET"}%7s")
    val p = pg(dataset)
    val rows = Queries.main.map { q =>
      val run = Rads.enumerate(spark, p, q, Rads.Config(keepEmbeddings = false))
      val m   = run.metrics.machines
      val r   = Compression(q.name, run.count, m.sumElBytes, m.sumEtBytes)
      println(f"${r.query}%-7s ${r.embeddings}%10d ${kb(r.elBytes)}%10sKB ${kb(r.etBytes)}%10sKB ${r.ratio}%7.2f")
      r
    }
    rows
  }

  // ------------------------------------------- Figures 8–11 shape (as tables)
  final case class PerfRow(dataset: String, query: String, engine: String,
                           millis: Long, commBytes: Long, count: Long, oom: Boolean)

  /** Time + communication of all five systems, per dataset and query —
    * reproduces the shape of Figures 8–11. `maxIntermediate` emulates the
    * 16 GB memory bound: join engines whose materialized intermediates
    * exceed it are recorded as OOM, exactly how the paper marks failures.
    */
  def perfComparison(spark: SparkSession, datasets: Seq[String] = names,
                     queries: Seq[repro.query.Pattern] = Queries.main,
                     maxIntermediate: Long = 2_000_000L): Seq[PerfRow] = {
    val rows = scala.collection.mutable.ArrayBuffer[PerfRow]()
    datasets.foreach { ds =>
      banner(s"Performance comparison (Figs 8-11 shape) — $ds  (OOM = intermediates > $maxIntermediate)")
      println(f"${"Query"}%-7s ${"Engine"}%-10s ${"Time(ms)"}%9s ${"Comm"}%12s ${"Results"}%11s")
      val p     = pg(ds)
      val index = Crystal.buildIndex(graph(ds), Paths.get("target", "bench-out", s"$ds-index"))
      queries.foreach { q =>
        val sb = sbOf(q)
        def record(engine: String)(body: => (Long, Long)): Unit = {
          val t0 = System.currentTimeMillis()
          val row = try {
            val (comm, count) = body
            PerfRow(ds, q.name, engine, System.currentTimeMillis() - t0, comm, count, oom = false)
          } catch {
            case e: IntermediateOverflowException =>
              PerfRow(ds, q.name, engine, System.currentTimeMillis() - t0, 0, -1, oom = true)
          }
          rows += row
          val cnt = if (row.oom) "OOM" else row.count.toString
          println(f"${q.name}%-7s ${engine}%-10s ${row.millis}%9d ${kb(row.commBytes)}%10sKB ${cnt}%11s")
        }
        record("RADS") {
          val r = Rads.enumerate(spark, p, q, Rads.Config(keepEmbeddings = false))
          (r.metrics.comm.totalBytes, r.count)
        }
        Seq[(String, () => BaselineRun)](
          "PSgL"     -> (() => PSgL.run(spark, p, q, sb, maxIntermediate)),
          "TwinTwig" -> (() => TwinTwig.run(spark, p, q, sb, maxIntermediate)),
          "SEED"     -> (() => Seed.run(spark, p, q, sb, maxIntermediate)),
          "Crystal"  -> (() => Crystal.run(spark, p, q, sb, index, maxIntermediate))
        ).foreach { case (engine, run) =>
          record(engine) { val r = run(); r.df.unpersist(); (r.metrics.shuffledBytes, r.count) }
        }
        // consistency: all engines that completed agree on the count
        val counts = rows.takeRight(5).filterNot(_.oom).map(_.count).distinct
        require(counts.size == 1, s"$ds/${q.name}: engines disagree: $counts")
      }
    }
    rows.toSeq
  }

  // --------------------------------------------------- Appendix C.2 (Fig. 13)
  final case class PlanRow(query: String, plan: String, millis: Long, commBytes: Long, count: Long)

  /** RADS's plan (`Planner.dataPlan`, what `Rads.enumerate` runs by default)
    * and the paper's §4 plan (`Planner.bestPlan`) vs RanS / RanM (5-seed
    * averages like App. C.2).
    */
  def planEffectiveness(spark: SparkSession, dataset: String = "DBLP"): Seq[PlanRow] = {
    banner(s"Plan effectiveness (App. C.2 / Fig. 13 shape) — $dataset, avg of 5 random plans")
    println(f"${"Query"}%-7s ${"Plan"}%-6s ${"Time(ms)"}%9s ${"Comm"}%12s ${"Results"}%11s")
    val p = pg(dataset)
    // untimed: the first run in a fresh JVM pays JIT and Spark start-up,
    // which would be charged to whichever row comes first
    Rads.enumerate(spark, p, Queries.q4, Rads.Config(keepEmbeddings = false))
    val rows = scala.collection.mutable.ArrayBuffer[PlanRow]()
    Seq(Queries.q4, Queries.q5, Queries.q6, Queries.q7, Queries.q8).foreach { q =>
      def run(label: String, mk: Long => Rads.Config, seeds: Seq[Long]): Unit = {
        val runs = seeds.map { s =>
          val r = Rads.enumerate(spark, p, q, mk(s))
          (r.metrics.wallMillis, r.metrics.comm.totalBytes, r.count)
        }
        val row = PlanRow(q.name, label,
          runs.map(_._1).sum / runs.size, runs.map(_._2).sum / runs.size, runs.head._3)
        require(runs.map(_._3).distinct.size == 1, s"plan variants disagree on ${q.name}")
        rows += row
        println(f"${row.query}%-7s ${row.plan}%-6s ${row.millis}%9d ${kb(row.commBytes)}%10sKB ${row.count}%11d")
      }
      run("RADS", _ => Rads.Config(keepEmbeddings = false), Seq(1L))
      run("paper", _ => Rads.Config(keepEmbeddings = false, plan = Some(Planner.bestPlan(q))), Seq(1L))
      run("RanM", s => Rads.Config(keepEmbeddings = false, plan = Some(Planner.ranM(q, s))), 1L to 5L)
      run("RanS", s => Rads.Config(keepEmbeddings = false, plan = Some(Planner.ranS(q, s))), 1L to 5L)
    }
    rows.toSeq
  }
}
