package repro

import org.apache.spark.sql.functions._
import repro.graph.{GraphGen, PartitionedGraph}

/** Checks the DuckDB oracle itself on a relational aggregate over a
  * synthetic graph's edge table — proving the oracle harness is
  * trustworthy before the enumeration suites lean on it.
  */
class SynthOracleSuite extends SparkSpec {

  private def edges = PartitionedGraph.hashed(GraphGen.gnm(30, 60, seed = 1), 2).edgesDf(spark)

  test("Oracle verifies a degree aggregate against DuckDB") {
    val e = edges
    val sparkRes = e.groupBy("src").agg(count(lit(1)).as("deg"), max("dst").as("top"))
    Oracle.assertEquivalent(
      sparkRes,
      """SELECT src, COUNT(*) AS deg, MAX(CAST(dst AS INTEGER)) AS top
        |FROM edges GROUP BY src""".stripMargin,
      "edges" -> e)
  }

  test("Oracle catches a wrong result") {
    val e = edges
    val wrong = e.groupBy("src").agg((count(lit(1)) + 1).as("deg")) // off by one
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src", "edges" -> e)
    }
  }

  test("Oracle catches a column-name mismatch") {
    val e = edges
    val res = e.groupBy("src").agg(count(lit(1)).as("n"))
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(res, "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src", "edges" -> e)
    }
  }
}
