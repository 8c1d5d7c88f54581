package repro.bench

import repro.SparkSpec
import repro.query.{Planner, Queries}

/** Appendix C.2 (Figure 13) shape: RADS's execution plan and the paper's
  * §4 plan vs the RanS / RanM baseline plans.
  */
class PlanEffectiveness extends SparkSpec {

  lazy val rows: Seq[BenchTables.PlanRow] = BenchTables.planEffectiveness(spark)

  test("on the bench graphs the data key changes only q4's plan") {
    BenchData.names.foreach { ds =>
      val counts = BenchData.graph(ds).degreeCounts
      Queries.main.foreach { q =>
        assert((Planner.dataPlan(q, counts) != Planner.bestPlan(q)) == (q == Queries.q4), s"$ds/${q.name}")
      }
    }
  }

  test("all queries measured for all four plan strategies") {
    assert(rows.map(_.query).distinct == Seq("q4", "q5", "q6", "q7", "q8"))
    assert(rows.map(_.plan).distinct.toSet == Set("RADS", "paper", "RanM", "RanS"))
  }

  test("every plan variant returns identical result counts") {
    rows.groupBy(_.query).foreach { case (q, rs) =>
      assert(rs.map(_.count).distinct.size == 1, q)
    }
  }

  test("the optimized plan is never much worse than the random plans overall") {
    val byPlan = rows.groupBy(_.plan).view.mapValues(_.map(_.millis).sum).toMap
    assert(byPlan("RADS") <= math.min(byPlan("RanS"), byPlan("RanM")) * 1.5,
      s"totals=$byPlan")
  }
}
