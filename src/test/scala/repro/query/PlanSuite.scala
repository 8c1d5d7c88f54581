package repro.query

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Graph, GraphGen}

class PlanSuite extends AnyFunSuite {

  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  /** The power-law graph the engine suites run on. */
  private val pl: Graph = GraphGen.powerLaw(150, 3, 24, seed = 2)

  /** The running-example pattern of Figure 2(a), reconstructed from
    * Examples 3–5: star edges of the units plus the MLST-erased edges
    * (u1,u2), (u3,u4), (u4,u5), (u5,u6), (u8,u9).
    */
  val fig2a: Pattern = Pattern("fig2a", 10, Vector(
    (0, 1), (0, 2), (0, 7), (0, 8), (0, 9),
    (1, 3), (1, 4), (2, 5), (2, 6),
    (1, 2), (3, 4), (4, 5), (5, 6), (8, 9)))

  /** PL1 of Example 4. */
  val pl1: ExecutionPlan = ExecutionPlan(fig2a, Vector(
    DecompUnit(0, Vector(1, 2, 7, 8, 9)),
    DecompUnit(1, Vector(3, 4)),
    DecompUnit(2, Vector(5, 6))))

  /** PL2 of Example 4. */
  val pl2: ExecutionPlan = ExecutionPlan(fig2a, Vector(
    DecompUnit(1, Vector(0, 3, 4)),
    DecompUnit(0, Vector(2, 7, 8, 9)),
    DecompUnit(2, Vector(5, 6))))

  test("plan validity: leaves must be pivot-adjacent") {
    assertThrows[IllegalArgumentException](
      ExecutionPlan(Queries.q1, Vector(DecompUnit(0, Vector(2))))) // (0,2) not an edge of C4
  }

  test("plan validity: later pivots must be already matched") {
    assertThrows[IllegalArgumentException](
      ExecutionPlan(Queries.q3, Vector(DecompUnit(0, Vector(1)), DecompUnit(3, Vector(2, 4)))))
  }

  test("plan validity: leaves may not reappear") {
    assertThrows[IllegalArgumentException](
      ExecutionPlan(Queries.q1, Vector(DecompUnit(0, Vector(1, 3)), DecompUnit(1, Vector(3, 2)))))
  }

  test("plan must cover all pattern vertices") {
    assertThrows[IllegalArgumentException](
      ExecutionPlan(Queries.q3, Vector(DecompUnit(0, Vector(1, 4)))))
  }

  test("Example 3 edge classification: (u4,u5) is a cross-unit edge of dp2") {
    assert(pl1.sibEdges(0).toSet == Set((1, 2), (8, 9)))
    assert(pl1.croEdges(0).isEmpty)
    assert(pl1.sibEdges(1) == Vector((3, 4)))
    assert(pl1.sibEdges(2) == Vector((5, 6)))
    assert(pl1.croEdges(2) == Vector((4, 5)))
  }

  test("every pattern edge classified exactly once (star/sib/cro)") {
    Seq(pl1, pl2).foreach { pl =>
      val classified = pl.classifiedEdges.sorted
      assert(classified == classified.distinct.sorted, "no edge twice")
      assert(classified.toSet == fig2a.edges.toSet, "all edges covered")
    }
    Queries.main.foreach { q =>
      val pl = Planner.bestPlan(q)
      assert(pl.classifiedEdges.sorted == q.edges.sorted, q.name)
    }
  }

  test("Example 5 scores: SC(PL1) ~ 3.17, SC(PL2) ~ 2.67 with rho=1") {
    assert(pl1.verificationEdges(0).size == 2)
    assert(pl1.verificationEdges(1).size == 1)
    assert(pl1.verificationEdges(2).size == 2)
    assert(math.abs(pl1.score3() - (2.0 + 0.5 + 2.0 / 3)) < 1e-9)
    assert(pl2.verificationEdges(0).size == 1)
    assert(pl2.verificationEdges(1).size == 2)
    assert(pl2.verificationEdges(2).size == 2)
    assert(math.abs(pl2.score3() - (1.0 + 1.0 + 2.0 / 3)) < 1e-9)
    assert(pl1.score3() > pl2.score3(), "the paper prefers PL1")
  }

  test("Theorem 1: c_P of known patterns") {
    assert(Planner.minCds(Queries.triangle)._1 == 1)
    assert(Planner.minCds(Queries.star(4))._1 == 1)
    assert(Planner.minCds(Queries.q1)._1 == 2)      // C4: path of 2
    assert(Planner.minCds(Queries.q3)._1 == 3)      // C5: path of 3
    assert(Planner.minCds(Queries.q6)._1 == 4)      // cycle C_n: n-2 consecutive vertices
    assert(Planner.minCds(fig2a)._1 == 3)           // {u0, u1, u2} per Example 4
    assert(Planner.minCds(Queries.path(4))._1 == 2)
  }

  test("minCds returns genuine connected dominating sets") {
    val (c, sets) = Planner.minCds(Queries.q7)
    assert(sets.nonEmpty)
    sets.foreach { d =>
      assert(d.size == c)
      (0 until Queries.q7.n).foreach(v =>
        assert(d.contains(v) || Queries.q7.neighbors(v).exists(d.contains)))
    }
  }

  test("bestPlan has the minimum number of rounds for every query") {
    (Queries.main ++ Queries.cliquey).foreach { q =>
      val c  = Planner.minCds(q)._1
      val pl = Planner.bestPlan(q)
      assert(pl.numRounds == c, s"${q.name}: rounds=${pl.numRounds} c_P=$c")
    }
  }

  test("bestPlan for fig2a picks the minimum rounds and a top score") {
    val best  = Planner.bestPlan(fig2a)
    assert(best.numRounds == 3)
    val cands = Planner.candidatePlans(fig2a)
    val minSpan = cands.map(pl => fig2a.span(pl.units.head.piv)).min
    assert(fig2a.span(best.units.head.piv) == minSpan)
    val sameSpan = cands.filter(pl => fig2a.span(pl.units.head.piv) == minSpan)
    assert(best.score3() == sameSpan.map(_.score3()).max)
  }

  test("§4.2: dp0.piv has the smallest span among minimum-round plans") {
    Queries.main.foreach { q =>
      val cands   = Planner.candidatePlans(q)
      val minSpan = cands.map(pl => q.span(pl.units.head.piv)).min
      val best    = Planner.bestPlan(q)
      assert(q.span(best.units.head.piv) == minSpan, q.name)
    }
  }

  test("matching order (Def. 10) is a permutation starting at dp0.piv") {
    (Queries.main ++ Queries.cliquey :+ fig2a).foreach { q =>
      val pl = Planner.bestPlan(q)
      val mo = pl.matchingOrder
      assert(mo.sorted == (0 until q.n).toVector, q.name)
      assert(mo.head == pl.units.head.piv, q.name)
    }
  }

  test("matching order: pivot precedes its leaves") {
    val pl = pl1
    val pos = pl.matchingOrder.zipWithIndex.toMap
    pl.units.foreach(u => u.leaves.foreach(l => assert(pos(u.piv) < pos(l))))
  }

  test("matching order for PL1: unit blocks in order, pivots-of-later-units first") {
    val mo = pl1.matchingOrder
    assert(mo.head == 0)
    // u1 and u2 pivot units 1 and 2, so they come before the plain leaves of dp0
    assert(mo.indexOf(1) < mo.indexOf(7) && mo.indexOf(2) < mo.indexOf(7))
    assert(mo.indexOf(1) < mo.indexOf(2)) // ordered by the unit they pivot
    // unit blocks are consecutive: dp1's leaves after dp0's block
    assert(mo.slice(6, 8).toSet == Set(3, 4))
    assert(mo.slice(8, 10).toSet == Set(5, 6))
  }

  test("RanS produces valid plans covering the pattern") {
    (1L to 10L).foreach { s =>
      Queries.main.foreach { q =>
        val pl = Planner.ranS(q, s)
        assert(pl.matchingOrder.sorted == (0 until q.n).toVector, s"${q.name} seed $s")
      }
    }
  }

  test("RanM produces minimum-round plans") {
    (1L to 5L).foreach { s =>
      Queries.main.foreach { q =>
        assert(Planner.ranM(q, s).numRounds == Planner.minCds(q)._1)
      }
    }
  }

  test("RanM draws more than one q4 plan over seeds 1 to 5") {
    // App. C.2 averages RanM over these seeds; q4 has 8 candidates
    assert((1L to 5L).map(Planner.ranM(Queries.q4, _)).distinct.size >= 2)
  }

  test("RanS generally uses more rounds than the optimized plan") {
    val q = Queries.q6
    val best = Planner.bestPlan(q).numRounds
    val avg  = (1L to 20L).map(s => Planner.ranS(q, s).numRounds).sum / 20.0
    assert(avg >= best, s"avg RanS rounds $avg vs best $best")
  }

  /** Ordered k-tuples of distinct neighbours of v, by enumeration. */
  private def orderedTuples(g: Graph, v: Int, k: Int): Long = {
    def rec(used: List[Int]): Long =
      if (used.size == k) 1L
      else g.neighbors(v).iterator.filterNot(used.contains).map(w => rec(w :: used)).sum
    rec(Nil)
  }

  test("property: round0Ecs counts the ordered distinct neighbour tuples of every start candidate") {
    val plans = (Queries.main ++ Queries.cliquey).flatMap(Planner.candidatePlans(_))
    val gen = for {
      n    <- Gen.choose(1, 12)
      m    <- Gen.choose(0, 30)
      seed <- Gen.choose(0L, 1000L)
      plan <- Gen.oneOf(plans)
    } yield (GraphGen.gnm(n, m, seed), plan)
    checkProp(Prop.forAll(gen) { case (g, plan) =>
      val u0 = plan.units.head
      val expected = (0 until g.n).filter(g.degree(_) >= plan.pattern.degree(u0.piv))
        .map(orderedTuples(g, _, u0.leaves.size)).sum
      Planner.round0Ecs(plan, g.degreeCounts) == expected
    })
  }

  test("round0Ecs saturates instead of overflowing") {
    val counts = new Array[Long](11)
    counts(10) = Long.MaxValue / 100 // times 10 · 9 · 8 ECs each
    assert(Planner.round0Ecs(Planner.bestPlan(Queries.q4), counts) == Long.MaxValue) // 3 leaves in round 0
  }

  test("dataPlan keeps the minimum rounds and the minimum dp0 span for every query") {
    Seq(pl, GraphGen.gnm(60, 240, seed = 5), GraphGen.grid(6, 6)).foreach { g =>
      (Queries.main ++ Queries.cliquey).foreach { q =>
        val cands = Planner.candidatePlans(q)
        val plan  = Planner.dataPlan(q, g.degreeCounts)
        assert(plan.numRounds == Planner.minCds(q)._1, q.name)
        assert(q.span(plan.units.head.piv) == cands.map(c => q.span(c.units.head.piv)).min, q.name)
        assert(cands.contains(plan), q.name)
      }
    }
  }

  test("on the power-law graph dataPlan starts q4 from a 2-leaf star, bestPlan from the paper's 3-leaf star") {
    val q = Queries.q4
    assert(Planner.bestPlan(q).units.head == DecompUnit(0, Vector(1, 3, 4)))
    val data = Planner.dataPlan(q, pl.degreeCounts)
    assert(data.units.head.leaves.size == 2, data.toString)
    assert(Planner.round0Ecs(data, pl.degreeCounts) < Planner.round0Ecs(Planner.bestPlan(q), pl.degreeCounts))
  }

  test("bestPlan and dataPlan are pinned on every query") {
    // (bestPlan, dataPlan) on the power-law graph
    val want = Map(
      "q1" -> ("Plan[q1: dp0(piv=0,lf=1,3) ; dp1(piv=1,lf=2)]", "Plan[q1: dp0(piv=0,lf=1,3) ; dp1(piv=1,lf=2)]"),
      "q2" -> ("Plan[q2: dp0(piv=0,lf=1,2,3)]", "Plan[q2: dp0(piv=0,lf=1,2,3)]"),
      "q3" -> ("Plan[q3: dp0(piv=0,lf=1,4) ; dp1(piv=1,lf=2) ; dp2(piv=2,lf=3)]",
        "Plan[q3: dp0(piv=0,lf=1,4) ; dp1(piv=1,lf=2) ; dp2(piv=2,lf=3)]"),
      "q4" -> ("Plan[q4: dp0(piv=0,lf=1,3,4) ; dp1(piv=1,lf=2)]", "Plan[q4: dp0(piv=0,lf=1,3) ; dp1(piv=1,lf=2,4)]"),
      "q5" -> ("Plan[q5: dp0(piv=1,lf=0,2,4) ; dp1(piv=2,lf=3,5)]", "Plan[q5: dp0(piv=1,lf=0,2,4) ; dp1(piv=2,lf=3,5)]"),
      "q6" -> ("Plan[q6: dp0(piv=0,lf=1,5) ; dp1(piv=1,lf=2) ; dp2(piv=2,lf=3) ; dp3(piv=3,lf=4)]",
        "Plan[q6: dp0(piv=0,lf=1,5) ; dp1(piv=1,lf=2) ; dp2(piv=2,lf=3) ; dp3(piv=3,lf=4)]"),
      "q7" -> ("Plan[q7: dp0(piv=0,lf=3,4,5) ; dp1(piv=3,lf=1,2)]", "Plan[q7: dp0(piv=0,lf=3,4,5) ; dp1(piv=3,lf=1,2)]"),
      "q8" -> ("Plan[q8: dp0(piv=0,lf=1,3,5) ; dp1(piv=3,lf=2,4)]", "Plan[q8: dp0(piv=0,lf=1,3,5) ; dp1(piv=3,lf=2,4)]"),
      "tq1" -> ("Plan[tq1: dp0(piv=0,lf=1,2,3)]", "Plan[tq1: dp0(piv=0,lf=1,2,3)]"),
      "tq2" -> ("Plan[tq2: dp0(piv=0,lf=1,2,3)]", "Plan[tq2: dp0(piv=0,lf=1,2,3)]"),
      "tq3" -> ("Plan[tq3: dp0(piv=3,lf=0,1,2,4)]", "Plan[tq3: dp0(piv=3,lf=0,1,2,4)]"),
      "tq4" -> ("Plan[tq4: dp0(piv=0,lf=1,2,3,4)]", "Plan[tq4: dp0(piv=0,lf=1,2,3,4)]"),
      "triangle" -> ("Plan[triangle: dp0(piv=0,lf=1,2)]", "Plan[triangle: dp0(piv=0,lf=1,2)]"))
    val got = Queries.all.map(q =>
      q.name -> (Planner.bestPlan(q).toString, Planner.dataPlan(q, pl.degreeCounts).toString)).toMap
    assert(got == want)
  }

  test("candidate-set sizes are pinned") {
    val want = Seq(
      Queries.q1 -> 8, Queries.q2 -> 1, Queries.q3 -> 20, Queries.q4 -> 8, Queries.q5 -> 2,
      Queries.q6 -> 48, Queries.q7 -> 8, Queries.q8 -> 2, Queries.tq1 -> 2, Queries.tq2 -> 4,
      Queries.tq3 -> 1, Queries.tq4 -> 1, Queries.triangle -> 3, Queries.path(5) -> 4,
      Queries.cycle(5) -> 20, Queries.cycle(7) -> 112, Queries.star(4) -> 1, Queries.clique(5) -> 5)
    assert(want.map { case (q, _) => q.name -> Planner.candidatePlans(q).size } ==
      want.map { case (q, n) => q.name -> n })
  }

  test("ranS is pinned on the main queries for seeds 1 to 5") {
    val want = Map(
      "q1" -> Seq(
        "Plan[q1: dp0(piv=2,lf=1,3) ; dp1(piv=1,lf=0)]",
        "Plan[q1: dp0(piv=2,lf=1,3) ; dp1(piv=3,lf=0)]",
        "Plan[q1: dp0(piv=2,lf=1,3) ; dp1(piv=1,lf=0)]",
        "Plan[q1: dp0(piv=2,lf=1,3) ; dp1(piv=3,lf=0)]",
        "Plan[q1: dp0(piv=2,lf=1,3) ; dp1(piv=1,lf=0)]"),
      "q2" -> Seq(
        "Plan[q2: dp0(piv=2,lf=0,1) ; dp1(piv=0,lf=3)]",
        "Plan[q2: dp0(piv=2,lf=0,1) ; dp1(piv=0,lf=3)]",
        "Plan[q2: dp0(piv=2,lf=0,1) ; dp1(piv=0,lf=3)]",
        "Plan[q2: dp0(piv=2,lf=0,1) ; dp1(piv=0,lf=3)]",
        "Plan[q2: dp0(piv=2,lf=0,1) ; dp1(piv=0,lf=3)]"),
      "q3" -> Seq(
        "Plan[q3: dp0(piv=0,lf=1,4) ; dp1(piv=1,lf=2) ; dp2(piv=2,lf=3)]",
        "Plan[q3: dp0(piv=3,lf=2,4) ; dp1(piv=4,lf=0) ; dp2(piv=0,lf=1)]",
        "Plan[q3: dp0(piv=4,lf=0,3) ; dp1(piv=0,lf=1) ; dp2(piv=3,lf=2)]",
        "Plan[q3: dp0(piv=2,lf=1,3) ; dp1(piv=3,lf=4) ; dp2(piv=4,lf=0)]",
        "Plan[q3: dp0(piv=2,lf=1,3) ; dp1(piv=1,lf=0) ; dp2(piv=3,lf=4)]"),
      "q4" -> Seq(
        "Plan[q4: dp0(piv=0,lf=1,3,4) ; dp1(piv=1,lf=2)]",
        "Plan[q4: dp0(piv=3,lf=0,2) ; dp1(piv=2,lf=1) ; dp2(piv=0,lf=4)]",
        "Plan[q4: dp0(piv=4,lf=0,1) ; dp1(piv=0,lf=3) ; dp2(piv=3,lf=2)]",
        "Plan[q4: dp0(piv=2,lf=1,3) ; dp1(piv=3,lf=0) ; dp2(piv=1,lf=4)]",
        "Plan[q4: dp0(piv=2,lf=1,3) ; dp1(piv=1,lf=0,4)]"),
      "q5" -> Seq(
        "Plan[q5: dp0(piv=3,lf=0,2) ; dp1(piv=0,lf=1,4) ; dp2(piv=2,lf=5)]",
        "Plan[q5: dp0(piv=4,lf=0,1) ; dp1(piv=1,lf=2) ; dp2(piv=0,lf=3) ; dp3(piv=2,lf=5)]",
        "Plan[q5: dp0(piv=2,lf=1,3,5) ; dp1(piv=1,lf=0,4)]",
        "Plan[q5: dp0(piv=2,lf=1,3,5) ; dp1(piv=3,lf=0) ; dp2(piv=1,lf=4)]",
        "Plan[q5: dp0(piv=5,lf=2) ; dp1(piv=2,lf=1,3) ; dp2(piv=3,lf=0) ; dp3(piv=0,lf=4)]"),
      "q6" -> Seq(
        "Plan[q6: dp0(piv=3,lf=2,4) ; dp1(piv=2,lf=1) ; dp2(piv=1,lf=0) ; dp3(piv=0,lf=5)]",
        "Plan[q6: dp0(piv=4,lf=3,5) ; dp1(piv=5,lf=0) ; dp2(piv=0,lf=1) ; dp3(piv=1,lf=2)]",
        "Plan[q6: dp0(piv=2,lf=1,3) ; dp1(piv=1,lf=0) ; dp2(piv=3,lf=4) ; dp3(piv=0,lf=5)]",
        "Plan[q6: dp0(piv=2,lf=1,3) ; dp1(piv=3,lf=4) ; dp2(piv=4,lf=5) ; dp3(piv=5,lf=0)]",
        "Plan[q6: dp0(piv=5,lf=0,4) ; dp1(piv=0,lf=1) ; dp2(piv=4,lf=3) ; dp3(piv=1,lf=2)]"),
      "q7" -> Seq(
        "Plan[q7: dp0(piv=3,lf=0,1,2) ; dp1(piv=1,lf=4,5)]",
        "Plan[q7: dp0(piv=4,lf=0,1,2) ; dp1(piv=2,lf=3) ; dp2(piv=0,lf=5)]",
        "Plan[q7: dp0(piv=2,lf=3,4) ; dp1(piv=3,lf=0,1) ; dp2(piv=1,lf=5)]",
        "Plan[q7: dp0(piv=2,lf=3,4) ; dp1(piv=4,lf=0,1) ; dp2(piv=1,lf=5)]",
        "Plan[q7: dp0(piv=5,lf=0,1) ; dp1(piv=0,lf=3,4) ; dp2(piv=4,lf=2)]"),
      "q8" -> Seq(
        "Plan[q8: dp0(piv=3,lf=0,2,4) ; dp1(piv=2,lf=1) ; dp2(piv=0,lf=5)]",
        "Plan[q8: dp0(piv=4,lf=3,5) ; dp1(piv=5,lf=0) ; dp2(piv=0,lf=1) ; dp3(piv=1,lf=2)]",
        "Plan[q8: dp0(piv=2,lf=1,3) ; dp1(piv=1,lf=0) ; dp2(piv=3,lf=4) ; dp3(piv=0,lf=5)]",
        "Plan[q8: dp0(piv=2,lf=1,3) ; dp1(piv=3,lf=0,4) ; dp2(piv=4,lf=5)]",
        "Plan[q8: dp0(piv=5,lf=0,4) ; dp1(piv=0,lf=1,3) ; dp2(piv=3,lf=2)]"))
    assert(Queries.main.map(q => q.name -> (1L to 5L).map(Planner.ranS(q, _).toString)).toMap == want)
  }

  test("the paper's PL1 and PL2 are both candidates for Fig. 2(a), among 12") {
    val cands = Planner.candidatePlans(fig2a)
    assert(cands.size == 12)
    assert(cands.contains(pl1) && cands.contains(pl2))
  }

  /** A random connected pattern of 2 to 7 vertices: a random spanning tree plus random extra edges. */
  private val connectedPattern: Gen[Pattern] = for {
    n      <- Gen.choose(2, 7)
    tree   <- Gen.sequence[Vector[(Int, Int)], (Int, Int)]((1 until n).map(v => Gen.choose(0, v - 1).map(u => (u, v))))
    extras <- Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
  } yield Pattern(s"rnd${tree.mkString}", n, tree ++ extras.filter { case (a, b) => a != b })

  private def connectedDominating(p: Pattern, d: Set[Int]): Boolean = {
    val reach = Graph.fromEdges(p.n, p.edges.filter { case (a, b) => d(a) && d(b) }).bfsDistances(d.head)
    (0 until p.n).forall(v => d(v) || p.neighbors(v).exists(d)) && d.forall(reach(_) != Int.MaxValue)
  }

  test("property: every candidate has c_P distinct pivots forming a connected dominating set, with no repeats") {
    checkProp(Prop.forAll(connectedPattern) { p =>
      val (c, mcds) = Planner.minCds(p)
      val cands     = Planner.candidatePlans(p)
      val pivots    = cands.map(_.units.map(_.piv))
      cands.nonEmpty && cands.distinct.size == cands.size &&
      pivots.forall(ps => ps.size == c && ps.distinct.size == c && connectedDominating(p, ps.toSet)) &&
      pivots.map(_.toSet).toSet == mcds.toSet
    })
  }
}
