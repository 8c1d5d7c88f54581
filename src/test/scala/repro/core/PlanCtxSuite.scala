package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.query.{Automorphism, Planner, Queries}

class PlanCtxSuite extends AnyFunSuite {

  private def ctxOf(q: repro.query.Pattern): PlanCtx = {
    val plan = Planner.bestPlan(q)
    PlanCtx(plan, Automorphism.symmetryBreaking(q))
  }

  test("depths grow to the pattern size") {
    (Queries.main ++ Queries.cliquey).foreach { q =>
      val ctx = ctxOf(q)
      assert(ctx.depths.last == q.n, q.name)
      assert(ctx.depths == ctx.depths.sorted, q.name)
      assert(ctx.depths.head >= 2, q.name)
    }
  }

  test("unit leaves are consecutive matching-order slices") {
    Queries.main.foreach { q =>
      val ctx = ctxOf(q)
      var offset = 1
      ctx.unitLeaves.zipWithIndex.foreach { case (lf, i) =>
        assert(ctx.morder.slice(offset, offset + lf.size) == lf, s"${q.name} unit $i")
        offset += lf.size
      }
      assert(offset == q.n, q.name)
    }
  }

  test("checkPartners are always matched earlier than their leaf") {
    Queries.main.foreach { q =>
      val ctx = ctxOf(q)
      (0 until q.n).foreach { u =>
        ctx.checkPartners(u).foreach(u2 => assert(ctx.pos(u2) < ctx.pos(u), s"${q.name} $u"))
      }
    }
  }

  test("every verification edge appears exactly once in checkPartners") {
    Queries.main.foreach { q =>
      val ctx = ctxOf(q)
      val fromPartners = (0 until q.n).flatMap(u =>
        ctx.checkPartners(u).map(u2 => (math.min(u, u2), math.max(u, u2))))
      val fromUnits = ctx.unitVerifEdges.flatten
        .map { case (a, b) => (math.min(a, b), math.max(a, b)) }
      assert(fromPartners.sorted == fromUnits.sorted, q.name)
    }
  }

  test("sb partners cover every symmetry-breaking condition once") {
    Queries.main.foreach { q =>
      val sb  = Automorphism.symmetryBreaking(q)
      val ctx = ctxOf(q)
      val n   = (0 until q.n).map(u => ctx.sbPartners(u).length).sum
      assert(n == sb.size, q.name)
    }
  }

  test("pivots of later units are matched before their unit starts") {
    Queries.main.foreach { q =>
      val ctx = ctxOf(q)
      ctx.pivOf.zipWithIndex.foreach { case (piv, i) =>
        val depthBefore = if (i == 0) 1 else ctx.depths(i - 1)
        assert(ctx.pos(piv) < depthBefore || i == 0 && ctx.pos(piv) == 0, s"${q.name} unit $i")
      }
    }
  }

  test("startSpan equals the pattern span of dp0.piv") {
    Queries.main.foreach { q =>
      val plan = Planner.bestPlan(q)
      val ctx  = PlanCtx(plan, Vector.empty)
      assert(ctx.startSpan == q.span(plan.units.head.piv), q.name)
    }
  }

  test("MidPartitioner routes machine ids to their own partition") {
    val p = new MidPartitioner(4)
    (0 until 4).foreach(t => assert(p.getPartition(t) == t))
    assert(p == new MidPartitioner(4))
    assert(p != new MidPartitioner(3))
  }

  test("AdjBlock.hasEdge") {
    val b = AdjBlock(0, Array(null, Array(2, 5, 9), Array(1)))
    assert(b.hasEdge(1, 5) && b.hasEdge(2, 1))
    assert(!b.hasEdge(1, 3) && !b.hasEdge(7, 1))
  }
}
