package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MetricsSuite extends AnyFunSuite {

  test("MachineStats addition sums counters and maxes peaks") {
    val a = MachineStats(smeEmbeddings = 5, distEmbeddings = 2, sumEtNodes = 3, peakEtBytes = 100)
    val b = MachineStats(smeEmbeddings = 1, distEmbeddings = 7, sumEtNodes = 4, peakEtBytes = 40)
    val c = a + b
    assert(c.smeEmbeddings == 6 && c.distEmbeddings == 9)
    assert(c.peakEtBytes == 100 && c.sumEtBytes == 7 * 20)
  }

  test("communication is priced from the per-machine counters") {
    // 2 fetched vertices with 5 adjacency entries in all, 3 verified edges
    val s = MachineStats(fetchedVertices = 2, fetchedAdjEntries = 5, verifyEdges = 3)
    assert(s.comm == CommStats(16, 56, 48, 3))
    assert(RadsMetrics(s, rounds = 2, wallMillis = 1).comm.totalBytes == 123)
  }

  test("RadsMetrics.totalEmbeddings") {
    val m = RadsMetrics(
      MachineStats(smeEmbeddings = 3, distEmbeddings = 4), rounds = 2, wallMillis = 1)
    assert(m.totalEmbeddings == 7)
  }

  test("IntermediateOverflowException reports counts") {
    val e = new IntermediateOverflowException(100, 10)
    assert(e.count == 100 && e.limit == 10)
    assert(e.getMessage.contains("simulated OOM"))
  }
}
