package repro.core

/** Logical communication cost of one RADS run (deviation D6 in DESIGN.md).
  *
  * Matches the paper's accounting: fetchV requests carry vertex ids (8 B),
  * responses carry the adjacency list (8 B per neighbor + 8 B id); verifyE
  * requests carry a vertex pair (16 B), responses one boolean (1 B).
  * Derived from the persisted [[MachineStats]] ([[MachineStats.comm]]), so
  * task retries and recomputation never count a message twice.
  */
final case class CommStats(
    fetchReqBytes: Long,
    fetchRespBytes: Long,
    verifyReqBytes: Long,
    verifyRespBytes: Long) {
  def totalBytes: Long = fetchReqBytes + fetchRespBytes + verifyReqBytes + verifyRespBytes
}

/** Per-machine statistics aggregated across region groups and rounds. */
final case class MachineStats(
    smeCandidates: Long = 0,
    distCandidates: Long = 0,
    smeEmbeddings: Long = 0,
    distEmbeddings: Long = 0,
    regionGroups: Long = 0,
    fetchedVertices: Long = 0,
    fetchedAdjEntries: Long = 0,
    cacheHits: Long = 0,
    verifyEdges: Long = 0,
    sumEtNodes: Long = 0,
    sumElBytes: Long = 0,
    peakEtBytes: Long = 0) {
  def +(o: MachineStats): MachineStats = MachineStats(
    smeCandidates + o.smeCandidates, distCandidates + o.distCandidates,
    smeEmbeddings + o.smeEmbeddings, distEmbeddings + o.distEmbeddings,
    regionGroups + o.regionGroups, fetchedVertices + o.fetchedVertices,
    fetchedAdjEntries + o.fetchedAdjEntries, cacheHits + o.cacheHits, verifyEdges + o.verifyEdges,
    sumEtNodes + o.sumEtNodes, sumElBytes + o.sumElBytes, math.max(peakEtBytes, o.peakEtBytes))

  /** Bytes of every trie built, in the paper's trie model. */
  def sumEtBytes: Long = sumEtNodes * EmbeddingTrie.NodeBytes

  /** Every fetched vertex and every verified EVI key is one request and one
    * response.
    */
  def comm: CommStats = CommStats(
    fetchReqBytes = 8L * fetchedVertices,
    fetchRespBytes = 8L * (fetchedVertices + fetchedAdjEntries),
    verifyReqBytes = 16L * verifyEdges,
    verifyRespBytes = verifyEdges)
}

/** Full metrics of one RADS run. */
final case class RadsMetrics(
    machines: MachineStats,
    rounds: Int,
    wallMillis: Long) {
  def comm: CommStats = machines.comm
  def totalEmbeddings: Long = machines.smeEmbeddings + machines.distEmbeddings
}

/** Thrown when a join-based engine's materialized intermediate results
  * exceed the configured budget — the reproduction's stand-in for the
  * out-of-memory failures the paper reports for TwinTwig/SEED/PSgL on the
  * large graphs ("we mark the result as empty when the test fails due to
  * out-of-memory errors").
  */
final class IntermediateOverflowException(val count: Long, val limit: Long)
  extends RuntimeException(s"intermediate results $count exceed budget $limit (simulated OOM)")

/** Metrics of a baseline engine run: shuffled intermediate volume is the
  * quantity the paper's communication-cost charts plot for the join-based
  * systems (every intermediate tuple is shuffled).
  */
final case class BaselineMetrics(
    name: String,
    shuffledTuples: Long,
    shuffledBytes: Long,
    rounds: Int,
    wallMillis: Long)
