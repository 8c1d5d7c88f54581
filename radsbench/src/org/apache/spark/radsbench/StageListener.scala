package org.apache.spark.radsbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted, SparkListenerTaskEnd}

/** Totals of the Spark work observed between two [[StageListener.snapshot]]s. */
final case class SparkTotals(
    jobs: Long = 0,
    stages: Long = 0,
    tasks: Long = 0,
    executorRunNanos: Long = 0,
    executorCpuNanos: Long = 0,
    gcNanos: Long = 0,
    deserializeNanos: Long = 0,
    shuffleWriteBytes: Long = 0,
    shuffleReadBytes: Long = 0) {
  def +(o: SparkTotals): SparkTotals = zip(o)(_ + _)
  def -(o: SparkTotals): SparkTotals = zip(o)(_ - _)

  private def zip(o: SparkTotals)(f: (Long, Long) => Long): SparkTotals = SparkTotals(
    f(jobs, o.jobs), f(stages, o.stages), f(tasks, o.tasks),
    f(executorRunNanos, o.executorRunNanos), f(executorCpuNanos, o.executorCpuNanos),
    f(gcNanos, o.gcNanos), f(deserializeNanos, o.deserializeNanos),
    f(shuffleWriteBytes, o.shuffleWriteBytes), f(shuffleReadBytes, o.shuffleReadBytes))
}

/** Counts jobs, stages, tasks, executor time and shuffle bytes.
  *
  * Lives in an `org.apache.spark` sub-package so that [[snapshot]] can drain
  * the (package-private) listener bus before reading: every event posted by
  * an action that has returned is counted, with no sleep, so byte totals
  * repeat exactly from run to run.
  */
final class StageListener(sc: SparkContext) extends SparkListener {
  private var totals = SparkTotals()

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    totals = totals.copy(jobs = totals.jobs + 1)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    totals = totals.copy(stages = totals.stages + 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) totals = totals.copy(
      tasks = totals.tasks + 1,
      // Spark reports CPU time in ns and the other times in ms
      executorRunNanos = totals.executorRunNanos + m.executorRunTime * 1000000L,
      executorCpuNanos = totals.executorCpuNanos + m.executorCpuTime,
      gcNanos = totals.gcNanos + m.jvmGCTime * 1000000L,
      deserializeNanos = totals.deserializeNanos + m.executorDeserializeTime * 1000000L,
      shuffleWriteBytes = totals.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten,
      shuffleReadBytes = totals.shuffleReadBytes + m.shuffleReadMetrics.totalBytesRead)
    else totals = totals.copy(tasks = totals.tasks + 1)
  }

  /** Totals so far, after every event already posted has been delivered. */
  def snapshot(): SparkTotals = {
    sc.listenerBus.waitUntilEmpty()
    synchronized(totals)
  }
}
