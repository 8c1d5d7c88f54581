package org.apache.spark

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerStageCompleted, SparkListenerTaskEnd}

/** Counts the Spark stages, jobs and tasks a piece of code runs.
  *
  * Lives in `org.apache.spark` so that it can drain the (package-private)
  * listener bus before and after: every stage, job and task of an action
  * that has returned is counted, none of an earlier one, and no sleep is
  * needed.
  */
object StageCounter {
  /** The numbers of stages, of jobs and of tasks that complete while `body` runs, and its result. */
  def around[T](sc: SparkContext)(body: => T): (Long, Long, Long, T) = {
    val stages = new AtomicLong
    val jobs   = new AtomicLong
    val tasks  = new AtomicLong
    val listener = new SparkListener {
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = { stages.incrementAndGet(); () }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = { jobs.incrementAndGet(); () }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = { tasks.incrementAndGet(); () }
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (stages.get, jobs.get, tasks.get, out)
    } finally sc.removeSparkListener(listener)
  }
}
