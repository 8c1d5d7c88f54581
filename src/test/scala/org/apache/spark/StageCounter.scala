package org.apache.spark

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerStageCompleted}

/** Counts the Spark stages and jobs a piece of code runs.
  *
  * Lives in `org.apache.spark` so that it can drain the (package-private)
  * listener bus before and after: every stage and job of an action that has
  * returned is counted, none of an earlier one, and no sleep is needed.
  */
object StageCounter {
  /** The numbers of stages and of jobs that complete while `body` runs, and its result. */
  def around[T](sc: SparkContext)(body: => T): (Long, Long, T) = {
    val stages = new AtomicLong
    val jobs   = new AtomicLong
    val listener = new SparkListener {
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = { stages.incrementAndGet(); () }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = { jobs.incrementAndGet(); () }
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (stages.get, jobs.get, out)
    } finally sc.removeSparkListener(listener)
  }
}
