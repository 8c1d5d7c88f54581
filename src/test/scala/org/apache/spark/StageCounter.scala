package org.apache.spark

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted}

/** Counts the Spark stages a piece of code runs.
  *
  * Lives in `org.apache.spark` so that it can drain the (package-private)
  * listener bus before and after: every stage of an action that has returned
  * is counted, none of an earlier one, and no sleep is needed.
  */
object StageCounter {
  /** The number of stages that complete while `body` runs, and its result. */
  def around[T](sc: SparkContext)(body: => T): (Long, T) = {
    val stages = new AtomicLong
    val listener = new SparkListener {
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = { stages.incrementAndGet(); () }
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (stages.get, out)
    } finally sc.removeSparkListener(listener)
  }
}
