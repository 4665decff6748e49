package org.apache.spark

/** Access to the listener bus's `waitUntilEmpty`, which Spark keeps
  * package-private; used once at the end of a traced run so the last
  * task-end events are counted.
  */
object PerfbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
