package org.apache.spark

/** Blocks until the listener bus has delivered every posted event, so that
  * job and task counts read after an action are complete. The bus is
  * package-private, hence this file's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
