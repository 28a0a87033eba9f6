package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.util.concurrent.atomic.AtomicLong
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.core.AttrSet
import repro.core.entropy.EntropyOracle

/** `EntropyOracle` decorator for traced passes.
  *
  * A call whose attribute set was never asked before is a memo miss of the
  * wrapped (unboundedly memoizing) oracle; those are all timed. Hits run
  * into the hundreds of millions per pass, so only every 64th hit is timed
  * and the hit total is extrapolated from the sample, less the calibrated
  * cost of the timer itself.
  */
final class ProbedOracle(inner: EntropyOracle) extends EntropyOracle {
  def nAttrs: Int = inner.nAttrs
  def nRows: Long = inner.nRows
  def computations: Long = inner.computations

  private val asked = new LongSet
  private var nCalls = 0L
  private var misses = 0L
  private var missNs = 0L
  private var hitSamples = 0L
  private var hitSampleNs = 0L

  def calls: Long = nCalls

  def entropy(x: AttrSet): Double =
    if (asked.add(x.bits)) {
      nCalls += 1
      misses += 1
      val t = System.nanoTime()
      val h = inner.entropy(x)
      missNs += System.nanoTime() - t
      h
    } else {
      nCalls += 1
      if ((nCalls & 63L) == 0L) {
        val t = System.nanoTime()
        val h = inner.entropy(x)
        hitSampleNs += System.nanoTime() - t
        hitSamples += 1
        h
      } else inner.entropy(x)
    }

  def snapshot: ProbedOracle.Snap =
    ProbedOracle.Snap(nCalls, misses, missNs, hitSamples, hitSampleNs)
}

object ProbedOracle {

  /** Cumulative probe counters; differences of two snapshots give a phase. */
  final case class Snap(calls: Long, misses: Long, missNs: Long,
                        hitSamples: Long, hitSampleNs: Long) {
    def -(o: Snap): Snap = Snap(calls - o.calls, misses - o.misses, missNs - o.missNs,
                                hitSamples - o.hitSamples, hitSampleNs - o.hitSampleNs)
    def hits: Long = calls - misses

    /** Estimated time in memo hits, net of `timerNs` per timed sample. */
    def hitNs(timerNs: Double): Double =
      if (hitSamples == 0L) 0.0
      else hits * math.max(0.0, hitSampleNs.toDouble / hitSamples - timerNs)

    def oracleNs(timerNs: Double): Double = missNs + hitNs(timerNs)
  }

  val zero: Snap = Snap(0L, 0L, 0L, 0L, 0L)

  /** Mean reading of an empty `nanoTime` interval: the timer's own cost. */
  def calibrateTimerNs(): Double = {
    val rounds = 2000000
    var acc = 0L
    var i = 0
    while (i < rounds) {
      val t = System.nanoTime()
      acc += System.nanoTime() - t
      i += 1
    }
    acc.toDouble / rounds
  }
}

/** Open-addressing set of longs (no boxing); 0 is tracked on the side. */
final class LongSet {
  private var table = new Array[Long](1 << 12)
  private var size = 0
  private var hasZero = false

  /** Add `k`; true iff it was absent. */
  def add(k: Long): Boolean =
    if (k == 0L) { val fresh = !hasZero; hasZero = true; fresh }
    else {
      if (2 * (size + 1) > table.length) grow()
      insert(table, k)
    }

  private def insert(t: Array[Long], k: Long): Boolean = {
    val mask = t.length - 1
    var i = (java.lang.Long.hashCode(k * 0x9E3779B97F4A7C15L) & mask)
    while (t(i) != 0L) {
      if (t(i) == k) return false
      i = (i + 1) & mask
    }
    t(i) = k
    size += 1
    true
  }

  private def grow(): Unit = {
    val old = table
    table = new Array[Long](old.length * 2)
    size = 0
    old.foreach(k => if (k != 0L) insert(table, k))
  }
}

/** Spans at the layer boundaries the benchmark calls into, kept in memory
  * and written as JSON lines when the run ends. A disabled tracer only runs
  * the body.
  */
final class Tracer(var enabled: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Tracer.Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var pass = -1

  def apply[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val start = System.nanoTime()
      try body
      finally {
        spans += Tracer.Span(id, parent, pass, name, start, System.nanoTime())
        stack = stack.tail
      }
    }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = spans.map(s =>
      s"""{"id":${s.id},"parent":${s.parent},"pass":${s.pass},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, pass: Int, name: String, startNs: Long, endNs: Long)
}

/** Counts Spark jobs and tasks as the listener bus delivers them. */
final class SparkCounter(sc: SparkContext) extends SparkListener {
  private val jobs = new AtomicLong
  private val tasks = new AtomicLong
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = tasks.incrementAndGet()

  /** (jobs, tasks) so far, after every posted event has been delivered. */
  def read(): (Long, Long) = {
    org.apache.spark.ListenerDrain(sc)
    (jobs.get, tasks.get)
  }
}

/** Peak heap use: the heap peaks just before a collection, so the peak is
  * the largest heap use any GC notification reports from before it ran.
  */
final class HeapPeak extends NotificationListener {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val peak = new AtomicLong
  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(this, null, null)
    case _ =>
  }

  override def handleNotification(n: Notification, handback: AnyRef): Unit =
    if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val before = info.getGcInfo.getMemoryUsageBeforeGc.asScala
        .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
      peak.accumulateAndGet(before, math.max)
    }

  private def used: Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  def reset(): Unit = peak.set(used)

  /** Peak since the last reset, in MiB. */
  def readMb(): Double = math.max(peak.get, used) / 1048576.0
}
