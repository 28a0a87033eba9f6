package repro.core.mine

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.collection.mutable
import repro.core.{AttrSet, Mvd}
import repro.core.entropy.EntropyOracle
import repro.core.info.InfoCalc
import repro.util.Deadline

/** MVDMiner (paper Fig. 3): for every attribute pair (A,B), mine the minimal
  * A,B-separators, then for each separator X the full ε-MVDs with key X that
  * separate A,B; return their union M_ε (Eq. 11).
  *
  * No pair depends on another, so the pairs are mined by as many workers as
  * the oracle serves ([[EntropyOracle.workers]]), at most one per core. Each
  * worker takes the next pair from a shared counter and searches one
  * [[MvdLattice]] over one shared search lattice, a cache that changes no
  * answer, split by key. The per-pair results are merged in pair order, so
  * a complete run gives the same ordered M_ε, separators and search nodes
  * whatever the number of workers.
  */
object MvdMiner {

  /** @param mvds        M_ε, deduplicated across pairs/separators
    * @param minSeps     minimal separators per attribute pair
    * @param timedOut    whether the wall-clock budget fired (results partial)
    * @param elapsedMs   total mining wall time
    * @param entropyCalls / entropyComputations: oracle traffic for the benches
    * @param searchNodes closed nodes interned in the shared search lattice
    * @param closures    Fig. 16 merge loops run (closures computed), over all
    *   workers. Each separator key is expanded once by a pair-free search,
    *   which can close a few nodes no per-pair search reaches; the count
    *   varies with the order in which the workers meet the merge inputs.
    */
  final case class Result(
      mvds: Vector[Mvd],
      minSeps: Map[(Int, Int), Vector[AttrSet]],
      timedOut: Boolean,
      elapsedMs: Long,
      entropyCalls: Long,
      entropyComputations: Long,
      searchNodes: Int,
      closures: Long,
  ) {
    def distinctMinSeps: Vector[AttrSet] =
      minSeps.valuesIterator.flatten.toVector.distinct
  }

  /** Mine M_ε over `n` attributes within `timeLimitMs` (-1 = unlimited). A
    * run the deadline cuts reports the pairs its workers reached, each with
    * a prefix of its separators.
    *
    * @param minSepsOnly when true, skip line 5 of Fig. 3 (the K=∞ full-MVD
    *   expansion) — this is the configuration of the paper's scalability
    *   experiments (Sec. 8.3), which time the minimal-separator phase alone.
    */
  def mine(calc: InfoCalc, n: Int, eps: Double, timeLimitMs: Long = -1L,
           minSepsOnly: Boolean = false): Result = {
    val start = System.nanoTime()
    val deadline = Deadline.ofMs(timeLimitMs)
    val omega = AttrSet.range(n)
    val pairs = (for (a <- 0 until n; b <- a + 1 until n) yield (a, b)).toArray
    val cores = Runtime.getRuntime.availableProcessors
    val oracles = calc.oracle.workers(math.max(1, math.min(cores, pairs.length)))
    val callsBefore = oracles.map(_.calls).sum
    val compsBefore = calc.oracle.computations

    // per pair: its separators and MVDs; null until a worker mines the pair
    val seps = new Array[Vector[AttrSet]](pairs.length)
    val found = new Array[Vector[Mvd]](pairs.length)
    val next = new AtomicInteger
    val shared = new MvdLattice.Shared
    val lattices = onWorkers(oracles) { oracle =>
      val lattice = new MvdLattice(new InfoCalc(oracle), omega, eps, deadline, shared)
      val miner = new MinSepMiner(lattice)
      var i = next.getAndIncrement()
      while (i < pairs.length && !deadline.exceeded) {
        val (a, b) = pairs(i)
        val s = miner.mineMinSeps(a, b)
        found(i) =
          if (minSepsOnly) Vector.empty
          else s.iterator.takeWhile(_ => !deadline.exceeded).flatMap(lattice.fullMvds(_, a, b)).toVector
        seps(i) = s
        i = next.getAndIncrement()
      }
      lattice
    }

    val mvds = mutable.LinkedHashSet.empty[Mvd]
    val minSeps = Map.newBuilder[(Int, Int), Vector[AttrSet]]
    for (i <- pairs.indices if seps(i) != null) {
      if (seps(i).nonEmpty) minSeps += pairs(i) -> seps(i)
      mvds ++= found(i)
    }
    Result(
      mvds = mvds.toVector,
      minSeps = minSeps.result(),
      timedOut = deadline.exceeded,
      elapsedMs = (System.nanoTime() - start) / 1000000L,
      entropyCalls = oracles.map(_.calls).sum - callsBefore,
      entropyComputations = calc.oracle.computations - compsBefore,
      searchNodes = lattices.map(_.nodes).sum,
      closures = lattices.map(_.closures).sum,
    )
  }

  /** `work` once per oracle: the first on the calling thread, each other
    * one on a thread of its own. Returns once all are done, with their
    * results in order, or rethrows the first failure.
    */
  private def onWorkers[T](oracles: Vector[EntropyOracle])(work: EntropyOracle => T): Vector[T] = {
    val out = new Array[Any](oracles.size)
    val failure = new AtomicReference[Throwable]
    def run(i: Int): Unit =
      try out(i) = work(oracles(i))
      catch { case t: Throwable => failure.compareAndSet(null, t) }
    val threads = (1 until oracles.size).map { i =>
      val t = new Thread(() => run(i), s"mvd-miner-$i")
      t.setDaemon(true)
      t.start()
      t
    }
    run(0)
    threads.foreach(_.join())
    if (failure.get != null) throw failure.get
    out.toVector.map(_.asInstanceOf[T])
  }
}
