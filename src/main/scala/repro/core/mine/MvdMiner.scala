package repro.core.mine

import scala.collection.mutable
import repro.core.{AttrSet, Mvd}
import repro.core.info.InfoCalc
import repro.util.Deadline

/** MVDMiner (paper Fig. 3): for every attribute pair (A,B), mine the minimal
  * A,B-separators, then for each separator X the full ε-MVDs with key X that
  * separate A,B; return their union M_ε (Eq. 11). Every probe and expansion
  * of one `mine` call searches one shared [[MvdLattice]].
  */
object MvdMiner {

  /** @param mvds        M_ε, deduplicated across pairs/separators
    * @param minSeps     minimal separators per attribute pair
    * @param timedOut    whether the wall-clock budget fired (results partial)
    * @param elapsedMs   total mining wall time
    * @param entropyCalls / entropyComputations: oracle traffic for the benches
    * @param searchNodes distinct closed nodes of the search lattice
    * @param closures    Fig. 16 merge loops run (closures computed). Each
    *   separator key is expanded once by a search that does not filter by
    *   the pair, which can close a few nodes that no per-pair search reaches.
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

  /** Mine M_ε over `n` attributes within `timeLimitMs` (-1 = unlimited).
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
    val lattice = new MvdLattice(calc, omega, eps, deadline)
    val miner = new MinSepMiner(lattice)
    val mvds = mutable.LinkedHashSet.empty[Mvd]
    val minSeps = mutable.LinkedHashMap.empty[(Int, Int), Vector[AttrSet]]

    val callsBefore = calc.oracle.calls
    val compsBefore = calc.oracle.computations

    var a = 0
    while (a < n && !deadline.exceeded) {
      var b = a + 1
      while (b < n && !deadline.exceeded) {
        val seps = miner.mineMinSeps(a, b)
        if (seps.nonEmpty) minSeps((a, b)) = seps
        if (!minSepsOnly) {
          for (x <- seps if !deadline.exceeded) {
            lattice.fullMvds(x, a, b).foreach(mvds += _)
          }
        }
        b += 1
      }
      a += 1
    }

    Result(
      mvds = mvds.toVector,
      minSeps = minSeps.toMap,
      timedOut = deadline.exceeded,
      elapsedMs = (System.nanoTime() - start) / 1000000L,
      entropyCalls = calc.oracle.calls - callsBefore,
      entropyComputations = calc.oracle.computations - compsBefore,
      searchNodes = lattice.nodes,
      closures = lattice.closures,
    )
  }
}
