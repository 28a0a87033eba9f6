package repro.core.mine

import scala.collection.mutable
import repro.core.{AttrSet, Mvd}
import repro.core.info.InfoCalc
import repro.util.Deadline

/** `getFullMVDs` (paper Fig. 6) with the pairwise-consistency optimization
  * (Fig. 16/17): depth-first search over the merge lattice of dependent
  * partitions with key `S`, starting from the all-singletons partition,
  * keeping attributes `A` and `B` in distinct dependents throughout.
  *
  * A node φ with `J(φ) ≤ ε` is emitted and not expanded; otherwise all
  * merges `merge_ij(φ)` that do not put A and B together are pushed (Eq. 13).
  * Before pushing, `getPairwiseConsistentMVD` greedily merges any dependent
  * pair with `I(Ci; Cj | S) > ε` — such a pair can never end up in distinct
  * dependents of a holding coarsening (Prop. 5.1 Eq. 7), so this prunes the
  * search space without losing completeness.
  */
object FullMvdSearch {

  /** At most `k` ε-MVDs with key `key` separating `a`,`b`. With
    * `k = Int.MaxValue` the result is post-minimized so only *full*
    * (unrefinable) MVDs survive; with small `k` it is an existence probe
    * (used by ReduceMinSep / MineMinSeps with k = 1).
    */
  def fullMvds(calc: InfoCalc, omega: AttrSet, key: AttrSet, eps: Double,
               a: Int, b: Int, k: Int, deadline: Deadline): Vector[Mvd] = {
    require(!key.contains(a) && !key.contains(b), "key must not contain the pair")
    require(omega.contains(a) && omega.contains(b), "pair must be in omega")
    val out = mutable.ArrayBuffer.empty[Mvd]
    val visited = mutable.HashSet.empty[Mvd]
    val stack = mutable.Stack.empty[Mvd]

    val finest = Mvd.finest(key, omega)
    pairwiseConsistent(calc, finest, eps, a, b, deadline) match {
      case None      => return Vector.empty
      case Some(phi) => if (visited.add(phi)) stack.push(phi)
    }

    while (stack.nonEmpty && out.size < k && !deadline.exceeded) {
      val phi = stack.pop()
      if (calc.holds(phi, eps)) out += phi
      else {
        var i = 0
        while (i < phi.arity) {
          var j = i + 1
          while (j < phi.arity) {
            // Eq. 13: forbid only the merge that joins the A-dep with the
            // B-dep ("if A,B were separated in φ they remain separated in
            // every MVD in Nbr(φ)").
            val di = phi.deps(i)
            val dj = phi.deps(j)
            val joinsPair =
              (di.contains(a) && dj.contains(b)) || (di.contains(b) && dj.contains(a))
            if (!joinsPair) {
              pairwiseConsistent(calc, phi.merge(i, j), eps, a, b, deadline).foreach { psi =>
                if (visited.add(psi)) stack.push(psi)
              }
            }
            j += 1
          }
          i += 1
        }
      }
    }

    if (k == Int.MaxValue) minimizeFull(out.toVector, deadline) else out.toVector
  }

  /** Fig. 16: repeatedly merge a dependent pair with `I(Ci;Cj|S) > ε`;
    * nil (None) if A and B end up in the same dependent.
    */
  def pairwiseConsistent(calc: InfoCalc, mvd: Mvd, eps: Double,
                         a: Int, b: Int, deadline: Deadline): Option[Mvd] = {
    var phi = mvd
    var done = false
    while (!done && !deadline.exceeded) {
      if (!phi.separates(a, b)) return None
      findInconsistentPair(calc, phi, eps) match {
        case Some((i, j)) =>
          // if the inconsistent pair is the A-dep and the B-dep, every
          // holding coarsening reachable from here unites A and B — prune.
          val u = phi.deps(i) | phi.deps(j)
          if (u.contains(a) && u.contains(b)) return None
          phi = phi.merge(i, j)
        case None => done = true
      }
    }
    if (phi.separates(a, b)) Some(phi) else None
  }

  private def findInconsistentPair(calc: InfoCalc, phi: Mvd, eps: Double): Option[(Int, Int)] = {
    var i = 0
    while (i < phi.arity) {
      var j = i + 1
      while (j < phi.arity) {
        if (calc.cmi(phi.deps(i), phi.deps(j), phi.key) > eps + InfoCalc.Tol)
          return Some((i, j))
        j += 1
      }
      i += 1
    }
    None
  }

  /** Keep only MVDs not strictly refined by another discovered MVD. Together
    * with the DFS this yields exactly the brute-force full set (if ψ holds
    * and refines φ, the DFS reaches some holding ρ refining ψ through
    * all-failing chains, and ρ then eliminates φ). The deadline is checked
    * once per MVD; when it fires, only the MVDs already confirmed are kept.
    */
  def minimizeFull(mvds: Vector[Mvd], deadline: Deadline): Vector[Mvd] =
    mvds.distinct.iterator.takeWhile(_ => !deadline.exceeded)
      .filter(phi => !mvds.exists(psi => psi.strictlyRefines(phi))).toVector
}
