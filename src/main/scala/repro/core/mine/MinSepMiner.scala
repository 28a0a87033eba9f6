package repro.core.mine

import scala.collection.mutable
import repro.core.AttrSet
import repro.core.info.InfoCalc

/** MineMinSeps + ReduceMinSep (paper Fig. 4/5): enumerate all minimal
  * A,B-separators of R at threshold ε.
  *
  * A set X (with A,B ∉ X) *separates* A,B if some ε-MVD with key X puts A
  * and B in distinct dependents. By Thm 6.1 a new minimal separator exists
  * iff some minimal transversal D of the discovered family C has a
  * separating complement; we iterate minimal transversals of the growing
  * family until none is left unprocessed. Every probe goes through the
  * shared search `lattice`, which fixes Ω, ε and the deadline.
  */
class MinSepMiner(lattice: MvdLattice) {
  import lattice.{calc, deadline, eps, omega}

  /** Existence probe: does some ε-MVD with key `x` separate a,b? */
  def separates(x: AttrSet, a: Int, b: Int): Boolean = lattice.separates(x, a, b)

  /** ReduceMinSep (Fig. 4): greedily shrink a separator to a minimal one,
    * scanning attributes in the fixed ascending-index order `p` (the
    * completeness proof of MineMinSeps relies on this order being fixed).
    */
  def reduceMinSep(x: AttrSet, a: Int, b: Int): AttrSet = {
    var s = x
    for (i <- x.toSeq) {
      if (!deadline.exceeded && separates(s - i, a, b)) s = s - i
    }
    s
  }

  /** MineMinSeps (Fig. 5): all minimal A,B-separators. May be partial if the
    * deadline fires (the caller observes `deadline.exceeded`).
    */
  def mineMinSeps(a: Int, b: Int): Vector[AttrSet] = {
    val ground = omega - a - b
    // Line 3: the largest candidate key is Ω\{A,B}; the only MVD with that
    // key separating A,B is X ↠ A|B, so the probe is a single CMI.
    if (calc.cmi(AttrSet.single(a), AttrSet.single(b), ground) > eps + InfoCalc.Tol)
      return Vector.empty
    val first = reduceMinSep(ground, a, b)
    val c = mutable.ArrayBuffer[AttrSet](first)
    val processed = mutable.HashSet.empty[Long]
    // Berge's transversal family is maintained incrementally as separators
    // are added (each discovery is one addEdge step).
    var trs = Transversals.addEdge(Vector(AttrSet.empty), first, ground)
    var done = false
    while (!done && !deadline.exceeded) {
      trs.find(d => !processed.contains(d.bits)) match {
        case None => done = true // all minimal transversals processed (Thm 6.1)
        case Some(d) =>
          processed += d.bits
          val comp = ground.diff(d)
          if (separates(comp, a, b)) {
            val x = reduceMinSep(comp, a, b)
            c += x
            trs = Transversals.addEdge(trs, x, ground)
          }
      }
    }
    c.toVector.distinct
  }
}
