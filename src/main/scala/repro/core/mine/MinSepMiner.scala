package repro.core.mine

import repro.core.AttrSet

/** MineMinSeps + ReduceMinSep (paper Fig. 4/5): all minimal A,B-separators
  * of R at threshold ε. A set X (A,B ∉ X) *separates* A,B if some ε-MVD with
  * key X puts A and B in distinct dependents. By Thm 6.1 a new minimal
  * separator exists iff some minimal transversal of the separators found so
  * far ([[Transversals]]) has a separating complement. Every probe goes
  * through the shared search `lattice`, which fixes Ω, ε and the deadline.
  */
class MinSepMiner(lattice: MvdLattice) {
  import lattice.{deadline, omega}

  /** Existence probe: does some ε-MVD with key `x` separate a,b? */
  def separates(x: AttrSet, a: Int, b: Int): Boolean = lattice.separates(x, a, b)

  /** ReduceMinSep (Fig. 4): greedily shrink a separator to a minimal one,
    * scanning attributes in the fixed ascending-index order `p` (the
    * completeness proof of MineMinSeps relies on this order being fixed).
    */
  def reduceMinSep(x: AttrSet, a: Int, b: Int): AttrSet = {
    var s = x
    for (i <- x.toSeq if !deadline.exceeded && separates(s - i, a, b)) s = s - i
    s
  }

  /** MineMinSeps (Fig. 5): the minimal A,B-separators in discovery order,
    * partial if the deadline fires (the caller observes `deadline.exceeded`).
    * A separator whose reduction the deadline cut may not be minimal: dropped.
    */
  def mineMinSeps(a: Int, b: Int): Vector[AttrSet] = {
    val ground = omega - a - b
    // Line 3: Ω − {A, B}, the largest candidate key, separates A, B if any key does
    if (!separates(ground, a, b)) return Vector.empty
    val seps = Vector.newBuilder[AttrSet]
    val trs = new Transversals
    def add(x: AttrSet): Unit = {
      val sep = reduceMinSep(x, a, b)
      if (!deadline.exceeded) { seps += sep; trs.addEdge(sep) }
    }
    add(ground)
    var d = trs.next() // None once every minimal transversal is processed
    while (d.nonEmpty && !deadline.exceeded) {
      val comp = ground.diff(d.get)
      if (separates(comp, a, b)) add(comp)
      d = trs.next()
    }
    seps.result()
  }
}
