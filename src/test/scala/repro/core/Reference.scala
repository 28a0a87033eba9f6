package repro.core

import repro.core.info.InfoCalc

/** Reference implementations that the tests compare the program against:
  * exponential brute force or an independent algorithm.
  */
object Reference {

  /** Brute-force minimal A,B-separators (the reference for `MinSepMiner`):
    * check every subset of Ω\{A,B} against every 2-partition (exponential).
    * X separates A,B iff some 2-partition (Y,Z) of Ω\X with A∈Y, B∈Z has
    * I(Y;Z|X) ≤ ε — an m-ary separating ε-MVD can always be coarsened to
    * such a 2-partition without increasing J (Prop. 5.2).
    */
  def minSeps(calc: InfoCalc, omega: AttrSet, eps: Double, a: Int, b: Int): Vector[AttrSet] = {
    val ground = omega - a - b
    def seps2(x: AttrSet): Boolean = {
      val rest = ground.diff(x)
      AttrSet.subsetsOf(rest).exists { y0 =>
        val y = y0 + a
        val z = rest.diff(y0) + b
        calc.cmi(y, z, x) <= eps + InfoCalc.Tol
      }
    }
    val separating = AttrSet.subsetsOf(ground).filter(seps2).toVector
    // minimal: no strict subset separates
    separating.filter(x => !separating.exists(y => y.strictSubsetOf(x)))
  }

  /** All maximal independent sets by scanning every vertex subset (the
    * reference for `MaxIndependentSets.enumerate`; exponential).
    */
  def maxIndependentSets(n: Int, adj: Array[Array[Boolean]]): Set[Set[Int]] = {
    def independent(s: Set[Int]): Boolean =
      s.forall(i => s.forall(j => i == j || !adj(i)(j)))
    val all = (0 until n).toSet.subsets().filter(independent).toVector
    all.filter(s => !all.exists(t => s.subsetOf(t) && s != t)).toSet
  }

  /** Acyclicity via GYO ear reduction, to cross-validate
    * `JoinTree.fromSchema`.
    */
  def gyoAcyclic(s: Schema): Boolean = {
    var bags = s.bags.toList
    var changed = true
    while (changed && bags.size > 1) {
      changed = false
      // remove a bag that is an "ear": all its attributes are either unique
      // to it or contained in one single other bag.
      val earIdx = bags.indices.find { i =>
        val b = bags(i)
        val others = bags.indices.filter(_ != i).map(bags)
        val shared = b.toSeq.filter(a => others.exists(_.contains(a)))
        shared.isEmpty || others.exists(o => shared.forall(o.contains))
      }
      earIdx match {
        case Some(i) => bags = bags.patch(i, Nil, 1); changed = true
        case None    => ()
      }
    }
    bags.size <= 1
  }

  /** The standard (2-ary) coarsening of `m` that isolates dependent `i`:
    * `X ↠ Yi | (rest)`.
    */
  def standardize(m: Mvd, i: Int): Mvd = {
    val other = m.deps.indices.filter(_ != i).map(m.deps).foldLeft(AttrSet.empty)(_ | _)
    Mvd.of(m.key, Vector(m.deps(i), other))
  }
}
