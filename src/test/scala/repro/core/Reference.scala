package repro.core

import scala.collection.mutable
import repro.core.info.InfoCalc
import repro.core.mine.{MinSepMiner, MvdLattice}
import repro.util.Deadline

/** Reference implementations that the tests compare the program against:
  * exponential brute force or an independent algorithm.
  */
object Reference {

  // ------------------------------------------------------------------
  // MVD algebra (paper Sec. 5.2) on `Mvd`s; the search runs it on masks
  // ------------------------------------------------------------------

  /** Index of the dependent of `m` containing attribute `i`, or -1. */
  def depContaining(m: Mvd, i: Int): Int = m.deps.indexWhere(_.contains(i))

  /** True when `a` and `b` lie in two distinct dependents of `m`. */
  def separates(m: Mvd, a: Int, b: Int): Boolean = {
    val da = depContaining(m, a)
    val db = depContaining(m, b)
    da >= 0 && db >= 0 && da != db
  }

  /** `p` refines `q` (paper Sec. 5.2): same key and every dependent of `p`
    * is contained in some dependent of `q`.
    */
  def refines(p: Mvd, q: Mvd): Boolean =
    p.key == q.key && p.deps.forall(d => q.deps.exists(d.subsetOf(_)))

  def strictlyRefines(p: Mvd, q: Mvd): Boolean = refines(p, q) && p != q

  /** `merge_ij(φ)`: the MVD with dependents i and j replaced by their union. */
  def merge(m: Mvd, i: Int, j: Int): Mvd = {
    require(i != j, "cannot merge a dependent with itself")
    val merged = m.deps(i) | m.deps(j)
    val rest = m.deps.indices.filter(x => x != i && x != j).map(m.deps).toVector
    Mvd.of(m.key, rest :+ merged)
  }

  /** The join `p ∨ q` (paper Sec. 5.2 / Appendix 11): same-key MVD whose
    * dependents are all non-empty pairwise intersections; refines both.
    */
  def vee(p: Mvd, q: Mvd): Mvd = {
    require(p.key == q.key, "join is only defined for MVDs with equal keys")
    Mvd.of(p.key, for { a <- p.deps; b <- q.deps; c = a & b if c.nonEmpty } yield c)
  }

  /** The finest MVD with key `x` over universe `omega`: every non-key
    * attribute is its own dependent.
    */
  def finest(x: AttrSet, omega: AttrSet): Mvd =
    Mvd.of(x, omega.diff(x).toSeq.map(AttrSet.single))

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

  /** Minimal transversals of `edges` drawn from `ground` by Berge's
    * algorithm on `Vector[AttrSet]`: the engine that the word-level
    * `Transversals` replaced, and its order oracle. Edges are intersected
    * with `ground` first; an edge with no element in `ground` (the empty
    * edge in particular) leaves no transversal. No edge gives `{∅}`.
    */
  def minimal(edges: Seq[AttrSet], ground: AttrSet): Vector[AttrSet] =
    edges.foldLeft(Vector(AttrSet.empty)) { (trs, e) => addEdge(trs, e, ground) }

  /** One Berge step: the sets that hit the edge, then each miss crossed
    * with the edge's attributes in ascending order, minimized.
    */
  def addEdge(trs: Vector[AttrSet], edge: AttrSet, ground: AttrSet): Vector[AttrSet] = {
    val e = edge & ground
    if (e.isEmpty) return Vector.empty
    val (hit, miss) = trs.partition(_.intersects(e))
    val extended = for { t <- miss; x <- e.toSeq } yield t + x
    minimize(hit ++ extended)
  }

  /** Inclusion-minimal members of a family, deduplicated, in a stable sort
    * by size.
    */
  def minimize(sets: Seq[AttrSet]): Vector[AttrSet] = {
    val sorted = sets.distinct.sortBy(_.size)
    val kept = Vector.newBuilder[AttrSet]
    var keptSoFar = List.empty[AttrSet]
    for (s <- sorted) {
      if (!keptSoFar.exists(_.subsetOf(s))) {
        kept += s
        keptSoFar ::= s
      }
    }
    kept.result()
  }

  /** `getFullMVDs` (Fig. 6/16/17) as one self-contained search per call: the
    * per-pair DFS that the shared `MvdLattice` replaced, with its own
    * visited set and Fig. 16 loop. At most `k` ε-MVDs with key `key`
    * separating `a`,`b`, in discovery order; minimized when `k` is unbounded.
    */
  def fullMvds(calc: InfoCalc, omega: AttrSet, key: AttrSet, eps: Double,
               a: Int, b: Int, k: Int): Vector[Mvd] = {
    val out = mutable.ArrayBuffer.empty[Mvd]
    val visited = mutable.HashSet.empty[Mvd]
    val stack = mutable.Stack.empty[Mvd]
    pairwiseConsistent(calc, finest(key, omega), eps, a, b)
      .foreach { phi => visited += phi; stack.push(phi) }
    while (stack.nonEmpty && out.size < k) {
      val phi = stack.pop()
      if (calc.holds(phi, eps)) out += phi
      else
        for (i <- 0 until phi.arity; j <- (i + 1) until phi.arity) {
          val u = phi.deps(i) | phi.deps(j)
          if (!(u.contains(a) && u.contains(b)))
            pairwiseConsistent(calc, merge(phi, i, j), eps, a, b)
              .foreach(psi => if (visited.add(psi)) stack.push(psi))
        }
    }
    if (k == Int.MaxValue) minimizeFull(out.toVector) else out.toVector
  }

  /** Fig. 16 for one pair: repeatedly merge the first dependent pair with
    * `I(Ci;Cj|S) > ε`; nil (None) once A and B share a dependent.
    */
  def pairwiseConsistent(calc: InfoCalc, mvd: Mvd, eps: Double, a: Int, b: Int): Option[Mvd] = {
    var phi = mvd
    while (separates(phi, a, b)) {
      val pairs = for (i <- 0 until phi.arity; j <- (i + 1) until phi.arity) yield (i, j)
      pairs.find { case (i, j) => calc.cmi(phi.deps(i), phi.deps(j), phi.key) > eps + InfoCalc.Tol } match {
        case None => return Some(phi)
        case Some((i, j)) =>
          val u = phi.deps(i) | phi.deps(j)
          if (u.contains(a) && u.contains(b)) return None
          phi = merge(phi, i, j)
      }
    }
    None
  }

  /** The MVDs of `mvds` no other one strictly refines, by comparing every
    * pair (quadratic), in input order.
    */
  def minimizeFull(mvds: Vector[Mvd]): Vector[Mvd] =
    mvds.distinct.filter(phi => !mvds.exists(strictlyRefines(_, phi)))

  /** MVDMiner (Fig. 3) over the per-call search: `MinSepMiner`'s transversal
    * loop with every probe answered by [[fullMvds]] at k = 1, and every
    * line-5 expansion by [[fullMvds]] at k = ∞. Returns the ordered M_ε and
    * the per-pair minimal separators.
    */
  def mine(calc: InfoCalc, n: Int, eps: Double,
           minSepsOnly: Boolean): (Vector[Mvd], Map[(Int, Int), Vector[AttrSet]]) = {
    val omega = AttrSet.range(n)
    val miner = new MinSepMiner(new MvdLattice(calc, omega, eps, Deadline.unlimited)) {
      override def separates(x: AttrSet, a: Int, b: Int): Boolean =
        fullMvds(calc, omega, x, eps, a, b, 1).nonEmpty
    }
    val mvds = mutable.LinkedHashSet.empty[Mvd]
    val minSeps = mutable.LinkedHashMap.empty[(Int, Int), Vector[AttrSet]]
    for (a <- 0 until n; b <- (a + 1) until n) {
      val seps = miner.mineMinSeps(a, b)
      if (seps.nonEmpty) minSeps((a, b)) = seps
      if (!minSepsOnly) for (x <- seps) mvds ++= fullMvds(calc, omega, x, eps, a, b, Int.MaxValue)
    }
    (mvds.toVector, minSeps.toMap)
  }

  /** MVD compatibility (paper Def. 7.1) over `AttrSet`s, written apart from
    * the bitmask predicate of `Compatibility`.
    */
  def compatible(p: Mvd, q: Mvd): Boolean = {
    def oneWay(p: Mvd, q: Mvd): Boolean =
      p.deps.exists { ai =>
        val side = p.key | ai
        q.key.subsetOf(side) && q.deps.count(_.intersects(side)) >= 2
      }
    oneWay(p, q) && oneWay(q, p)
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

  /** Bron–Kerbosch over immutable `Set[Int]` on the complement of `adj`
    * (maximal independent sets of G = maximal cliques of its complement),
    * with the pivot maximizing complement-neighbours in P: an independent
    * engine that the word-level `MaxIndependentSets` is compared against on
    * graphs too large for [[maxIndependentSets]].
    */
  def bronKerbosch(n: Int, adj: Array[Array[Boolean]], limit: Int, deadline: Deadline)(
      emit: Set[Int] => Unit): Unit = {
    // complement adjacency: clique in cAdj == independent set in adj
    val cAdj = Array.tabulate(n, n)((i, j) => i != j && !adj(i)(j))
    var emitted = 0

    // Bron–Kerbosch on an explicit stack of (R, P, X, vertices left to branch on):
    // recursion is as deep as the largest set and overflows on thousands of MVDs.
    val stack = mutable.Stack.empty[(Set[Int], Set[Int], Set[Int], List[Int])]
    def push(r: Set[Int], p: Set[Int], x: Set[Int]): Unit =
      if (p.isEmpty && x.isEmpty) {
        emitted += 1
        emit(r)
      } else {
        // pivot: vertex of P ∪ X maximizing complement-neighbors in P
        val pivot = (p ++ x).maxBy(u => p.count(cAdj(u)))
        stack.push((r, p, x, p.toList.filter(v => !cAdj(pivot)(v))))
      }

    push(Set.empty, (0 until n).toSet, Set.empty)
    while (stack.nonEmpty && emitted < limit && !deadline.exceeded) {
      stack.pop() match {
        case (_, _, _, Nil) =>
        case (r, p, x, v :: rest) =>
          stack.push((r, p - v, x + v, rest))
          val nv = (0 until n).filter(cAdj(v)).toSet
          push(r + v, p.filter(nv), x.filter(nv))
      }
    }
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
