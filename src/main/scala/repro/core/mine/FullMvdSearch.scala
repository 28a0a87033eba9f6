package repro.core.mine

import scala.collection.mutable
import repro.core.{AttrSet, Mvd}
import repro.core.info.InfoCalc
import repro.util.Deadline

/** `getFullMVDs` (paper Fig. 6) with the pairwise-consistency optimization
  * (Fig. 16/17), run over one search lattice shared by every probe and
  * expansion of an `MvdMiner.mine` call.
  *
  * The search for a key `S` and pair (A, B) is a depth-first search over the
  * merge lattice of dependent partitions with key `S`, starting from the
  * all-singletons partition and keeping A and B in distinct dependents. A
  * node φ with `J(φ) ≤ ε` is emitted and not expanded; otherwise its merges
  * `merge_ij(φ)` that keep A and B apart are pushed (Eq. 13). Before a node is
  * pushed, Fig. 16 greedily merges any dependent pair with `I(Ci; Cj | S) > ε`:
  * such a pair can never end up in distinct dependents of a holding
  * coarsening (Prop. 5.1 Eq. 7), so this prunes without losing completeness.
  *
  * None of that depends on the pair except the separation test. Fig. 16's
  * merge loop picks each merge without looking at A and B, and its early
  * exit only stops once A and B share a dependent, which every later merge
  * keeps. So a pair's Fig. 16 result is the pair-free [[closure]] if that
  * separates the pair, else nil, and the lattice computes once, for all
  * pairs:
  *  - per key, the closure of the all-singletons partition (`None` when the
  *    loop collapses it to one dependent);
  *  - per interned closed node, whether `J ≤ ε` holds, its closed children
  *    `closure(merge_ij φ)` in (i, j) order with the first occurrence of each,
  *    and an attribute → dependent table for the separation test.
  *
  * A per-pair search then keeps a child iff it separates (A, B) and is not
  * yet visited (an int stamp per node), and pushes in the order of the
  * per-pair search, so it emits the same MVDs in the same order.
  *
  * Nothing computed after the deadline fired is cached. The lattice lives as
  * long as the `mine` call that made it.
  */
final class MvdLattice(val calc: InfoCalc, val omega: AttrSet, val eps: Double,
                       val deadline: Deadline) {
  import MvdLattice.Node

  private val width = 64 - java.lang.Long.numberOfLeadingZeros(omega.bits)
  /** every closed node, by its MVD */
  private val interned = mutable.HashMap.empty[Mvd, Node]
  /** key bits → closure of `Mvd.finest(key, omega)` */
  private val roots = mutable.LongMap.empty[Option[Node]]
  private var search = 0
  private var nClosures = 0L

  /** Distinct closed nodes interned so far. */
  def nodes: Int = interned.size

  /** Fig. 16 merge loops run so far. */
  def closures: Long = nClosures

  /** Fig. 16 without the A/B exit: repeatedly merge the first dependent pair
    * (in (i, j) order) with `I(Ci;Cj|S) > ε`; `None` once that leaves one
    * dependent, or when the deadline cuts the loop.
    */
  def closure(phi: Mvd): Option[Mvd] = closed(phi, AttrSet.empty).map(_.mvd)

  /** At most `k` ε-MVDs with key `key` separating `a`,`b`, in discovery
    * order. With `k = Int.MaxValue` the result is post-minimized so only
    * *full* (unrefinable) MVDs survive; with small `k` it is an existence
    * probe (used by ReduceMinSep / MineMinSeps with k = 1).
    */
  def fullMvds(key: AttrSet, a: Int, b: Int, k: Int): Vector[Mvd] = {
    require(!key.contains(a) && !key.contains(b), "key must not contain the pair")
    require(omega.contains(a) && omega.contains(b), "pair must be in omega")
    search += 1
    val out = mutable.ArrayBuffer.empty[Mvd]
    val stack = mutable.Stack.empty[Node]
    def visit(n: Node): Unit =
      if (n.separates(a, b) && n.stamp != search) {
        n.stamp = search
        stack.push(n)
      }

    root(key).foreach(visit)
    while (stack.nonEmpty && out.size < k && !deadline.exceeded) {
      val phi = stack.pop()
      if (holds(phi)) out += phi.mvd
      else children(phi).foreach(visit)
    }
    if (k == Int.MaxValue) MvdLattice.minimizeFull(out.toVector, deadline) else out.toVector
  }

  /** Existence probe: does some ε-MVD with key `x` separate a,b? */
  def separates(x: AttrSet, a: Int, b: Int): Boolean = fullMvds(x, a, b, k = 1).nonEmpty

  private def root(key: AttrSet): Option[Node] =
    roots.getOrElse(key.bits, {
      val r = closed(Mvd.finest(key, omega), AttrSet.empty)
      if (!deadline.exceeded) roots(key.bits) = r
      r
    })

  /** Fig. 16 on `phi`: its interned node when `phi` is closed, else the merge
    * loop. When `dirty` is a dependent of `phi`, every pair of `phi`'s other
    * dependents is known to be consistent (as in `merge_ij` of a closed
    * node), and only pairs with the dirty dependent are tested; the merged
    * dependent is the dirty one of the next round. The first inconsistent
    * pair in (i, j) order is the same either way.
    */
  private def closed(phi: Mvd, dirty: AttrSet): Option[Node] =
    interned.get(phi).orElse {
      nClosures += 1
      var cur = phi
      var d = dirty
      var pair = inconsistentPair(cur, d)
      // an inconsistent pair left in a 2-dependent MVD collapses it to one dependent
      while (pair != null && cur.arity > 2 && !deadline.exceeded) {
        if (d.nonEmpty) d = cur.deps(pair._1) | cur.deps(pair._2)
        cur = cur.merge(pair._1, pair._2)
        pair = inconsistentPair(cur, d)
      }
      if (pair != null || deadline.exceeded) None
      else Some(interned.getOrElseUpdate(cur, new Node(cur, width)))
    }

  /** First pair (i, j) in order with `I(Ci;Cj|S) > ε` among the pairs that
    * include `dirty` (all pairs when `dirty` is empty), or null.
    */
  private def inconsistentPair(phi: Mvd, dirty: AttrSet): (Int, Int) = {
    var i = 0
    while (i < phi.arity) {
      var j = i + 1
      while (j < phi.arity) {
        if ((dirty.isEmpty || phi.deps(i) == dirty || phi.deps(j) == dirty) &&
            calc.cmi(phi.deps(i), phi.deps(j), phi.key) > eps + InfoCalc.Tol) return (i, j)
        j += 1
      }
      i += 1
    }
    null
  }

  private def holds(n: Node): Boolean = {
    if (n.holds == 0) n.holds = if (calc.holds(n.mvd, eps)) 1 else -1
    n.holds > 0
  }

  private def children(n: Node): Array[Node] = {
    if (n.children == null) {
      val m = n.mvd
      val out = mutable.LinkedHashSet.empty[Node]
      // merging a 2-dependent node leaves one dependent: no children
      if (m.arity > 2)
        for (i <- 0 until m.arity; j <- i + 1 until m.arity if !deadline.exceeded)
          closed(m.merge(i, j), m.deps(i) | m.deps(j)).foreach(out += _)
      // a cut expansion is partial: hand it out once, keep nothing
      if (deadline.exceeded) return out.toArray
      n.children = out.toArray
    }
    n.children
  }
}

object MvdLattice {

  /** An interned closed node of the lattice. `depOf(x)` is the index of the
    * dependent holding attribute `x`, or -1 for key and absent attributes.
    */
  private final class Node(val mvd: Mvd, width: Int) {
    val depOf: Array[Byte] = Array.fill(width)(-1.toByte)
    mvd.deps.indices.foreach(d => mvd.deps(d).toSeq.foreach(x => depOf(x) = d.toByte))
    /** 0 = J not yet tested, 1 = `J ≤ ε`, -1 = `J > ε` */
    var holds: Int = 0
    var children: Array[Node] = null
    /** the last search that pushed this node */
    var stamp: Int = 0

    def separates(a: Int, b: Int): Boolean = {
      val da = depOf(a)
      val db = depOf(b)
      da >= 0 && db >= 0 && da != db
    }
  }

  /** Keep only MVDs not strictly refined by another MVD of the list, in
    * input order. Precondition (`require`d): all MVDs share one key and
    * cover the same attributes, as every MVD of one search does. A strict
    * refinement then has more dependents, so each MVD is compared only
    * against MVDs of higher arity. Together with the DFS this yields exactly
    * the brute-force full set (if ψ holds and refines φ, the DFS reaches some
    * holding ρ refining ψ through all-failing chains, and ρ then eliminates
    * φ). The deadline is checked once per MVD; when it fires, only the MVDs
    * already confirmed are kept.
    */
  def minimizeFull(mvds: Vector[Mvd], deadline: Deadline): Vector[Mvd] = {
    val ms = mvds.distinct
    if (ms.size < 2) return ms
    val cover = ms.head.attrs
    require(ms.forall(m => m.key == ms.head.key && m.attrs == cover),
            "minimizeFull needs MVDs of one key covering the same attributes")
    // every MVD's dependent masks, in one array by ascending arity:
    // MVD order(p) owns flat(from(p) until from(p + 1))
    val order = ms.indices.sortBy(ms(_).arity).toArray
    val from = order.scanLeft(0)((o, i) => o + ms(i).arity)
    val flat = order.flatMap(i => ms(i).deps.map(_.bits))
    val sig = ms.map(pairSignature).toArray
    val sigs = order.map(sig)
    // above(m) = first position of an MVD with more than m dependents
    val above = Array.fill(ms(order.last).arity + 1)(order.length)
    for (p <- order.indices.reverse; m <- 0 until ms(order(p)).arity) above(m) = p

    val kept = Vector.newBuilder[Mvd]
    var i = 0
    while (i < ms.length && !deadline.exceeded) {
      val phi = ms(i).deps.iterator.map(_.bits).toArray
      val notPhi = ~sig(i)
      var p = above(phi.length)
      while (p < order.length &&
             ((sigs(p) & notPhi) != 0L || !refines(flat, from(p), from(p + 1), phi))) p += 1
      if (p == order.length) kept += ms(i)
      i += 1
    }
    kept.result()
  }

  /** One bit per pair of attributes that share a dependent of `m`, the pairs
    * hashed onto 64 bits. The pairs of a refinement are among those of the
    * MVD it refines, so its bits are too.
    */
  private def pairSignature(m: Mvd): Long = {
    var sig = 0L
    var k = 0
    while (k < m.arity) {
      var xs = m.deps(k).bits
      while (xs != 0L) {
        val x = java.lang.Long.numberOfTrailingZeros(xs)
        xs &= xs - 1
        var ys = xs
        while (ys != 0L) {
          sig |= 1L << ((x * 31 + java.lang.Long.numberOfTrailingZeros(ys)) & 63)
          ys &= ys - 1
        }
      }
      k += 1
    }
    sig
  }

  /** Dependents `flat(lo until hi)` refine dependents `phi` of the same
    * cover: each of them lies inside the dependent of `phi` it meets.
    */
  private def refines(flat: Array[Long], lo: Int, hi: Int, phi: Array[Long]): Boolean = {
    var i = lo
    while (i < hi) {
      val d = flat(i)
      var j = 0
      while ((d & phi(j)) == 0L) j += 1
      if ((d & ~phi(j)) != 0L) return false
      i += 1
    }
    true
  }
}
