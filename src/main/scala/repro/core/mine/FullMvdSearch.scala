package repro.core.mine

import java.util.concurrent.{CompletableFuture, ConcurrentHashMap}
import scala.collection.mutable
import repro.core.{AttrSet, Mvd}
import repro.core.info.InfoCalc
import repro.util.Deadline

/** `getFullMVDs` (paper Fig. 6) with the pairwise-consistency optimization
  * (Fig. 16/17), run over one search lattice shared by every probe and
  * expansion of one `MvdMiner.mine` worker.
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
  *  - per key, the closure of the all-singletons partition (null when the
  *    loop collapses it to one dependent);
  *  - per interned closed node, whether `J ≤ ε` holds and its closed
  *    children `closure(merge_ij φ)` in (i, j) order, first occurrence kept.
  *
  * A node is its key bits and its dependents as `Long` masks in `Mvd.of`'s
  * order (ascending as signed `Long`, so a dependent holding attribute 63
  * comes first). Nodes are interned in an open-addressing table keyed by
  * those words; an `Mvd` is built only for the MVDs handed out.
  *
  * A k = 1 probe of (key, A, B) ([[separates]]) is a DFS that keeps a child
  * iff it separates (A, B) and is not yet visited (an int stamp per node),
  * and pushes in the order of the per-pair search. The k = ∞ expansions
  * ([[fullMvds]]) of a key share one DFS that keeps every child: merging only
  * coarsens, so a node separating (A, B) is reached only through nodes that
  * separate (A, B), and dropping the other nodes from the pair-free DFS
  * leaves the per-pair DFS in its order. Its holding nodes are minimized once
  * and cached; each pair gets those that separate it, in list order. A strict
  * refinement of a separating MVD separates the pair too, so filtering and
  * minimizing commute.
  *
  * Nothing computed after the deadline fired is cached. The lattice lives as
  * long as the `mine` call that made it, and is used by one thread. The
  * expansions are kept in `expansions`, which the lattices of one call's
  * workers share: a lattice is a cache that changes no answer, so any of
  * them can expand a key for all.
  */
final class MvdLattice(val calc: InfoCalc, val omega: AttrSet, val eps: Double,
                       val deadline: Deadline,
                       expansions: MvdLattice.Expansions = new MvdLattice.Expansions) {
  import MvdLattice.{Node, keepFull}

  /** every closed node, open addressing with linear probing over `Node.hash` */
  private var table = new Array[Node](1024)
  private var interned = 0
  /** key bits → closure of the key's all-singletons partition, or null */
  private val roots = mutable.LongMap.empty[Node]
  private var search = 0
  private var expanding = 0
  private var nClosures = 0L

  /** Distinct closed nodes interned so far. */
  def nodes: Int = interned

  /** Fig. 16 merge loops run so far. */
  def closures: Long = nClosures

  /** Fig. 16 without the A/B exit: repeatedly merge the first dependent pair
    * (in (i, j) order) with `I(Ci;Cj|S) > ε`; `None` once that leaves one
    * dependent, or when the deadline cuts the loop.
    */
  def closure(phi: Mvd): Option[Mvd] =
    Option(closed(phi.key.bits, phi.deps.iterator.map(_.bits).toArray, 0L)).map(_.mvd)

  /** The full (unrefinable) ε-MVDs with key `key` separating `a`,`b`, in
    * discovery order: line 5 of MVDMiner (Fig. 3).
    */
  def fullMvds(key: AttrSet, a: Int, b: Int): Vector[Mvd] = {
    checkPair(key, a, b)
    expansion(key).iterator.filter(_.separates(a, b)).map(_.mvd).toVector
  }

  /** Existence probe: does some ε-MVD with key `x` separate a,b? */
  def separates(x: AttrSet, a: Int, b: Int): Boolean = {
    checkPair(x, a, b)
    dfs(x, a, b, 1).nonEmpty
  }

  private def checkPair(key: AttrSet, a: Int, b: Int): Unit = {
    require(!key.contains(a) && !key.contains(b), "key must not contain the pair")
    require(omega.contains(a) && omega.contains(b), "pair must be in omega")
  }

  /** Fig. 6's DFS from `key`'s root: at most `k` holding nodes in discovery
    * order, over the nodes that separate `a`, `b` (every node when `a < 0`).
    */
  private def dfs(key: AttrSet, a: Int, b: Int, k: Int): mutable.ArrayBuffer[Node] = {
    search += 1
    val out = mutable.ArrayBuffer.empty[Node]
    val stack = mutable.Stack.empty[Node]
    def visit(n: Node): Unit =
      if ((a < 0 || n.separates(a, b)) && n.stamp != search) {
        n.stamp = search
        stack.push(n)
      }

    val r = root(key)
    if (r != null) visit(r)
    while (stack.nonEmpty && out.size < k && !deadline.exceeded) {
      val phi = stack.pop()
      if (holds(phi)) out += phi
      else children(phi).foreach(visit)
    }
    out
  }

  /** The full ε-MVDs with key `key`, for every pair at once. */
  private def expansion(key: AttrSet): Array[Node] =
    expansions(key.bits, deadline) {
      val found = dfs(key, -1, -1, Int.MaxValue)
      keepFull(found.map(_.deps), deadline).map(found)
    }

  private def root(key: AttrSet): Node =
    roots.getOrElse(key.bits, {
      val singles = omega.diff(key).toSeq.map(1L << _).toArray
      java.util.Arrays.sort(singles)
      val r = if (singles.length < 2) null else closed(key.bits, singles, 0L)
      if (!deadline.exceeded) roots(key.bits) = r
      r
    })

  /** Fig. 16 on `key ↠ deps`: its interned node when that is closed, else
    * the merge loop, then the interned result (null when the loop collapses
    * it to one dependent or the deadline cuts it). When `dirty` is a
    * dependent, every pair of the other dependents is known to be consistent
    * (as in `merge_ij` of a closed node), and only pairs with the dirty
    * dependent are tested; the merged dependent is the dirty one of the next
    * round. The first inconsistent pair in (i, j) order is the same either way.
    */
  private def closed(key: Long, deps: Array[Long], dirty: Long): Node = {
    val known = table(slot(key, deps, MvdLattice.hash(key, deps)))
    if (known != null) return known
    nClosures += 1
    var cur = deps
    var d = dirty
    var pair = inconsistentPair(key, cur, d)
    // an inconsistent pair left in a 2-dependent MVD collapses it to one dependent
    while (pair >= 0 && cur.length > 2 && !deadline.exceeded) {
      val i = pair >>> 6
      val j = pair & 63
      if (d != 0L) d = cur(i) | cur(j)
      cur = MvdLattice.merge(cur, i, j)
      pair = inconsistentPair(key, cur, d)
    }
    if (pair >= 0 || deadline.exceeded) null else intern(key, cur)
  }

  /** First pair (i, j) in order with `I(Ci;Cj|S) > ε` among the pairs that
    * include `dirty` (all pairs when `dirty` is 0), as `i << 6 | j`, or -1.
    */
  private def inconsistentPair(key: Long, deps: Array[Long], dirty: Long): Int = {
    var i = 0
    while (i < deps.length) {
      var j = i + 1
      while (j < deps.length) {
        if ((dirty == 0L || deps(i) == dirty || deps(j) == dirty) &&
            calc.cmi(AttrSet(deps(i)), AttrSet(deps(j)), AttrSet(key)) > eps + InfoCalc.Tol)
          return i << 6 | j
        j += 1
      }
      i += 1
    }
    -1
  }

  private def holds(n: Node): Boolean = {
    if (n.holds == 0) n.holds = if (calc.holds(AttrSet(n.key), n.deps, eps)) 1 else -1
    n.holds > 0
  }

  private def children(n: Node): Array[Node] = {
    if (n.children == null) {
      val m = n.deps.length
      val out = mutable.ArrayBuffer.empty[Node]
      expanding += 1
      // merging a 2-dependent node leaves one dependent: no children
      if (m > 2)
        for (i <- 0 until m; j <- i + 1 until m if !deadline.exceeded) {
          val c = closed(n.key, MvdLattice.merge(n.deps, i, j), n.deps(i) | n.deps(j))
          if (c != null && c.mark != expanding) {
            c.mark = expanding
            out += c
          }
        }
      // a cut expansion is partial: hand it out once, keep nothing
      if (deadline.exceeded) return out.toArray
      n.children = out.toArray
    }
    n.children
  }

  /** The table slot holding `key ↠ deps`, or the empty slot where it goes. */
  private def slot(key: Long, deps: Array[Long], h: Int): Int = {
    val mask = table.length - 1
    var s = h & mask
    while (table(s) != null && !table(s).is(key, deps, h)) s = (s + 1) & mask
    s
  }

  private def intern(key: Long, deps: Array[Long]): Node = {
    val h = MvdLattice.hash(key, deps)
    val s = slot(key, deps, h)
    if (table(s) == null) {
      table(s) = new Node(key, deps, h)
      interned += 1
      if (2 * interned > table.length) {
        val old = table
        table = new Array[Node](2 * old.length)
        for (n <- old if n != null) table(slot(n.key, n.deps, n.hash)) = n
      }
    }
    table(slot(key, deps, h))
  }
}

object MvdLattice {

  /** Key bits → the full ε-MVDs of the key's pair-free search, in DFS order,
    * for any number of lattices on as many threads. A key that one lattice
    * is expanding is waited for, not expanded again. The nodes handed out
    * are read only through their immutable key and dependents.
    */
  final class Expansions {
    private val byKey = new ConcurrentHashMap[Long, CompletableFuture[Array[Node]]]

    /** The expansion of `key`: the one stored or in progress, else `expand`,
      * stored unless the deadline cut it.
      */
    private[MvdLattice] def apply(key: Long, deadline: Deadline)(expand: => Array[Node]): Array[Node] = {
      val mine = new CompletableFuture[Array[Node]]
      val known = byKey.putIfAbsent(key, mine)
      if (known != null) return known.join()
      try {
        val full = expand
        mine.complete(full)
        if (deadline.exceeded) byKey.remove(key, mine)
        full
      } catch {
        case t: Throwable =>
          mine.completeExceptionally(t)
          byKey.remove(key, mine)
          throw t
      }
    }
  }

  /** An interned closed node of the lattice: `key ↠ deps` with the
    * dependent masks in `Mvd.of`'s order.
    */
  private final class Node(val key: Long, val deps: Array[Long], val hash: Int) {
    /** 0 = J not yet tested, 1 = `J ≤ ε`, -1 = `J > ε` */
    var holds: Int = 0
    var children: Array[Node] = null
    /** the last search that pushed this node */
    var stamp: Int = 0
    /** the last expansion that listed this node as a child */
    var mark: Int = 0

    def is(k: Long, ds: Array[Long], h: Int): Boolean =
      hash == h && key == k && java.util.Arrays.equals(deps, ds)

    /** `a` and `b` lie in distinct dependents; both must be non-key
      * attributes of the node's cover.
      */
    def separates(a: Int, b: Int): Boolean = {
      val ab = 1L << a | 1L << b
      var i = 0
      while ((deps(i) & ab) == 0L) i += 1
      (deps(i) & ab) != ab
    }

    // the masks are already in Mvd.of's order
    def mvd: Mvd = Mvd(AttrSet(key), deps.iterator.map(AttrSet(_)).toVector)
  }

  private def hash(key: Long, deps: Array[Long]): Int = {
    var h = key * 0x9E3779B97F4A7C15L
    var i = 0
    while (i < deps.length) {
      h = (h ^ deps(i)) * 0x9E3779B97F4A7C15L
      i += 1
    }
    (h ^ h >>> 32).toInt
  }

  /** `merge_ij` on masks: dependents `i` and `j` replaced by their union, in
    * one insertion pass that keeps the signed ascending order.
    */
  private def merge(deps: Array[Long], i: Int, j: Int): Array[Long] = {
    val u = deps(i) | deps(j)
    val out = new Array[Long](deps.length - 1)
    var o = 0
    var placed = false
    var k = 0
    while (k < deps.length) {
      if (k != i && k != j) {
        if (!placed && u < deps(k)) {
          out(o) = u
          o += 1
          placed = true
        }
        out(o) = deps(k)
        o += 1
      }
      k += 1
    }
    if (!placed) out(o) = u
    out
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
    keepFull(ms.map(_.deps.iterator.map(_.bits).toArray), deadline).iterator.map(ms).toVector
  }

  /** [[minimizeFull]] on dependent masks of distinct MVDs: the indices of
    * the kept ones, ascending.
    */
  private def keepFull(deps: collection.IndexedSeq[Array[Long]], deadline: Deadline): Array[Int] = {
    val n = deps.length
    if (n < 2) return Array.range(0, n)
    // every MVD's dependent masks, in one array by ascending arity:
    // MVD order(p) owns flat(from(p) until from(p + 1))
    val order = (0 until n).sortBy(deps(_).length).toArray
    val from = order.scanLeft(0)((o, i) => o + deps(i).length)
    val flat = order.flatMap(deps(_))
    val sig = deps.iterator.map(pairSignature).toArray
    val sigs = order.map(sig)
    // above(m) = first position of an MVD with more than m dependents
    val above = Array.fill(deps(order.last).length + 1)(n)
    for (p <- order.indices.reverse; m <- 0 until deps(order(p)).length) above(m) = p

    val kept = Array.newBuilder[Int]
    var i = 0
    while (i < n && !deadline.exceeded) {
      val phi = deps(i)
      val notPhi = ~sig(i)
      var p = above(phi.length)
      while (p < n && ((sigs(p) & notPhi) != 0L || !refines(flat, from(p), from(p + 1), phi))) p += 1
      if (p == n) kept += i
      i += 1
    }
    kept.result()
  }

  /** One bit per pair of attributes that share a dependent, the pairs hashed
    * onto 64 bits. The pairs of a refinement are among those of the MVD it
    * refines, so its bits are too.
    */
  private def pairSignature(deps: Array[Long]): Long = {
    var sig = 0L
    var k = 0
    while (k < deps.length) {
      var xs = deps(k)
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
