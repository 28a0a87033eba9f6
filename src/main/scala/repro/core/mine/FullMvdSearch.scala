package repro.core.mine

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import repro.core.{AttrSet, Mvd}
import repro.core.info.InfoCalc
import repro.util.Deadline

/** `getFullMVDs` (paper Fig. 6) with the pairwise-consistency optimization
  * (Fig. 16/17), run over one search lattice shared by every probe and
  * expansion of one `MvdMiner.mine` call.
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
  * `merge_ij` keeps the key, so the lattice is a disjoint union of per-key
  * parts, held in `shared` for all the workers of one `mine` call; each
  * worker's `MvdLattice` keeps only its oracle and counters. A public call
  * holds its one key's lock throughout, so a worker never holds two. The
  * lattice is a cache that changes no answer, whoever fills it. Nothing
  * computed after the deadline fired is cached.
  */
final class MvdLattice(val calc: InfoCalc, val omega: AttrSet, val eps: Double,
                       val deadline: Deadline,
                       shared: MvdLattice.Shared = new MvdLattice.Shared) {
  import MvdLattice.{Node, Part, keepFull, merge}

  private var interned = 0
  private var nClosures = 0L

  /** Distinct closed nodes this lattice interned in `shared`. */
  def nodes: Int = interned

  /** Fig. 16 merge loops this lattice ran. */
  def closures: Long = nClosures

  /** Fig. 16 without the A/B exit: repeatedly merge the first dependent pair
    * (in (i, j) order) with `I(Ci;Cj|S) > ε`; `None` once that leaves one
    * dependent, or when the deadline cuts the loop.
    */
  def closure(phi: Mvd): Option[Mvd] = shared(phi.key.bits) { p =>
    Option(closed(p, phi.deps.iterator.map(_.bits).toArray, 0L)).map(_.mvd(p.key))
  }

  /** The full (unrefinable) ε-MVDs with key `key` separating `a`,`b`, in
    * discovery order: line 5 of MVDMiner (Fig. 3).
    */
  def fullMvds(key: AttrSet, a: Int, b: Int): Vector[Mvd] = {
    checkPair(key, a, b)
    shared(key.bits)(expansion(_).iterator.filter(_.separates(a, b)).map(_.mvd(key.bits)).toVector)
  }

  /** Existence probe: does some ε-MVD with key `x` separate a,b? */
  def separates(x: AttrSet, a: Int, b: Int): Boolean = {
    checkPair(x, a, b)
    shared(x.bits)(dfs(_, a, b, 1).nonEmpty)
  }

  private def checkPair(key: AttrSet, a: Int, b: Int): Unit = {
    require(!key.contains(a) && !key.contains(b), "key must not contain the pair")
    require(omega.contains(a) && omega.contains(b), "pair must be in omega")
  }

  /** Fig. 6's DFS from `p`'s root: at most `k` holding nodes in discovery
    * order, over the nodes that separate `a`, `b` (every node when `a < 0`).
    */
  private def dfs(p: Part, a: Int, b: Int, k: Int): mutable.ArrayBuffer[Node] = {
    p.search += 1
    val out = mutable.ArrayBuffer.empty[Node]
    val stack = mutable.Stack.empty[Node]
    def visit(n: Node): Unit =
      if ((a < 0 || n.separates(a, b)) && n.stamp != p.search) {
        n.stamp = p.search
        stack.push(n)
      }

    Option(root(p)).foreach(visit)
    while (stack.nonEmpty && out.size < k && !deadline.exceeded) {
      val phi = stack.pop()
      if (holds(p.key, phi)) out += phi
      else children(p, phi).foreach(visit)
    }
    out
  }

  /** The full ε-MVDs with `p`'s key, for every pair at once. */
  private def expansion(p: Part): Array[Node] =
    if (p.expansion != null) p.expansion
    else {
      val found = dfs(p, -1, -1, Int.MaxValue)
      val full = keepFull(found.map(_.deps), deadline).map(found)
      if (!deadline.exceeded) p.expansion = full
      full
    }

  private def root(p: Part): Node =
    if (p.rooted) p.root
    else {
      val singles = omega.diff(AttrSet(p.key)).toSeq.map(1L << _).toArray
      java.util.Arrays.sort(singles)
      val r = if (singles.length < 2) null else closed(p, singles, 0L)
      if (!deadline.exceeded) { p.root = r; p.rooted = true }
      r
    }

  /** Fig. 16 on `p.key ↠ deps`: its interned node when that is closed, else
    * the merge loop, then the interned result (null when the loop collapses
    * it to one dependent or the deadline cuts it). When `dirty` is a
    * dependent, every pair of the other dependents is known to be consistent
    * (as in `merge_ij` of a closed node), and only pairs with the dirty
    * dependent are tested; the merged dependent is the dirty one of the next
    * round. The first inconsistent pair in (i, j) order is the same either way.
    */
  private def closed(p: Part, deps: Array[Long], dirty: Long): Node = {
    val known = p.get(deps)
    if (known != null) return known
    nClosures += 1
    var cur = deps
    var d = dirty
    var pair = inconsistentPair(p.key, cur, d)
    // an inconsistent pair left in a 2-dependent MVD collapses it to one dependent
    while (pair >= 0 && cur.length > 2 && !deadline.exceeded) {
      val i = pair >>> 6
      val j = pair & 63
      if (d != 0L) d = cur(i) | cur(j)
      cur = merge(cur, i, j)
      pair = inconsistentPair(p.key, cur, d)
    }
    if (pair >= 0 || deadline.exceeded) return null
    val n = p.get(cur)
    if (n != null) n else { interned += 1; p.add(cur) }
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

  private def holds(key: Long, n: Node): Boolean = {
    if (n.holds == 0) n.holds = if (calc.holds(AttrSet(key), n.deps, eps)) 1 else -1
    n.holds > 0
  }

  private def children(p: Part, n: Node): Array[Node] = {
    if (n.children == null) {
      val m = n.deps.length
      val out = mutable.ArrayBuffer.empty[Node]
      p.expanding += 1
      // merging a 2-dependent node leaves one dependent: no children
      if (m > 2)
        for (i <- 0 until m; j <- i + 1 until m if !deadline.exceeded) {
          val c = closed(p, merge(n.deps, i, j), n.deps(i) | n.deps(j))
          if (c != null && c.mark != p.expanding) {
            c.mark = p.expanding
            out += c
          }
        }
      // a cut expansion is partial: hand it out once, keep nothing
      if (deadline.exceeded) return out.toArray
      n.children = out.toArray
    }
    n.children
  }
}

object MvdLattice {

  /** The search lattice of one `mine` call, for any number of
    * [[MvdLattice]]s on as many threads that agree on Ω, ε and the
    * deadline: key bits → that key's part, made on first use.
    */
  final class Shared {
    private val parts = new ConcurrentHashMap[Long, Part]

    /** `f` on `key`'s part, under the part's lock. */
    private[MvdLattice] def apply[T](key: Long)(f: Part => T): T = {
      val p = parts.computeIfAbsent(key, new Part(_))
      p.synchronized(f(p))
    }
  }

  /** The closed nodes with one key, their root and their expansion, and the
    * stamps of the searches over them. Used only under its own lock.
    */
  private final class Part(val key: Long) {
    /** open addressing with linear probing over `Node.hash` */
    private var table = new Array[Node](2)
    private var size = 0
    var rooted = false
    /** closure of the key's all-singletons partition, or null */
    var root: Node = null
    var expansion: Array[Node] = null
    /** the last search, and the last child listing, over these nodes */
    var search = 0
    var expanding = 0

    /** The node `key ↠ deps`, or null. */
    def get(deps: Array[Long]): Node = table(slot(deps, hash(deps)))

    /** Adds `key ↠ deps`, which is not in the table. */
    def add(deps: Array[Long]): Node = {
      val n = new Node(deps, hash(deps))
      table(slot(deps, n.hash)) = n
      size += 1
      if (2 * size > table.length) {
        val old = table
        table = new Array[Node](2 * old.length)
        for (o <- old if o != null) table(slot(o.deps, o.hash)) = o
      }
      n
    }

    /** The table slot holding `key ↠ deps`, or the empty slot where it goes. */
    private def slot(deps: Array[Long], h: Int): Int = {
      val mask = table.length - 1
      var s = h & mask
      while (table(s) != null && !table(s).is(deps, h)) s = (s + 1) & mask
      s
    }
  }

  /** An interned closed node of a key's part: `key ↠ deps` with the
    * dependent masks in `Mvd.of`'s order.
    */
  private final class Node(val deps: Array[Long], val hash: Int) {
    /** 0 = J not yet tested, 1 = `J ≤ ε`, -1 = `J > ε` */
    var holds: Int = 0
    var children: Array[Node] = null
    /** the last search that pushed this node */
    var stamp: Int = 0
    /** the last expansion that listed this node as a child */
    var mark: Int = 0

    def is(ds: Array[Long], h: Int): Boolean = hash == h && java.util.Arrays.equals(deps, ds)

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
    def mvd(key: Long): Mvd = Mvd(AttrSet(key), deps.iterator.map(AttrSet(_)).toVector)
  }

  private def hash(deps: Array[Long]): Int = {
    var h = 0L
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
