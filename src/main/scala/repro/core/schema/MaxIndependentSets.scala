package repro.core.schema

import scala.collection.mutable.ArrayBuffer
import repro.util.Deadline

/** Enumeration of the maximal independent sets of a graph (paper Thm 7.3).
  *
  * A maximal independent set of G is a maximal clique of the complement
  * graph. We run Bron–Kerbosch with Tomita's pivot rule (Tomita, Tanaka &
  * Takahashi, TCS 2006) on G's adjacency bitsets, reading the complement
  * off the words. The polynomial-delay enumerators of [11, 22] produce the
  * same family; we cap output count and wall time instead of bounding delay.
  */
object MaxIndependentSets {

  /** `Long` words in a bitset over `n` vertices. */
  private[schema] def words(n: Int): Int = (n + 63) >>> 6

  /** [[enumerateBitsets]] over a `Boolean` adjacency matrix (its diagonal is
    * ignored), emitting each set as a `Set[Int]`.
    */
  def enumerate(n: Int, adj: Array[Array[Boolean]], limit: Int, deadline: Deadline)(
      emit: Set[Int] => Unit): Unit = {
    val rows = Array.ofDim[Long](n, words(n))
    for (i <- 0 until n; j <- 0 until n if i != j && adj(i)(j)) rows(i)(j >>> 6) |= 1L << j
    enumerateBitsets(n, rows, limit, deadline)(s => emit(s.toSet))
  }

  /** Emit the maximal independent sets of the graph with `n` vertices, as
    * ascending vertex arrays, until `limit` sets are emitted or the deadline
    * fires. Row `i` of `adj` has bit `j` set iff `i` and `j` are adjacent;
    * the rows must be symmetric with an empty diagonal.
    *
    * Bron–Kerbosch on an explicit stack with one frame per depth d, so the
    * depth is not bounded by the JVM stack: the set R = r(0 until d), the
    * candidates P (adjacent to no member of R) and the excluded X. The pivot
    * is the u ∈ P ∪ X with the most candidates outside its closed
    * neighbourhood N[u], ties to the lowest index. Every maximal set that
    * extends R contains a vertex of P ∩ N[u], so the frame branches on those
    * in ascending order. The graph with no vertices has one maximal
    * independent set, ∅.
    */
  def enumerateBitsets(n: Int, adj: Array[Array[Long]], limit: Int, deadline: Deadline)(
      emit: Array[Int] => Unit): Unit = {
    val w = words(n)
    // per depth: candidates, excluded, and the vertices still to branch on
    val p, x, branch = ArrayBuffer.empty[Array[Long]]
    val r = new Array[Int](n)
    var emitted = 0

    def popcount(a: Array[Long]): Int = {
      var c = 0
      var k = 0
      while (k < w) { c += java.lang.Long.bitCount(a(k)); k += 1 }
      c
    }

    val live = new Array[Int](w) // pivot's scratch: the indices of P's non-zero words

    /** The pivot of P, X, or -1 when some u ∈ X has no neighbour in P, so
      * that no maximal set extends this frame. A score counts candidates,
      * so it reads only the words where P has some.
      */
    def pivot(pd: Array[Long], xd: Array[Long]): Int = {
      var nLive, pCount = 0
      var k = 0
      while (k < w) {
        if (pd(k) != 0L) { live(nLive) = k; nLive += 1; pCount += java.lang.Long.bitCount(pd(k)) }
        k += 1
      }
      var best, bestScore = -1
      k = 0
      while (k < w) {
        var bits = pd(k) | xd(k)
        while (bits != 0L) {
          val u = (k << 6) + java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          val row = adj(u)
          var score = if ((pd(k) & (1L << u)) != 0L) -1 else 0
          var j = 0
          while (j < nLive) { val q = live(j); score += java.lang.Long.bitCount(pd(q) & ~row(q)); j += 1 }
          if (score == pCount) return -1
          if (score > bestScore) { best = u; bestScore = score }
        }
        k += 1
      }
      best
    }

    /** Enter depth `d` with its P and X filled in: emit R when both are
      * empty, else fill the frame's branch set. True when there is a vertex
      * to branch on.
      */
    def open(d: Int): Boolean = {
      val pd = p(d)
      if (popcount(pd) == 0) {
        if (popcount(x(d)) == 0) {
          val set = java.util.Arrays.copyOf(r, d)
          java.util.Arrays.sort(set)
          emitted += 1
          emit(set)
        }
        false
      } else {
        val u = pivot(pd, x(d))
        if (u < 0) false
        else {
          val row = adj(u)
          val b = branch(d)
          var k = 0
          while (k < w) { b(k) = pd(k) & row(k); k += 1 }
          b(u >>> 6) |= pd(u >>> 6) & (1L << u)
          true
        }
      }
    }

    def reserve(d: Int): Unit =
      while (p.size <= d) {
        p += new Array[Long](w); x += new Array[Long](w); branch += new Array[Long](w)
      }

    reserve(0)
    for (v <- 0 until n) p(0)(v >>> 6) |= 1L << v
    var d = if (open(0)) 0 else -1
    while (d >= 0 && emitted < limit && !deadline.exceeded) {
      val b = branch(d)
      var k = 0
      while (k < w && b(k) == 0L) k += 1
      if (k == w) d -= 1
      else {
        val v = (k << 6) + java.lang.Long.numberOfTrailingZeros(b(k))
        val bit = 1L << v
        b(k) &= ~bit
        r(d) = v
        reserve(d + 1)
        val pd = p(d)
        val xd = x(d)
        val pc = p(d + 1)
        val xc = x(d + 1)
        val row = adj(v)
        var j = 0
        while (j < w) { pc(j) = pd(j) & ~row(j); xc(j) = xd(j) & ~row(j); j += 1 }
        pc(k) &= ~bit
        pd(k) &= ~bit
        xd(k) |= bit
        if (open(d + 1)) d += 1
      }
    }
  }
}
