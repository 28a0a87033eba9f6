package repro.core.schema

import scala.collection.mutable
import repro.util.Deadline

/** Enumeration of the maximal independent sets of a graph (paper Thm 7.3).
  *
  * A maximal independent set of G is a maximal clique of the complement
  * graph, so we run Bron–Kerbosch with pivoting on the complement. The
  * polynomial-delay enumerators of [11, 22] produce the same family; we cap
  * output count and wall time instead of bounding delay.
  */
object MaxIndependentSets {

  /** Emit maximal independent sets of the graph with `n` vertices and
    * adjacency `adj` until `limit` sets are emitted or the deadline fires.
    */
  def enumerate(n: Int, adj: Array[Array[Boolean]], limit: Int, deadline: Deadline)(
      emit: Set[Int] => Unit): Unit = {
    if (n == 0) return
    // complement adjacency: clique in cAdj == independent set in adj
    val cAdj = Array.tabulate(n, n)((i, j) => i != j && !adj(i)(j))
    var emitted = 0

    def bk(r: Set[Int], p0: Set[Int], x0: Set[Int]): Unit = {
      if (emitted >= limit || deadline.exceeded) return
      if (p0.isEmpty && x0.isEmpty) {
        emitted += 1
        emit(r)
        return
      }
      // pivot: vertex of P ∪ X maximizing complement-neighbors in P
      val pivot = (p0 ++ x0).maxBy(u => p0.count(cAdj(u)))
      var p = p0
      var x = x0
      for (v <- p0 if !cAdj(pivot)(v)) {
        if (emitted < limit && !deadline.exceeded) {
          val nv = (0 until n).filter(cAdj(v)).toSet
          bk(r + v, p.filter(nv), x.filter(nv))
          p -= v
          x += v
        }
      }
    }

    bk(Set.empty, (0 until n).toSet, Set.empty)
  }
}
