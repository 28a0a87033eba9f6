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
}
