package repro.core.schema

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.Reference
import repro.util.Deadline

class MaxIndependentSetsSpec extends AnyFunSuite {

  private def collect(n: Int, adj: Array[Array[Boolean]],
                      limit: Int = Int.MaxValue): Set[Set[Int]] = {
    val out = scala.collection.mutable.Set.empty[Set[Int]]
    MaxIndependentSets.enumerate(n, adj, limit, Deadline.unlimited)(out += _)
    out.toSet
  }

  private def emptyGraph(n: Int) = Array.fill(n, n)(false)

  /** Each pair is an edge with probability `p`. */
  private def randomGraph(n: Int, p: Double, rnd: Random): Array[Array[Boolean]] = {
    val adj = emptyGraph(n)
    for { i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < p } {
      adj(i)(j) = true; adj(j)(i) = true
    }
    adj
  }

  /** Every emission, in order. */
  private def emissions(n: Int, adj: Array[Array[Boolean]], limit: Int): Vector[Set[Int]] = {
    val out = Vector.newBuilder[Set[Int]]
    MaxIndependentSets.enumerate(n, adj, limit, Deadline.unlimited)(out += _)
    out.result()
  }

  /** Edge probabilities for `n` vertices: about 6 edges, then 80 % and 95 % of all pairs. */
  private def densities(n: Int): Seq[Double] = Seq(12.0 / (n * (n - 1)), 0.8, 0.95)

  test("empty graph: the single MIS is the full vertex set") {
    assert(collect(4, emptyGraph(4)) == Set(Set(0, 1, 2, 3)))
    // one Bron–Kerbosch level per vertex: recursion that deep overflowed the stack
    assert(collect(3000, emptyGraph(3000)) == Set((0 until 3000).toSet))
  }

  test("complete graph: each vertex is its own MIS") {
    val adj = Array.tabulate(4, 4)((i, j) => i != j)
    assert(collect(4, adj) == Set(Set(0), Set(1), Set(2), Set(3)))
  }

  test("path graph 0-1-2: MIS are {0,2} and {1}") {
    val adj = emptyGraph(3)
    adj(0)(1) = true; adj(1)(0) = true
    adj(1)(2) = true; adj(2)(1) = true
    assert(collect(3, adj) == Set(Set(0, 2), Set(1)))
  }

  test("matches brute force on random graphs") {
    assert(collect(0, emptyGraph(0)) == Reference.maxIndependentSets(0, emptyGraph(0)))
    val rnd = new Random(17)
    for (trial <- 0 until 150) {
      val n = 2 + rnd.nextInt(7)
      val adj = emptyGraph(n)
      for { i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < 0.4 } {
        adj(i)(j) = true; adj(j)(i) = true
      }
      val got = collect(n, adj)
      val exp = Reference.maxIndependentSets(n, adj)
      assert(got == exp, s"trial=$trial got=$got exp=$exp")
    }
  }

  test("limit caps the number of emitted sets") {
    val adj = emptyGraph(6) // single MIS — use a graph with many instead
    for { i <- 0 until 6; j <- (i + 1) until 6 if (i + j) % 2 == 1 } {
      adj(i)(j) = true; adj(j)(i) = true
    }
    val all = collect(6, adj)
    if (all.size > 1) {
      val capped = collect(6, adj, limit = 1)
      assert(capped.size == 1)
      assert(capped.subsetOf(all))
    }
  }

  test("zero vertices: the empty set is the one MIS") {
    assert(emissions(0, emptyGraph(0), Int.MaxValue) == Vector(Set.empty[Int]))
    val ref = Vector.newBuilder[Set[Int]]
    Reference.bronKerbosch(0, emptyGraph(0), Int.MaxValue, Deadline.unlimited)(ref += _)
    assert(ref.result() == Vector(Set.empty[Int]))
  }

  test("every emitted set is independent and maximal") {
    val rnd = new Random(19)
    for (_ <- 0 until 50) {
      val n = 3 + rnd.nextInt(6)
      val adj = emptyGraph(n)
      for { i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < 0.5 } {
        adj(i)(j) = true; adj(j)(i) = true
      }
      collect(n, adj).foreach { s =>
        for { i <- s; j <- s if i != j } assert(!adj(i)(j))
        for (v <- 0 until n if !s.contains(v)) {
          assert(s.exists(u => adj(u)(v)), s"$s not maximal: $v addable")
        }
      }
    }
  }

  test("graphs of one to four words: same family as the Set-based Bron–Kerbosch") {
    val rnd = new Random(23)
    for { n <- Seq(63, 64, 65, 127, 128, 129, 200); p <- densities(n) } {
      val adj = randomGraph(n, p, rnd)
      val got = emissions(n, adj, Int.MaxValue)
      val exp = Set.newBuilder[Set[Int]]
      Reference.bronKerbosch(n, adj, Int.MaxValue, Deadline.unlimited)(exp += _)
      val expected = exp.result()
      assert(got.distinct.size == got.size, s"n=$n p=$p: a set was emitted twice")
      assert(got.toSet == expected, s"n=$n p=$p")
    }
  }

  test("a limit below the total emits exactly that many distinct maximal independent sets") {
    val rnd = new Random(29)
    for (n <- Seq(65, 129)) {
      val adj = randomGraph(n, 0.8, rnd)
      val total = emissions(n, adj, Int.MaxValue).size
      for (limit <- Seq(1, 7, total / 2, total - 1)) {
        val got = emissions(n, adj, limit)
        assert(got.size == limit && got.distinct.size == limit, s"n=$n limit=$limit of $total")
        got.foreach { s =>
          for { i <- s; j <- s if i != j } assert(!adj(i)(j))
          for (v <- 0 until n if !s.contains(v)) assert(s.exists(u => adj(u)(v)), s"$s + $v")
        }
      }
    }
  }
}
