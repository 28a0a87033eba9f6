package repro.core.mine

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, Reference, TestData}
import repro.util.Deadline

class MinSepMinerSpec extends AnyFunSuite {

  private def miner(calc: repro.core.info.InfoCalc, n: Int, eps: Double) =
    new MinSepMiner(new MvdLattice(calc, AttrSet.range(n), eps, Deadline.unlimited))

  test("matches brute force on random relations (eps=0)") {
    for (seed <- 0 until 20) {
      val rel = TestData.randomRelation(5, 25, 2, seed + 1000)
      val calc = TestData.calcOf(rel)
      val m = miner(calc, 5, 0.0)
      val got = m.mineMinSeps(0, 1).toSet
      val exp = Reference.minSeps(calc, AttrSet.range(5), 0.0, 0, 1).toSet
      assert(got == exp, s"seed=$seed got=$got exp=$exp")
    }
  }

  test("matches brute force on random relations (eps>0)") {
    val rnd = new Random(21)
    for (seed <- 0 until 30) {
      val rel = TestData.randomRelation(5, 20 + rnd.nextInt(20), 3, seed + 2000)
      val calc = TestData.calcOf(rel)
      val eps = Seq(0.05, 0.2, 0.5)(seed % 3)
      val pair = Seq((0, 1), (1, 3), (2, 4))(seed % 3)
      val m = miner(calc, 5, eps)
      val got = m.mineMinSeps(pair._1, pair._2).toSet
      val exp = Reference.minSeps(calc, AttrSet.range(5), eps, pair._1, pair._2).toSet
      assert(got == exp, s"seed=$seed eps=$eps pair=$pair got=$got exp=$exp")
    }
  }

  test("no separator when the pair is entangled at eps=0") {
    // B = A (copy column): I(A;B|anything) > 0 always, so nothing separates.
    val rows = Array.tabulate(20)(i => Array(i % 4, i % 4, i % 3))
    val rel = repro.core.entropy.EncodedRelation(Vector("A", "B", "C"), rows)
    val calc = TestData.calcOf(rel)
    val m = miner(calc, 3, 0.0)
    assert(m.mineMinSeps(0, 1).isEmpty)
  }

  test("huge epsilon makes the empty set the only minimal separator") {
    val rel = TestData.randomRelation(4, 30, 3, 5)
    val calc = TestData.calcOf(rel)
    val m = miner(calc, 4, 100.0)
    assert(m.mineMinSeps(0, 1) == Vector(AttrSet.empty))
  }

  test("independent column: empty set separates it at eps=0 on a product relation") {
    // Full cartesian product of two columns — exactly independent.
    val rows = for { a <- 0 until 4; b <- 0 until 3 } yield Array(a, b)
    val rel = repro.core.entropy.EncodedRelation(Vector("A", "B"), rows.toArray)
    val calc = TestData.calcOf(rel)
    val m = miner(calc, 2, 0.0)
    assert(m.mineMinSeps(0, 1) == Vector(AttrSet.empty))
  }

  test("FD column: A -> C gives {A} as a minimal C-vs-others separator") {
    val rel = TestData.structuredRelation(100, 4) // C = f(A)
    val calc = TestData.calcOf(rel)
    val m = miner(calc, 4, 0.0)
    val seps = m.mineMinSeps(2, 3) // C vs D
    assert(seps.nonEmpty)
    assert(seps.forall(_.subsetOf(AttrSet.of(0, 1))))
    // {A} or a subset of it must appear: H(C|A)=0 makes A alone sufficient.
    assert(seps.exists(_.subsetOf(AttrSet.of(0))))
  }

  test("reduceMinSep returns a subset that still separates and is minimal") {
    for (seed <- 0 until 10) {
      val rel = TestData.randomRelation(5, 30, 3, seed + 3000)
      val calc = TestData.calcOf(rel)
      val m = miner(calc, 5, 0.5)
      val ground = AttrSet.range(5) - 0 - 1
      if (m.separates(ground, 0, 1)) {
        val red = m.reduceMinSep(ground, 0, 1)
        assert(red.subsetOf(ground))
        assert(m.separates(red, 0, 1))
        red.toSeq.foreach { i => assert(!m.separates(red - i, 0, 1)) }
      }
    }
  }

  test("separators never contain the pair") {
    for (seed <- 0 until 10) {
      val rel = TestData.randomRelation(5, 25, 3, seed + 4000)
      val calc = TestData.calcOf(rel)
      val m = miner(calc, 5, 0.3)
      val seps = m.mineMinSeps(1, 2)
      seps.foreach { s => assert(!s.contains(1) && !s.contains(2)) }
      assert(seps.distinct.size == seps.size)
    }
  }

  test("a cut deadline reports a prefix of the unlimited miner's separators") {
    // a 3-column product relation: ∅ separates every pair at eps = 0, so a
    // reduction of {2} that the deadline cuts at once is not minimal
    val product = for { a <- 0 until 3; b <- 0 until 2; c <- 0 until 2 } yield Array(a, b, c)
    val calc = TestData.calcOf(repro.core.entropy.EncodedRelation(Vector("A", "B", "C"), product.toArray))
    val all = miner(calc, 3, 0.0).mineMinSeps(0, 1)
    assert(all == Vector(AttrSet.empty))
    val cut = new MinSepMiner(new MvdLattice(calc, AttrSet.range(3), 0.0, Deadline.ofMs(0)))
    val got = cut.mineMinSeps(0, 1)
    assert(all.startsWith(got), s"cut run returned $got, the minimal separators are $all")
    // wider relations, cut after 0-2 ms
    for (seed <- 0 until 10; eps <- Seq(0.0, 0.3); limitMs <- Seq(0L, 1L, 2L)) {
      val calc = TestData.calcOf(TestData.randomRelation(8, 40, 3, seed + 5000))
      for ((a, b) <- Seq((0, 1), (2, 7))) {
        val all = miner(calc, 8, eps).mineMinSeps(a, b)
        val lattice = new MvdLattice(calc, AttrSet.range(8), eps, Deadline.ofMs(limitMs))
        val got = new MinSepMiner(lattice).mineMinSeps(a, b)
        assert(all.startsWith(got), s"seed=$seed eps=$eps limit=$limitMs pair=($a,$b): $got vs $all")
      }
    }
  }
}
