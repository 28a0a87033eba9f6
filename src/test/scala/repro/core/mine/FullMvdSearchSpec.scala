package repro.core.mine

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, Mvd, TestData}
import repro.core.info.InfoCalc
import repro.util.Deadline

class FullMvdSearchSpec extends AnyFunSuite {

  /** Exponential reference: enumerate all partitions of Ω\X, keep ε-holding
    * ones separating (a,b), then keep the unrefinable (full) ones.
    */
  private def bruteFull(calc: InfoCalc, omega: AttrSet, key: AttrSet, eps: Double,
                        a: Int, b: Int): Set[Mvd] = {
    val parts = TestData.allPartitions(omega.diff(key)).filter(_.size >= 2)
    val holding = parts.map(p => Mvd.of(key, p))
      .filter(m => m.separates(a, b) && calc.holds(m, eps))
    holding.filter(m => !holding.exists(o => o.strictlyRefines(m))).toSet
  }

  private def search(calc: InfoCalc, omega: AttrSet, key: AttrSet, eps: Double,
                     a: Int, b: Int): Set[Mvd] =
    FullMvdSearch.fullMvds(calc, omega, key, eps, a, b, Int.MaxValue, Deadline.unlimited).toSet

  test("matches brute force on random relations (eps=0)") {
    for (seed <- 0 until 25) {
      val rel = TestData.randomRelation(5, 30, 2, seed)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(5)
      val got = search(calc, omega, AttrSet.of(0), 0.0, 1, 2)
      val exp = bruteFull(calc, omega, AttrSet.of(0), 0.0, 1, 2)
      assert(got == exp, s"seed=$seed got=$got exp=$exp")
    }
  }

  test("matches brute force on random relations (eps>0)") {
    val rnd = new Random(11)
    for (seed <- 0 until 40) {
      val rel = TestData.randomRelation(5, 20 + rnd.nextInt(30), 3, seed + 100)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(5)
      val eps = Seq(0.05, 0.2, 0.5, 1.0)(seed % 4)
      val key = if (seed % 2 == 0) AttrSet.empty else AttrSet.of(4)
      val got = search(calc, omega, key, eps, 1, 2)
      val exp = bruteFull(calc, omega, key, eps, 1, 2)
      assert(got == exp, s"seed=$seed eps=$eps got=$got exp=$exp")
    }
  }

  test("every returned MVD holds, separates the pair, and has the right key") {
    for (seed <- 0 until 10) {
      val rel = TestData.structuredRelation(50, seed)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(4)
      val got = search(calc, omega, AttrSet.of(0), 0.3, 1, 3)
      got.foreach { m =>
        assert(m.key == AttrSet.of(0))
        assert(m.separates(1, 3))
        assert(calc.holds(m, 0.3))
        assert(m.attrs == omega)
      }
    }
  }

  test("k=1 existence probe agrees with brute-force existence") {
    for (seed <- 0 until 30) {
      val rel = TestData.randomRelation(5, 25, 2, seed + 500)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(5)
      for (eps <- Seq(0.0, 0.1, 0.6)) {
        val probe = FullMvdSearch
          .fullMvds(calc, omega, AttrSet.of(3), eps, 0, 1, 1, Deadline.unlimited)
        val exists = bruteFull(calc, omega, AttrSet.of(3), eps, 0, 1).nonEmpty
        assert(probe.nonEmpty == exists, s"seed=$seed eps=$eps")
      }
    }
  }

  test("huge epsilon yields the finest partition") {
    val rel = TestData.randomRelation(5, 30, 3, 77)
    val calc = TestData.calcOf(rel)
    val got = search(calc, AttrSet.range(5), AttrSet.of(0), 100.0, 1, 2)
    assert(got == Set(Mvd.finest(AttrSet.of(0), AttrSet.range(5))))
  }

  test("FD key: A -> C makes {A} separate C from everything") {
    val rel = TestData.structuredRelation(80, 3) // C = f(A)
    val calc = TestData.calcOf(rel)
    val got = search(calc, AttrSet.range(4), AttrSet.of(0), 0.0, 2, 3)
    assert(got.nonEmpty)
    got.foreach(m => assert(m.separates(2, 3)))
  }

  test("pairwiseConsistent merges inconsistent dependents or returns None") {
    val rel = TestData.randomRelation(4, 30, 2, 9)
    val calc = TestData.calcOf(rel)
    val finest = Mvd.finest(AttrSet.empty, AttrSet.range(4))
    FullMvdSearch.pairwiseConsistent(calc, finest, 0.0, 0, 1, Deadline.unlimited) match {
      case None => succeed // a,b were forced together — legal outcome
      case Some(phi) =>
        assert(phi.separates(0, 1))
        for {
          i <- 0 until phi.arity; j <- (i + 1) until phi.arity
        } assert(calc.cmi(phi.deps(i), phi.deps(j), phi.key) <= InfoCalc.Tol)
    }
  }

  test("minimizeFull removes refined MVDs") {
    val key = AttrSet.of(0)
    val fine = Mvd.of(key, Vector(AttrSet.of(1), AttrSet.of(2), AttrSet.of(3)))
    val coarse = Mvd.of(key, Vector(AttrSet.of(1, 2), AttrSet.of(3)))
    assert(FullMvdSearch.minimizeFull(Vector(fine, coarse), Deadline.unlimited) == Vector(fine))
    assert(FullMvdSearch.minimizeFull(Vector(coarse), Deadline.unlimited) == Vector(coarse))
  }

  test("minimizeFull stops at the deadline and keeps only confirmed full MVDs") {
    // 20 000 distinct MVDs with key {0}: random partitions of 1..12
    val rnd = new Random(17)
    val key = AttrSet.of(0)
    val distinct = scala.collection.mutable.LinkedHashSet.empty[Mvd]
    while (distinct.size < 20000) {
      val deps = Array.fill(6)(AttrSet.empty)
      for (a <- 1 to 12) { val d = rnd.nextInt(6); deps(d) = deps(d) + a }
      if (deps.count(_.nonEmpty) >= 2) distinct += Mvd.of(key, deps.toVector)
    }
    val mvds = distinct.toVector
    for (limitMs <- Seq(0L, 100L)) {
      val deadline = Deadline.ofMs(limitMs)
      val got = FullMvdSearch.minimizeFull(mvds, deadline)
      assert(deadline.elapsedMs < 1000, s"limit $limitMs ms: returned after ${deadline.elapsedMs} ms")
      for (phi <- got) assert(!mvds.exists(_.strictlyRefines(phi)), s"$phi is refined")
    }
  }

  test("deadline aborts the search gracefully") {
    val rel = TestData.randomRelation(8, 40, 6, 13)
    val calc = TestData.calcOf(rel)
    val fired = Deadline.ofMs(0)
    Thread.sleep(5)
    val got = FullMvdSearch.fullMvds(calc, AttrSet.range(8), AttrSet.empty,
                                     0.0, 0, 1, Int.MaxValue, fired)
    assert(got.isEmpty) // the DFS pops no node once the deadline has fired
  }
}
