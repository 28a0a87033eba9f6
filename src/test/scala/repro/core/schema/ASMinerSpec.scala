package repro.core.schema

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, JoinTree, Mvd, TestData}
import repro.core.mine.MvdMiner
import repro.data.RunningExample
import repro.util.Deadline

class ASMinerSpec extends AnyFunSuite {

  test("no MVDs yields only the universal schema") {
    val calc = TestData.calcOf(TestData.randomRelation(3, 20, 2, 1))
    val res = ASMiner.mine(calc, Vector.empty, AttrSet.range(3))
    assert(res.schemes.size == 1)
    assert(res.schemes.head.schema.bags == Vector(AttrSet.range(3)))
    assert(res.schemes.head.j == 0.0)
  }

  test("running example eps=0: all schemes exact, includes a 4-relation one") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val mined = MvdMiner.mine(calc, 6, eps = 0.0)
    val res = ASMiner.mine(calc, mined.mvds, AttrSet.range(6))
    assert(res.schemes.nonEmpty)
    res.schemes.foreach(s => assert(s.j < 1e-9, s.schema.toString))
    assert(res.schemes.exists(_.schema.nRelations >= 4))
  }

  test("schemes are deduplicated") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val mined = MvdMiner.mine(calc, 6, eps = 0.0)
    val res = ASMiner.mine(calc, mined.mvds, AttrSet.range(6))
    val keys = res.schemes.map(_.schema.bags.map(_.bits))
    assert(keys.distinct.size == keys.size)
  }

  test("every scheme is acyclic and covers Ω") {
    val calc = TestData.calcOf(TestData.structuredRelation(60, 5))
    val mined = MvdMiner.mine(calc, 4, eps = 0.2)
    val res = ASMiner.mine(calc, mined.mvds, AttrSet.range(4))
    res.schemes.foreach { s =>
      assert(JoinTree.fromSchema(s.schema).isDefined)
      assert(s.schema.attrs == AttrSet.range(4))
    }
  }

  test("Cor 5.2: J(S) <= (m-1)·eps for schemes built from ε-MVD support") {
    val eps = 0.3
    val calc = TestData.calcOf(TestData.randomRelation(5, 40, 2, 23))
    val mined = MvdMiner.mine(calc, 5, eps)
    val res = ASMiner.mine(calc, mined.mvds, AttrSet.range(5))
    res.schemes.foreach { s =>
      val bound = (s.schema.nRelations - 1) * eps
      assert(s.j <= bound + 1e-6, s"J=${s.j} > (m-1)ε=$bound for ${s.schema}")
    }
  }

  test("maxSchemes caps the enumeration") {
    val calc = TestData.calcOf(TestData.randomRelation(5, 30, 2, 29))
    val mined = MvdMiner.mine(calc, 5, eps = 0.5)
    if (mined.mvds.size >= 2) {
      val capped = ASMiner.mine(calc, mined.mvds, AttrSet.range(5), maxSchemes = 1)
      assert(capped.schemes.size <= 1)
    }
  }

  test("a run cut by maxSchemes is labelled capped, an uncut run is not") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val mined = MvdMiner.mine(calc, 6, eps = 0.0)
    val all = ASMiner.mine(calc, mined.mvds, AttrSet.range(6))
    assert(all.schemes.size >= 2 && !all.capped)
    val cut = ASMiner.mine(calc, mined.mvds, AttrSet.range(6), maxSchemes = 1)
    assert(cut.capped && cut.schemes.size == 1)
  }

  test("support of each scheme is pairwise compatible") {
    val calc = TestData.calcOf(TestData.structuredRelation(60, 7))
    val mined = MvdMiner.mine(calc, 4, eps = 0.3)
    val res = ASMiner.mine(calc, mined.mvds, AttrSet.range(4))
    res.schemes.foreach { s =>
      for { p <- s.support; q <- s.support if p != q } {
        assert(Compatibility.compatible(p, q))
      }
    }
  }

  test("the deadline is checked while the incompatibility graph is built") {
    val rnd = new Random(41)
    val mvds = Vector.fill(6000)(TestData.randomMvd(rnd, 12))
    val calc = TestData.calcOf(TestData.randomRelation(12, 20, 2, 1))
    val t0 = System.nanoTime()
    val res = ASMiner.mine(calc, mvds, AttrSet.range(12), timeLimitMs = 0L)
    val ms = (System.nanoTime() - t0) / 1000000L
    assert(res.timedOut && res.schemes.isEmpty && res.mis == 0)
    // the limit must cut the graph build itself, not only the enumeration after it
    assert(ms < 1000L, s"a 0 ms limit returned after $ms ms")
    assert(ASMiner.incompatibilityGraph(mvds, Deadline.ofMs(0L)).isEmpty)
  }

  test("the result counts the maximal independent sets it enumerated") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val mined = MvdMiner.mine(calc, 6, eps = 0.0)
    val res = ASMiner.mine(calc, mined.mvds, AttrSet.range(6))
    var family = 0
    MaxIndependentSets.enumerate(mined.mvds.size,
      Array.tabulate(mined.mvds.size, mined.mvds.size)((i, j) =>
        Compatibility.incompatible(mined.mvds(i), mined.mvds(j))),
      Int.MaxValue, Deadline.unlimited)(_ => family += 1)
    assert(res.mis == family && res.mis >= res.schemes.size)
    assert(res.graphMs >= 0L && res.enumMs >= 0L && res.graphMs + res.enumMs <= res.elapsedMs)
  }
}
