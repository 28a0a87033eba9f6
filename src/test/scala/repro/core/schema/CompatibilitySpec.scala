package repro.core.schema

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, JoinTree, Mvd, Reference, TestData}
import repro.data.RunningExample

class CompatibilitySpec extends AnyFunSuite {

  test("Thm 7.2: the support of the paper's join tree is pairwise compatible") {
    val t = JoinTree.fromSchema(RunningExample.paperSchema).get
    val sup = t.support
    assert(sup.size == 3)
    for { p <- sup; q <- sup if p != q } {
      assert(Compatibility.compatible(p, q), s"$p vs $q")
    }
  }

  /** Random join trees built bottom-up: each bag = separator drawn from its
    * parent's bag + globally fresh attributes, which guarantees the
    * running-intersection property by construction.
    */
  private def randomJoinTree(rnd: Random, maxAttrs: Int): Option[JoinTree] = {
    val bags = scala.collection.mutable.ArrayBuffer[AttrSet]()
    val parent = scala.collection.mutable.ArrayBuffer[Int]()
    var next = 0
    def freshAttrs(k: Int): AttrSet = {
      val s = AttrSet.fromSeq(next until math.min(next + k, maxAttrs))
      next = math.min(next + k, maxAttrs)
      s
    }
    bags += freshAttrs(1 + rnd.nextInt(3))
    parent += -1
    val nBags = 3 + rnd.nextInt(3)
    for (_ <- 1 until nBags if next < maxAttrs) {
      val p = rnd.nextInt(bags.size)
      val sep = AttrSet.fromSeq(bags(p).toSeq.filter(_ => rnd.nextBoolean()))
      val bag = sep | freshAttrs(1 + rnd.nextInt(2))
      if (!bags.exists(b => bag.subsetOf(b) || b.subsetOf(bag))) {
        bags += bag
        parent += p
      }
    }
    if (bags.size >= 3) Some(JoinTree(bags.toVector, parent.toVector)) else None
  }

  test("Thm 7.2 on random join trees: supports are pairwise compatible") {
    val rnd = new Random(31)
    var checked = 0
    for (trial <- 0 until 400) {
      randomJoinTree(rnd, maxAttrs = 12).foreach { t =>
        assert(JoinTree.hasRunningIntersection(t), s"trial=$trial tree=$t")
        val sup = t.support
        for { p <- sup; q <- sup if p != q } {
          assert(Compatibility.compatible(p, q), s"trial=$trial $p vs $q tree=$t")
          checked += 1
        }
      }
    }
    assert(checked > 100)
  }

  test("star support is compatible: X↠A|BC with X↠AB|C") {
    val x = AttrSet.of(0)
    val p = Mvd.of(x, Vector(AttrSet.of(1), AttrSet.of(2, 3)))
    val q = Mvd.of(x, Vector(AttrSet.of(1, 2), AttrSet.of(3)))
    assert(Compatibility.compatible(p, q))
  }

  test("crossing keys are incompatible: A↠B|C vs B↠A|C") {
    val p = Mvd.of(AttrSet.of(0), Vector(AttrSet.of(1), AttrSet.of(2)))
    val q = Mvd.of(AttrSet.of(1), Vector(AttrSet.of(0), AttrSet.of(2)))
    assert(Compatibility.incompatible(p, q))
  }

  test("compatibility is symmetric") {
    val rnd = new Random(41)
    for (_ <- 0 until 200) {
      val n = 5
      def randMvd(): Option[Mvd] = {
        val key = AttrSet.fromSeq((0 until n).filter(_ => rnd.nextDouble() < 0.3))
        val rest = AttrSet.range(n).diff(key).toSeq
        if (rest.size < 2) None
        else {
          val cut = 1 + rnd.nextInt(rest.size - 1)
          Some(Mvd.of(key, Vector(AttrSet.fromSeq(rest.take(cut)),
                                  AttrSet.fromSeq(rest.drop(cut)))))
        }
      }
      for { p <- randMvd(); q <- randMvd() } {
        assert(Compatibility.compatible(p, q) == Compatibility.compatible(q, p))
      }
    }
  }

  test("split violation is incompatible: key outside every single side") {
    // p = A ↠ B|CD, q = BC ↠ A|D: q's key {B,C} is split across p's sides.
    val p = Mvd.of(AttrSet.of(0), Vector(AttrSet.of(1), AttrSet.of(2, 3)))
    val q = Mvd.of(AttrSet.of(1, 2), Vector(AttrSet.of(0), AttrSet.of(3)))
    assert(Compatibility.incompatible(p, q))
  }

  test("agrees with the AttrSet rendering of Def. 7.1 on random MVD pairs") {
    val rnd = new Random(37)
    var incompatible = 0
    for (_ <- 0 until 5000) {
      val n = 2 + rnd.nextInt(8)
      val p = TestData.randomMvd(rnd, n)
      val q = TestData.randomMvd(rnd, n)
      val exp = Reference.compatible(p, q)
      assert(Compatibility.compatible(p, q) == exp, s"$p vs $q")
      assert(Compatibility.incompatible(p, q) == !exp, s"$p vs $q")
      if (!exp) incompatible += 1
    }
    assert(incompatible > 500 && incompatible < 4500, s"$incompatible of 5000 incompatible")
  }
}
