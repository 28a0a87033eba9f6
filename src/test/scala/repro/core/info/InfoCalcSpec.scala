package repro.core.info

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, JoinTree, Mvd, Reference, Schema, TestData}
import repro.data.RunningExample

class InfoCalcSpec extends AnyFunSuite {

  private def randCalc(seed: Int) =
    TestData.calcOf(TestData.randomRelation(5, 40, 3, seed))

  test("I(Y;Z|X) is non-negative (Eq. 3)") {
    for (seed <- 0 until 10) {
      val calc = randCalc(seed)
      val omega = AttrSet.range(5)
      for {
        x <- AttrSet.subsetsOf(omega).toVector
        rest = omega.diff(x)
        y <- AttrSet.subsetsOf(rest).toVector if y.nonEmpty
        z = rest.diff(y) if z.nonEmpty
      } assert(calc.cmi(y, z, x) >= 0.0)
    }
  }

  test("chain rule I(B;CD|A) = I(B;C|A) + I(B;D|AC) (Eq. 4)") {
    for (seed <- 0 until 20) {
      val calc = randCalc(seed)
      val a = AttrSet.of(0); val b = AttrSet.of(1)
      val c = AttrSet.of(2); val d = AttrSet.of(3)
      val lhs = calc.cmi(b, c | d, a)
      val rhs = calc.cmi(b, c, a) + calc.cmi(b, d, a | c)
      assert(math.abs(lhs - rhs) < 1e-9, s"seed=$seed lhs=$lhs rhs=$rhs")
    }
  }

  test("J of a standard MVD equals I(Y;Z|X)") {
    for (seed <- 0 until 20) {
      val calc = randCalc(seed)
      val x = AttrSet.of(0); val y = AttrSet.of(1, 2); val z = AttrSet.of(3, 4)
      val j = calc.jMvd(Mvd.of(x, Vector(y, z)))
      assert(math.abs(j - calc.cmi(y, z, x)) < 1e-9)
    }
  }

  test("running example: J of the paper schema is 0 on the clean relation") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    assert(calc.jSchema(RunningExample.paperSchema) < 1e-9)
  }

  test("running example: all three support MVDs hold exactly on clean data") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val t = JoinTree.fromSchema(RunningExample.paperSchema).get
    t.support.foreach { phi => assert(calc.jMvd(phi) < 1e-9, phi.toString) }
  }

  test("running example: red tuple breaks the schema but keeps A ↠ F|BCDE") {
    import RunningExample._
    val calc = TestData.calcOf(withRedEncoded)
    assert(calc.jSchema(paperSchema) > 0.01)
    val aToF = Mvd.of(AttrSet.of(A), Vector(AttrSet.of(F), AttrSet.of(B, C, D, E)))
    assert(calc.jMvd(aToF) < 1e-9)
    val bdToE = Mvd.of(AttrSet.of(B, D), Vector(AttrSet.of(E), AttrSet.of(A, C, F)))
    val adToCf = Mvd.of(AttrSet.of(A, D), Vector(AttrSet.of(C, F), AttrSet.of(B, E)))
    assert(calc.jMvd(bdToE) > 0.01)
    assert(calc.jMvd(adToCf) > 0.01)
  }

  test("Sec 5.2 counterexample: two-tuple relation with eps=1") {
    // R = {(0,0,0),(1,1,1)} over A,B,C with empty key X.
    // J(X↠AB|C)=J(X↠AC|B)=J(X↠BC|A)=1 but J(X↠A|B|C)=2.
    val rel = repro.core.entropy.EncodedRelation(
      Vector("A", "B", "C"), Array(Array(0, 0, 0), Array(1, 1, 1)))
    val calc = TestData.calcOf(rel)
    val x = AttrSet.empty
    def j(deps: AttrSet*) = calc.jMvd(Mvd.of(x, deps.toVector))
    assert(math.abs(j(AttrSet.of(0, 1), AttrSet.of(2)) - 1.0) < 1e-9)
    assert(math.abs(j(AttrSet.of(0, 2), AttrSet.of(1)) - 1.0) < 1e-9)
    assert(math.abs(j(AttrSet.of(1, 2), AttrSet.of(0)) - 1.0) < 1e-9)
    assert(math.abs(j(AttrSet.of(0), AttrSet.of(1), AttrSet.of(2)) - 2.0) < 1e-9)
  }

  test("refinement monotonicity (Prop 5.2): J(φ) >= J(ψ) when φ refines ψ") {
    for (seed <- 0 until 15) {
      val calc = randCalc(seed)
      val key = AttrSet.of(0)
      val fine = Reference.finest(key, AttrSet.range(5))
      val coarse1 = Reference.merge(fine, 0, 1)
      val coarse2 = Reference.merge(coarse1, 0, 1)
      assert(calc.jMvd(fine) >= calc.jMvd(coarse1) - 1e-9)
      assert(calc.jMvd(coarse1) >= calc.jMvd(coarse2) - 1e-9)
    }
  }

  test("key monotonicity (Prop 5.1 Eq. 8): J(XZ ↠ Y1|Y2) <= J(X ↠ Y1Z|Y2)") {
    for (seed <- 0 until 15) {
      val calc = randCalc(seed)
      val bigger = Mvd.of(AttrSet.of(0), Vector(AttrSet.of(1, 2), AttrSet.of(3, 4)))
      val moved = Mvd.of(AttrSet.of(0, 2), Vector(AttrSet.of(1), AttrSet.of(3, 4)))
      assert(calc.jMvd(moved) <= calc.jMvd(bigger) + 1e-9)
    }
  }

  test("join inequality (Lemma 5.4): J(φ∨ψ) <= J(φ) + m·J(ψ)") {
    for (seed <- 0 until 15) {
      val calc = randCalc(seed)
      val key = AttrSet.empty
      val phi = Mvd.of(key, Vector(AttrSet.of(0, 1), AttrSet.of(2, 3, 4)))
      val psi = Mvd.of(key, Vector(AttrSet.of(0, 2), AttrSet.of(1, 3, 4)))
      val join = Reference.vee(phi, psi)
      val m = phi.arity; val k = psi.arity
      assert(calc.jMvd(join) <= calc.jMvd(phi) + m * calc.jMvd(psi) + 1e-9)
      assert(calc.jMvd(join) <= k * calc.jMvd(phi) + calc.jMvd(psi) + 1e-9)
      assert(calc.jMvd(join) >= math.max(calc.jMvd(phi), calc.jMvd(psi)) - 1e-9)
    }
  }

  test("Lee: J(S) is independent of the join tree (Thm in Sec 3.2)") {
    // {XU, XV, XW}: trees XU-XV-XW and XU-XW-XV must give the same J.
    for (seed <- 0 until 15) {
      val calc = randCalc(seed)
      val bags = Vector(AttrSet.of(0, 1), AttrSet.of(0, 2), AttrSet.of(0, 3))
      val t1 = JoinTree(bags, Vector(-1, 0, 1)) // chain XU-XV-XW
      val t2 = JoinTree(bags, Vector(-1, 0, 0)) // star at XU
      assert(JoinTree.hasRunningIntersection(t1))
      assert(JoinTree.hasRunningIntersection(t2))
      assert(math.abs(calc.jTree(t1) - calc.jTree(t2)) < 1e-9)
    }
  }

  test("Thm 5.1 Eq. 9: J(T) = sum of I(Ω_{1:i-1}; Ω_i | Δ_i) over a DFS order") {
    val calc = TestData.calcOf(RunningExample.withRedEncoded)
    val t = JoinTree.fromSchema(RunningExample.paperSchema).get
    // accumulate depth-first from the root
    val root = t.parent.indexOf(-1)
    var acc = t.bags(root)
    var total = 0.0
    def visit(node: Int): Unit = {
      for (c <- t.children(node)) {
        val delta = t.bags(c) & t.bags(node)
        total += calc.cmi(acc, t.bags(c), delta)
        acc = acc | t.bags(c)
        visit(c)
      }
    }
    visit(root)
    assert(math.abs(total - calc.jTree(t)) < 1e-9)
  }

  test("Thm 5.1 Eq. 10: max over support <= J(T) <= sum over support") {
    for (seed <- 0 until 10) {
      val rel = TestData.structuredRelation(60, seed)
      val calc = TestData.calcOf(rel)
      val schema = Schema.of(Vector(AttrSet.of(0, 1), AttrSet.of(0, 2), AttrSet.of(0, 3)))
      val t = JoinTree.fromSchema(schema).get
      val js = t.support.map(calc.jMvd)
      val j = calc.jTree(t)
      assert(js.max <= j + 1e-9)
      assert(j <= js.sum + 1e-9)
    }
  }

  test("holds applies the epsilon threshold with tolerance") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val t = JoinTree.fromSchema(RunningExample.paperSchema).get
    t.support.foreach(phi => assert(calc.holds(phi, 0.0)))
  }
}
