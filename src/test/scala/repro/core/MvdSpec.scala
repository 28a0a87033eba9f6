package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MvdSpec extends AnyFunSuite {

  private val X = AttrSet.of(0)
  private def m(key: AttrSet, deps: AttrSet*): Mvd = Mvd.of(key, deps)

  test("of normalizes dependent order") {
    val a = m(X, AttrSet.of(3), AttrSet.of(1, 2))
    val b = m(X, AttrSet.of(1, 2), AttrSet.of(3))
    assert(a == b)
  }

  test("of rejects overlapping dependents") {
    intercept[IllegalArgumentException] {
      m(X, AttrSet.of(1, 2), AttrSet.of(2, 3))
    }
  }

  test("of rejects dependents overlapping the key") {
    intercept[IllegalArgumentException] {
      m(X, AttrSet.of(0, 1), AttrSet.of(2))
    }
  }

  test("of rejects fewer than two dependents") {
    intercept[IllegalArgumentException] { m(X, AttrSet.of(1, 2)) }
  }

  test("of drops empty dependents") {
    val a = Mvd.of(X, Vector(AttrSet.of(1), AttrSet.empty, AttrSet.of(2)))
    assert(a.arity == 2)
  }

  test("attrs is key plus all dependents") {
    assert(m(X, AttrSet.of(1), AttrSet.of(2, 3)).attrs == AttrSet.of(0, 1, 2, 3))
  }

  test("separates") {
    val phi = m(X, AttrSet.of(1, 2), AttrSet.of(3))
    assert(Reference.separates(phi, 1, 3))
    assert(!Reference.separates(phi, 1, 2))
    assert(!Reference.separates(phi, 0, 1)) // key attr is in no dependent
  }

  test("X ↠ A|B|C refines X ↠ AB|C (paper example)") {
    val fine = m(X, AttrSet.of(1), AttrSet.of(2), AttrSet.of(3))
    val coarse = m(X, AttrSet.of(1, 2), AttrSet.of(3))
    assert(Reference.refines(fine, coarse))
    assert(Reference.strictlyRefines(fine, coarse))
    assert(!Reference.refines(coarse, fine))
    assert(Reference.refines(fine, fine) && !Reference.strictlyRefines(fine, fine))
  }

  test("refines requires equal keys") {
    val a = m(AttrSet.of(0), AttrSet.of(1), AttrSet.of(2))
    val b = m(AttrSet.of(3), AttrSet.of(1), AttrSet.of(2))
    assert(!Reference.refines(a, b))
  }

  test("merge unions two dependents") {
    val phi = m(X, AttrSet.of(1), AttrSet.of(2), AttrSet.of(3))
    val merged = Reference.merge(phi, 0, 2) // deps sorted: {1},{2},{3} → merge {1} and {3}
    assert(merged.arity == 2)
    assert(merged.deps.contains(AttrSet.of(1, 3)))
    assert(Reference.refines(phi, merged))
  }

  test("vee is the coarsest common refinement") {
    val phi = m(X, AttrSet.of(1, 2), AttrSet.of(3, 4))
    val psi = m(X, AttrSet.of(1, 3), AttrSet.of(2, 4))
    val j = Reference.vee(phi, psi)
    assert(j.arity == 4)
    assert(Reference.refines(j, phi) && Reference.refines(j, psi))
    assert(j.deps.toSet == Set(AttrSet.of(1), AttrSet.of(2), AttrSet.of(3), AttrSet.of(4)))
  }

  test("vee with itself is identity") {
    val phi = m(X, AttrSet.of(1, 2), AttrSet.of(3))
    assert(Reference.vee(phi, phi) == phi)
  }

  test("standardize isolates one dependent against the rest") {
    val phi = m(X, AttrSet.of(1), AttrSet.of(2), AttrSet.of(3))
    val std = Reference.standardize(phi, 0)
    assert(std.arity == 2)
    assert(std.deps.toSet == Set(AttrSet.of(1), AttrSet.of(2, 3)))
    assert(Reference.refines(phi, std))
  }

  test("finest builds all-singleton dependents") {
    val phi = Reference.finest(AttrSet.of(0, 1), AttrSet.range(5))
    assert(phi.arity == 3)
    assert(phi.deps.forall(_.size == 1))
    assert(phi.attrs == AttrSet.range(5))
  }

  test("render uses names") {
    val phi = m(X, AttrSet.of(1), AttrSet.of(2))
    assert(phi.render(Seq("A", "B", "C")) == "{A} ↠ {B} | {C}")
  }
}
