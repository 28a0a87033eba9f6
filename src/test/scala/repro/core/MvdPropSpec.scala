package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

/** Property tests over randomly generated MVDs. */
class MvdPropSpec extends AnyFunSuite with PropSupport {

  private val n = 8

  /** Random MVD over `n` attributes with 2..4 dependents. */
  private val genMvd: Gen[Mvd] = for {
    keyBits <- Gen.choose(0, (1 << n) - 1)
    key = AttrSet(keyBits.toLong & ((1L << n) - 1))
    restSeq = AttrSet.range(n).diff(key).toSeq if restSeq.size >= 2
    nDeps <- Gen.choose(2, math.min(4, restSeq.size))
    assignment <- Gen.listOfN(restSeq.size, Gen.choose(0, nDeps - 1))
  } yield {
    // ensure every dependent is non-empty by seeding the first nDeps attrs
    val fixed = assignment.zipWithIndex.map { case (d, i) => if (i < nDeps) i else d }
    val deps = (0 until nDeps).map { d =>
      AttrSet.fromSeq(restSeq.zip(fixed).collect { case (a, dd) if dd == d => a })
    }
    Mvd.of(key, deps)
  }

  test("attrs = key ∪ deps and deps partition attrs∖key") {
    checkProp(Prop.forAll(genMvd) { m =>
      val depUnion = m.deps.foldLeft(AttrSet.empty)(_ | _)
      m.attrs == (m.key | depUnion) && depUnion == m.attrs.diff(m.key)
    })
  }

  test("refines is reflexive") {
    checkProp(Prop.forAll(genMvd) { m => Reference.refines(m, m) && !Reference.strictlyRefines(m, m) })
  }

  test("merge coarsens: m refines m.merge(i,j)") {
    checkProp(Prop.forAll(genMvd) { m =>
      m.arity < 3 || {
        val merged = Reference.merge(m, 0, 1)
        Reference.refines(m, merged) && merged.arity == m.arity - 1
      }
    })
  }

  test("vee refines both operands and is commutative") {
    checkProp(Prop.forAll(genMvd, genMvd) { (a, b0) =>
      // rekey b to a's key so vee is defined; drop cases where deps collapse
      val rest = a.attrs.diff(a.key)
      val bDeps = b0.deps.map(_ & rest).filter(_.nonEmpty)
      if (bDeps.size < 2) true
      else {
        // bDeps may not partition rest: pad with the remainder
        val covered = bDeps.foldLeft(AttrSet.empty)(_ | _)
        val rem = rest.diff(covered)
        val deps = if (rem.isEmpty) bDeps else bDeps :+ rem
        // deps must be disjoint — b0's deps are disjoint, rem is disjoint ✓
        val b = Mvd.of(a.key, deps)
        val j1 = Reference.vee(a, b)
        val j2 = Reference.vee(b, a)
        j1 == j2 && Reference.refines(j1, a) && Reference.refines(j1, b)
      }
    })
  }

  test("standardize yields a 2-ary coarsening") {
    checkProp(Prop.forAll(genMvd) { m =>
      (0 until m.arity).forall { i =>
        val s = Reference.standardize(m, i)
        s.arity == 2 && Reference.refines(m, s) && s.deps.contains(m.deps(i))
      }
    })
  }

  test("separates is symmetric and key attrs separate nothing") {
    checkProp(Prop.forAll(genMvd) { m =>
      val attrs = (0 until n).filter(m.attrs.contains)
      attrs.forall { a => attrs.forall { b =>
        Reference.separates(m, a, b) == Reference.separates(m, b, a) &&
        (!m.key.contains(a) || !Reference.separates(m, a, b))
      }}
    })
  }
}
