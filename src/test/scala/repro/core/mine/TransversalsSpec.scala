package repro.core.mine

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, Reference}

class TransversalsSpec extends AnyFunSuite {

  /** Exponential reference: minimal hitting sets by scanning all subsets. */
  private def brute(edges: Seq[AttrSet], ground: AttrSet): Set[AttrSet] = {
    val hits = AttrSet.subsetsOf(ground)
      .filter(d => edges.forall(e => d.intersects(e & ground)))
      .toVector
    hits.filter(d => !hits.exists(o => o.strictSubsetOf(d))).toSet
  }

  /** The family after one Berge step per edge, from the empty family. */
  private def fold(edges: Seq[AttrSet]): Vector[AttrSet] = {
    val trs = new Transversals
    edges.foreach(trs.addEdge)
    trs.family.map(_._1)
  }

  test("transversals of an empty family is {∅}") {
    assert(fold(Nil) == Vector(AttrSet.empty))
  }

  test("a family containing the empty edge has no transversal") {
    assert(fold(Seq(AttrSet.empty)).isEmpty)
  }

  test("an edge outside the ground set has no transversal") {
    // the word family has no ground: every edge of the miner is inside it
    assert(Reference.minimal(Seq(AttrSet.of(5)), AttrSet.range(4)).isEmpty)
  }

  test("single edge: transversals are its singletons") {
    val trs = fold(Seq(AttrSet.of(1, 3)))
    assert(trs.toSet == Set(AttrSet.of(1), AttrSet.of(3)))
  }

  test("two disjoint edges: transversals are the cross product") {
    val trs = fold(Seq(AttrSet.of(0, 1), AttrSet.of(2, 3)))
    assert(trs.toSet == Set(
      AttrSet.of(0, 2), AttrSet.of(0, 3), AttrSet.of(1, 2), AttrSet.of(1, 3)))
  }

  test("overlapping edges: shared vertex is a singleton transversal") {
    val trs = fold(Seq(AttrSet.of(0, 1), AttrSet.of(1, 2)))
    assert(trs.contains(AttrSet.of(1)))
    assert(trs.toSet == Set(AttrSet.of(1), AttrSet.of(0, 2)))
  }

  test("matches brute force on random hypergraphs") {
    val rnd = new Random(3)
    for (trial <- 0 until 200) {
      val n = 3 + rnd.nextInt(5)
      val ground = AttrSet.range(n)
      val nEdges = 1 + rnd.nextInt(5)
      val edges = Vector.fill(nEdges) {
        AttrSet.fromSeq((0 until n).filter(_ => rnd.nextDouble() < 0.4))
      }
      val got = fold(edges).toSet
      val exp = brute(edges, ground)
      assert(got == exp, s"trial=$trial edges=$edges got=$got exp=$exp")
    }
  }

  test("results are inclusion-minimal and hit every edge") {
    val rnd = new Random(5)
    for (_ <- 0 until 100) {
      val n = 4 + rnd.nextInt(4)
      val edges = Vector.fill(1 + rnd.nextInt(4)) {
        AttrSet.fromSeq((0 until n).filter(_ => rnd.nextDouble() < 0.5))
      }.filter(_.nonEmpty)
      val trs = fold(edges)
      trs.foreach { d =>
        assert(edges.forall(e => d.intersects(e)))
        assert(!trs.exists(o => o.strictSubsetOf(d)))
      }
      assert(trs.distinct.size == trs.size)
    }
  }

  test("minimize keeps exactly the inclusion-minimal sets") {
    val in = Seq(AttrSet.of(0), AttrSet.of(0, 1), AttrSet.of(2, 3), AttrSet.of(2))
    assert(Reference.minimize(in).toSet == Set(AttrSet.of(0), AttrSet.of(2)))
  }
}
