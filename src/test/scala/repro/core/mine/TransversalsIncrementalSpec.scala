package repro.core.mine

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random
import repro.core.{AttrSet, Reference}

/** Incremental Berge maintenance (addEdge) vs batch recomputation — the
  * invariant MineMinSeps relies on when separators are discovered one at a
  * time — and the word family against the `Vector` engine it replaced.
  */
class TransversalsIncrementalSpec extends AnyFunSuite {

  private def sets(trs: Transversals): Vector[AttrSet] = trs.family.map(_._1)

  test("addEdge on the empty family yields the edge's singletons") {
    val trs = new Transversals
    trs.addEdge(AttrSet.of(2, 4))
    assert(sets(trs).toSet == Set(AttrSet.of(2), AttrSet.of(4)))
  }

  test("folding addEdge equals batch minimal() on random families") {
    val rnd = new Random(61)
    for (trial <- 0 until 150) {
      val n = 3 + rnd.nextInt(5)
      val ground = AttrSet.range(n)
      val edges = Vector.fill(1 + rnd.nextInt(5)) {
        AttrSet.fromSeq((0 until n).filter(_ => rnd.nextDouble() < 0.4))
      }
      val batch = Reference.minimal(edges, ground).toSet
      val inc = new Transversals
      edges.foreach(inc.addEdge)
      assert(batch == sets(inc).toSet, s"trial=$trial edges=$edges")
    }
  }

  test("addEdge with an out-of-ground edge kills the family") {
    // the word family has no ground: every edge of the miner is inside it
    val trs = Reference.addEdge(Vector(AttrSet.of(0)), AttrSet.of(9), AttrSet.range(3))
    assert(trs.isEmpty)
  }

  test("addEdge keeps previously minimal transversals that hit the new edge") {
    val trs = new Transversals
    trs.addEdge(AttrSet.of(0, 1))
    trs.addEdge(AttrSet.of(1, 2))
    assert(sets(trs).contains(AttrSet.of(1))) // {1} hits both edges
    assert(sets(trs).toSet == Set(AttrSet.of(1), AttrSet.of(0, 2)))
  }

  test("the word family equals the Vector engine in order, with the miner's processed flags") {
    // the flags are those of the processed set MineMinSeps kept before: the
    // first unprocessed set in family order is taken between edges
    val rnd = new Random(67)
    val wide = Vector(0, 1, 2, 31, 32, 61, 62, 63)
    var sign = 0
    for (trial <- 0 until 400) {
      val n = if (trial % 2 == 0) 64 else 3 + rnd.nextInt(8)
      val ground = AttrSet.range(n)
      // on 64 attributes, edges over a few spread attributes, 63 in most
      def edge(): AttrSet =
        if (n == 64) AttrSet.fromSeq(wide.filter(i => rnd.nextDouble() < (if (i == 63) 0.7 else 0.35)))
        else AttrSet.fromSeq((0 until n).filter(_ => rnd.nextDouble() < 0.4))
      val trs = new Transversals
      var ref = Vector(AttrSet.empty)
      val processed = mutable.HashSet.empty[Long]
      for (step <- 0 until 1 + rnd.nextInt(10)) {
        for (_ <- 0 until rnd.nextInt(4)) {
          val d = ref.find(t => !processed.contains(t.bits))
          assert(trs.next() == d, s"trial=$trial step=$step")
          d.foreach(processed += _.bits)
        }
        val e = edge()
        trs.addEdge(e)
        ref = Reference.addEdge(ref, e, ground)
        assert(trs.family == ref.map(t => (t, processed.contains(t.bits))), s"trial=$trial step=$step edge=$e")
        if (ref.exists(t => t.contains(63) && t.size > 1)) sign += 1
      }
    }
    assert(sign > 0, "no family held attribute 63 with another attribute")
  }
}
