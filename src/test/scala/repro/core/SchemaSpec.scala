package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SchemaSpec extends AnyFunSuite {

  private def s(bags: AttrSet*): Schema = Schema.of(bags)

  test("of drops subsumed bags and dedupes") {
    val sc = s(AttrSet.of(0, 1), AttrSet.of(0), AttrSet.of(0, 1), AttrSet.of(2))
    assert(sc.bags.toSet == Set(AttrSet.of(0, 1), AttrSet.of(2)))
  }

  test("width and intWidth") {
    val sc = s(AttrSet.of(0, 1, 3), AttrSet.of(0, 2, 3), AttrSet.of(1, 3, 4), AttrSet.of(0, 5))
    assert(sc.width == 3)
    assert(sc.intWidth == 2) // ABD ∩ ACD = AD
  }

  test("intWidth of a single bag is 0") {
    assert(s(AttrSet.of(0, 1)).intWidth == 0)
  }

  test("ofMvd builds {XY1,…,XYm}") {
    val phi = Mvd.of(AttrSet.of(0), Vector(AttrSet.of(1), AttrSet.of(2)))
    assert(Schema.ofMvd(phi).bags.toSet == Set(AttrSet.of(0, 1), AttrSet.of(0, 2)))
  }

  // --- join trees -----------------------------------------------------

  /** The paper's running-example schema {ABD, ACD, BDE, AF} (Fig. 2). */
  private val paperSchema = s(
    AttrSet.of(0, 1, 3), AttrSet.of(0, 2, 3), AttrSet.of(1, 3, 4), AttrSet.of(0, 5))

  test("paper schema is acyclic with a valid join tree") {
    val t = JoinTree.fromSchema(paperSchema)
    assert(t.isDefined)
    assert(JoinTree.hasRunningIntersection(t.get))
    assert(Reference.gyoAcyclic(paperSchema))
  }

  test("paper join-tree separators are {A}, {AD}, {BD}") {
    val t = JoinTree.fromSchema(paperSchema).get
    assert(t.separators.map(_.bits).sorted ==
      Vector(AttrSet.of(0), AttrSet.of(0, 3), AttrSet.of(1, 3)).map(_.bits).sorted)
  }

  test("triangle schema {AB, BC, CA} is cyclic") {
    val tri = s(AttrSet.of(0, 1), AttrSet.of(1, 2), AttrSet.of(0, 2))
    assert(JoinTree.fromSchema(tri).isEmpty)
    assert(!Reference.gyoAcyclic(tri))
  }

  test("star schema {XA, XB, XC} is acyclic") {
    val star = s(AttrSet.of(0, 1), AttrSet.of(0, 2), AttrSet.of(0, 3))
    assert(JoinTree.fromSchema(star).isDefined)
    assert(Reference.gyoAcyclic(star))
  }

  test("disjoint bags form an acyclic (cartesian) schema") {
    val dis = s(AttrSet.of(0, 1), AttrSet.of(2, 3))
    val t = JoinTree.fromSchema(dis)
    assert(t.isDefined)
    assert(t.get.separators.head.isEmpty)
  }

  test("single bag schema has a trivial join tree") {
    val t = JoinTree.fromSchema(s(AttrSet.of(0, 1, 2))).get
    assert(t.parent == Vector(-1))
    assert(t.edges.isEmpty)
  }

  test("fromSchema agrees with GYO on random schemas") {
    val rnd = new Random(7)
    var acyclicSeen = 0
    var cyclicSeen = 0
    for (_ <- 0 until 300) {
      val n = 2 + rnd.nextInt(5)
      val nBags = 2 + rnd.nextInt(4)
      val bags = Vector.fill(nBags) {
        AttrSet.fromSeq((0 until n).filter(_ => rnd.nextBoolean()))
      }.filter(_.nonEmpty)
      if (bags.nonEmpty) {
        val sc = Schema.of(bags)
        val viaTree = JoinTree.fromSchema(sc).isDefined
        val viaGyo = Reference.gyoAcyclic(sc)
        assert(viaTree == viaGyo, s"disagreement on $sc: tree=$viaTree gyo=$viaGyo")
        if (viaTree) acyclicSeen += 1 else cyclicSeen += 1
      }
    }
    assert(acyclicSeen > 10 && cyclicSeen > 10) // both branches exercised
  }

  test("support of the paper's exact join tree matches Example 3.2") {
    // bags sorted by bitmask: ABD(0) ACD(1) BDE(2) AF(3); the paper's tree
    // is ABD—ACD (AD), ABD—BDE (BD), ACD—AF (A).
    val t = JoinTree(paperSchema.bags, Vector(-1, 0, 0, 1))
    assert(JoinTree.hasRunningIntersection(t))
    val names = Seq("A", "B", "C", "D", "E", "F")
    val sup = t.support.map(_.render(names)).toSet
    // MVD(T) = {BD ↠ E|ACF, AD ↠ CF|BE, A ↠ F|BCDE}
    assert(sup == Set(
      "{B,D} ↠ {E} | {A,C,F}",
      "{A,D} ↠ {B,E} | {C,F}",
      "{A} ↠ {B,C,D,E} | {F}", // dependents are bitmask-sorted in render
    ))
  }

  test("MST join tree support also consists of exactly-holding MVDs") {
    // fromSchema may legally pick a different join tree whose support
    // differs from Example 3.2 — but (Beeri/Lee) any join tree of the same
    // acyclic schema has the same separators multiset and J-measure.
    val t = JoinTree.fromSchema(paperSchema).get
    assert(t.support.size == 3)
    assert(t.separators.map(_.bits).sorted ==
      Vector(AttrSet.of(0), AttrSet.of(0, 3), AttrSet.of(1, 3)).map(_.bits).sorted)
  }

  test("subtreeAttrs covers the whole tree from the root") {
    val t = JoinTree.fromSchema(paperSchema).get
    val root = t.parent.indexOf(-1)
    assert(t.subtreeAttrs(root) == AttrSet.of(0, 1, 2, 3, 4, 5))
  }
}
