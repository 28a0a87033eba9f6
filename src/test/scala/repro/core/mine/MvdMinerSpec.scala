package repro.core.mine

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AttrSet, JoinTree, Reference, TestData}
import repro.core.entropy.{EntropyOracle, LocalEntropyOracle}
import repro.core.info.InfoCalc
import repro.data.RunningExample

class MvdMinerSpec extends AnyFunSuite {

  test("running example at eps=0 recovers the support MVDs' separators") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val res = MvdMiner.mine(calc, 6, eps = 0.0)
    assert(!res.timedOut)
    val seps = res.distinctMinSeps.toSet
    import RunningExample._
    // the join-tree separators A, AD, BD must all be (or contain) minimal seps
    val tree = JoinTree.fromSchema(paperSchema).get
    tree.separators.foreach { s =>
      assert(seps.exists(_.subsetOf(s)), s"no minimal separator inside $s; got $seps")
    }
  }

  test("running example: every mined MVD holds at eps=0") {
    val calc = TestData.calcOf(RunningExample.cleanEncoded)
    val res = MvdMiner.mine(calc, 6, eps = 0.0)
    res.mvds.foreach { m => assert(calc.holds(m, 0.0), m.toString) }
    assert(res.mvds.nonEmpty)
  }

  test("mined MVDs are deduplicated and full") {
    val calc = TestData.calcOf(TestData.structuredRelation(60, 1))
    val res = MvdMiner.mine(calc, 4, eps = 0.1)
    assert(res.mvds.distinct.size == res.mvds.size)
    // no mined MVD strictly refines another mined MVD with the same key...
    // (full within its own discovery; cross-pair duplicates are removed)
    res.mvds.foreach { m => assert(calc.holds(m, 0.1)) }
  }

  test("larger epsilon never yields fewer minimal separators per pair") {
    val calc = TestData.calcOf(TestData.randomRelation(4, 40, 2, 11))
    val r0 = MvdMiner.mine(calc, 4, eps = 0.0)
    val r5 = MvdMiner.mine(calc, 4, eps = 0.5)
    // every eps=0 separator set remains separating at eps=0.5, so every pair
    // with a separator at 0 has one at 0.5
    r0.minSeps.keys.foreach { pair => assert(r5.minSeps.contains(pair)) }
  }

  test("timeLimit=0 returns quickly with timedOut=true") {
    val calc = TestData.calcOf(TestData.randomRelation(6, 40, 3, 12))
    val res = MvdMiner.mine(calc, 6, eps = 0.0, timeLimitMs = 0)
    assert(res.timedOut)
  }

  test("minSepsOnly skips the full-MVD expansion") {
    val calc = TestData.calcOf(TestData.structuredRelation(50, 2))
    val res = MvdMiner.mine(calc, 4, eps = 0.2, minSepsOnly = true)
    assert(res.mvds.isEmpty)
    assert(res.minSeps.nonEmpty)
  }

  test("entropy call accounting is populated") {
    val calc = TestData.calcOf(TestData.randomRelation(4, 30, 2, 13))
    val res = MvdMiner.mine(calc, 4, eps = 0.0)
    assert(res.entropyCalls > 0)
    assert(res.entropyComputations <= res.entropyCalls)
  }

  test("every mined MVD separates some pair with a minimal-separator key") {
    val calc = TestData.calcOf(TestData.structuredRelation(60, 3))
    val res = MvdMiner.mine(calc, 4, eps = 0.3)
    val allSeps = res.minSeps.values.flatten.toSet
    res.mvds.foreach { m => assert(allSeps.contains(m.key)) }
  }

  /** Seeded relations with 4-8 columns, of several shapes. On the 8-column
    * ones an expansion finds several MVDs, so the discovery order shows.
    */
  private val relations = Seq(
    TestData.structuredRelation(60, 5),
    TestData.randomRelation(5, 40, 2, 31),
    TestData.randomRelation(6, 50, 3, 32),
    TestData.randomRelation(7, 60, 3, 34),
    TestData.randomRelation(8, 20, 2, 1102),
    TestData.randomRelation(8, 20, 3, 1103),
  )

  test("ordered M_eps and separators equal the per-call reference search") {
    var mined = 0
    for ((rel, r) <- relations.zipWithIndex; eps <- Seq(0.0, 0.1, 0.3)) {
      val calc = TestData.calcOf(rel)
      val res = MvdMiner.mine(calc, rel.n, eps)
      val (mvds, seps) = Reference.mine(calc, rel.n, eps, minSepsOnly = false)
      assert(!res.timedOut)
      val firstDiff = mvds.indices.find(i => res.mvds.lift(i) != Some(mvds(i)))
      assert(res.mvds.size == mvds.size && firstDiff.isEmpty,
             s"relation $r eps=$eps: ${res.mvds.size} vs ${mvds.size} MVDs, first difference at $firstDiff")
      assert(res.minSeps == seps, s"relation $r eps=$eps")
      assert(res.closures >= res.searchNodes)
      if (res.minSeps.nonEmpty) assert(res.searchNodes > 0)
      mined += mvds.size
    }
    assert(mined > 0)
  }

  test("minSepsOnly: separators equal the per-call reference search") {
    for ((rel, r) <- relations.zipWithIndex; eps <- Seq(0.0, 0.1, 0.3)) {
      val calc = TestData.calcOf(rel)
      val res = MvdMiner.mine(calc, rel.n, eps, minSepsOnly = true)
      val (_, seps) = Reference.mine(calc, rel.n, eps, minSepsOnly = true)
      assert(res.minSeps == seps, s"relation $r eps=$eps")
    }
  }

  /** Delegates to `inner` but keeps `workers`' default: mining through it
    * runs on one worker.
    */
  private final class OneWorker(inner: EntropyOracle) extends EntropyOracle {
    def nAttrs: Int = inner.nAttrs
    def nRows: Long = inner.nRows
    def calls: Long = inner.calls
    def computations: Long = inner.computations
    def entropy(x: AttrSet): Double = inner.entropy(x)
  }

  test("several workers mine what one worker mines, in order, with the same computations") {
    assert(new LocalEntropyOracle(relations.head).workers(2).size == 2)
    for ((rel, r) <- relations.zipWithIndex; eps <- Seq(0.0, 0.1, 0.3); seps <- Seq(false, true)) {
      val many = MvdMiner.mine(TestData.calcOf(rel), rel.n, eps, minSepsOnly = seps)
      val one = MvdMiner.mine(new InfoCalc(new OneWorker(new LocalEntropyOracle(rel))), rel.n, eps,
                              minSepsOnly = seps)
      assert(!many.timedOut && !one.timedOut)
      assert(many.mvds == one.mvds, s"relation $r eps=$eps")
      assert(many.minSeps == one.minSeps, s"relation $r eps=$eps")
      assert(many.entropyComputations == one.entropyComputations, s"relation $r eps=$eps")
      // the closed nodes are what the probes and expansions visit, whoever runs them
      assert(many.searchNodes == one.searchNodes, s"relation $r eps=$eps")
    }
  }

  test("a cut deadline reports, for each pair reached, a prefix of its separators") {
    // at eps = 0.3 these mine for 0.4-1 s unlimited, so every limit below cuts them
    val eps = 0.3
    var reached = 0
    for (seed <- 0 until 4) {
      val rel = TestData.randomRelation(12, 200, 3, seed + 6000)
      val all = MvdMiner.mine(TestData.calcOf(rel), rel.n, eps)
      assert(!all.timedOut)
      for (limitMs <- Seq(0L, 1L, 2L, 10L)) {
        val cut = MvdMiner.mine(TestData.calcOf(rel), rel.n, eps, limitMs)
        assert(cut.timedOut, s"seed=$seed limit=$limitMs (unlimited: ${all.elapsedMs} ms)")
        reached += cut.minSeps.size
        for ((pair, seps) <- cut.minSeps)
          assert(all.minSeps.getOrElse(pair, Vector.empty).startsWith(seps),
                 s"seed=$seed limit=$limitMs pair=$pair: $seps vs ${all.minSeps.get(pair)}")
      }
    }
    assert(reached > 0)
  }
}
