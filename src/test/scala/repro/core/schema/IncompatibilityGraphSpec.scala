package repro.core.schema

import repro.SparkSpec
import repro.core.TestData
import repro.core.entropy.EncodedRelation
import repro.core.mine.MvdMiner
import repro.data.MetanomeLite
import repro.util.Deadline

/** ASMiner's bitset incompatibility graph against the pairwise predicate. */
class IncompatibilityGraphSpec extends SparkSpec {

  test("breast_cancer (200 rows), eps = 0.3: the rows equal the pairwise predicate") {
    val rel = EncodedRelation.fromDataFrame(MetanomeLite.load(spark, "breast_cancer", rowCap = 200))
    val mined = MvdMiner.mine(TestData.calcOf(rel), rel.n, eps = 0.3)
    val mvds = mined.mvds
    val n = mvds.size
    assert(!mined.timedOut && n > 64, s"$n MVDs: the graph must span several words")
    val rows = ASMiner.incompatibilityGraph(mvds, Deadline.unlimited).get
    assert(rows.length == n && rows.forall(_.length == MaxIndependentSets.words(n)))
    def edge(i: Int, j: Int): Boolean = ((rows(i)(j >>> 6) >>> j) & 1L) != 0L
    val wrong = for {
      i <- 0 until n
      j <- 0 until n
      if edge(i, j) != (i != j && Compatibility.incompatible(mvds(i), mvds(j))) ||
         edge(i, j) != edge(j, i)
    } yield (i, j)
    assert(wrong.isEmpty, s"${wrong.size} wrong pairs, first ${wrong.take(5)}")
    // no bit past vertex n - 1 in the last word
    assert(rows.forall(r => (r.last >>> 1 >>> ((n - 1) & 63)) == 0L))
    assert(rows.exists(_.exists(_ != 0L)), "no incompatible pair: the test checks nothing")
  }
}
