package repro.core.mine

import repro.SparkSpec
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle, NaiveEntropyOracle}
import repro.core.info.InfoCalc
import repro.data.MetanomeLite

/** The PLI oracle must leave mining unchanged: M_ε, in order, the minimal
  * separators and the search nodes mined through it, one worker per core,
  * equal those mined through the naive oracle on one worker.
  */
class PliMiningGateSpec extends SparkSpec {

  test("breast_cancer analog (200 rows): same M_ε and minimal separators as the naive oracle") {
    val rel = EncodedRelation.fromDataFrame(MetanomeLite.load(spark, "breast_cancer", rowCap = 200))
    for (eps <- Seq(0.0, 0.1, 0.3)) {
      val pli = MvdMiner.mine(new InfoCalc(new LocalEntropyOracle(rel)), rel.n, eps)
      val naive = MvdMiner.mine(new InfoCalc(new NaiveEntropyOracle(rel)), rel.n, eps)
      assert(!pli.timedOut && !naive.timedOut)
      assert(pli.mvds.nonEmpty, s"eps=$eps mined no MVD")
      assert(pli.mvds == naive.mvds, s"eps=$eps")
      assert(pli.minSeps == naive.minSeps, s"eps=$eps")
      assert(pli.searchNodes == naive.searchNodes, s"eps=$eps")
    }
  }
}
