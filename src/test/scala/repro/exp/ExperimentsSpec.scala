package repro.exp

import repro.SparkSpec
import repro.core.entropy.EncodedRelation
import repro.data.MetanomeLite

/** Smoke tests of the evaluation harness at tiny scale — the full-scale runs
  * live in bench/. These pin the output schema and basic invariants of every
  * exhibit generator.
  */
class ExperimentsSpec extends SparkSpec {

  test("table2 runs on the two smallest analogs and reports paper numbers") {
    val rows = Experiments.table2(spark, 200, 20000L, names = Seq("bridges", "echocardiogram"))
    assert(rows.size == 2)
    val bridges = rows.find(_.dataset == "bridges").get
    assert(bridges.cols == 13)
    assert(bridges.rows == 108L)
    assert(bridges.paper.paperRuntimeSec.contains(3.8))
    assert(bridges.paper.paperFullMvds.contains(60))
    assert(Experiments.formatTable2(rows).contains("bridges"))
  }

  test("fullMvdCounts: full MVDs >= minimal separators at every eps") {
    // breast_cancer at 200 rows finishes at eps = 0.1 too, so the check runs at eps > 0
    val rows = Experiments.fullMvdCounts(spark, 200, 20000L, datasets = Seq("breast_cancer"),
                                         epss = Seq(0.0, 0.1))
    assert(rows.size == 2)
    rows.foreach { r =>
      assert(!r.timedOut, s"eps=${r.eps} timed out")
      assert(r.fullMvds >= r.minSeps, s"eps=${r.eps}: ${r.fullMvds} MVDs, ${r.minSeps} separators")
    }
    assert(Experiments.formatFullMvd(rows).nonEmpty)
  }

  test("each mining point starts from a cold entropy memo") {
    val rel = EncodedRelation.fromDataFrame(MetanomeLite.load(spark, "bridges", 200))
    val alone = Experiments.mine(rel, 0.3, 20000L, minSepsOnly = true)
    Experiments.mine(rel, 0.0, 20000L, minSepsOnly = true)
    val afterEps0 = Experiments.mine(rel, 0.3, 20000L, minSepsOnly = true)
    assert(!alone.timedOut && !afterEps0.timedOut)
    assert(alone.entropyComputations > 0)
    assert(afterEps0.entropyComputations == alone.entropyComputations)
  }

  test("rowScalability emits one row per (dataset, fraction, eps)") {
    val rows = Experiments.rowScalability(spark, 400, 20000L, datasets = Seq("image"),
                                          fractions = Seq(0.5, 1.0), epss = Seq(0.0))
    assert(rows.size == 2)
    assert(rows.map(_.rows).distinct.size == 2)
    assert(Experiments.formatScale(rows).contains("image"))
  }

  test("colScalability reduces the column count") {
    val rows = Experiments.colScalability(spark, 300, 20000L, datasets = Seq("sg_bioentry"),
                                          fractions = Seq(0.5, 1.0), epss = Seq(0.0))
    assert(rows.size == 2)
    assert(rows.map(_.cols).distinct.size == 2)
    assert(rows.maxBy(_.cols).cols == 7)
  }

  test("quality rows carry monotone-threshold schema stats") {
    val rows = Experiments.quality(spark, 200, 20000L, datasets = Seq("bridges"),
                                   epss = Seq(0.0, 0.5))
    assert(rows.size == 2)
    assert(Experiments.formatQuality(rows).contains("bridges"))
    // each distinct multi-relation scheme comes from at least one emitted MIS
    assert(rows.forall(r => r.mis >= r.nSchemes), rows.mkString("\n"))
    assert(Experiments.formatQuality(rows).contains("#MIS"))
  }

  test("markPareto marks non-dominated schemes only") {
    def row(s: Double, e: Double) =
      Experiments.SchemeRow(0.1, 0.1, 2, 3, 1, s, e, "x", pareto = false)
    val rows = Experiments.markPareto(Vector(row(90, 10), row(80, 20), row(95, 5)))
    // (95,5) dominates both others
    assert(rows.count(_.pareto) == 1)
    assert(rows.find(_.savingsPct == 95.0).get.pareto)
  }

  test("fmt aligns columns and separates header") {
    val s = Experiments.fmt(Seq("a", "bb"), Seq(Seq(1, 2), Seq(33, 4)))
    val lines = s.split("\n")
    assert(lines.length == 4)
    assert(lines(0).startsWith("a"))
    assert(lines(1).forall(_ == '-'))
  }
}
