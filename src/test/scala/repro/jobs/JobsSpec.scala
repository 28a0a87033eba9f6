package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The exhibit registry and argument plumbing; the exhibits run in the bench. */
class JobsSpec extends AnyFunSuite {

  test("every exhibit name resolves") {
    assert(ExhibitJob.exhibits.keys.toSeq ==
      Seq("table2", "nursery", "accuracy", "rowscale", "colscale", "quality", "fullmvd"))
    ExhibitJob.exhibits.keys.foreach(n => assert(ExhibitJob.parse(Array(n))._1 == n))
  }

  test("an unknown exhibit name fails listing the known ones") {
    for (args <- Seq(Array("table3"), Array.empty[String])) {
      val e = intercept[IllegalArgumentException](ExhibitJob.parse(args))
      ExhibitJob.exhibits.keys.foreach(n => assert(e.getMessage.contains(n)))
    }
  }

  test("omitted overrides fall back to the exhibit's defaults") {
    assert(ExhibitJob.parse(Array("table2")) == (("table2", 20000, 120000L)))
    assert(ExhibitJob.parse(Array("nursery")) == (("nursery", 12960, 120000L)))
    assert(ExhibitJob.parse(Array("colscale", "700")) == (("colscale", 700, 30000L)))
  }

  test("a rowCap override is parsed") {
    assert(ExhibitJob.parse(Array("rowscale", "8000")) == (("rowscale", 8000, 60000L)))
    assert(ExhibitJob.parse(Array("rowscale", "8000", "120000")) == (("rowscale", 8000, 120000L)))
  }

  test("a timeLimitMs override is parsed and an omitted one falls back") {
    assert(ExhibitJob.parse(Array("fullmvd", "300", "10000")) == (("fullmvd", 300, 10000L)))
    assert(ExhibitJob.parse(Array("fullmvd", "300")) == (("fullmvd", 300, 60000L)))
  }
}
