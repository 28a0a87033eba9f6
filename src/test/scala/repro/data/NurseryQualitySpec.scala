package repro.data

import repro.SparkSpec
import repro.core.{AttrSet, JoinTree, Schema}
import repro.core.entropy.EncodedRelation
import repro.core.quality.SchemaQuality

/** The paper's closed-form Nursery numbers (Sec. 8.1): the extreme schema
  * with one relation per attribute has 3+5+4+4+3+2+3+3+5 = 32 cells,
  * savings S = (116640−32)/116640 = 99.9725 %, and joins to
  * 3·5·4·4·3·2·3·3·5 = 64800 tuples ⇒ E = (64800−12960)/12960 = 400 %.
  * Our synthetic Nursery preserves the domain sizes exactly, so these
  * numbers must match to the digit.
  */
class NurseryQualitySpec extends SparkSpec {

  private lazy val df = NurseryData.load(spark).cache()
  private lazy val singletons = Schema.of((0 until 9).map(AttrSet.single))

  test("all 5 class values occur (domain sizes 3,5,4,4,3,2,3,3,5)") {
    assert(df.select("class").distinct().count() == 5L)
  }

  test("extreme schema stores exactly 32 cells") {
    assert(SchemaQuality.projectedCells(EncodedRelation.fromDataFrame(df), singletons) == 32L)
  }

  test("extreme schema savings S = 99.9725%") {
    val s = SchemaQuality.savingsPct(df, singletons, 12960L)
    assert(math.abs(s - (116640.0 - 32.0) / 116640.0 * 100.0) < 1e-9)
    assert(math.abs(s - 99.9725) < 1e-3)
  }

  test("extreme schema joins to 64800 tuples, E = 400%") {
    val t = JoinTree.fromSchema(singletons).get
    assert(SchemaQuality.joinSize(df, t) == 64800.0)
    assert(math.abs(SchemaQuality.spuriousPct(df, t, 12960L) - 400.0) < 1e-9)
  }

  test("full-table schema has S = 0 and E = 0") {
    val whole = Schema.of(Vector(AttrSet.range(9)))
    assert(math.abs(SchemaQuality.savingsPct(df, whole, 12960L)) < 1e-9)
    val t = JoinTree.fromSchema(whole).get
    assert(math.abs(SchemaQuality.spuriousPct(df, t, 12960L)) < 1e-9)
  }

  test("8-attribute product without class joins losslessly") {
    // the 8 condition attributes form a full product: the per-attribute
    // decomposition of *those* is exact (12960 = product of domains).
    val attrs8 = Schema.of((0 until 8).map(AttrSet.single))
    val proj = df.select(NurseryData.domains.map(d => org.apache.spark.sql.functions.col(d._1)): _*)
    val t = JoinTree.fromSchema(attrs8).get
    assert(SchemaQuality.joinSize(proj, t) == 12960.0)
  }
}
