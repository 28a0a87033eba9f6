package repro.core.quality

import repro.SparkSpec
import repro.core.{AttrSet, JoinTree, Schema, TestData}
import repro.core.entropy.EncodedRelation

/** Nulls and empty inputs in the quality measures and in their encoding. */
class QualityEdgeSpec extends SparkSpec {
  import spark.implicits._

  test("fromDataFrame maps each column's nulls to one code") {
    val df = Seq[(Option[String], Option[Int])](
      (None, Some(1)), (Some("a"), None), (None, None), (Some("a"), Some(1)))
      .toDF("A", "B")
    val rows = EncodedRelation.fromDataFrame(df).rows
    def codes(c: Int) = rows.map(_(c)).toVector
    val a = codes(0)
    assert(a(0) == a(2) && a(1) == a(3) && a(0) != a(1))
    val b = codes(1)
    assert(b(1) == b(2) && b(0) == b(3) && b(0) != b(1))
  }

  test("a null separator value joins like any other value") {
    // J({AB, AC}) = 0 here, so the join of the projections is R itself
    val df = Seq[(Option[String], Int, Int)]((None, 1, 1), (None, 1, 2)).toDF("A", "B", "C")
    val schema = Schema.of(Vector(AttrSet.of(0, 1), AttrSet.of(0, 2)))
    val tree = JoinTree.fromSchema(schema).get
    assert(TestData.calcOf(EncodedRelation.fromDataFrame(df)).jSchema(schema) < 1e-12)
    assert(SchemaQuality.joinSize(df, tree) == 2.0)
    assert(SchemaQuality.spuriousPct(df, tree, 2L) == 0.0)
  }

  test("E% and S% reject a relation with 0 rows") {
    val empty = EncodedRelation(Vector("A", "B"), Array.empty)
    val schema = Schema.of(Vector(AttrSet.of(0), AttrSet.of(1)))
    val tree = JoinTree.fromSchema(schema).get
    assert(SchemaQuality.joinSize(empty, tree) == 0.0)
    val e = intercept[IllegalArgumentException](SchemaQuality.spuriousPct(empty, tree))
    assert(e.getMessage.contains("0 rows"))
    val s = intercept[IllegalArgumentException](SchemaQuality.savingsPct(empty, schema))
    assert(s.getMessage.contains("0 rows"))
  }

  test("the DataFrame adapters reject an nRows that is not the frame's row count") {
    val df = Seq((1, 1), (2, 2)).toDF("A", "B")
    val schema = Schema.of(Vector(AttrSet.of(0), AttrSet.of(1)))
    val e = intercept[IllegalArgumentException](SchemaQuality.savingsPct(df, schema, 3L))
    assert(e.getMessage.contains("2 rows"))
  }
}
