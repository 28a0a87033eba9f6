package repro.core.quality

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{AttrSet, JoinTree, Schema}
import repro.data.MetanomeLite

/** Yannakakis counting vs DuckDB on deeper join trees and larger inputs. */
class JoinSizeSpec extends SparkSpec {
  import spark.implicits._

  // O: 120-value key, P: branch value id, L: coarse function of P,
  // R and S: 4-value free columns
  private lazy val rel = MetanomeLite.load(spark, "adult", rowCap = 2000)
    .select(col("k0").as("O"), col("b0a0").as("P"), col("b0a1").as("L"),
            col("f0").as("R"), col("f1").as("S"))
    .cache()

  test("chain tree OP—PL—LR matches DuckDB") {
    val schema = Schema.of(Vector(AttrSet.of(0, 1), AttrSet.of(1, 2), AttrSet.of(2, 3)))
    val tree = JoinTree.fromSchema(schema).get
    val est = SchemaQuality.joinSize(rel, tree)
    Oracle.assertEquivalent(
      Seq(est.toLong).toDF("cnt"),
      """SELECT count(*) AS cnt FROM
        |  (SELECT DISTINCT O, P FROM rel) a
        |  JOIN (SELECT DISTINCT P, L FROM rel) b USING (P)
        |  JOIN (SELECT DISTINCT L, R FROM rel) c USING (L)""".stripMargin,
      "rel" -> rel)
  }

  test("star tree around L matches DuckDB") {
    val schema = Schema.of(Vector(AttrSet.of(2, 0), AttrSet.of(2, 3), AttrSet.of(2, 4)))
    val tree = JoinTree.fromSchema(schema).get
    val est = SchemaQuality.joinSize(rel, tree)
    Oracle.assertEquivalent(
      Seq(est.toLong).toDF("cnt"),
      """SELECT count(*) AS cnt FROM
        |  (SELECT DISTINCT L, O FROM rel) a
        |  JOIN (SELECT DISTINCT L, R FROM rel) b USING (L)
        |  JOIN (SELECT DISTINCT L, S FROM rel) c USING (L)""".stripMargin,
      "rel" -> rel)
  }

  test("two-component forest (cartesian) matches DuckDB") {
    // only 2 cols; attr indices 0,1
    val est = SchemaQuality.joinSize(rel.select("R", "S"),
      JoinTree.fromSchema(Schema.of(Vector(AttrSet.of(0), AttrSet.of(1)))).get)
    Oracle.assertEquivalent(
      Seq(est.toLong).toDF("cnt"),
      """SELECT count(*) AS cnt FROM
        |  (SELECT DISTINCT R FROM rel) a, (SELECT DISTINCT S FROM rel) b""".stripMargin,
      "rel" -> rel)
  }

  test("bag covering everything joins to the distinct row count") {
    val schema = Schema.of(Vector(AttrSet.range(5)))
    val tree = JoinTree.fromSchema(schema).get
    val est = SchemaQuality.joinSize(rel, tree)
    assert(est == rel.distinct().count().toDouble)
  }

  test("three-level tree OPL—LR, OPL—OS matches DuckDB") {
    val schema = Schema.of(Vector(AttrSet.of(0, 1, 2), AttrSet.of(2, 3), AttrSet.of(0, 4)))
    val tree = JoinTree.fromSchema(schema).get
    val est = SchemaQuality.joinSize(rel, tree)
    Oracle.assertEquivalent(
      Seq(est.toLong).toDF("cnt"),
      """SELECT count(*) AS cnt FROM
        |  (SELECT DISTINCT O, P, L FROM rel) a
        |  JOIN (SELECT DISTINCT L, R FROM rel) b USING (L)
        |  JOIN (SELECT DISTINCT O, S FROM rel) c USING (O)""".stripMargin,
      "rel" -> rel)
  }
}
