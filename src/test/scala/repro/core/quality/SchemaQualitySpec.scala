package repro.core.quality

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{AttrSet, JoinTree, Schema}
import repro.core.entropy.EncodedRelation
import repro.data.RunningExample

class SchemaQualitySpec extends SparkSpec {
  import RunningExample._

  private lazy val clean = RunningExample.clean(spark).cache()
  private lazy val red = RunningExample.withRed(spark).cache()
  private lazy val tree = JoinTree.fromSchema(paperSchema).get

  test("join size of the exact decomposition equals |R|") {
    assert(SchemaQuality.joinSize(clean, tree) == 4.0)
  }

  test("spurious percentage is 0 on the exact decomposition") {
    assert(math.abs(SchemaQuality.spuriousPct(clean, tree, 4L)) < 1e-9)
  }

  test("red tuple introduces exactly 3 spurious tuples (join size 8)") {
    assert(SchemaQuality.joinSize(red, tree) == 8.0)
    assert(math.abs(SchemaQuality.spuriousPct(red, tree, 5L) - 60.0) < 1e-9)
  }

  test("join size matches a DuckDB join of the projections (oracle)") {
    import spark.implicits._
    val est = SchemaQuality.joinSize(red, tree).toLong
    val estDf = Seq(est).toDF("cnt")
    Oracle.assertEquivalent(
      estDf,
      """SELECT count(*) AS cnt FROM
        |  (SELECT DISTINCT A, B, D FROM r) t1
        |  JOIN (SELECT DISTINCT A, C, D FROM r) t2 USING (A, D)
        |  JOIN (SELECT DISTINCT B, D, E FROM r) t3 USING (B, D)
        |  JOIN (SELECT DISTINCT A, F FROM r) t4 USING (A)""".stripMargin,
      "r" -> red)
  }

  test("join size matches DuckDB on a 2-bag vertical partition") {
    import spark.implicits._
    val schema2 = Schema.of(Vector(AttrSet.of(A, B, C, D), AttrSet.of(A, E, F)))
    val t2 = JoinTree.fromSchema(schema2).get
    val est = SchemaQuality.joinSize(red, t2).toLong
    Oracle.assertEquivalent(
      Seq(est).toDF("cnt"),
      """SELECT count(*) AS cnt FROM
        |  (SELECT DISTINCT A, B, C, D FROM r) t1
        |  JOIN (SELECT DISTINCT A, E, F FROM r) t2 USING (A)""".stripMargin,
      "r" -> red)
  }

  test("cartesian (empty-separator) schema multiplies distinct counts") {
    import spark.implicits._
    val schema2 = Schema.of(Vector(AttrSet.of(A, B), AttrSet.of(E, F)))
    val t2 = JoinTree.fromSchema(schema2).get
    val est = SchemaQuality.joinSize(red, t2).toLong
    Oracle.assertEquivalent(
      Seq(est).toDF("cnt"),
      """SELECT count(*) AS cnt FROM
        |  (SELECT DISTINCT A, B FROM r) t1, (SELECT DISTINCT E, F FROM r) t2""".stripMargin,
      "r" -> red)
  }

  test("single-bag schema joins to the distinct row count") {
    val t1 = JoinTree.fromSchema(Schema.of(Vector(AttrSet.range(6)))).get
    assert(SchemaQuality.joinSize(red, t1) == 5.0)
  }

  test("projectedCells counts distinct projection cells") {
    // clean projections: ABD→3 rows, ACD→3, BDE→3, AF→2
    // cells = 3·3 + 3·3 + 3·3 + 2·2 = 31
    assert(SchemaQuality.projectedCells(EncodedRelation.fromDataFrame(clean), paperSchema) == 31L)
  }

  test("savingsPct matches the cell arithmetic") {
    // clean: 4 rows × 6 cols = 24 cells; decomposition = 31 cells → negative savings
    val s = SchemaQuality.savingsPct(clean, paperSchema, 4L)
    assert(math.abs(s - (24.0 - 31.0) / 24.0 * 100.0) < 1e-9)
  }

  test("nursery-style extreme schema: all-singleton bags") {
    import spark.implicits._
    // tiny product relation: A×B with domains 3 and 4 → join size 12
    val df = (for { a <- 0 until 3; b <- 0 until 4 } yield (s"a$a", s"b$b")).toDF("A", "B")
    val sc = Schema.of(Vector(AttrSet.of(0), AttrSet.of(1)))
    val t = JoinTree.fromSchema(sc).get
    assert(SchemaQuality.joinSize(df, t) == 12.0)
    assert(SchemaQuality.projectedCells(EncodedRelation.fromDataFrame(df), sc) == 7L) // 3 + 4 cells
  }
}
