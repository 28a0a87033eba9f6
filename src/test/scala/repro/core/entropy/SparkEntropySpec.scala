package repro.core.entropy

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.AttrSet
import repro.data.{MetanomeLite, RunningExample}

/** The Spark groupBy entropy oracle (paper Eq. 5) against the in-memory PLI
  * oracle and a DuckDB SQL oracle.
  */
class SparkEntropySpec extends SparkSpec {

  // two 4-value free columns, a coarse branch column and the 30-value key
  private lazy val df = MetanomeLite.load(spark, "breast_cancer")
    .select("f0", "f1", "b0a1", "k0")
    .cache()

  private lazy val sparkOracle = new SparkEntropyOracle(df)
  private lazy val localOracle = new LocalEntropyOracle(EncodedRelation.fromDataFrame(df))

  test("spark and local oracles agree on all subsets of 4 columns") {
    AttrSet.subsetsOf(AttrSet.range(4)).foreach { x =>
      val a = sparkOracle.entropy(x)
      val b = localOracle.entropy(x)
      assert(math.abs(a - b) < 1e-9, s"x=$x spark=$a local=$b")
    }
  }

  test("entropy inner aggregate matches DuckDB (result-equality oracle)") {
    // Eq. 5's inner sum: SELECT Xα, count(*)·log2(count(*)) GROUP BY Xα.
    val agg = df
      .groupBy("f0", "f1")
      .agg(count(lit(1)).cast("double").as("c"))
      .agg(sum(col("c") * log(2.0, col("c"))).as("s"))
    Oracle.assertEquivalent(
      agg,
      """SELECT sum(c * log2(c)) AS s FROM
        |  (SELECT CAST(count(*) AS DOUBLE) AS c FROM bc
        |   GROUP BY f0, f1)""".stripMargin,
      "bc" -> df)
  }

  test("groupBy count matches DuckDB on a 3-column grouping") {
    val agg = df
      .groupBy("f0", "f1", "b0a1")
      .agg(count(lit(1)).cast("long").as("cnt"))
    Oracle.assertEquivalent(
      agg,
      """SELECT f0, f1, b0a1, count(*) AS cnt
        |FROM bc GROUP BY 1, 2, 3""".stripMargin,
      "bc" -> df)
  }

  test("H(empty) = 0 and H is monotone on the spark oracle") {
    assert(sparkOracle.entropy(AttrSet.empty) == 0.0)
    assert(sparkOracle.entropy(AttrSet.of(0)) <= sparkOracle.entropy(AttrSet.of(0, 1)) + 1e-9)
  }

  test("running example entropies via spark match the paper") {
    val re = RunningExample.clean(spark)
    val o = new SparkEntropyOracle(re)
    import RunningExample._
    assert(math.abs(o.entropy(AttrSet.of(B, D, E)) - 1.5) < 1e-9)
    assert(math.abs(o.entropy(AttrSet.range(6)) - 2.0) < 1e-9)
    assert(math.abs(o.entropy(AttrSet.of(A)) - 1.0) < 1e-9)
  }

  test("spark oracle memoizes") {
    val before = sparkOracle.computations
    sparkOracle.entropy(AttrSet.of(0))
    sparkOracle.entropy(AttrSet.of(0))
    assert(sparkOracle.computations <= before + 1)
  }
}
