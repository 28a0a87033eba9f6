package repro.core

import repro.SparkSpec
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle, NaiveEntropyOracle}
import repro.core.quality.SchemaQuality
import repro.data.{MetanomeLite, NurseryData, RunningExample}

/** End-to-end Maimon over Spark DataFrames. */
class MaimonSpec extends SparkSpec {

  test("running example, eps=0: exact schemes only, 4-relation schema found") {
    val res = Maimon.run(RunningExample.clean(spark), Maimon.Config(eps = 0.0))
    assert(!res.mining.timedOut)
    assert(res.nRows == 4L)
    assert(res.schemes.schemes.nonEmpty)
    res.schemes.schemes.foreach(s => assert(s.j < 1e-9))
    assert(res.schemes.schemes.exists(_.schema.nRelations >= 4))
  }

  test("running example with red tuple: eps=0 loses the paper schema") {
    val res = Maimon.run(RunningExample.withRed(spark), Maimon.Config(eps = 0.0))
    // the 4-relation paper schema no longer holds exactly
    res.schemes.schemes.foreach { s =>
      assert(s.schema.bags.toSet != RunningExample.paperSchema.bags.toSet)
    }
  }

  test("running example with red tuple: approximate mining recovers rich schemes") {
    val exact = Maimon.run(RunningExample.withRed(spark), Maimon.Config(eps = 0.0))
    val approx = Maimon.run(RunningExample.withRed(spark), Maimon.Config(eps = 0.8))
    val maxExact = exact.schemes.schemes.map(_.schema.nRelations).max
    val maxApprox = approx.schemes.schemes.map(_.schema.nRelations).max
    assert(maxApprox >= maxExact) // approximation can only enrich decomposition
    assert(approx.mvds.size >= exact.mvds.size || approx.mvds.nonEmpty)
  }

  test("Lee's theorem on mined schemes: J = 0 schemes join back to R exactly") {
    val df = MetanomeLite.load(spark, "breast_cancer", rowCap = 200).cache()
    val rel = EncodedRelation.fromDataFrame(df)
    val res = Maimon.run(df, Maimon.Config(eps = 0.0))
    val multi = res.schemes.schemes.filter(_.schema.nRelations > 1)
    assert(!res.mining.timedOut && multi.nonEmpty)
    val distinctRows = df.distinct().count().toDouble
    multi.foreach { s =>
      val tree = JoinTree.fromSchema(s.schema).get
      assert(SchemaQuality.joinSize(rel, tree) == distinctRows, s.schema.render(rel.names))
      assert(SchemaQuality.spuriousPct(rel, tree) == 0.0, s.schema.render(rel.names))
    }
  }

  test("nursery at eps=0 admits no exact multi-relation decomposition (Fig 10a)") {
    val res = Maimon.run(NurseryData.load(spark),
      Maimon.Config(eps = 0.0, timeLimitMs = 120000L))
    val multi = res.schemes.schemes.filter(_.schema.nRelations > 1)
    assert(multi.isEmpty, s"unexpected exact schemes: ${multi.map(_.schema)}")
  }

  test("nursery at eps=0.3 finds multi-relation approximate schemes (Fig 10)") {
    val res = Maimon.run(NurseryData.load(spark),
      Maimon.Config(eps = 0.3, timeLimitMs = 180000L, maxSchemes = 200))
    val multi = res.schemes.schemes.filter(_.schema.nRelations > 1)
    assert(multi.nonEmpty)
    // and they decompose: some scheme has ≥ 2 relations with width < 9
    assert(multi.exists(_.schema.width < 9))
  }

  test("nursery approximate scheme has bounded spurious rate and real savings") {
    val df = NurseryData.load(spark).cache()
    val res = Maimon.run(df, Maimon.Config(eps = 0.3, timeLimitMs = 180000L, maxSchemes = 50))
    val multi = res.schemes.schemes.filter(_.schema.nRelations > 1).sortBy(_.j)
    assert(multi.nonEmpty)
    val s = multi.head
    val tree = JoinTree.fromSchema(s.schema).get
    val e = SchemaQuality.spuriousPct(df, tree, 12960L)
    val sv = SchemaQuality.savingsPct(df, s.schema, 12960L)
    assert(e >= -1e-9)     // join of projections is a superset of R
    assert(sv > 0.0)       // the dense product compresses massively
  }

  test("a relation with 0 columns is rejected with its column count") {
    val rel = EncodedRelation(Vector.empty, Array.fill(3)(Array.empty[Int]))
    val e = intercept[IllegalArgumentException](
      Maimon.runWithOracle(new LocalEntropyOracle(rel), rel.names, Maimon.Config(eps = 0.0)))
    assert(e.getMessage.contains("0 columns"), e.getMessage)
  }

  test("a relation with 1 column: one single-bag scheme, no MVDs, complete") {
    val rel = EncodedRelation(Vector("A"), Array(Array(0), Array(1), Array(1)))
    val res = Maimon.runWithOracle(new LocalEntropyOracle(rel), rel.names, Maimon.Config(eps = 0.0))
    assert(res.mvds.isEmpty && !res.mining.timedOut)
    assert(!res.schemes.timedOut && !res.schemes.capped)
    assert(res.schemes.schemes.map(_.schema.bags) == Vector(Vector(AttrSet.single(0))))
    assert(res.schemes.schemes.head.j == 0.0)
  }

  test("a relation with 0 rows at eps = 0: complete, every scheme has J = 0") {
    val rel = EncodedRelation(Vector("A", "B", "C", "D"), Array.empty[Array[Int]])
    val res = Maimon.runWithOracle(new LocalEntropyOracle(rel), rel.names, Maimon.Config(eps = 0.0))
    assert(res.nRows == 0L)
    assert(!res.mining.timedOut && !res.schemes.timedOut && !res.schemes.capped)
    assert(res.schemes.schemes.nonEmpty)
    res.schemes.schemes.foreach(s => assert(s.j == 0.0, s.schema.toString))
  }

  test("every row doubled: the same M_ε, separators and schemes, J within 1e-9") {
    // doubling every row leaves the empirical distribution, so every entropy, as it is
    val df = MetanomeLite.load(spark, "breast_cancer", rowCap = 200).cache()
    for (eps <- Seq(0.0, 0.1)) {
      val cfg = Maimon.Config(eps = eps)
      val once = Maimon.run(df, cfg)
      val twice = Maimon.run(df.union(df), cfg)
      assert(twice.nRows == 2 * once.nRows)
      assert(!once.mining.timedOut && !twice.mining.timedOut && !once.schemes.timedOut && !twice.schemes.timedOut)
      assert(once.mvds.nonEmpty && twice.mvds == once.mvds, s"eps=$eps")
      assert(twice.mining.minSeps == once.mining.minSeps, s"eps=$eps")
      assert(twice.schemes.schemes.map(_.schema.bags) == once.schemes.schemes.map(_.schema.bags), s"eps=$eps")
      for ((t, o) <- twice.schemes.schemes.zip(once.schemes.schemes))
        assert(math.abs(t.j - o.j) <= 1e-9, s"eps=$eps ${o.schema}: J ${o.j} vs ${t.j}")
    }
  }

  test("nulls: the result of the frame with each null replaced by a value new to its column") {
    import spark.implicits._
    val rnd = new scala.util.Random(17)
    def orNull(v: Int): Option[String] = if (rnd.nextInt(6) == 0) None else Some(s"v$v")
    val df = Seq.fill(80) {
      val a = rnd.nextInt(4)
      (orNull(a), orNull(rnd.nextInt(3)), orNull((a * 7 + 3) % 4), orNull(rnd.nextInt(3)))
    }.toDF("A", "B", "C", "D").cache()
    val filled = df.na.fill("none")
    assert(df.filter($"A".isNull || $"D".isNull).count() > 0)
    val rel = EncodedRelation.fromDataFrame(df)
    assert(rel.rows.map(_.toSeq).toSeq == EncodedRelation.fromDataFrame(filled).rows.map(_.toSeq).toSeq)
    // null has a code of its own: one more than the column's other values
    assert(rel.rows.map(_(0)).distinct.length == df.select("A").na.drop().distinct().count() + 1)
    var mined = 0
    for (eps <- Seq(0.0, 0.3)) {
      val withNulls = Maimon.run(df, Maimon.Config(eps = eps))
      val replaced = Maimon.run(filled, Maimon.Config(eps = eps))
      assert(withNulls.mvds == replaced.mvds, s"eps=$eps")
      assert(withNulls.mining.minSeps == replaced.mining.minSeps, s"eps=$eps")
      assert(withNulls.schemes.schemes == replaced.schemes.schemes, s"eps=$eps")
      mined += withNulls.mvds.size
    }
    assert(mined > 0)
  }

  test("a relation with 65 columns through a non-PLI oracle is rejected before any entropy call") {
    val rel = EncodedRelation(Vector.tabulate(65)(i => s"c$i"), Array.fill(3)(Array.fill(65)(0)))
    val oracle = new NaiveEntropyOracle(rel)
    val e = intercept[IllegalArgumentException](
      Maimon.runWithOracle(oracle, rel.names, Maimon.Config(eps = 0.0)))
    assert(e.getMessage.contains("at most 64 attributes") && e.getMessage.contains("65 columns"), e.getMessage)
    assert(oracle.calls == 0L)
  }
}
