package repro.core.entropy

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, PropSupport, TestData}

/** Reference (naive) entropy for cross-checking the PLI oracle. */
object NaiveEntropy {
  def entropy(rel: EncodedRelation, x: AttrSet): Double = {
    if (x.isEmpty || rel.size == 0) return 0.0
    val idx = x.toSeq
    val counts = rel.rows.groupBy(r => idx.map(r(_)).toVector).values.map(_.length)
    val n = rel.size.toDouble
    counts.map { c => val p = c / n; -p * (math.log(p) / math.log(2.0)) }.sum
  }
}

/** Memoized oracle over [[NaiveEntropy]]: the reference that mining with
  * [[LocalEntropyOracle]] is compared against.
  */
final class NaiveEntropyOracle(rel: EncodedRelation) extends EntropyOracle {
  private val memo = scala.collection.mutable.HashMap.empty[Long, Double]
  private var nCalls = 0L
  def nAttrs: Int = rel.n
  def nRows: Long = rel.size.toLong
  def calls: Long = nCalls
  def computations: Long = memo.size.toLong
  def entropy(x: AttrSet): Double = {
    nCalls += 1
    memo.getOrElseUpdate(x.bits, NaiveEntropy.entropy(rel, x))
  }
}

class LocalEntropySpec extends AnyFunSuite with PropSupport {

  /** Skewed values (low codes far more frequent) and duplicated rows; the
    * last column's codes are sparse and partly negative, not dictionary codes.
    */
  private def skewedRelation(nCols: Int, nRows: Int, rnd: Random): EncodedRelation = {
    val domain = 2 + rnd.nextInt(6)
    val rows = new Array[Array[Int]](nRows)
    for (r <- 0 until nRows) {
      rows(r) =
        if (r > 0 && rnd.nextDouble() < 0.3) rows(rnd.nextInt(r)).clone()
        else Array.tabulate(nCols) { c =>
          val v = (math.pow(rnd.nextDouble(), 3) * domain).toInt
          if (c == nCols - 1) v * 1009 - 500 else v
        }
    }
    EncodedRelation(Vector.tabulate(nCols)(c => s"C$c"), rows)
  }

  test("entropy of empty attribute set is 0") {
    val rel = TestData.randomRelation(3, 50, 4, seed = 1)
    assert(TestData.calcOf(rel).H(AttrSet.empty) == 0.0)
  }

  test("entropy of a constant column is 0") {
    val rel = EncodedRelation(Vector("A"), Array.fill(16)(Array(0)))
    val o = new LocalEntropyOracle(rel)
    assert(o.entropy(AttrSet.of(0)) == 0.0)
  }

  test("entropy of an all-distinct column is log2 N") {
    val rel = EncodedRelation(Vector("A"), Array.tabulate(16)(i => Array(i)))
    val o = new LocalEntropyOracle(rel)
    assert(math.abs(o.entropy(AttrSet.of(0)) - 4.0) < 1e-12)
  }

  test("uniform two-value column has entropy 1") {
    val rel = EncodedRelation(Vector("A"), Array.tabulate(10)(i => Array(i % 2)))
    val o = new LocalEntropyOracle(rel)
    assert(math.abs(o.entropy(AttrSet.of(0)) - 1.0) < 1e-12)
  }

  test("paper Example 3.4: H(BDE)=3/2 and H(ABCDEF)=2 on the running example") {
    val rel = repro.data.RunningExample.cleanEncoded
    val o = new LocalEntropyOracle(rel)
    import repro.data.RunningExample._
    assert(math.abs(o.entropy(AttrSet.of(B, D, E)) - 1.5) < 1e-12)
    assert(math.abs(o.entropy(AttrSet.range(6)) - 2.0) < 1e-12)
  }

  test("matches the naive entropy on random relations") {
    val rnd = new Random(42)
    for (trial <- 0 until 30) {
      val rel = TestData.randomRelation(4, 20 + rnd.nextInt(60), 3, seed = trial)
      val o = new LocalEntropyOracle(rel)
      AttrSet.subsetsOf(AttrSet.range(4)).foreach { x =>
        val got = o.entropy(x)
        val exp = NaiveEntropy.entropy(rel, x)
        assert(math.abs(got - exp) < 1e-9, s"trial=$trial x=$x got=$got exp=$exp")
      }
    }
  }

  test("monotonicity: H(XY) >= H(X)") {
    val rel = TestData.randomRelation(5, 80, 3, seed = 7)
    val o = new LocalEntropyOracle(rel)
    val omega = AttrSet.range(5)
    AttrSet.subsetsOf(omega).foreach { x =>
      AttrSet.subsetsOf(omega.diff(x)).foreach { y =>
        assert(o.entropy(x | y) >= o.entropy(x) - 1e-9)
      }
    }
  }

  test("submodularity: H(X)+H(Y) >= H(X∪Y)+H(X∩Y)") {
    val rel = TestData.randomRelation(4, 60, 3, seed = 8)
    val o = new LocalEntropyOracle(rel)
    val omega = AttrSet.range(4)
    for {
      x <- AttrSet.subsetsOf(omega).toVector
      y <- AttrSet.subsetsOf(omega).toVector
    } assert(o.entropy(x) + o.entropy(y) >= o.entropy(x | y) + o.entropy(x & y) - 1e-9)
  }

  test("H(Omega) = log2 N when all rows are distinct") {
    val rel = EncodedRelation(Vector("A", "B"), Array.tabulate(8)(i => Array(i / 2, i % 4)))
    // rows: (0,0),(0,1),(1,2),(1,3),(2,0),(2,1),(3,2),(3,3) — all distinct
    val o = new LocalEntropyOracle(rel)
    assert(math.abs(o.entropy(AttrSet.range(2)) - 3.0) < 1e-12)
  }

  test("memoization: repeated queries do not recompute") {
    val rel = TestData.randomRelation(3, 40, 3, seed = 9)
    val o = new LocalEntropyOracle(rel)
    o.entropy(AttrSet.of(0, 1))
    val comps = o.computations
    o.entropy(AttrSet.of(0, 1))
    o.entropy(AttrSet.of(0, 1))
    assert(o.computations == comps)
    assert(o.calls >= 3)
  }

  test("tiny partition cache still yields correct entropies") {
    val rel = TestData.randomRelation(5, 60, 3, seed = 10)
    val small = new LocalEntropyOracle(rel, partitionCacheCap = 1)
    val big = new LocalEntropyOracle(rel)
    AttrSet.subsetsOf(AttrSet.range(5)).foreach { x =>
      assert(math.abs(small.entropy(x) - big.entropy(x)) < 1e-12)
    }
  }

  test("matches the naive entropy on skewed relations with duplicate rows, any cache size") {
    val rnd = new Random(4242)
    for (trial <- 0 until 8; cap <- Seq(1, 2, 256)) {
      val rel = skewedRelation(6, 1 + rnd.nextInt(500), rnd)
      val o = new LocalEntropyOracle(rel, partitionCacheCap = cap)
      rnd.shuffle(AttrSet.subsetsOf(AttrSet.range(6)).toVector).foreach { x =>
        val got = o.entropy(x)
        val exp = NaiveEntropy.entropy(rel, x)
        assert(math.abs(got - exp) < 1e-9, s"trial=$trial cap=$cap x=$x got=$got exp=$exp")
      }
    }
  }

  test("a key column empties every partition that contains it, touching no rows") {
    val rnd = new Random(3)
    val n = 60
    val rel = EncodedRelation(Vector("K", "A", "B", "C", "D"),
      Array.tabulate(n)(r => Array(r, rnd.nextInt(3), rnd.nextInt(3), rnd.nextInt(2), rnd.nextInt(4))))
    val o = new LocalEntropyOracle(rel)
    rnd.shuffle(AttrSet.subsetsOf(AttrSet.range(5)).toVector).foreach { x =>
      val before = o.rowsTouched
      val h = o.entropy(x)
      if (x.contains(0)) {
        assert(o.rowsTouched == before, s"x=$x touched ${o.rowsTouched - before} rows")
        assert(math.abs(h - EntropyOracle.log2(n.toDouble)) < 1e-12, s"x=$x")
      }
    }
    assert(o.rowsTouched > 0 && o.partitionIntersections > 0)
  }

  test("counters: one intersection per new pair, then a cache hit for the superset") {
    val rel = TestData.randomRelation(4, 50, 3, seed = 12)
    val o = new LocalEntropyOracle(rel)
    o.entropy(AttrSet.of(0, 1))
    assert(o.partitionIntersections == 1 && o.partitionCacheHits == 0)
    val touched = o.rowsTouched
    assert(touched > 0 && touched <= rel.size)
    o.entropy(AttrSet.of(0, 1, 2)) // only {0,1} of its 2-subsets is cached
    assert(o.partitionIntersections == 2 && o.partitionCacheHits == 1)
    o.entropy(AttrSet.of(0, 1, 2)) // memo hit: no partition work
    assert(o.partitionIntersections == 2 && o.partitionCacheHits == 1)
  }

  test("a partition cached on the way to a larger one is reused without an intersection") {
    // stripped rows per column: 8, 12, 20, 24 (a value unique past row k is stripped)
    val n = 24
    def col(k: Int, mod: Int)(r: Int): Int = if (r < k) r % mod else r
    val rel = EncodedRelation(Vector("A", "B", "C", "D"),
      Array.tabulate(n)(r => Array(col(8, 4)(r), col(12, 3)(r), col(20, 2)(r), 0)))
    val o = new LocalEntropyOracle(rel)
    // no 3-subset of Ω is cached, so Ω is built on {A,B,C}, built on {A,B}
    o.entropy(AttrSet.range(4))
    assert(o.partitionIntersections == 3 && o.partitionCacheHits == 0)
    val h = o.entropy(AttrSet.of(0, 1, 2))
    assert(o.partitionIntersections == 3 && o.partitionCacheHits == 1)
    assert(math.abs(h - NaiveEntropy.entropy(rel, AttrSet.of(0, 1, 2))) < 1e-12)
  }

  test("four workers asking at once share one memo and agree with a single thread") {
    val nCols = 10
    val rel = TestData.randomRelation(nCols, 300, 3, seed = 77)
    val single = new LocalEntropyOracle(rel)
    for (round <- 0 until 20) {
      val o = new LocalEntropyOracle(rel)
      val ws = o.workers(4)
      assert(ws.size == 4)
      // 4 × 400 queries over 2^10 sets: the threads ask many sets at once
      val rnd = new Random(round)
      val asked = Array.fill(4, 400)(AttrSet(rnd.nextLong() & AttrSet.range(nCols).bits))
      val got = Array.ofDim[Double](4, 400)
      val go = new java.util.concurrent.CountDownLatch(1)
      val failure = new java.util.concurrent.atomic.AtomicReference[Throwable]
      val threads = (0 until 4).map { t =>
        new Thread(() =>
          try {
            go.await()
            for (i <- 0 until 400) got(t)(i) = ws(t).entropy(asked(t)(i))
          } catch { case e: Throwable => failure.set(e) })
      }
      threads.foreach(_.start())
      go.countDown()
      threads.foreach(_.join())
      assert(failure.get == null, String.valueOf(failure.get))
      val value = scala.collection.mutable.HashMap.empty[AttrSet, Double]
      for (t <- 0 until 4; i <- 0 until 400) {
        val x = asked(t)(i)
        assert(value.getOrElseUpdate(x, got(t)(i)) == got(t)(i), s"round $round: two values for $x")
        assert(math.abs(got(t)(i) - single.entropy(x)) < 1e-12, s"round $round x=$x")
      }
      assert(o.computations == value.size && ws.forall(_.computations == value.size))
      assert(ws.map(_.calls).sum == 4 * 400 && o.calls == 0)
    }
  }

  test("more than 64 columns is rejected, naming the AttrSet limit") {
    val rel = EncodedRelation(Vector.tabulate(65)(i => s"C$i"), Array(Array.fill(65)(0)))
    val e = intercept[IllegalArgumentException](new LocalEntropyOracle(rel))
    assert(e.getMessage.contains("AttrSet") && e.getMessage.contains("64"))
  }

  test("a row whose arity differs from the column count is rejected") {
    val rel = EncodedRelation(Vector("A", "B"), Array(Array(0, 1), Array(0)))
    intercept[IllegalArgumentException](new LocalEntropyOracle(rel))
  }

  test("0 rows: every entropy is 0") {
    val rel = EncodedRelation(Vector("A", "B", "C"), Array.empty[Array[Int]])
    val o = new LocalEntropyOracle(rel)
    AttrSet.subsetsOf(AttrSet.range(3)).foreach(x => assert(o.entropy(x) == 0.0, s"x=$x"))
  }

  test("0 columns: the oracle constructs and H(∅) = 0") {
    val o = new LocalEntropyOracle(EncodedRelation(Vector.empty, Array.fill(5)(Array.empty[Int])))
    assert(o.nAttrs == 0 && o.entropy(AttrSet.empty) == 0.0)
  }

  test("a constant column is one cluster of all N rows") {
    val n = 16
    val o = new LocalEntropyOracle(EncodedRelation(Vector("A", "B"), Array.fill(n)(Array(7, 3))))
    assert(o.entropy(AttrSet.of(0, 1)) == 0.0)
    assert(o.rowsTouched == n) // the intersected single column holds all N rows
  }

  test("duplicate rows: entropy counts each copy") {
    // groups (0,0)×2, (1,1), (1,2): H = 0.5·1 + 2·0.25·2 = 1.5
    val rel = EncodedRelation(Vector("A", "B"), Array(Array(0, 0), Array(0, 0), Array(1, 1), Array(1, 2)))
    val o = new LocalEntropyOracle(rel)
    assert(math.abs(o.entropy(AttrSet.range(2)) - 1.5) < 1e-12)
    assert(math.abs(o.entropy(AttrSet.of(0)) - 1.0) < 1e-12)
    assert(math.abs(o.entropy(AttrSet.of(1)) - 1.5) < 1e-12)
  }

  test("fromTuples encodes value equality per column") {
    val rel = EncodedRelation.fromTuples(Vector("A", "B"),
      Seq(Seq("x", 1), Seq("x", 2), Seq("y", 1)))
    assert(rel.size == 3)
    assert(rel.rows(0)(0) == rel.rows(1)(0)) // same "x"
    assert(rel.rows(0)(0) != rel.rows(2)(0))
    assert(rel.rows(0)(1) == rel.rows(2)(1)) // same 1
  }
}
