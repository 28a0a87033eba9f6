package repro.core.entropy

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.core.AttrSet

/** A relation dictionary-encoded to `Int` codes, row-major.
  *
  * This is the input format of [[LocalEntropyOracle]]; it is produced from a
  * Spark DataFrame (one `collect`, the only full scan the mining phase ever
  * does — mirroring the paper, which loads CNT/TID tables into main-memory
  * H2 once and never rescans the base data).
  */
final case class EncodedRelation(names: Vector[String], rows: Array[Array[Int]]) {
  def n: Int = names.size
  def size: Int = rows.length
}

object EncodedRelation {

  /** Collect and dictionary-encode a DataFrame (null becomes its own code). */
  def fromDataFrame(df: DataFrame): EncodedRelation = {
    val rows = df.collect()
    encode(df.columns.toVector, rows.length) { (r, c) =>
      if (rows(r).isNullAt(c)) NullToken else rows(r).get(c)
    }
  }

  /** Build from in-memory tuples (tests, running example). */
  def fromTuples(names: Vector[String], tuples: Seq[Seq[Any]]): EncodedRelation = {
    val ts = tuples.toIndexedSeq
    require(ts.forall(_.size == names.size), "tuple arity mismatch")
    encode(names, ts.size)((r, c) => ts(r)(c))
  }

  /** Code each column's values in order of first appearance, reading the
    * rows in order and each row column by column.
    */
  private def encode(names: Vector[String], nRows: Int)(value: (Int, Int) => Any): EncodedRelation = {
    val dicts = Array.fill(names.size)(new mutable.HashMap[Any, Int]())
    val rows = Array.tabulate(nRows) { r =>
      Array.tabulate(names.size) { c =>
        val d = dicts(c)
        d.getOrElseUpdate(value(r, c), d.size)
      }
    }
    EncodedRelation(names, rows)
  }

  private object NullToken
}

/** Main-memory entropy oracle over stripped partitions (PLIs), in the style
  * of TANE (Huhtala et al., Comput. J. 1999).
  *
  * The partition of a column set α groups the rows by their α-values. It is
  * stored stripped (paper Sec. 6.3, idea (1)): only clusters of two or more
  * rows are kept, as one row-id array cut into clusters by an offset array.
  * Singleton clusters contribute 0 to Σ c·log2 c, which each partition
  * carries from the moment it is built. Single columns are built once, by a
  * counting sort over the dictionary codes. The partition of α ∪ {A} is the
  * intersection of the partition of α with column A (idea (2): the
  * TID-join). It splits the clusters of α with A's column of codes as the
  * probe table, in time linear in the stripped rows of α, not in N.
  *
  * On a memo miss for α, the oracle takes α's partition from the cache if
  * it is there. Otherwise it builds it one column at a time, as TANE does:
  * it intersects column A into the cached α − {A} with the fewest stripped
  * rows, and when no α − {A} is cached, it first builds α − {A*} by the
  * same rule, A* the column of α with the most stripped rows. Every
  * multi-column partition built this way is cached LRU, at most
  * `partitionCacheCap` of them; single columns are kept aside. Entropies
  * are memoized without bound in a primitive open-addressing table.
  *
  * This is our analog of the paper's main-memory H2 CNT/TID engine, and
  * like it a service that several workers query at once (Sec. 6.3):
  * [[workers]] gives each worker an oracle of its own over this one's
  * relation.
  *  - Shared by this oracle and all its workers, and safe to read from any
  *    thread: the column codes, the single-column partitions, the
  *    `c·log2 c` table and the entropy memo. Any thread may add to the memo;
  *    `computations` counts the entropies added, so two workers that compute
  *    one set at once count it once, and the later one returns the value
  *    already there.
  *  - Per oracle, for one thread at a time: the intersection scratch arrays,
  *    the partition cache and the counters other than `computations`. An
  *    oracle holds no reference to the workers it made, so theirs are
  *    dropped with them.
  */
final class LocalEntropyOracle private (shared: LocalEntropyOracle.Shared, partitionCacheCap: Int)
    extends EntropyOracle {
  import LocalEntropyOracle.{EmptyPli, Pli}
  import shared.{cLog2C, codes, memo, nR, singles}

  def this(rel: EncodedRelation, partitionCacheCap: Int = 256) =
    this(new LocalEntropyOracle.Shared(rel), partitionCacheCap)

  def nAttrs: Int = codes.length
  def nRows: Long = nR.toLong

  /** `n` fresh oracles over this one's shared state, one per worker. */
  override def workers(n: Int): Vector[EntropyOracle] =
    Vector.fill(n)(new LocalEntropyOracle(shared, partitionCacheCap))

  private var callCount = 0L
  private var intersectCount = 0L
  private var cacheHitCount = 0L
  private var touchedCount = 0L

  /** Queries asked of this oracle; a worker's count in the worker. */
  def calls: Long = callCount

  /** Entropies computed into the shared memo, by this oracle or any worker. */
  def computations: Long = memo.size

  /** Partition intersections performed, those with an empty input included. */
  def partitionIntersections: Long = intersectCount

  /** Partition lookups answered by the LRU cache of multi-column partitions. */
  def partitionCacheHits: Long = cacheHitCount

  /** Stripped rows of the multi-column side read by intersections. */
  def rowsTouched: Long = touchedCount

  // LRU partition cache (access-order LinkedHashMap), singles kept aside.
  private val partCache = new java.util.LinkedHashMap[Long, Pli](64, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[Long, Pli]): Boolean =
      size() > partitionCacheCap
  }

  // Intersection scratch, shared by this oracle's calls and left clean after each.
  private val count = new Array[Int](nR) // per code of the probe column; 0 when idle
  private val touched = new Array[Int](nR) // codes met by the current cluster
  private val outRows = new Array[Int](nR)
  private val outOffsets = new Array[Int](nR / 2 + 2) // at most N/2 clusters, plus the end

  def entropy(x: AttrSet): Double = {
    callCount += 1
    val h = memo.get(x.bits)
    if (!java.lang.Double.isNaN(h)) h else memo.putIfAbsent(x.bits, compute(x))
  }

  private def compute(x: AttrSet): Double =
    if (x.isEmpty || nR == 0) 0.0
    else EntropyOracle.fromGroupSizes(nRows, partition(x).sumClog2C)

  /** Partition for α by the lookup rule of the class doc. `best` is the
    * cached α − {A} with the fewest stripped rows, `widest` the A* to build
    * on when there is none.
    */
  private def partition(x: AttrSet): Pli = {
    val own = cached(x)
    if (own != null) return own
    var best: Pli = null
    var bestAttr = -1
    var widest = -1
    var rest = x.bits
    while (rest != 0L) {
      val a = java.lang.Long.numberOfTrailingZeros(rest)
      rest &= rest - 1
      val p = cached(x - a)
      if (p != null && (best == null || p.size < best.size)) { best = p; bestAttr = a }
      if (widest < 0 || singles(a).size > singles(widest).size) widest = a
    }
    val p = if (best != null) intersect(best, bestAttr) else intersect(partition(x - widest), widest)
    partCache.put(x.bits, p)
    p
  }

  /** The partition of `x` if it is a single column or cached, else null. */
  private def cached(x: AttrSet): Pli =
    if (x.size == 1) singles(x.head)
    else {
      val p = partCache.get(x.bits)
      if (p != null) cacheHitCount += 1
      p
    }

  /** Intersect stripped partition `a` with column `c`: split every cluster
    * of `a` by its rows' codes in `c`, which serve as the probe table.
    * Rows stripped in `a` stay stripped, and pieces of one row are
    * stripped, so a row that is a singleton in `c` drops out. The cost is
    * linear in the stripped rows of `a`; nothing of size N is touched.
    */
  private def intersect(a: Pli, c: Int): Pli = {
    intersectCount += 1
    if (a.size == 0 || singles(c).size == 0) return EmptyPli
    touchedCount += a.size
    val probe = codes(c)
    var nOut = 0
    var nClusters = 0
    var sum = 0.0
    var i = 0
    while (i < a.nClusters) {
      val from = a.offsets(i)
      val until = a.offsets(i + 1)
      if (until - from == 2) {
        // Most clusters of a deep partition have two rows: keep or drop.
        if (probe(a.rows(from)) == probe(a.rows(from + 1))) {
          outOffsets(nClusters) = nOut
          nClusters += 1
          outRows(nOut) = a.rows(from)
          outRows(nOut + 1) = a.rows(from + 1)
          nOut += 2
          sum += cLog2C(2)
        }
      } else {
        // Count this cluster's rows per code.
        var nTouched = 0
        var q = from
        while (q < until) {
          val k = probe(a.rows(q))
          if (count(k) == 0) { touched(nTouched) = k; nTouched += 1 }
          count(k) += 1
          q += 1
        }
        // Pieces of ≥ 2 rows get an output cluster: their count becomes a
        // write cursor. Pieces of one row are marked -1 and dropped.
        var t = 0
        while (t < nTouched) {
          val k = touched(t)
          val size = count(k)
          if (size >= 2) {
            outOffsets(nClusters) = nOut
            nClusters += 1
            count(k) = nOut
            nOut += size
            sum += cLog2C(size)
          } else count(k) = -1
          t += 1
        }
        q = from
        while (q < until) {
          val r = a.rows(q)
          val k = probe(r)
          if (count(k) >= 0) { outRows(count(k)) = r; count(k) += 1 }
          q += 1
        }
        t = 0
        while (t < nTouched) { count(touched(t)) = 0; t += 1 }
      }
      i += 1
    }
    outOffsets(nClusters) = nOut
    new Pli(java.util.Arrays.copyOf(outRows, nOut),
            java.util.Arrays.copyOf(outOffsets, nClusters + 1), sum)
  }
}

object LocalEntropyOracle {

  /** A stripped partition: cluster i is `rows(offsets(i) until offsets(i + 1))`,
    * every cluster has at least two rows, and `sumClog2C` = Σ c·log2 c over
    * the cluster sizes c.
    */
  private final class Pli(val rows: Array[Int], val offsets: Array[Int], val sumClog2C: Double) {
    def size: Int = rows.length
    def nClusters: Int = offsets.length - 1
  }

  private val EmptyPli = new Pli(Array.emptyIntArray, Array(0), 0.0)

  /** The state an oracle shares with its workers. All but the memo is
    * immutable once built.
    */
  private final class Shared(rel: EncodedRelation) {
    require(rel.n <= 64,
      s"relation has ${rel.n} columns; AttrSet holds at most 64 attributes")
    require(rel.rows.forall(_.length == rel.n),
      s"every row must have ${rel.n} values, one per column")

    val nR: Int = rel.size

    /** `c·log2 c` for c = 0..N. */
    val cLog2C: Array[Double] =
      Array.tabulate(nR + 1)(c => if (c < 2) 0.0 else c * EntropyOracle.log2(c.toDouble))

    /** Column-major codes in [0, N): `codes(c)(r)` is row r's code in column
      * c. They are the probe tables of intersections.
      */
    val codes: Array[Array[Int]] = Array.tabulate(rel.n)(denseCodes)
    val singles: Array[Pli] = codes.map(singleColumn)
    val memo = new ConcurrentLongDoubleMap

    /** Stripped partition of a column by a counting sort over its codes:
      * clusters in code order, rows ascending within a cluster.
      */
    private def singleColumn(codes: Array[Int]): Pli = {
      val size = new Array[Int](nR)
      codes.foreach(k => size(k) += 1)
      val cursor = new Array[Int](nR)
      var nOut = 0
      var nClusters = 0
      var sum = 0.0
      var k = 0
      while (k < nR) {
        if (size(k) >= 2) {
          cursor(k) = nOut
          nOut += size(k)
          nClusters += 1
          sum += cLog2C(size(k))
        }
        k += 1
      }
      val rows = new Array[Int](nOut)
      val offsets = new Array[Int](nClusters + 1)
      var i = 0
      k = 0
      while (k < nR) {
        if (size(k) >= 2) { offsets(i) = cursor(k); i += 1 }
        k += 1
      }
      offsets(nClusters) = nOut
      var r = 0
      while (r < nR) {
        val code = codes(r)
        if (size(code) >= 2) { rows(cursor(code)) = r; cursor(code) += 1 }
        r += 1
      }
      new Pli(rows, offsets, sum)
    }

    /** Column `c`'s codes in [0, N): as they are when they already lie there,
      * as dictionary-encoded relations' do, else replaced by their rank among
      * the column's distinct codes.
      */
    private def denseCodes(c: Int): Array[Int] = {
      val codes = Array.tabulate(nR)(r => rel.rows(r)(c))
      if (codes.forall(k => k >= 0 && k < nR)) codes
      else {
        val distinct = codes.clone()
        java.util.Arrays.sort(distinct)
        var u = 0
        for (i <- distinct.indices if i == 0 || distinct(i) != distinct(i - 1)) {
          distinct(u) = distinct(i)
          u += 1
        }
        codes.map(k => java.util.Arrays.binarySearch(distinct, 0, u, k))
      }
    }
  }
}

/** `Long → Double` memo that any number of threads read without a lock while
  * one at a time adds to it. Open addressing, linear probing, at most half
  * full; key 0 marks a free slot, so the entry for key 0 is held aside. An
  * adder writes a slot's value before it publishes the key with a release
  * store, so a reader that sees the key sees the value. A table that fills
  * up is copied into one twice its size, which then replaces it; a reader
  * still probing the old one may miss a key added since, and reads it as
  * absent. `get` returns NaN for an absent key, so NaN must never be stored.
  */
private final class ConcurrentLongDoubleMap {
  import ConcurrentLongDoubleMap.Table

  @volatile private var table = new Table(8)
  @volatile private var zeroVal = Double.NaN
  @volatile private var used = 0 // keys in `table`; written under the lock, as the table is

  /** Keys added so far. */
  def size: Long = used + (if (java.lang.Double.isNaN(zeroVal)) 0L else 1L)

  def get(k: Long): Double = if (k == 0L) zeroVal else table.get(k)

  /** Adds `k → v` if `k` is absent; returns the value `k` then has. */
  def putIfAbsent(k: Long, v: Double): Double = synchronized {
    if (k == 0L) {
      if (java.lang.Double.isNaN(zeroVal)) zeroVal = v
      zeroVal
    } else {
      val t = table
      val i = t.slot(k)
      if (t.keys.get(i) == k) t.vals(i)
      else {
        t.add(i, k, v)
        used += 1
        if (2 * used > t.capacity) table = t.doubled
        v
      }
    }
  }
}

private object ConcurrentLongDoubleMap {

  private final class Table(logCapacity: Int) {
    val keys = new java.util.concurrent.atomic.AtomicLongArray(1 << logCapacity)
    val vals = new Array[Double](1 << logCapacity)
    private val mask = (1 << logCapacity) - 1

    def capacity: Int = mask + 1

    private def home(k: Long): Int = ((k * 0x9E3779B97F4A7C15L) >>> (64 - logCapacity)).toInt

    def get(k: Long): Double = {
      var i = home(k)
      var key = keys.getAcquire(i)
      while (key != k && key != 0L) {
        i = (i + 1) & mask
        key = keys.getAcquire(i)
      }
      if (key == k) vals(i) else Double.NaN
    }

    /** The slot holding `k`, or the free slot where `k` belongs. */
    def slot(k: Long): Int = {
      var i = home(k)
      while (keys.get(i) != 0L && keys.get(i) != k) i = (i + 1) & mask
      i
    }

    def add(i: Int, k: Long, v: Double): Unit = {
      vals(i) = v
      keys.setRelease(i, k)
    }

    def doubled: Table = {
      val t = new Table(logCapacity + 1)
      for (i <- 0 to mask if keys.get(i) != 0L) t.add(t.slot(keys.get(i)), keys.get(i), vals(i))
      t
    }
  }
}
