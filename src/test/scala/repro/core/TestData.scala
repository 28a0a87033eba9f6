package repro.core

import scala.util.Random
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle}
import repro.core.info.InfoCalc

/** Helpers for the unit tests: small random relations and their calculators. */
object TestData {

  /** Random relation with `nCols` columns over per-column domains of size
    * `domain`, deterministic in `seed`.
    */
  def randomRelation(nCols: Int, nRows: Int, domain: Int, seed: Long): EncodedRelation = {
    val rnd = new Random(seed)
    val names = Vector.tabulate(nCols)(i => ('A' + i).toChar.toString)
    val rows = Array.fill(nRows)(Array.fill(nCols)(rnd.nextInt(domain)))
    EncodedRelation(names, rows)
  }

  /** Relation where col2 = f(col0) and col3 ⊥ (col0,col1): plants an exact
    * FD and near-independence, so exact and approximate MVDs both exist.
    */
  def structuredRelation(nRows: Int, seed: Long): EncodedRelation = {
    val rnd = new Random(seed)
    val rows = Array.fill(nRows) {
      val a = rnd.nextInt(4)
      val b = rnd.nextInt(3)
      val c = (a * 7 + 3) % 4 // FD: A → C
      val d = rnd.nextInt(3)  // independent
      Array(a, b, c, d)
    }
    EncodedRelation(Vector("A", "B", "C", "D"), rows)
  }

  def calcOf(rel: EncodedRelation): InfoCalc = new InfoCalc(new LocalEntropyOracle(rel))

  /** A random MVD over attributes `0 until nAttrs` (`nAttrs` ≥ 2): a random
    * key without attributes 0 and 1, and the rest split among up to
    * `maxDeps` dependents, 0 and 1 in different ones.
    */
  def randomMvd(rnd: Random, nAttrs: Int, maxDeps: Int = 3): Mvd = {
    val key = AttrSet(rnd.nextLong() & rnd.nextLong() & AttrSet.range(nAttrs).bits & ~3L)
    val deps = Array.fill(maxDeps)(AttrSet.empty)
    deps(0) = AttrSet.single(0)
    deps(1) = AttrSet.single(1)
    for (a <- 2 until nAttrs if !key.contains(a)) {
      val d = rnd.nextInt(maxDeps)
      deps(d) = deps(d) + a
    }
    Mvd.of(key, deps.toVector)
  }

  /** All set partitions of the elements of `s` (Bell-number many — tests
    * keep |s| ≤ 6).
    */
  def allPartitions(s: AttrSet): Vector[Vector[AttrSet]] = {
    val elems = s.toSeq.toList
    def go(rem: List[Int]): Vector[Vector[AttrSet]] = rem match {
      case Nil => Vector(Vector.empty)
      case x :: rest =>
        go(rest).flatMap { p =>
          val withNew = p :+ AttrSet.single(x)
          val intoExisting = p.indices.map(i => p.updated(i, p(i) + x))
          withNew +: intoExisting.toVector
        }
    }
    go(elems)
  }
}
