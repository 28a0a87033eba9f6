package repro.core.mine

import java.lang.Long.bitCount
import repro.core.AttrSet

/** Berge's incremental minimal transversals (Berge, *Hypergraphs*, 1989),
  * the dualization of MineMinSeps (paper Sec. 6.1, Thm 6.1). The family F
  * holds the minimal transversals of the edges so far ({∅} for none) as
  * masks in size order, each with a processed flag. Three facts about an
  * antichain F and a new edge e give the step:
  *  1. every t ∈ F that hits e stays;
  *  2. for the t ∈ F that miss e, the candidates t ∪ {x}, x ∈ e ascending,
  *     are distinct and incomparable, and none lies inside a staying set:
  *     each such inclusion puts one member of F strictly inside another. So
  *     a candidate is dropped iff a staying s lies inside it (s − t = {x}),
  *     and nothing else is deduplicated or minimized;
  *  3. the staying sets and the kept candidates are each in size order, so
  *     a stable merge, staying sets first on ties, is the stable sort by size.
  * Flags move with the staying sets and candidates start unprocessed: a set
  * that left F missed an edge, so it never returns. An empty edge empties F.
  */
final class Transversals {
  private var sets = Array(0L)
  private var done = Array(false)
  private var first = 0 // every set before `first` is processed

  /** F in order, each set with its processed flag. */
  def family: Vector[(AttrSet, Boolean)] = Vector.tabulate(sets.length)(i => (AttrSet(sets(i)), done(i)))

  /** Marks the first unprocessed set of F processed and returns it; None when all are. */
  def next(): Option[AttrSet] = {
    while (first < sets.length && done(first)) first += 1
    if (first == sets.length) None else { done(first) = true; Some(AttrSet(sets(first))) }
  }

  /** One Berge step: F becomes the minimal transversals of its edges and `edge`. */
  def addEdge(edge: AttrSet): Unit = {
    val e = edge.bits
    // The staying sets, and among them the ones that meet e once: a staying
    // s with s − t = {x} meets e in x alone, as t misses e, and has at most
    // |t| attributes, as s ≠ t ∪ {x} in the antichain F. Both lists are in
    // size order like the t, so each t scans a prefix of `once`.
    val stay = new Array[Int](sets.length)
    val once = new Array[Long](sets.length)
    var nStay, nOnce = 0
    var i = 0
    while (i < sets.length) {
      val hit = sets(i) & e
      if (hit != 0L) {
        stay(nStay) = i
        nStay += 1
        if ((hit & (hit - 1)) == 0L) { once(nOnce) = sets(i); nOnce += 1 }
      }
      i += 1
    }
    val cands = new scala.collection.mutable.ArrayBuilder.ofLong
    var end = 0 // the sets of `once` before `end` have at most |t| attributes
    i = 0
    while (i < sets.length) {
      val t = sets(i)
      if ((t & e) == 0L) {
        while (end < nOnce && bitCount(once(end)) <= bitCount(t)) end += 1
        var kill = 0L // the x of each staying s with s − t = {x}
        var k = 0
        while (k < end) { val r = once(k) & ~t; if ((r & (r - 1)) == 0L) kill |= r; k += 1 }
        var xs = e & ~kill
        while (xs != 0L) { cands += t | (xs & -xs); xs &= xs - 1 }
      }
      i += 1
    }
    val c = cands.result()
    val (merged, flags) = (new Array[Long](nStay + c.length), new Array[Boolean](nStay + c.length))
    i = 0
    var j = 0
    while (i + j < merged.length) {
      if (j == c.length || i < nStay && bitCount(sets(stay(i))) <= bitCount(c(j))) {
        merged(i + j) = sets(stay(i)); flags(i + j) = done(stay(i)); i += 1
      } else { merged(i + j) = c(j); j += 1 }
    }
    sets = merged; done = flags; first = 0
  }
}
