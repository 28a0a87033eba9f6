package repro.core

/** Immutable set of attribute indices packed into a 64-bit bitmask.
  *
  * The paper's widest dataset (Voter State) has 45 columns, so a single
  * `Long` covers every relation Maimon is evaluated on. All set algebra the
  * mining algorithms need (union, intersection, difference, subset tests,
  * submask enumeration) is O(1) or O(popcount).
  */
final case class AttrSet(bits: Long) extends AnyVal {
  def contains(i: Int): Boolean = ((bits >>> i) & 1L) != 0L
  def +(i: Int): AttrSet = AttrSet(bits | (1L << i))
  def -(i: Int): AttrSet = AttrSet(bits & ~(1L << i))
  def |(o: AttrSet): AttrSet = AttrSet(bits | o.bits)
  def &(o: AttrSet): AttrSet = AttrSet(bits & o.bits)

  /** Set difference `this \ o`. */
  def diff(o: AttrSet): AttrSet = AttrSet(bits & ~o.bits)

  def size: Int = java.lang.Long.bitCount(bits)
  def isEmpty: Boolean = bits == 0L
  def nonEmpty: Boolean = bits != 0L
  def subsetOf(o: AttrSet): Boolean = (bits & ~o.bits) == 0L
  def strictSubsetOf(o: AttrSet): Boolean = subsetOf(o) && bits != o.bits
  def intersects(o: AttrSet): Boolean = (bits & o.bits) != 0L

  /** Lowest attribute index in the set; undefined (64) on empty. */
  def head: Int = java.lang.Long.numberOfTrailingZeros(bits)

  /** Ascending member indices. */
  def toSeq: IndexedSeq[Int] = {
    val out = Vector.newBuilder[Int]
    var b = bits
    while (b != 0L) {
      val i = java.lang.Long.numberOfTrailingZeros(b)
      out += i
      b &= b - 1
    }
    out.result()
  }

  /** Render with per-attribute names, e.g. `{A,B,D}`. */
  def render(names: Seq[String]): String =
    toSeq.map(names(_)).mkString("{", ",", "}")

  override def toString: String = toSeq.mkString("{", ",", "}")
}

object AttrSet {
  val empty: AttrSet = AttrSet(0L)

  def single(i: Int): AttrSet = AttrSet(1L << i)

  def of(is: Int*): AttrSet = is.foldLeft(empty)(_ + _)

  def fromSeq(is: Iterable[Int]): AttrSet = is.foldLeft(empty)(_ + _)

  /** `{0, 1, …, n-1}`. */
  def range(n: Int): AttrSet = {
    require(n >= 0 && n <= 64, s"attribute count $n out of [0,64]")
    AttrSet(if (n == 64) -1L else (1L << n) - 1L)
  }

  /** All 2^|s| submasks of `s` (including empty and `s`) — used by the
    * brute-force reference implementations in the tests.
    */
  def subsetsOf(s: AttrSet): Iterator[AttrSet] = new Iterator[AttrSet] {
    private var cur = 0L
    private var done = false
    def hasNext: Boolean = !done
    def next(): AttrSet = {
      val out = AttrSet(cur)
      if (cur == s.bits) done = true
      else cur = (cur - s.bits) & s.bits // standard submask increment
      out
    }
  }
}
