package repro.core

/** A (generalized) multivalued dependency `X ↠ Y1 | Y2 | … | Ym` (paper
  * Sec. 3.1): `key = X`, `deps = {Y1..Ym}` pairwise disjoint and non-empty.
  *
  * Construct through [[Mvd.of]], which normalizes the dependent order so
  * structural equality coincides with MVD equality.
  */
final case class Mvd(key: AttrSet, deps: Vector[AttrSet]) {

  /** All attributes mentioned: `X ∪ Y1 ∪ … ∪ Ym`. */
  def attrs: AttrSet = deps.foldLeft(key)(_ | _)

  /** Number of dependents m. */
  def arity: Int = deps.size

  /** Index of the dependent containing attribute `i`, or -1. */
  def depContaining(i: Int): Int = deps.indexWhere(_.contains(i))

  /** True when `a` and `b` lie in two distinct dependents. */
  def separates(a: Int, b: Int): Boolean = {
    val da = depContaining(a)
    val db = depContaining(b)
    da >= 0 && db >= 0 && da != db
  }

  /** `this` refines `that` (paper Sec. 5.2): same key and every dependent of
    * `this` is contained in some dependent of `that`.
    */
  def refines(that: Mvd): Boolean =
    key == that.key && deps.forall(d => that.deps.exists(d.subsetOf(_)))

  def strictlyRefines(that: Mvd): Boolean = refines(that) && this != that

  /** `merge_ij(φ)`: the MVD with dependents i and j replaced by their union. */
  def merge(i: Int, j: Int): Mvd = {
    require(i != j, "cannot merge a dependent with itself")
    val merged = deps(i) | deps(j)
    val rest = deps.indices.filter(x => x != i && x != j).map(deps).toVector
    Mvd.of(key, rest :+ merged)
  }

  /** The join `φ ∨ ψ` (paper Sec. 5.2 / Appendix 11): same-key MVD whose
    * dependents are all non-empty pairwise intersections; refines both.
    */
  def vee(that: Mvd): Mvd = {
    require(key == that.key, "join is only defined for MVDs with equal keys")
    Mvd.of(key, for { a <- deps; b <- that.deps; c = a & b if c.nonEmpty } yield c)
  }

  def render(names: Seq[String]): String =
    s"${key.render(names)} ↠ ${deps.map(_.render(names)).mkString(" | ")}"
}

object Mvd {

  /** Normalized constructor: drops empty dependents and sorts by bitmask so
    * that equal MVDs are structurally equal.
    */
  def of(key: AttrSet, deps: Iterable[AttrSet]): Mvd = {
    val ds = deps.filter(_.nonEmpty).toVector.sortBy(_.bits)
    require(ds.size >= 2, s"an MVD needs at least two dependents, got $ds")
    var seen = AttrSet.empty
    ds.foreach { d =>
      require(!d.intersects(seen) && !d.intersects(key),
              s"dependents must be disjoint from each other and the key: $key / $ds")
      seen = seen | d
    }
    Mvd(key, ds)
  }

  /** The finest MVD with key `x` over universe `omega`: every non-key
    * attribute is its own dependent.
    */
  def finest(x: AttrSet, omega: AttrSet): Mvd =
    of(x, omega.diff(x).toSeq.map(AttrSet.single))
}
