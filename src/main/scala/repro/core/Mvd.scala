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
}
