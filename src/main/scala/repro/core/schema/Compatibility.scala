package repro.core.schema

import repro.core.Mvd

/** Pairwise MVD compatibility (paper Def. 7.1) — the novel insight enabling
  * the reduction of schema enumeration to maximal-independent-set
  * enumeration. φ1 = X ↠ A1|…|Am and φ2 = Y ↠ B1|…|Bk are compatible iff:
  *
  *  - split-freeness: ∃i with Y ⊆ X∪Ai and ∃j with X ⊆ Y∪Bj, and
  *  - cross-splitting: the side X∪Ai that contains Y is split by φ2
  *    (intersects ≥ 2 of its dependents), and symmetrically the side Y∪Bj
  *    containing X is split by φ1.
  *
  * (In the join-tree reading — proof of Thm 7.2 — the side of φ1 facing φ2's
  * edge always contains φ2's separator and is split by it.)
  *
  * The test runs on the attribute bitmasks of [[Words]]; ASMiner converts
  * each MVD once and calls the same predicate for every pair.
  */
object Compatibility {

  /** An MVD as attribute bitmasks: its key and its dependents. */
  private[schema] final class Words(val key: Long, val deps: Array[Long])

  private[schema] def words(m: Mvd): Words = new Words(m.key.bits, m.deps.map(_.bits).toArray)

  def compatible(p: Mvd, q: Mvd): Boolean = compatible(words(p), words(q))

  private[schema] def compatible(p: Words, q: Words): Boolean = oneWay(p, q) && oneWay(q, p)

  /** ∃i: q.key ⊆ p.key ∪ p.deps(i), with that side intersecting ≥2 deps of q. */
  private def oneWay(p: Words, q: Words): Boolean = {
    var i = 0
    while (i < p.deps.length) {
      val side = p.key | p.deps(i)
      if ((q.key & ~side) == 0L && splits(q.deps, side)) return true
      i += 1
    }
    false
  }

  /** `side` intersects at least two of `deps`. */
  private def splits(deps: Array[Long], side: Long): Boolean = {
    var hits = 0
    var j = 0
    while (j < deps.length) {
      if ((deps(j) & side) != 0L) {
        hits += 1
        if (hits == 2) return true
      }
      j += 1
    }
    false
  }

  /** Incompatibility `φ ♯ ψ` — the edge relation of the ASMiner graph. */
  def incompatible(p: Mvd, q: Mvd): Boolean = !compatible(p, q)
}
