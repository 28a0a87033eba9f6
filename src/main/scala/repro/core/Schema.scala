package repro.core

/** A schema `S = {Ω1, …, Ωm}` (paper Sec. 3.1): an antichain of attribute
  * sets covering their union. Construct through [[Schema.of]], which dedupes
  * and drops subsumed bags.
  */
final case class Schema(bags: Vector[AttrSet]) {
  def attrs: AttrSet = bags.foldLeft(AttrSet.empty)(_ | _)
  def nRelations: Int = bags.size

  /** Largest bag size (treewidth + 1, see paper Sec. 8.4). */
  def width: Int = bags.map(_.size).max

  /** Largest pairwise bag intersection. For an acyclic schema this equals
    * the largest join-tree separator (any non-adjacent intersection is
    * contained in every separator on the tree path between the two bags).
    */
  def intWidth: Int =
    if (bags.size < 2) 0
    else (for { i <- bags.indices; j <- (i + 1) until bags.size } yield (bags(i) & bags(j)).size).max

  def render(names: Seq[String]): String =
    bags.map(_.render(names)).mkString("[", ", ", "]")
}

object Schema {
  /** Normalize: dedupe, drop bags contained in other bags, sort by bitmask. */
  def of(bags: Iterable[AttrSet]): Schema = {
    val bs = bags.filter(_.nonEmpty).toVector.distinct
    val kept = bs.filter(b => !bs.exists(o => o != b && b.subsetOf(o)))
    require(kept.nonEmpty, "schema must have at least one bag")
    Schema(kept.sortBy(_.bits))
  }

  /** The simple acyclic schema of an MVD: `{XY1, …, XYm}`. */
  def ofMvd(m: Mvd): Schema = of(m.deps.map(m.key | _))
}

/** A rooted join tree for an acyclic schema: node i's bag is `bags(i)`,
  * `parent(i)` is its parent index (root has parent -1). Satisfies the
  * running-intersection property (Def. 3.1).
  */
final case class JoinTree(bags: Vector[AttrSet], parent: Vector[Int]) {
  def attrs: AttrSet = bags.foldLeft(AttrSet.empty)(_ | _)

  /** Edges as (child, parent) pairs. */
  def edges: Vector[(Int, Int)] =
    bags.indices.filter(parent(_) >= 0).map(i => (i, parent(i))).toVector

  /** The edge separators `χ(u) ∩ χ(v)`. */
  def separators: Vector[AttrSet] = edges.map { case (c, p) => bags(c) & bags(p) }

  def children(i: Int): Vector[Int] = bags.indices.filter(parent(_) == i).toVector

  def schema: Schema = Schema.of(bags)

  /** The support MVD(T): one MVD per edge, `χ(u)∩χ(v) ↠ χ(Tu) | χ(Tv)`
    * (paper Sec. 3.1). Returns only the edges whose MVD is well-formed
    * (both sides non-empty after removing the separator).
    */
  def support: Vector[Mvd] = {
    val all = attrs
    edges.flatMap { case (c, p) =>
      val sep = bags(c) & bags(p)
      val below = subtreeAttrs(c)
      val above = all.diff(below) | sep
      val y = below.diff(sep)
      val z = above.diff(sep)
      if (y.nonEmpty && z.nonEmpty) Some(Mvd.of(sep, Vector(y, z))) else None
    }
  }

  /** Attributes of the subtree rooted at node i. */
  def subtreeAttrs(i: Int): AttrSet =
    children(i).foldLeft(bags(i))((acc, c) => acc | subtreeAttrs(c))
}

object JoinTree {

  /** Build a join tree for `s` via a maximum-weight spanning tree on pairwise
    * bag-intersection sizes (Maier's algorithm), then verify the
    * running-intersection property. Returns None iff `s` is cyclic.
    */
  def fromSchema(s: Schema): Option[JoinTree] = {
    val bags = s.bags
    val n = bags.size
    if (n == 1) return Some(JoinTree(bags, Vector(-1)))
    // Prim's algorithm from node 0; weight = |∩|, zero-weight edges allowed
    // so disconnected intersection graphs still yield a (cartesian) tree.
    val parent = Array.fill(n)(-1)
    val inTree = Array.fill(n)(false)
    val best = Array.fill(n)(-1) // best weight to tree
    inTree(0) = true
    for (j <- 1 until n) { best(j) = (bags(0) & bags(j)).size; parent(j) = 0 }
    for (_ <- 1 until n) {
      var pick = -1
      for (j <- 0 until n if !inTree(j) && (pick == -1 || best(j) > best(pick))) pick = j
      inTree(pick) = true
      for (j <- 0 until n if !inTree(j)) {
        val w = (bags(pick) & bags(j)).size
        if (w > best(j)) { best(j) = w; parent(j) = pick }
      }
    }
    val t = JoinTree(bags, parent.toVector)
    if (hasRunningIntersection(t)) Some(t) else None
  }

  /** Running-intersection property: for every attribute, the nodes whose bag
    * contains it induce a connected subtree.
    */
  def hasRunningIntersection(t: JoinTree): Boolean = {
    val n = t.bags.size
    t.attrs.toSeq.forall { a =>
      val holders = (0 until n).filter(t.bags(_).contains(a)).toSet
      if (holders.size <= 1) true
      else {
        // walk up from each holder; every step within the holder-set must
        // stay connected: count edges of the induced subgraph.
        val edgesIn = holders.count(i => t.parent(i) >= 0 && holders(t.parent(i)))
        edgesIn == holders.size - 1 // tree-connected iff |E| = |V|-1
      }
    }
  }
}
