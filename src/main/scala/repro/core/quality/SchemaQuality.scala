package repro.core.quality

import scala.collection.mutable
import org.apache.spark.sql.DataFrame
import repro.core.{AttrSet, JoinTree, Schema}
import repro.core.entropy.EncodedRelation

/** Quality measures of a decomposition (paper Sec. 8.1/8.2/8.4):
  * spurious-tuple rate E%, cell savings S%, width and intersection width.
  *
  * They are counted over the codes of an [[EncodedRelation]]: the projection
  * R[X] is its set of distinct code tuples on X. Null has its own code, so it
  * joins as a value, as it does in the entropies.
  *
  * The join size |R[Ω1] ⋈ … ⋈ R[Ωm]| is computed with Yannakakis-style
  * counting along the join tree (Yannakakis, VLDB 1981): each node sends its
  * parent a map from separator tuples to the number of join combinations of
  * its subtree. The full (possibly astronomically larger) join is never
  * materialized — e.g. the all-singletons Nursery schema joins to
  * 3·5·4·4·3·2·3·3·5 = 64800 tuples from 32 projected cells.
  */
object SchemaQuality {

  /** |⋈_i R[Ωi]| for an acyclic schema, as a Double (counts can exceed
    * Long range for extreme schemas; the paper reports percentages).
    */
  def joinSize(rel: EncodedRelation, tree: JoinTree): Double = {
    // The separator of `node` with its parent and the message it sends up. The
    // root's separator is empty, as is a cartesian edge's: its one key is the
    // empty tuple, so the parent multiplies by the child's whole count.
    def msg(node: Int): (IndexedSeq[Int], mutable.Map[Seq[Int], Double]) = {
      val p = tree.parent(node)
      val up = (if (p < 0) AttrSet.empty else tree.bags(node) & tree.bags(p)).toSeq
      val fromChildren = tree.children(node).map(msg)
      val out = mutable.HashMap.empty[Seq[Int], Double]
      for (row <- distinct(rel, tree.bags(node))) {
        val cnt = fromChildren.foldLeft(1.0) { case (acc, (sep, m)) =>
          acc * m.getOrElse(sep.map(row(_)), 0.0)
        }
        if (cnt > 0.0) out.updateWith(up.map(row(_)))(c => Some(c.getOrElse(0.0) + cnt))
      }
      (up, out)
    }

    val root = tree.parent.indexOf(-1)
    require(root >= 0, "join tree has no root")
    msg(root)._2.getOrElse(Seq.empty, 0.0)
  }

  /** Spurious tuple percentage E = |⋈ R[Ωi] \ R| / N · 100 (Sec. 8.1).
    * The join of projections is a superset of the *distinct* tuples of R, so
    * the spurious count is the join size minus the distinct row count —
    * using the raw (multiset) N there would go negative on data with
    * duplicate rows.
    */
  def spuriousPct(rel: EncodedRelation, tree: JoinTree): Double =
    (joinSize(rel, tree) - distinct(rel, AttrSet.range(rel.n)).length) / nRows(rel) * 100.0

  /** Total cells stored by the decomposition: Σ |distinct R[Ωi]| · |Ωi|. */
  def projectedCells(rel: EncodedRelation, schema: Schema): Long =
    schema.bags.map(bag => distinct(rel, bag).length.toLong * bag.size).sum

  /** Cell savings S = (cells(R) − cells(S)) / cells(R) · 100 (Sec. 8.1). */
  def savingsPct(rel: EncodedRelation, schema: Schema): Double = {
    val totalCells = nRows(rel) * rel.n
    (totalCells - projectedCells(rel, schema).toDouble) / totalCells * 100.0
  }

  /** The DataFrame forms encode `df` first; `nRows` must be its row count. */
  def joinSize(df: DataFrame, tree: JoinTree): Double = joinSize(EncodedRelation.fromDataFrame(df), tree)
  def spuriousPct(df: DataFrame, tree: JoinTree, nRows: Long): Double = spuriousPct(encode(df, nRows), tree)
  def savingsPct(df: DataFrame, schema: Schema, nRows: Long): Double = savingsPct(encode(df, nRows), schema)

  private def encode(df: DataFrame, nRows: Long): EncodedRelation = {
    val rel = EncodedRelation.fromDataFrame(df)
    require(nRows == rel.size, s"nRows is $nRows but the frame has ${rel.size} rows")
    rel
  }

  /** N, the divisor of E% and S%, which a relation with no rows leaves undefined. */
  private def nRows(rel: EncodedRelation): Double = {
    require(rel.size > 0, "E% and S% are percentages of N, and the relation has 0 rows")
    rel.size
  }

  /** One row per distinct code tuple on `cols`. */
  private def distinct(rel: EncodedRelation, cols: AttrSet): Array[Array[Int]] = {
    val cs = cols.toSeq
    rel.rows.distinctBy(row => cs.map(row(_)))
  }
}
