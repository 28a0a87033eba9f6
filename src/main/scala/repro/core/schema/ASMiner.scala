package repro.core.schema

import scala.collection.mutable
import repro.core.{AttrSet, JoinTree, Mvd, Schema}
import repro.core.info.InfoCalc
import repro.util.Deadline

/** ASMiner (paper Fig. 8): enumerate acyclic ε-schemes from the mined set
  * M_ε. Build the incompatibility graph over M_ε, enumerate its maximal
  * independent sets (= maximal pairwise-compatible MVD subsets), and
  * synthesize one acyclic schema per set via BuildAcyclicSchema. Each schema
  * is scored with its J-measure; by Cor. 5.2 a schema over m relations with
  * support in M_ε satisfies J(S) ≤ (m−1)ε.
  */
object ASMiner {

  final case class Scored(schema: Schema, j: Double, support: Vector[Mvd])

  /** `capped`: the enumeration stopped at `maxSchemes` maximal independent sets
    * (also when there are exactly that many), so `schemes` may be partial.
    * `mis`: maximal independent sets emitted. `graphMs`: building the
    * incompatibility graph; `enumMs`: enumerating its maximal independent
    * sets, with the synthesis and scoring of each.
    */
  final case class Result(schemes: Vector[Scored], timedOut: Boolean, capped: Boolean,
                          elapsedMs: Long, mis: Int, graphMs: Long, enumMs: Long)

  def mine(calc: InfoCalc, mvds: Vector[Mvd], omega: AttrSet,
           maxSchemes: Int = Int.MaxValue, timeLimitMs: Long = -1L): Result = {
    val start = System.nanoTime()
    val deadline = Deadline.ofMs(timeLimitMs)
    val graph = incompatibilityGraph(mvds, deadline)
    val built = System.nanoTime()
    val graphMs = (built - start) / 1000000L
    if (graph.isEmpty)
      return Result(Vector.empty, timedOut = true, capped = false, elapsedMs = graphMs, mis = 0,
                    graphMs = graphMs, enumMs = 0L)

    val seen = mutable.HashSet.empty[Schema]
    val out = Vector.newBuilder[Scored]
    var mis = 0
    MaxIndependentSets.enumerateBitsets(mvds.size, graph.get, maxSchemes, deadline) { q =>
      mis += 1
      val support = q.toVector.map(mvds)
      val schema = SchemaSynthesis.build(support, omega)
      if (seen.add(schema)) {
        // the schema synthesized from compatible MVDs is acyclic (Thm 7.4);
        // guard anyway so a single bad set cannot kill the enumeration.
        JoinTree.fromSchema(schema).foreach { t =>
          out += Scored(schema, calc.jTree(t), support)
        }
      }
    }
    val end = System.nanoTime()
    Result(out.result(), deadline.exceeded, capped = mis >= maxSchemes,
           (end - start) / 1000000L, mis, graphMs, (end - built) / 1000000L)
  }

  /** The incompatibility graph over `mvds` as bitset rows: bit j of row i is
    * set iff `mvds(i) ♯ mvds(j)`. Each pair is tested once, for the upper
    * triangle, and mirrored. None when the deadline fires; it is checked once
    * per row.
    */
  private[schema] def incompatibilityGraph(mvds: Vector[Mvd],
                                           deadline: Deadline): Option[Array[Array[Long]]] = {
    val n = mvds.size
    val ws = mvds.map(Compatibility.words).toArray
    val rows = Array.ofDim[Long](n, MaxIndependentSets.words(n))
    var i = 0
    while (i < n) {
      if (deadline.exceeded) return None
      var j = i + 1
      while (j < n) {
        if (!Compatibility.compatible(ws(i), ws(j))) {
          rows(i)(j >>> 6) |= 1L << j
          rows(j)(i >>> 6) |= 1L << i
        }
        j += 1
      }
      i += 1
    }
    Some(rows)
  }
}
