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
    */
  final case class Result(schemes: Vector[Scored], timedOut: Boolean, capped: Boolean,
                          elapsedMs: Long)

  def mine(calc: InfoCalc, mvds: Vector[Mvd], omega: AttrSet,
           maxSchemes: Int = Int.MaxValue, timeLimitMs: Long = -1L): Result = {
    val start = System.nanoTime()
    val deadline = Deadline.ofMs(timeLimitMs)
    if (mvds.isEmpty)
      return Result(Vector(Scored(Schema.of(Vector(omega)), 0.0, Vector.empty)),
                    timedOut = false, capped = false, elapsedMs = 0L)

    val n = mvds.size
    val adj = Array.tabulate(n, n)((i, j) =>
      i != j && Compatibility.incompatible(mvds(i), mvds(j)))

    val seen = mutable.HashSet.empty[Vector[Long]]
    val out = Vector.newBuilder[Scored]
    var mis = 0
    MaxIndependentSets.enumerate(n, adj, maxSchemes, deadline) { q =>
      mis += 1
      val support = q.toVector.sorted.map(mvds)
      val schema = SchemaSynthesis.build(support, omega)
      val key = schema.bags.map(_.bits)
      if (seen.add(key)) {
        // the schema synthesized from compatible MVDs is acyclic (Thm 7.4);
        // guard anyway so a single bad set cannot kill the enumeration.
        JoinTree.fromSchema(schema).foreach { t =>
          out += Scored(schema, calc.jTree(t), support)
        }
      }
    }
    Result(out.result(), deadline.exceeded, capped = mis >= maxSchemes,
           (System.nanoTime() - start) / 1000000L)
  }
}
