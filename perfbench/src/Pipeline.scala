package repro.perfbench

import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{AttrSet, JoinTree}
import repro.core.entropy.{EncodedRelation, EntropyOracle, LocalEntropyOracle}
import repro.core.info.InfoCalc
import repro.core.mine.MvdMiner
import repro.core.quality.SchemaQuality
import repro.core.schema.ASMiner
import repro.data.MetanomeLite

/** One benchmark workload: a fixed relation and the ε sweep.
  *
  * The relation's content does not depend on the seed: the benchmark seed
  * only permutes its rows. Planted data drawn from another generator seed
  * mines a different number of MVDs, which moved mining time by a third
  * between seeds and would hide any change smaller than that.
  */
final case class Workload(name: String, eps: Vector[Double], load: SparkSession => DataFrame)

object Workload {

  /** ASMiner's scheme cap; deadlines are always off. */
  val MaxSchemes = 2000

  /** The repository's analogs of Metanome datasets, capped at N rows. */
  val all: Vector[Workload] = Vector(
    Workload("adult-mine", Vector(0.0), MetanomeLite.load(_, "adult", 1500)),
    Workload("breast-sweep", Vector(0.1, 0.2, 0.3), MetanomeLite.load(_, "breast_cancer", 699)),
  )
}

/** Phase 1 + phase 2 at one ε. The probe snapshots are zero in untraced passes. */
final case class EpsRun(eps: Double, oracle: EntropyOracle,
                        mining: MvdMiner.Result, mineNs: Long,
                        schemes: ASMiner.Result, schemaNs: Long,
                        mineProbe: ProbedOracle.Snap, schemaProbe: ProbedOracle.Snap)

final case class ScoredScheme(scheme: ASMiner.Scored, tree: JoinTree, joinSize: Double,
                              spuriousPct: Double, savingsPct: Double,
                              joinSizeNs: Long, savingsNs: Long)

final case class Pass(wallNs: Long, runs: Vector[EpsRun], scored: Vector[ScoredScheme],
                      scoreNs: Long) {
  def nMvds: Int = runs.map(_.mining.mvds.size).sum
  def mineNs: Long = runs.map(_.mineNs).sum
}

/** The measured user pipeline: for every ε a fresh oracle, `MvdMiner.mine`
  * and `ASMiner.mine`; then Spark scoring (E%, S%) of one mined
  * multi-relation scheme. Everything between the two clock reads is the
  * work a user of the library waits for.
  */
final class Pipeline(w: Workload, df: DataFrame, rel: EncodedRelation, nRows: Long,
                     tracer: Tracer) {
  private val omega = AttrSet.range(rel.n)

  def run(traced: Boolean): Pass = {
    val start = System.nanoTime()
    val runs = w.eps.map(eps => tracer("eps")(mineAt(eps, traced)))
    val picked = pick(runs)
    val scoreStart = System.nanoTime()
    val scored = tracer("quality")(score(picked))
    val end = System.nanoTime()
    Pass(end - start, runs, scored, end - scoreStart)
  }

  private def mineAt(eps: Double, traced: Boolean): EpsRun = {
    val local = new LocalEntropyOracle(rel)
    val probe = if (traced) Some(new ProbedOracle(local)) else None
    val calc = new InfoCalc(probe.getOrElse(local))
    val t0 = System.nanoTime()
    val mining = tracer("mine")(MvdMiner.mine(calc, rel.n, eps, timeLimitMs = -1L))
    val t1 = System.nanoTime()
    val afterMine = probe.fold(ProbedOracle.zero)(_.snapshot)
    val schemes = tracer("schema")(
      ASMiner.mine(calc, mining.mvds, omega, Workload.MaxSchemes, timeLimitMs = -1L))
    val t2 = System.nanoTime()
    val afterSchema = probe.fold(ProbedOracle.zero)(_.snapshot)
    EpsRun(eps, probe.getOrElse(local), mining, t1 - t0, schemes, t2 - t1,
           afterMine, afterSchema - afterMine)
  }

  /** The multi-relation scheme of the sweep with the fewest relations, then
    * the lowest J: one scheme, so that scoring stays a small share of a pass.
    */
  private def pick(runs: Vector[EpsRun]): Vector[ASMiner.Scored] =
    runs.flatMap(_.schemes.schemes)
      .filter(_.schema.nRelations > 1)
      .sortBy(s => (s.schema.nRelations, s.j, s.schema.bags.map(_.bits).mkString(",")))
      .take(1)

  def score(picked: Vector[ASMiner.Scored]): Vector[ScoredScheme] =
    if (picked.isEmpty) Vector.empty
    else {
      // E% = (|⋈ R[Ωi]| − |distinct R|) / N · 100, as SchemaQuality.spuriousPct
      // computes it, with the join size timed on its own.
      val distinctRows = df.distinct().count().toDouble
      picked.map { s =>
        val tree = JoinTree.fromSchema(s.schema).get
        val t0 = System.nanoTime()
        val js = tracer("join_size")(SchemaQuality.joinSize(df, tree))
        val t1 = System.nanoTime()
        val sv = tracer("savings")(SchemaQuality.savingsPct(df, s.schema, nRows))
        val t2 = System.nanoTime()
        ScoredScheme(s, tree, js, (js - distinctRows) / nRows * 100.0, sv, t1 - t0, t2 - t1)
      }
    }
}

/** Output checks applied to every pass. */
final class Checks(check: InfoCalc) {
  private val Tol = InfoCalc.Tol

  /** Human-readable failures; empty when the pass is correct. */
  def apply(p: Pass): Vector[String] = {
    val f = Vector.newBuilder[String]
    for (r <- p.runs) {
      if (r.mining.timedOut || r.schemes.timedOut) f += s"ε=${r.eps}: result marked timedOut"
      if (r.eps == 0.0 && r.mining.mvds.size != r.mining.distinctMinSeps.size)
        f += s"ε=0: ${r.mining.mvds.size} full MVDs but ${r.mining.distinctMinSeps.size} " +
             "distinct minimal separators"
      for (m <- r.mining.mvds) {
        val j = check.jMvd(m)
        if (j > r.eps + Tol) f += s"ε=${r.eps}: MVD $m re-checks at J=$j"
      }
      for (s <- r.schemes.schemes) {
        val m = s.schema.nRelations
        val j = check.jSchema(s.schema)
        if (j > (m - 1) * r.eps + m * Tol)
          f += s"ε=${r.eps}: scheme ${s.schema.bags} has J=$j > (m−1)ε"
      }
    }
    if (p.scored.isEmpty) f += "no multi-relation scheme to score"
    for (s <- p.scored) {
      if (!(s.spuriousPct >= -Tol)) f += s"scheme ${s.scheme.schema.bags}: E% = ${s.spuriousPct}"
      if (!(s.savingsPct <= 100.0)) f += s"scheme ${s.scheme.schema.bags}: S% = ${s.savingsPct}"
    }
    f.result()
  }

  /** Digest of sorted M_ε, minimal separators, scheme bags with J, and the
    * scores; equal across passes when the pipeline is deterministic.
    */
  def fingerprint(p: Pass): String = {
    val lines = p.runs.flatMap { r =>
      Vector(s"eps ${r.eps}") ++
        r.mining.mvds.map(m => s"mvd $m").sorted ++
        r.mining.distinctMinSeps.map(s => s"sep $s").sorted ++
        r.schemes.schemes.map(s => f"scheme ${s.schema.bags.mkString} ${s.j}%.9f").sorted
    } ++ p.scored.map(s =>
      f"score ${s.scheme.schema.bags.mkString} ${s.joinSize}%.1f ${s.spuriousPct}%.6f ${s.savingsPct}%.6f")
    MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes("UTF-8"))
      .map(b => f"$b%02x").mkString
  }
}
