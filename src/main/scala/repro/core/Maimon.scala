package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.entropy.{EncodedRelation, EntropyOracle, LocalEntropyOracle}
import repro.core.info.InfoCalc
import repro.core.mine.MvdMiner
import repro.core.schema.ASMiner

/** End-to-end Maimon (paper Sec. 4): phase 1 mines the full ε-MVDs with
  * minimal separators (M_ε), phase 2 enumerates acyclic ε-schemes supported
  * by M_ε. The default entropy substrate is the main-memory PLI oracle (the
  * analog of the paper's H2 engine); pass any [[EntropyOracle]] to override.
  */
object Maimon {

  /** `timeLimitMs` limits each phase, mining and scheme enumeration, on its own. */
  final case class Config(
      eps: Double,
      timeLimitMs: Long = 60000L,
      maxSchemes: Int = 10000,
  )

  final case class Result(
      names: Vector[String],
      nRows: Long,
      mining: MvdMiner.Result,
      schemes: ASMiner.Result,
  ) {
    def mvds: Vector[Mvd] = mining.mvds
  }

  /** Run both phases over a DataFrame (encoded once, then mined in memory). */
  def run(df: DataFrame, cfg: Config): Result = {
    val rel = EncodedRelation.fromDataFrame(df)
    runWithOracle(new LocalEntropyOracle(rel), rel.names, cfg)
  }

  def runWithOracle(oracle: EntropyOracle, names: Vector[String], cfg: Config): Result = {
    val n = names.size
    require(n >= 1 && n <= 64, s"Maimon needs 1 to 64 columns (at most 64 attributes), got $n columns")
    val calc = new InfoCalc(oracle)
    val mining = MvdMiner.mine(calc, n, cfg.eps, cfg.timeLimitMs)
    val schemes = ASMiner.mine(calc, mining.mvds, AttrSet.range(n),
                               cfg.maxSchemes, cfg.timeLimitMs)
    Result(names, oracle.nRows, mining, schemes)
  }
}
