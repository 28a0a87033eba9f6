package repro.core.entropy

import repro.core.AttrSet

/** Oracle for the empirical joint entropy `H(Xα)` of a column subset
  * (paper Eq. 5, `getEntropy_R`). All entropies are in bits (log base 2 —
  * the paper computes `H(ABCDEF) = log 4 = 2`).
  *
  * Implementations memoize: `calls` counts every query, `computations`
  * counts cache misses — both are reported by the benchmarks.
  */
trait EntropyOracle {
  /** Number of attributes (columns) of the underlying relation. */
  def nAttrs: Int

  /** Number of tuples N. */
  def nRows: Long

  /** Joint entropy of the attribute subset; `H(∅) = 0`. */
  def entropy(x: AttrSet): Double

  /** Total entropy queries served. */
  def calls: Long

  /** Queries that required an actual computation (cache misses). */
  def computations: Long

  /** Oracles for at most `n` workers that query this one's relation at
    * once, one each. By default this oracle alone: it serves one worker.
    */
  def workers(n: Int): Vector[EntropyOracle] = Vector(this)
}

object EntropyOracle {
  /** log base 2. */
  def log2(x: Double): Double = math.log(x) / math.log(2.0)

  /** `H = log2 N − (1/N)·Σ c·log2 c` from the non-singleton group sizes
    * (singleton groups contribute `1·log2 1 = 0`).
    */
  def fromGroupSizes(n: Long, sumClog2C: Double): Double =
    if (n <= 0L) 0.0 else log2(n.toDouble) - sumClog2C / n.toDouble
}
