package repro.core.info

import repro.core.{AttrSet, JoinTree, Mvd, Schema}
import repro.core.entropy.EntropyOracle

/** Information-theoretic measures over an entropy oracle (paper Sec. 3.2):
  * conditional mutual information, the J-measure of an MVD (Eq. after
  * Thm 3.3) and of an acyclic schema / join tree (Eq. 6).
  *
  * All measures are clamped at 0: they are non-negative Shannon expressions,
  * and floating-point cancellation can otherwise produce tiny negatives that
  * break `J ≤ ε` threshold logic at ε = 0.
  */
final class InfoCalc(val oracle: EntropyOracle) {

  def H(x: AttrSet): Double = oracle.entropy(x)

  /** `I(Y; Z | X) = H(XY) + H(XZ) − H(XYZ) − H(X)` (Eq. 2). */
  def cmi(y: AttrSet, z: AttrSet, x: AttrSet): Double =
    math.max(0.0, H(x | y) + H(x | z) - H(x | y | z) - H(x))

  /** `J(X ↠ Y1|…|Ym) = Σ H(XYi) − (m−1)·H(X) − H(XY1…Ym)`. */
  def jMvd(m: Mvd): Double = jMvd(m.key, m.deps.iterator.map(_.bits).toArray)

  /** [[jMvd]] of `key ↠ deps`, the dependents given as bitmasks. */
  def jMvd(key: AttrSet, deps: Array[Long]): Double = {
    var sum = 0.0
    var all = key
    for (d <- deps) {
      sum += H(key | AttrSet(d))
      all = all | AttrSet(d)
    }
    math.max(0.0, sum - (deps.length - 1) * H(key) - H(all))
  }

  /** `J(T) = Σ_v H(χ(v)) − Σ_e H(sep(e)) − H(χ(T))` (Eq. 6). */
  def jTree(t: JoinTree): Double = {
    val v = t.bags.map(H).sum - t.separators.map(H).sum - H(t.attrs)
    math.max(0.0, v)
  }

  /** J of an acyclic schema — Lee proved it is join-tree independent, so any
    * join tree will do. Throws on a cyclic schema.
    */
  def jSchema(s: Schema): Double =
    jTree(JoinTree.fromSchema(s).getOrElse(
      throw new IllegalArgumentException(s"schema is not acyclic: $s")))

  /** `R ⊨_ε φ` with a small tolerance so ε = 0 means "exactly holds". */
  def holds(m: Mvd, eps: Double): Boolean = jMvd(m) <= eps + InfoCalc.Tol

  /** [[holds]] for `key ↠ deps`, the dependents given as bitmasks. */
  def holds(key: AttrSet, deps: Array[Long], eps: Double): Boolean =
    jMvd(key, deps) <= eps + InfoCalc.Tol
}

object InfoCalc {
  /** Absolute tolerance for J ≤ ε comparisons (floating-point headroom). */
  val Tol: Double = 1e-9
}
