package repro.core

import repro.SparkSpec
import repro.data.PlantedData

/** Maimon end-to-end on planted data: the system should rediscover planted
  * structure — the FD-based exact MVDs at ε=0 and the planted star MVD once
  * the threshold absorbs the truncation/noise slack.
  */
class MaimonPlantedSpec extends SparkSpec {

  private val spec = PlantedData.Spec(
    keyAttrs = 1, keyDomain = 12, branchAttrs = Vector(2, 2), branchSetMax = 2,
    valueDomain = 25, freeAttrs = 0, freeDomain = 3, noiseFrac = 0.0)

  test("eps=0 on clean planted data finds the FD-induced MVDs") {
    val df = PlantedData.generate(spark, spec, targetRows = 240, seed = 42)
    val res = Maimon.run(df, Maimon.Config(eps = 0.0, timeLimitMs = 60000L))
    assert(!res.mining.timedOut)
    assert(res.mvds.nonEmpty, "FD b0a0→b0a1 guarantees exact MVDs exist")
    // and all reported schemes are exact
    res.schemes.schemes.foreach(s => assert(s.j < 1e-9))
  }

  test("moderate eps rediscovers a key-rooted decomposition") {
    val df = PlantedData.generate(spark, spec, targetRows = 240, seed = 43)
    val res = Maimon.run(df, Maimon.Config(eps = 0.3, timeLimitMs = 60000L))
    // some mined MVD should have a key contained in {k0} ∪ one branch head —
    // the planted separator structure
    assert(res.mvds.nonEmpty)
    val multi = res.schemes.schemes.filter(_.schema.nRelations > 1)
    assert(multi.nonEmpty, "planted star should decompose at eps=0.3")
  }

  test("noisy planted data yields no exact schemes but approximate ones") {
    val noisy = spec.copy(noiseFrac = 0.15)
    val df = PlantedData.generate(spark, noisy, targetRows = 240, seed = 44)
    val exact = Maimon.run(df, Maimon.Config(eps = 0.0, timeLimitMs = 60000L))
    val approx = Maimon.run(df, Maimon.Config(eps = 1.0, timeLimitMs = 60000L))
    val exactMulti = exact.schemes.schemes.count(_.schema.nRelations > 1)
    val approxMulti = approx.schemes.schemes.count(_.schema.nRelations > 1)
    assert(approxMulti >= exactMulti,
           s"approximation should not lose schemes: $exactMulti vs $approxMulti")
    assert(approxMulti > 0)
  }
}
