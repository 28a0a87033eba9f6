package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Random
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.rand
import repro.core.{AttrSet, Mvd}
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle, SparkEntropyOracle}
import repro.core.info.InfoCalc
import repro.core.mine.MvdMiner
import repro.core.quality.SchemaQuality
import repro.core.schema.{Compatibility, MaxIndependentSets}
import repro.util.Deadline

/** The benchmark for one workload in one JVM.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --cores <k> --out <dir>
  * }}}
  *
  * Set-up (Spark start, three rounds of load + encode, one untimed warm-up
  * pass) is followed by the cross-checks, untimed Spark warm-up scorings, and
  * measured passes until `--seconds` have elapsed. With `--trace 1` every
  * other pass is traced and the per-layer numbers come from the traced
  * passes. The last stdout line is `RESULT <json>` with the metric values by
  * name; `perfbench/run.py` attaches the units and the DuckDB cross-check.
  */
object Main {

  /** Untimed scorings of one scheme between the cross-checks and the measured passes. */
  val SparkWarmUps = 15

  final case class Opts(workload: Workload, seed: Long, seconds: Double, trace: Boolean,
                        cores: Int, out: Path)

  /** What is kept of a measured pass once its objects are released. */
  final case class Sample(traced: Boolean, wallS: Double, mvds: Int, mineS: Double,
                          scoreS: Double, retainedMb: Double,
                          layers: Map[String, Double])

  /** The parts of the warm-up pass that the cross-checks and the
    * single-layer re-runs need: M_ε per ε and the first scored scheme.
    */
  final case class Kept(mvds: Vector[(Double, Vector[Mvd])], scored: Option[ScoredScheme])

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val w = o.workload
    val failures = Vector.newBuilder[String]
    var attempted = 0
    var failed = 0
    def record(what: String, errs: Seq[String]): Unit = {
      attempted += 1
      if (errs.nonEmpty) {
        failed += 1
        errs.take(5).foreach(e => failures += s"$what: $e")
      }
    }

    val sparkStart = System.nanoTime()
    val spark = session(o)
    val sparkStartS = seconds(System.nanoTime() - sparkStart)
    val counter = new SparkCounter(spark.sparkContext)
    val heap = new HeapPeak

    // Three rounds of load + encode; the last round's data is kept. The seed
    // permutes the rows of the fixed relation (see Workload).
    var df: DataFrame = null
    var rel: EncodedRelation = null
    var nRows = 0L
    val rounds = (1 to 3).map { _ =>
      if (df != null) df.unpersist(blocking = true)
      val t0 = System.nanoTime()
      df = w.load(spark).orderBy(rand(o.seed)).coalesce(1).cache()
      nRows = df.count()
      val t1 = System.nanoTime()
      rel = EncodedRelation.fromDataFrame(df)
      (seconds(t1 - t0), seconds(System.nanoTime() - t1))
    }

    val tracer = new Tracer(false)
    val pipeline = new Pipeline(w, df, rel, nRows, tracer)
    val checks = new Checks(new InfoCalc(new LocalEntropyOracle(rel)))
    val timerNs = ProbedOracle.calibrateTimerNs()

    // The warm-up pass runs in its own frame, so none of its objects stays
    // reachable while measured passes run.
    def warmUp(): (String, Double, Kept) = {
      val p = pipeline.run(traced = false)
      record("warm-up pass", checks(p))
      log(f"warm-up pass: ${seconds(p.wallNs)}%.3f s; " + p.runs.map(r =>
        f"ε=${r.eps}%.2f: ${r.mining.mvds.size} MVDs, ${r.mining.distinctMinSeps.size} minimal " +
        f"separators, ${r.schemes.schemes.size} schemes").mkString("; "))
      (checks.fingerprint(p), seconds(p.wallNs), Kept(p.runs.map(r => r.eps -> r.mining.mvds), p.scored.headOption))
    }
    val (reference, warmS, kept) = warmUp()
    val setupS = sparkStartS + median(rounds.map(r => r._1 + r._2)) + warmS
    log(f"${w.name}: set-up $setupS%.3f s")

    // Cross-checks, untimed. Run here, they also warm Spark up further.
    record("SparkEntropyOracle sample", sparkEntropyCheck(df, rel, o.seed))
    record("spuriousPct", spuriousCheck(df, nRows, kept))
    writeDuckCheck(o.out, rel, kept)
    // Spark plans every query through Catalyst, which the JIT keeps compiling
    // for dozens of queries: scoring one scheme fell from 0.7 s to 0.4 s over
    // the first 20 scorings and to 0.35 s over the next 20. Measuring on the
    // steep part of that curve made scoring, part of every pass, wander from
    // run to run, so the kept scheme is scored SparkWarmUps more times, untimed.
    val warmScores = kept.scored.toSeq.flatMap(s => Seq.fill(SparkWarmUps) {
      val t0 = System.nanoTime()
      pipeline.score(Vector(s.scheme))
      seconds(System.nanoTime() - t0)
    })
    log("Spark warm-up scorings: " + warmScores.map(t => f"$t%.3f").mkString(" "))

    val samples = Vector.newBuilder[Sample]
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < deadline || (o.trace && i < 2) || i < 1) {
      val traced = o.trace && i % 2 == 0
      tracer.enabled = traced
      tracer.pass = i
      try {
        val (s, errs) = measure(pipeline, traced, counter, heap, checks, reference, timerNs)
        record(s"pass $i", errs)
        samples += s
        log(f"pass $i${if (traced) " (traced)" else ""}: ${s.wallS}%.3f s, mine ${s.mineS}%.3f s, " +
            f"score ${s.scoreS}%.3f s, retained ${s.retainedMb}%.1f MB")
      } catch {
        case NonFatal(e) => record(s"pass $i", Seq(e.toString))
      }
      i += 1
    }
    val all = samples.result()
    require(all.nonEmpty, "no measured pass completed")

    val metrics =
      if (!o.trace) Seq(
        "setup_s" -> setupS,
        "pipeline_s" -> median(all.map(_.wallS)),
        "mvds_per_s" -> all.map(_.mvds).sum / all.map(_.mineS).sum,
        "retained_mb" -> median(all.map(_.retainedMb)))
      else {
        tracer.enabled = true
        tracer.pass = -1
        val traced = all.filter(_.traced)
        traced.head.layers.keys.toSeq.map(k => k -> median(traced.map(_.layers(k)))) ++
          singleLayerRuns(kept, rel, tracer) ++ Seq(
            "spark.start_s" -> sparkStartS,
            "data.generate_s" -> median(rounds.map(_._1)),
            "entropy.encode_s" -> median(rounds.map(_._2)),
            "trace.overhead_s" -> (median(traced.map(_.wallS)) -
                                   median(all.filterNot(_.traced).map(_.wallS))),
            "trace.timer_ns" -> timerNs)
      }
    if (o.trace) tracer.write(o.out.resolve("trace.jsonl"))
    spark.stop()

    failures.result().foreach(e => log(s"FAILED $e"))
    val env = Seq(
      "java" -> System.getProperty("java.version"),
      "heap_max_mb" -> f"${Runtime.getRuntime.maxMemory / 1048576.0}%.0f",
      "master" -> s"local[${o.cores}]",
      "rows" -> nRows.toString,
      "passes" -> all.size.toString)
    val json =
      s"""{"attempted":$attempted,"failed":$failed,""" +
      s""""env":{${env.map { case (k, v) => s""""$k":"$v"""" }.mkString(",")}},""" +
      s""""metrics":{${metrics.map { case (k, v) => s""""$k":${num(v)}""" }.mkString(",")}}}"""
    println(s"RESULT $json")
  }

  /** Relations here are at most 1500 rows, so one partition and one shuffle
    * partition; adaptive execution is off so a query's plan is the same in
    * every pass; broadcast joins are off as in the repository's jobs. Spark's
    * status store keeps little history, so retained heap does not grow with
    * the number of passes.
    */
  private def session(o: Opts): SparkSession =
    SparkSession.builder()
      .master(s"local[${o.cores}]")
      .appName("perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", o.out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", o.out.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", 1L)
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.retainedJobs", 10L)
      .config("spark.ui.retainedStages", 10L)
      .config("spark.ui.retainedTasks", 100L)
      .config("spark.sql.ui.retainedExecutions", 10L)
      .getOrCreate()

  /** One measured pass, its checks, and its memory and Spark accounting
    * (untimed). The pass's objects are dropped on return, so the heap
    * retained after the next pass holds that pass alone.
    */
  private def measure(p: Pipeline, traced: Boolean, counter: SparkCounter, heap: HeapPeak,
                      checks: Checks, reference: String,
                      timerNs: Double): (Sample, Seq[String]) = {
    val (jobs0, tasks0) = counter.read()
    heap.reset()
    val gc0 = gcMillis()
    val pass = p.run(traced)
    val gcS = (gcMillis() - gc0) / 1000.0
    val (jobs1, tasks1) = counter.read()
    val peakMb = heap.readMb()
    val errs = checks(pass) ++
      (if (checks.fingerprint(pass) != reference) Seq("fingerprint differs from the warm-up pass")
       else Nil) ++
      (if (traced) probeErrors(pass) else Nil)
    System.gc()
    val retainedMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    java.lang.ref.Reference.reachabilityFence(pass)
    val layers =
      if (!traced) Map.empty[String, Double]
      else passLayers(pass, timerNs) ++ Map(
        "quality.spark_jobs" -> (jobs1 - jobs0).toDouble,
        "quality.spark_tasks" -> (tasks1 - tasks0).toDouble,
        "jvm.gc_s" -> gcS,
        "jvm.peak_heap_mb" -> peakMb)
    val sample = Sample(traced, seconds(pass.wallNs), pass.nMvds, seconds(pass.mineNs),
                        seconds(pass.scoreNs), retainedMb, layers)
    (sample, errs)
  }

  /** Per-layer numbers of one traced pass, from the probe and the clocks. */
  private def passLayers(p: Pass, timerNs: Double): Map[String, Double] = {
    def sum(f: EpsRun => Double): Double = p.runs.map(f).sum
    val calls = sum(r => (r.mineProbe.calls + r.schemaProbe.calls).toDouble)
    val misses = sum(r => (r.mineProbe.misses + r.schemaProbe.misses).toDouble)
    val missS = sum(r => (r.mineProbe.missNs + r.schemaProbe.missNs) / 1e9)
    Map(
      "entropy.calls" -> calls,
      "entropy.computations" -> sum(_.oracle.computations.toDouble),
      "entropy.hit_ratio" -> (1.0 - misses / calls),
      "entropy.miss_s" -> missS,
      "entropy.us_per_miss" -> missS * 1e6 / misses,
      "entropy.hit_s" -> sum(r => (r.mineProbe.hitNs(timerNs) + r.schemaProbe.hitNs(timerNs)) / 1e9),
      "mine.wall_s" -> seconds(p.mineNs),
      "mine.self_s" -> sum(r => (r.mineNs - r.mineProbe.oracleNs(timerNs)) / 1e9),
      "mine.calls_per_mvd" -> sum(_.mineProbe.calls.toDouble) / p.nMvds,
      "mine.mvds" -> p.nMvds.toDouble,
      "mine.minseps" -> sum(_.mining.distinctMinSeps.size.toDouble),
      "schema.wall_s" -> sum(_.schemaNs / 1e9),
      "schema.self_s" -> sum(r => (r.schemaNs - r.schemaProbe.oracleNs(timerNs)) / 1e9),
      "schema.schemes" -> sum(_.schemes.schemes.size.toDouble),
      "quality.wall_s" -> seconds(p.scoreNs),
      "quality.join_size_s" -> p.scored.map(_.joinSizeNs / 1e9).sum,
      "quality.savings_s" -> p.scored.map(_.savingsNs / 1e9).sum)
  }

  /** Re-runs of single layers through their public entry points, once per
    * traced run: the minimal-separator phase alone (fresh oracle), and the
    * incompatibility graph and MIS enumeration over the kept M_ε.
    */
  private def singleLayerRuns(kept: Kept, rel: EncodedRelation,
                              tracer: Tracer): Seq[(String, Double)] = {
    var minSepsNs, graphNs, misNs = 0L
    var mis = 0L
    for ((eps, mvds) <- kept.mvds) {
      val calc = new InfoCalc(new LocalEntropyOracle(rel))
      val t0 = System.nanoTime()
      tracer("minseps_only")(MvdMiner.mine(calc, rel.n, eps, timeLimitMs = -1L, minSepsOnly = true))
      val t1 = System.nanoTime()
      val n = mvds.size
      val adj = tracer("graph")(Array.tabulate(n, n)((i, j) =>
        i != j && Compatibility.incompatible(mvds(i), mvds(j))))
      val t2 = System.nanoTime()
      tracer("mis")(MaxIndependentSets.enumerate(n, adj, Workload.MaxSchemes, Deadline.unlimited)(_ => mis += 1))
      val t3 = System.nanoTime()
      minSepsNs += t1 - t0
      graphNs += t2 - t1
      misNs += t3 - t2
    }
    Seq("mine.minseps_only_s" -> seconds(minSepsNs), "schema.graph_s" -> seconds(graphNs),
        "schema.mis_s" -> seconds(misNs), "schema.mis" -> mis.toDouble)
  }

  /** The probe's first-asked count must equal the oracle's computations. */
  private def probeErrors(p: Pass): Seq[String] =
    p.runs.flatMap { r =>
      val misses = r.mineProbe.misses + r.schemaProbe.misses
      if (misses == r.oracle.computations) None
      else Some(s"ε=${r.eps}: probe saw $misses misses, oracle ${r.oracle.computations} computations")
    }

  /** Entropies of a seeded sample of attribute sets, PLI oracle vs Spark
    * group-by (paper Eq. 5).
    */
  private def sparkEntropyCheck(df: DataFrame, rel: EncodedRelation, seed: Long): Seq[String] = {
    val local = new LocalEntropyOracle(rel)
    val viaSpark = new SparkEntropyOracle(df)
    val rnd = new Random(seed)
    val full = (1L << rel.n) - 1
    val sample = Iterator.continually(AttrSet(rnd.nextLong() & full)).filter(_.nonEmpty).take(12).toVector
    sample.flatMap { x =>
      val (a, b) = (local.entropy(x), viaSpark.entropy(x))
      if (math.abs(a - b) <= 1e-9) None else Some(s"H($x): PLI $a vs Spark $b")
    }
  }

  /** `SchemaQuality.spuriousPct` must agree with the pass's own E%. */
  private def spuriousCheck(df: DataFrame, nRows: Long, kept: Kept): Seq[String] =
    kept.scored.toSeq.flatMap { s =>
      val e = SchemaQuality.spuriousPct(df, s.tree, nRows)
      if (math.abs(e - s.spuriousPct) <= 1e-9 * math.max(1.0, math.abs(e))) None
      else Some(s"spuriousPct $e vs pass E% ${s.spuriousPct}")
    }

  /** The encoded relation and the first scored scheme's bags, root first
    * then children, for the DuckDB join-size cross-check in run.py.
    */
  private def writeDuckCheck(out: Path, rel: EncodedRelation, kept: Kept): Unit =
    kept.scored.foreach { s =>
      val csv = (rel.names.mkString(",") +: rel.rows.toSeq.map(_.mkString(","))).mkString("", "\n", "\n")
      Files.write(out.resolve("relation.csv"), csv.getBytes(StandardCharsets.UTF_8))
      val t = s.tree
      val order = Iterator.iterate(Vector(t.parent.indexOf(-1)))(_.flatMap(t.children))
        .takeWhile(_.nonEmpty).flatten.toVector
      val bags = order.map(i =>
        t.bags(i).toSeq.map(c => s""""${rel.names(c)}"""").mkString("[", ",", "]"))
      val json = s"""{"bags":${bags.mkString("[", ",", "]")},"join_size":${num(s.joinSize)}}"""
      Files.write(out.resolve("join_check.json"), json.getBytes(StandardCharsets.UTF_8))
    }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def seconds(ns: Long): Double = ns / 1e9

  private def log(msg: String): Unit =
    System.err.println(f"[perfbench ${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%6.1f s] $msg")

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** JSON number; non-finite values become null, which run.py rejects. */
  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val name = need("workload")
    val w = Workload.all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name"))
    Opts(w, need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         need("cores").toInt, Paths.get(need("out")).toAbsolutePath)
  }
}
