package repro.core.mine

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.{AttrSet, Mvd, Reference, TestData}
import repro.core.entropy.{EncodedRelation, LocalEntropyOracle}
import repro.core.info.InfoCalc
import repro.util.Deadline

class FullMvdSearchSpec extends AnyFunSuite {

  /** Exponential reference: enumerate all partitions of Ω\X, keep ε-holding
    * ones separating (a,b), then keep the unrefinable (full) ones.
    */
  private def bruteFull(calc: InfoCalc, omega: AttrSet, key: AttrSet, eps: Double,
                        a: Int, b: Int): Set[Mvd] = {
    val parts = TestData.allPartitions(omega.diff(key)).filter(_.size >= 2)
    val holding = parts.map(p => Mvd.of(key, p))
      .filter(m => Reference.separates(m, a, b) && calc.holds(m, eps))
    holding.filter(m => !holding.exists(o => Reference.strictlyRefines(o, m))).toSet
  }

  private def search(calc: InfoCalc, omega: AttrSet, key: AttrSet, eps: Double,
                     a: Int, b: Int): Set[Mvd] =
    new MvdLattice(calc, omega, eps, Deadline.unlimited).fullMvds(key, a, b).toSet

  /** `count` distinct MVDs with key {0}: random partitions of 1..`attrs` into at most 6 dependents. */
  private def sameKeyFamily(count: Int, attrs: Int, seed: Long): Vector[Mvd] = {
    val rnd = new Random(seed)
    val key = AttrSet.of(0)
    val distinct = scala.collection.mutable.LinkedHashSet.empty[Mvd]
    while (distinct.size < count) {
      val deps = Array.fill(6)(AttrSet.empty)
      for (a <- 1 to attrs) { val d = rnd.nextInt(6); deps(d) = deps(d) + a }
      if (deps.count(_.nonEmpty) >= 2) distinct += Mvd.of(key, deps.toVector)
    }
    distinct.toVector
  }

  test("matches brute force on random relations (eps=0)") {
    for (seed <- 0 until 25) {
      val rel = TestData.randomRelation(5, 30, 2, seed)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(5)
      val got = search(calc, omega, AttrSet.of(0), 0.0, 1, 2)
      val exp = bruteFull(calc, omega, AttrSet.of(0), 0.0, 1, 2)
      assert(got == exp, s"seed=$seed got=$got exp=$exp")
    }
  }

  test("matches brute force on random relations (eps>0)") {
    val rnd = new Random(11)
    for (seed <- 0 until 40) {
      val rel = TestData.randomRelation(5, 20 + rnd.nextInt(30), 3, seed + 100)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(5)
      val eps = Seq(0.05, 0.2, 0.5, 1.0)(seed % 4)
      val key = if (seed % 2 == 0) AttrSet.empty else AttrSet.of(4)
      val got = search(calc, omega, key, eps, 1, 2)
      val exp = bruteFull(calc, omega, key, eps, 1, 2)
      assert(got == exp, s"seed=$seed eps=$eps got=$got exp=$exp")
    }
  }

  test("every returned MVD holds, separates the pair, and has the right key") {
    for (seed <- 0 until 10) {
      val rel = TestData.structuredRelation(50, seed)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(4)
      val got = search(calc, omega, AttrSet.of(0), 0.3, 1, 3)
      got.foreach { m =>
        assert(m.key == AttrSet.of(0))
        assert(Reference.separates(m, 1, 3))
        assert(calc.holds(m, 0.3))
        assert(m.attrs == omega)
      }
    }
  }

  test("k=1 existence probe agrees with brute-force existence") {
    for (seed <- 0 until 30) {
      val rel = TestData.randomRelation(5, 25, 2, seed + 500)
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(5)
      for (eps <- Seq(0.0, 0.1, 0.6)) {
        val probe = new MvdLattice(calc, omega, eps, Deadline.unlimited)
          .separates(AttrSet.of(3), 0, 1)
        val exists = bruteFull(calc, omega, AttrSet.of(3), eps, 0, 1).nonEmpty
        assert(probe == exists, s"seed=$seed eps=$eps")
      }
    }
  }

  test("huge epsilon yields the finest partition") {
    val rel = TestData.randomRelation(5, 30, 3, 77)
    val calc = TestData.calcOf(rel)
    val got = search(calc, AttrSet.range(5), AttrSet.of(0), 100.0, 1, 2)
    assert(got == Set(Reference.finest(AttrSet.of(0), AttrSet.range(5))))
  }

  test("FD key: A -> C makes {A} separate C from everything") {
    val rel = TestData.structuredRelation(80, 3) // C = f(A)
    val calc = TestData.calcOf(rel)
    val got = search(calc, AttrSet.range(4), AttrSet.of(0), 0.0, 2, 3)
    assert(got.nonEmpty)
    got.foreach(m => assert(Reference.separates(m, 2, 3)))
  }

  test("closure: pairwise-consistent, or None as in the per-pair loop") {
    // a copy column is dependent on every other at eps=0 (collapses); a
    // product relation is independent (stays finest); random ones do either
    val copies = EncodedRelation(Vector("A", "B", "C", "D"), Array.tabulate(12)(i => Array.fill(4)(i % 3)))
    val product = EncodedRelation(Vector("A", "B", "C", "D"),
      (for (a <- 0 until 2; b <- 0 until 3; c <- 0 until 2; d <- 0 until 2) yield Array(a, b, c, d)).toArray)
    val rels = Seq(copies, product) ++ (0 until 12).map(seed => TestData.randomRelation(4, 30, 2, seed + 9))
    val omega = AttrSet.range(4)
    var (some, none) = (0, 0)
    for { rel <- rels; eps <- Seq(0.0, 0.05); key <- Seq(AttrSet.empty, AttrSet.of(3)) } {
      val calc = TestData.calcOf(rel)
      val finest = Reference.finest(key, omega)
      val pairs = for (a <- omega.diff(key).toSeq; b <- omega.diff(key).toSeq if a < b) yield (a, b)
      new MvdLattice(calc, omega, eps, Deadline.unlimited).closure(finest) match {
        case None =>
          none += 1
          for ((a, b) <- pairs) assert(Reference.pairwiseConsistent(calc, finest, eps, a, b).isEmpty)
        case Some(phi) =>
          some += 1
          assert(phi.key == key && phi.attrs == omega && Reference.refines(finest, phi))
          for (i <- 0 until phi.arity; j <- (i + 1) until phi.arity)
            assert(calc.cmi(phi.deps(i), phi.deps(j), phi.key) <= eps + InfoCalc.Tol)
          for ((a, b) <- pairs)
            assert(Reference.pairwiseConsistent(calc, finest, eps, a, b) == Some(phi).filter(Reference.separates(_, a, b)))
      }
    }
    assert(some > 0 && none > 0, s"closures: $some kept, $none collapsed")
  }

  test("a repeated probe and expansion add no closure and no entropy call") {
    for (seed <- 0 until 10) {
      val calc = TestData.calcOf(TestData.randomRelation(6, 40, 3, seed + 700))
      val lattice = new MvdLattice(calc, AttrSet.range(6), 0.1, Deadline.unlimited)
      val key = AttrSet.of(5)
      def counters = (lattice.closures, lattice.nodes, calc.oracle.calls)
      val probe = lattice.separates(key, 0, 1)
      val full = lattice.fullMvds(key, 0, 1)
      assert(probe == full.nonEmpty)
      val before = counters
      assert(lattice.separates(key, 0, 1) == probe)
      assert(lattice.fullMvds(key, 0, 1) == full)
      assert(counters == before, s"seed=$seed")
      // a failed probe has explored every node the pair can reach
      if (!lattice.separates(key, 2, 3)) {
        val explored = counters
        assert(lattice.fullMvds(key, 2, 3).isEmpty)
        assert(counters == explored, s"seed=$seed")
      }
    }
  }

  test("expansions equal the per-call reference whichever pair expands the key first") {
    val rels = Seq(TestData.randomRelation(6, 40, 3, 801), TestData.randomRelation(7, 30, 2, 802),
                   TestData.randomRelation(8, 20, 3, 803))
    var several = 0
    for ((rel, r) <- rels.zipWithIndex; eps <- Seq(0.0, 0.1, 0.3)) {
      val calc = TestData.calcOf(rel)
      val omega = AttrSet.range(rel.n)
      val keys = AttrSet.subsetsOf(omega).filter(k => omega.diff(k).size >= 2).toVector
      def pairs(key: AttrSet) = {
        val rest = omega.diff(key).toSeq
        for (a <- rest; b <- rest if a < b) yield (a, b)
      }
      val expected = (for (key <- keys; (a, b) <- pairs(key))
        yield (key, a, b) -> Reference.fullMvds(calc, omega, key, eps, a, b, Int.MaxValue)).toMap
      several += expected.values.count(_.size >= 2)
      for (order <- 0 until 3) {
        val rnd = new Random(order)
        val lattice = new MvdLattice(calc, omega, eps, Deadline.unlimited)
        for (key <- rnd.shuffle(keys)) {
          val ps = rnd.shuffle(pairs(key))
          // as in the miner, k = 1 probes may come first
          if (order > 0) ps.foreach { case (a, b) => lattice.separates(key, a, b) }
          for (((a, b), i) <- ps.zipWithIndex) {
            val before = (lattice.closures, lattice.nodes, calc.oracle.calls)
            val got = lattice.fullMvds(key, a, b)
            assert(got == expected((key, a, b)), s"relation $r eps=$eps order $order key=$key pair=($a,$b)")
            if (i > 0)
              assert((lattice.closures, lattice.nodes, calc.oracle.calls) == before,
                     s"relation $r eps=$eps order $order key=$key pair=($a,$b): a second pair searched again")
          }
        }
      }
    }
    assert(several > 0, "no expansion found two MVDs, so the order went untested")
  }

  test("four workers over one MvdLattice.Shared answer as a lone lattice does, and intern its nodes once") {
    val rel = TestData.randomRelation(8, 30, 3, 1301)
    val omega = AttrSet.range(rel.n)
    // (key, a, b, k = ∞?) for every key and pair it leaves
    type Call = (AttrSet, Int, Int, Boolean)
    val calls: Vector[Call] = for {
      key <- AttrSet.subsetsOf(omega).toVector
      rest = omega.diff(key).toSeq
      a <- rest; b <- rest if a < b
      full <- Seq(false, true)
    } yield (key, a, b, full)
    var several = 0
    def ask(lattice: MvdLattice, call: Call): Any = call match {
      case (key, a, b, true) => lattice.fullMvds(key, a, b)
      case (key, a, b, false) => lattice.separates(key, a, b)
    }
    for (eps <- Seq(0.0, 0.1, 0.3)) {
      val lone = new MvdLattice(TestData.calcOf(rel), omega, eps, Deadline.unlimited)
      val expected = calls.map(c => c -> ask(lone, c)).toMap
      val shared = new MvdLattice.Shared
      val oracles = new LocalEntropyOracle(rel).workers(4)
      val lattices = oracles.map(o => new MvdLattice(new InfoCalc(o), omega, eps, Deadline.unlimited, shared))
      // each thread asks every call, in an order of its own
      val answers = new Array[Seq[(Call, Any)]](lattices.size)
      val failure = new java.util.concurrent.atomic.AtomicReference[Throwable]
      val threads = lattices.indices.map { t =>
        new Thread(() =>
          try answers(t) = new Random(t).shuffle(calls).map(c => c -> ask(lattices(t), c))
          catch { case e: Throwable => failure.compareAndSet(null, e) })
      }
      threads.foreach(_.start())
      threads.foreach(_.join())
      if (failure.get != null) throw failure.get
      for (t <- lattices.indices; (c, got) <- answers(t))
        assert(got == expected(c), s"eps=$eps thread $t call $c")
      assert(lattices.map(_.nodes).sum == lone.nodes, s"eps=$eps")
      several += expected.values.count { case v: Vector[_] => v.size >= 2; case _ => false }
    }
    assert(several > 0, "no expansion found two MVDs, so the order went untested")
  }

  test("masks sort as Mvd.of sorts: attributes 62 and 63 of a 64-column relation") {
    // attributes 0, 1, 31, 62, 63 vary; 31 copies 0 and 63 mostly copies 1
    val varying = AttrSet.of(0, 1, 31, 62, 63)
    val omega = AttrSet.range(64)
    var signFirst = 0
    for (seed <- 0 until 4) {
      val rnd = new Random(seed + 900)
      val rows = Array.fill(40) {
        val row = Array.fill(64)(0)
        row(0) = rnd.nextInt(3)
        row(1) = rnd.nextInt(3)
        row(31) = row(0)
        row(62) = rnd.nextInt(3)
        row(63) = if (rnd.nextInt(10) == 0) rnd.nextInt(3) else row(1)
        row
      }
      val calc = TestData.calcOf(EncodedRelation(Vector.tabulate(64)(i => s"c$i"), rows))
      for (eps <- Seq(0.0, 0.1, 0.3); extra <- Seq(AttrSet.empty, AttrSet.of(31), AttrSet.of(0, 31))) {
        val key = omega.diff(varying) | extra
        val lattice = new MvdLattice(calc, omega, eps, Deadline.unlimited)
        val finest = Reference.finest(key, omega)
        val closure = lattice.closure(finest)
        if (closure.exists(_.deps.head.contains(63))) signFirst += 1
        val rest = omega.diff(key).toSeq
        for (a <- rest; b <- rest if a < b) {
          assert(closure.filter(Reference.separates(_, a, b)) ==
                   Reference.pairwiseConsistent(calc, finest, eps, a, b), s"seed=$seed eps=$eps key=$key")
          assert(lattice.separates(key, a, b) == Reference.fullMvds(calc, omega, key, eps, a, b, 1).nonEmpty,
                 s"seed=$seed eps=$eps key=$key pair=($a,$b) k=1")
          assert(lattice.fullMvds(key, a, b) == Reference.fullMvds(calc, omega, key, eps, a, b, Int.MaxValue),
                 s"seed=$seed eps=$eps key=$key pair=($a,$b) k=∞")
        }
      }
    }
    assert(signFirst > 0, "no closure had a dependent with attribute 63")
  }

  test("minimizeFull removes refined MVDs") {
    val key = AttrSet.of(0)
    val fine = Mvd.of(key, Vector(AttrSet.of(1), AttrSet.of(2), AttrSet.of(3)))
    val coarse = Mvd.of(key, Vector(AttrSet.of(1, 2), AttrSet.of(3)))
    assert(MvdLattice.minimizeFull(Vector(fine, coarse), Deadline.unlimited) == Vector(fine))
    assert(MvdLattice.minimizeFull(Vector(coarse), Deadline.unlimited) == Vector(coarse))
  }

  test("minimizeFull stops at the deadline and keeps only confirmed full MVDs") {
    // 20 000 distinct MVDs with key {0}: random partitions of 1..12
    val mvds = sameKeyFamily(20000, 12, 17)
    for (limitMs <- Seq(0L, 100L)) {
      val deadline = Deadline.ofMs(limitMs)
      val got = MvdLattice.minimizeFull(mvds, deadline)
      assert(deadline.elapsedMs < 1000, s"limit $limitMs ms: returned after ${deadline.elapsedMs} ms")
      for (phi <- got) assert(!mvds.exists(Reference.strictlyRefines(_, phi)), s"$phi is refined")
    }
  }

  test("minimizeFull on 20 000 same-key MVDs finishes in under 5 s") {
    val mvds = sameKeyFamily(20000, 12, 17)
    val deadline = Deadline.unlimited
    val got = MvdLattice.minimizeFull(mvds, deadline)
    assert(deadline.elapsedMs < 5000, s"took ${deadline.elapsedMs} ms")
    assert(got.nonEmpty && got.size < mvds.size)
  }

  test("minimizeFull equals the quadratic filter on random families") {
    for (seed <- 0 until 20) {
      val mvds = sameKeyFamily(50 + 25 * seed, 7 + seed % 3, seed + 40)
      assert(MvdLattice.minimizeFull(mvds, Deadline.unlimited) == Reference.minimizeFull(mvds), s"seed=$seed")
    }
  }

  test("minimizeFull rejects MVDs of different keys or covers") {
    val a = Mvd.of(AttrSet.of(0), Vector(AttrSet.of(1), AttrSet.of(2)))
    val b = Mvd.of(AttrSet.of(1), Vector(AttrSet.of(0), AttrSet.of(2)))
    val c = Mvd.of(AttrSet.of(0), Vector(AttrSet.of(1), AttrSet.of(2, 3)))
    intercept[IllegalArgumentException](MvdLattice.minimizeFull(Vector(a, b), Deadline.unlimited))
    intercept[IllegalArgumentException](MvdLattice.minimizeFull(Vector(a, c), Deadline.unlimited))
  }

  test("deadline aborts the search gracefully") {
    val rel = TestData.randomRelation(8, 40, 6, 13)
    val calc = TestData.calcOf(rel)
    val fired = Deadline.ofMs(0)
    Thread.sleep(5)
    val got = new MvdLattice(calc, AttrSet.range(8), 0.0, fired)
      .fullMvds(AttrSet.empty, 0, 1)
    assert(got.isEmpty) // the DFS pops no node once the deadline has fired
  }
}
