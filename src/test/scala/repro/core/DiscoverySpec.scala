package repro.core

import org.scalacheck.Gen
import repro.{PropHelper, SparkSpec}
import repro.data.SynthJoin
import Discovery._

/** End-to-end local discovery (paper §4.1): the Figure-1 scenarios and the
  * optimality/statistics behaviour.
  */
class DiscoverySpec extends SparkSpec with PropHelper {

  private val nameToAbbrev = Seq(
    ("rafiei, davood", "d rafiei"),
    ("nascimento, mario a", "m a nascimento"),
    ("gingrich, douglas m", "d gingrich"),
    ("prus-czarnecki, andrzej", "a prus-czarnecki"),
    ("bowling, michael", "m bowling"),
    ("gosgnach, simon", "s gosgnach"),
  )

  test("Figure 1: a small set of transformations covers name -> abbreviated name") {
    // The middle-initial row is a singleton rule, so allow support 1 here.
    val res = discover(nameToAbbrev, DiscoveryConfig(minSupportRows = 1))
    assert(res.setCoverage == 1.0)
    // The dominant rule "f last" covers at least the four simple rows.
    assert(res.topCoverage >= 4.0 / 6.0)
  }

  test("Figure 1: the paper's transformation is discovered for the simple rows") {
    val simple = nameToAbbrev.filterNot(_._1.contains(" a")).filter {
      case (s, g) => Transformation(SplitSubstr(' ', 2, 0, 1), Literal(" "), Split(',', 1)).covers(s, g)
    }
    assert(simple.size >= 3)
    val res = discover(simple)
    assert(res.topCoverage == 1.0)
    assert(res.top.exists(_._1.covers("bowling, michael", "m bowling")))
  }

  test("name -> email with two coexisting rules needs a cover set") {
    val full = Seq(
      ("rafiei, davood", "davood.rafiei@ualberta.ca"),
      ("bowling, michael", "michael.bowling@ualberta.ca"),
      ("gosgnach, simon", "simon.gosgnach@ualberta.ca"),
      ("nascimento, mario", "mario@ualberta.ca"),
      ("gingrich, douglas", "douglas@ualberta.ca"),
    )
    val res = discover(full)
    assert(res.setCoverage == 1.0)
    assert(res.coverSet.size == 2)
    assert(res.topCoverage == 3.0 / 5.0)
  }

  test("single-rule input is covered by one transformation") {
    val pairs = Seq(
      ("ab,cd", "cd-ab"), ("xy,zw", "zw-xy"), ("pq,rs", "rs-pq"), ("mn,op", "op-mn"),
    )
    val res = discover(pairs)
    assert(res.topCoverage == 1.0)
    assert(res.coverSet.size == 1)
    val t = res.coverSet.head.t
    assert(t.covers("he,llo", "llo-he"))
  }

  test("Lemma 3 scenario: coverage recovered by non-maximal placeholders") {
    // Unique separators per row; only <Literal('a'), Split('a', 2)>-style
    // transformations generalize.
    val pairs = Seq(
      ("12345sabcdefg", "abcdefg"),
      ("67890taxcdefg", "axcdefg"),
    )
    val res = discover(pairs, DiscoveryConfig(minSupportRows = 2))
    assert(res.topCoverage == 1.0, s"top=${res.top}")
  }

  test("support threshold suppresses low-support transformations in the cover") {
    // Left parts have pairwise-distinct lengths so no Substr rule can span
    // two rows; the comma rows share Split(',', 2), the dash row is a
    // singleton below the threshold.
    val pairs = Seq(
      ("al,aa", "aa"), ("bet,bb", "bb"), ("gamm,cc", "cc"), ("delta,dd", "dd"),
      ("epsilo,ee", "ee"), ("zetaeta,ff", "ff"), ("thetaiot,gg", "gg"),
      ("kappalamb,hh", "hh"), ("mumunumunu,ii", "ii"),
      ("abcdefghijk-jj", "jj"), // odd row out, support 1
    )
    val res = discover(pairs, DiscoveryConfig(supportThreshold = 0.15))
    // The dominant rule is found; every member of the cover respects the
    // support floor (ceil(0.15 * 10) = 2). The odd row may still be picked
    // up by a coincidental rule that also covers >= 2 comma rows.
    assert(res.top.map(_._1).contains(Transformation(Split(',', 2))))
    assert(res.coverSet.head.t == Transformation(Split(',', 2)))
    assert(res.coverSet.forall(_.covered.length >= 2))
    assert(res.setCoverage >= 0.9)
  }

  test("minSupportRows filters low-support transformations") {
    // The comma rows share Split(',', 2); rules that reverse "xyz" cover no
    // other row, so they have support 1.
    val pairs = Seq(("al,aa", "aa"), ("bet,bb", "bb"), ("gamm,cc", "cc"), ("xyz", "zyx"))
    val floored = discover(pairs, DiscoveryConfig(minSupportRows = 2))
    assert(floored.coverSet.nonEmpty && floored.coverSet.forall(_.covered.length >= 2))
    assert(CoverSet.unionCoverage(floored.coverSet.map(_.covered), 4) == 3)
    assert(discover(pairs, DiscoveryConfig(minSupportRows = 1)).setCoverage == 1.0)
  }

  test("pruning stats are populated and consistent") {
    val res = discover(nameToAbbrev)
    val s   = res.stats
    assert(s.generated >= s.toTry)
    assert(s.toTry > 0)
    assert(s.duplicates == s.generated - s.toTry)
    assert(s.duplicateRatio >= 0.0 && s.duplicateRatio < 1.0)
    assert(s.cacheHits + s.cacheMisses >= s.toTry) // every distinct t touched every row
    assert(s.cacheHitRatio > 0.0)
  }

  test("duplicate ratio grows when rows share structure") {
    val shared = (1 to 8).map(i => (s"a$i,b$i", s"b$i"))
    val res    = discover(shared)
    assert(res.stats.duplicateRatio > 0.2)
  }

  test("empty input") {
    val res = discover(Seq.empty)
    assert(res.top.isEmpty && res.coverSet.isEmpty && res.setCoverage == 0.0)
  }

  test("single row input: covered by its own transformations (support floor 1)") {
    val res = discover(Seq(("ab,cd", "cd")), DiscoveryConfig(minSupportRows = 1))
    assert(res.topCoverage == 1.0)
  }

  test("result is deterministic across runs") {
    val r1 = discover(nameToAbbrev)
    val r2 = discover(nameToAbbrev)
    assert(r1.top.map(_._1) == r2.top.map(_._1))
    assert(r1.transformations == r2.transformations)
    assert(r1.stats == r2.stats)
  }

  test("discovered cover generalizes to unseen rows from the same rules") {
    val train = nameToAbbrev.take(5)
    val res   = discover(train)
    val holdout = ("walker, james", "j walker")
    assert(res.transformations.exists(_.covers(holdout._1, holdout._2)))
  }

  /** [[finish]] over the transformations of `pairs` as generated by
    * `TransformationGen.forPairs` and counted by `Coverage.counts`.
    */
  private def viaFinish(pairs: Seq[(String, String)], cfg: DiscoveryConfig): DiscoveryResult = {
    val (ts, gen)    = TransformationGen.forPairs(pairs, cfg.gen)
    val rows         = Coverage.rowStates(pairs)
    val (counts, cs) = Coverage.counts(ts, rows)
    val ranked       = ts.indices.filter(i => counts(i) >= 1 && !ts(i).isConstant).map(i => (ts(i), counts(i))).toVector
    val stats        = PruningStats(gen.generated, ts.size.toLong, cs.hits, cs.misses, gen.truncated)
    finish(pairs.size, ranked, cs, rows, stats, cfg, System.nanoTime())
  }

  test("finish over counted transformations equals discover (property)") {
    // The 0.9 threshold puts the floor above most largest counts, where
    // only the top answer remains.
    val cfgs = Seq(DiscoveryConfig(), DiscoveryConfig(minSupportRows = 1), DiscoveryConfig(supportThreshold = 0.9))
    def same(pairs: Seq[(String, String)]): Unit = for (cfg <- cfgs) {
      val a = discover(pairs, cfg)
      val b = viaFinish(pairs, cfg)
      def cover(r: DiscoveryResult) = r.coverSet.map(c => (c.t, c.covered.toSeq, c.marginalGain))
      assert(b.top == a.top, cfg)
      assert(cover(b) == cover(a), cfg)
      assert(b.stats == a.stats, cfg)
    }
    forAllSampled(DiscoverySpec.smallInputs, samples = 30)(same)
    same(SynthJoin.synth(50, 1L).goldPairStrings)
  }

  test("results do not depend on the order of the input rows (property)") {
    val input = for {
      pairs <- DiscoverySpec.smallInputs
      seed  <- Gen.long
    } yield (pairs, seed)
    forAllSampled(input, samples = 30) { case (pairs, seed) =>
      val perm = new scala.util.Random(seed).shuffle(pairs.indices.toVector)
      val a    = discover(pairs)
      val b    = discover(perm.map(pairs))
      assert(b.transformations == a.transformations)
      assert(b.top == a.top)
      assert(b.stats == a.stats)
      // Covered rows name the same pairs, as multisets (inputs may repeat pairs).
      def coveredPairs(r: DiscoveryResult, rows: Int => (String, String)) =
        r.coverSet.map(_.covered.toVector.map(rows).sorted)
      assert(coveredPairs(b, i => pairs(perm(i))) == coveredPairs(a, pairs))
    }
  }

  test("results do not depend on the thread count (property)") {
    withOneAndEightThreads { (one, eight) =>
      forAllSampled(DiscoverySpec.smallInputs, samples = 30) { pairs =>
        val a = onPool(one)(discover(pairs))
        val b = onPool(eight)(discover(pairs))
        assert(b.transformations == a.transformations)
        assert(b.top == a.top)
        assert(b.stats == a.stats)
      }
    }
  }

  test("every chosen rule covers exactly the rows it claims; gains sum to the union (property)") {
    forAllSampled(DiscoverySpec.smallInputs, samples = 30) { pairs =>
      // The default support floor of two rows makes the greedy take rules
      // whose rows are partly covered already.
      val res = discover(pairs)
      def recount(t: Transformation) = pairs.indices.filter(i => t.covers(pairs(i)._1, pairs(i)._2))
      for (c <- res.coverSet) assert(c.covered.toSeq == recount(c.t), c.t)
      for ((t, n) <- res.top) assert(n == recount(t).size, t)
      assert(res.coverSet.map(_.marginalGain).sum == CoverSet.unionCoverage(res.coverSet.map(_.covered), pairs.size))
    }
  }
}

object DiscoverySpec {

  /** Small inputs mixing a few reformatting rules over random words, with
    * some unrelated targets and repeated pairs, so covers have several rules,
    * ties, rules that overlap (`Split(sep, 1)` and `Substr(0, 2)` on a
    * two-letter first word) and uncovered rows.
    */
  val smallInputs: Gen[Vector[(String, String)]] = {
    val word = Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, Gen.oneOf('a', 'b', 'c', '1')).map(_.mkString))
    val row = for {
      w1   <- word
      w2   <- word
      sep  <- Gen.oneOf(',', ' ')
      junk <- word
      tgt  <- Gen.oneOf(w1, w1.take(2), w2, s"$w2-$w1", s"${w1.head} $w2", s"$w1@x", junk)
    } yield (s"$w1$sep$w2", tgt)
    Gen.choose(2, 8).flatMap(n => Gen.listOfN(n, row)).flatMap { rows =>
      Gen.someOf(rows).map(dups => (rows ++ dups).toVector)
    }
  }
}
