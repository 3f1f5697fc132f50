package repro.core

import java.util.concurrent.ForkJoinPool
import java.util.stream.IntStream
import org.scalacheck.Gen
import repro.{PropHelper, SparkSpec}

/** Coverage computation and the non-covering-unit filter (paper §4.1.5). */
class CoverageSpec extends SparkSpec with PropHelper {
  import Coverage._

  private val pairs = Seq(
    ("bowling, michael", "m bowling"),
    ("rafiei, davood", "d rafiei"),
    ("gosgnach, simon", "s gosgnach"),
    ("nascimento, mario", "mario"),
  )
  private val tInitial =
    Transformation(SplitSubstr(' ', 2, 0, 1), Literal(" "), Split(',', 1))
  private val tFirst = Transformation(Split(' ', 2))

  test("counts: coverage is exact") {
    val rows = rowStates(pairs)
    val (cov, _) = counts(Vector(tInitial, tFirst), rows)
    assert(cov(0) == 3) // covers all but the "mario" row
    assert(cov(1) == 1) // only "mario"
  }

  test("a non-covering unit eliminates every row on first use") {
    val rows = rowStates(pairs)
    // Literal("zzz") is not a substring of any target: the filter drops every
    // row without applying the transformation, already on the first probe.
    for (i <- Seq(1, 2)) {
      val (cov, stats) = counts(Vector(Transformation(Literal("zzz"), Split(',', i))), rows)
      assert(cov.toSeq == Seq(0) && stats == CacheStats(hits = pairs.size, misses = 0))
    }
  }

  /** Random small inputs over a four-letter alphabet, with a seed. */
  private val input = {
    val str = Gen.choose(0, 7).flatMap(n => Gen.listOfN(n, Gen.oneOf('a', 'b', ' ', ',')).map(_.mkString))
    for {
      n     <- Gen.choose(1, 5)
      pairs <- Gen.listOfN(n, Gen.zip(str, str))
      seed  <- Gen.long
    } yield (pairs, seed)
  }

  test("cache never changes coverage results (consistency)") {
    forAllSampled(input, samples = 60) { case (pairs, seed) =>
      val rows = rowStates(pairs)
      val ts = TransformationGen.forPairs(pairs)._1 ++ Vector(
        Transformation(Vector.empty),
        Transformation(Split(',', 5)),
        Transformation(Split(' ', 1), Literal("-"), Split(',', 9)),
      )
      val naive = ts.map(t => rows.indices.filter(ri => t.covers(rows(ri).src, rows(ri).tgt)))
      val (cov, stats) = counts(ts, rows)
      assert(cov.toSeq == naive.map(_.size))
      assert(stats.hits + stats.misses == ts.size.toLong * rows.length)
      // Neither the counts, the counters nor the covered rows depend on the
      // order the transformations are evaluated in.
      val perm              = new scala.util.Random(seed).shuffle(ts.indices.toVector)
      val (permCov, permSt) = counts(perm.map(ts), rows)
      assert(perm.map(cov(_)) == permCov.toSeq && permSt == stats)
      val filter = new UnitFilter(rows)
      for (i <- perm) assert(filter.covered(ts(i)).toSeq == naive(i), ts(i))
    }
  }

  test("a unit whose output is a substring of the target is not cached") {
    // Substr(0,2)="ab" is in the target, so the row survives the filter and is
    // verified, but the transformation does not cover it.
    val rows = rowStates(Seq(("abcd", "ab-cd")))
    val (cov, stats) = counts(Vector(Transformation(Substr(0, 2))), rows)
    assert(cov.toSeq == Seq(0) && stats == CacheStats(hits = 0, misses = 1))
  }

  test("an undefined unit is cached as non-covering") {
    val rows = rowStates(Seq(("abcd", "ab")))
    val (cov, stats) = counts(Vector(Transformation(Split(',', 5))), rows)
    assert(cov.toSeq == Seq(0) && stats == CacheStats(hits = 1, misses = 0))
  }

  test("covered returns the exact row index set, on warm and cold caches") {
    val rows = rowStates(pairs)
    val warm = new UnitFilter(rows)
    TransformationGen.forPairs(pairs)._1.foreach(warm.covered)
    for (filter <- Seq(warm, new UnitFilter(rows))) {
      assert(filter.covered(tInitial).toSeq == Seq(0, 1, 2))
      assert(filter.covered(tFirst).toSeq == Seq(3))
    }
  }

  test("counts, counters and covered rows do not depend on the thread count (property)") {
    withOneAndEightThreads { (one, eight) =>
      forAllSampled(input, samples = 40) { case (pairs, seed) =>
        val rows = rowStates(pairs)
        val ts   = TransformationGen.forPairs(pairs)._1
        val perm = new scala.util.Random(seed).shuffle(ts.indices.toVector)
        // Both orders counted, and every covered set taken concurrently
        // from one shared filter.
        def run(pool: ForkJoinPool) = onPool(pool) {
          val (cov, stats)         = counts(ts, rows)
          val (permCov, permStats) = counts(perm.map(ts), rows)
          val filter               = new UnitFilter(rows)
          val covered              = new Array[Seq[Int]](ts.size)
          IntStream.range(0, ts.size).parallel().forEach { i =>
            covered(perm(i)) = filter.covered(ts(perm(i))).toSeq
          }
          (cov.toSeq, stats, permCov.toSeq, permStats, covered.toSeq)
        }
        val (cov, stats, permCov, permStats, covered) = run(one)
        assert(run(eight) == ((cov, stats, permCov, permStats, covered)))
        assert(permCov == perm.map(cov) && permStats == stats)
        assert(covered.map(_.size) == cov)
      }
    }
  }

  test("covered equals a recount through apply, on non-BMP text and empty pieces (property)") {
    // Tokens include a surrogate pair, so unit outputs and Substr cuts may
    // hold half a character; the empty token makes empty strings likely.
    val text = Gen.choose(0, 6).flatMap(n => Gen.listOfN(n, Gen.oneOf("\uD83D\uDE00", " ", ",", "a", "")).map(_.mkString))
    val pair = for {
      src <- text
      tgt <- Gen.oneOf(text, Gen.const(src), Gen.const(src.reverse), Gen.const(src.take(2)), Gen.const(src.drop(1)))
    } yield (src, tgt)
    val gen = Gen.choose(1, 6).flatMap(n => Gen.listOfN(n, pair))
    val cuts = Vector(
      Transformation(Vector.empty),
      Transformation(Substr(0, 1)),
      Transformation(Substr(1, 2)),
      Transformation(Substr(0, 1), Substr(1, 2)),
      Transformation(Substr(0, 1), Literal("\uDE00")),
      Transformation(Split(',', 2), Substr(0, 1)),
      Transformation(SplitSubstr(' ', 2, 0, 1), Split(',', 1)),
    )
    forAllSampled(gen, samples = 200) { pairs =>
      val rows   = rowStates(pairs)
      val ts     = TransformationGen.forPairs(pairs)._1 ++ cuts
      val filter = new UnitFilter(rows)
      val recount = ts.map(t => rows.indices.filter(ri => t.apply(rows(ri).src).contains(rows(ri).tgt)))
      for ((t, expected) <- ts.zip(recount)) assert(filter.covered(t).toSeq == expected, t)
      assert(counts(ts, rows)._1.toSeq == recount.map(_.size))
    }
  }
}
