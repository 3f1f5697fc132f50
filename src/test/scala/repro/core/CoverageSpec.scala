package repro.core

import repro.SparkSpec

/** Coverage computation and the non-covering-unit cache (paper §4.1.5). */
class CoverageSpec extends SparkSpec {
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

  test("cache records non-covering units and subsequent probes hit") {
    val rows = rowStates(pairs)
    // Literal("zzz") is not a substring of any target: first application is a
    // miss that poisons the cache, the second is a pure hit.
    val bad = Transformation(Literal("zzz"), Split(',', 1))
    val (_, s1) = counts(Vector(bad), rows)
    assert(s1.hits == 0 && s1.misses == pairs.size)
    val bad2 = Transformation(Literal("zzz"), Split(',', 2))
    val (_, s2) = counts(Vector(bad2), rows)
    assert(s2.hits == pairs.size && s2.misses == 0)
  }

  test("cache never changes coverage results (consistency)") {
    val (distinct, _) = TransformationGen.forPairs(pairs)
    val withCache = {
      val rows = rowStates(pairs)
      counts(distinct, rows)._1.toVector
    }
    val withoutCache = distinct.map(t => pairs.count { case (s, g) => t.covers(s, g) }).toVector
    assert(withCache == withoutCache)
  }

  test("a unit whose output is a substring of the target is not cached") {
    val rows = rowStates(Seq(("abcd", "ab-cd")))
    // Substr(0,2)="ab" is in the target but the transformation fails overall.
    val t = Transformation(Substr(0, 2))
    val (skipped, covers) = applyToRow(t, rows(0))
    assert(!skipped && !covers)
    // Re-applying must not be a cache hit: the unit could still be part of a
    // covering transformation.
    val again = applyToRow(t, rows(0))
    assert(!again._1)
  }

  test("an undefined unit is cached as non-covering") {
    val rows = rowStates(Seq(("abcd", "ab")))
    val t = Transformation(Split(',', 5))
    assert(applyToRow(t, rows(0)) == (false, false))
    assert(applyToRow(t, rows(0)) == (true, false))
  }

  test("covered returns the exact row index set, on warm and cold caches") {
    val warm = rowStates(pairs)
    counts(Vector(tInitial, tFirst), warm)
    for (rows <- Seq(warm, rowStates(pairs))) {
      assert(covered(tInitial, rows).toSeq == Seq(0, 1, 2))
      assert(covered(tFirst, rows).toSeq == Seq(3))
    }
  }

  test("cache stats combine additively") {
    assert(CacheStats(1, 2) + CacheStats(3, 4) == CacheStats(4, 6))
    assert(CacheStats(3, 1).hitRatio == 0.75)
    assert(CacheStats.zero.hitRatio == 0.0)
  }

  test("covering transformation leaves no poison in the cache for its units") {
    val rows = rowStates(Seq(("bowling, michael", "m bowling")))
    assert(applyToRow(tInitial, rows(0)) == (false, true))
    // All units covered; none should be cached as non-covering.
    assert(rows(0).nonCovering.isEmpty)
    assert(applyToRow(tInitial, rows(0)) == (false, true))
  }
}
