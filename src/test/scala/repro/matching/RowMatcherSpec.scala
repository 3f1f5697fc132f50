package repro.matching

import repro.SparkSpec
import RowMatcher._

/** N-gram row matching, IRF/Rscore (paper §4.2.1, Algorithm 1). */
class RowMatcherSpec extends SparkSpec {

  private val names = Vector(
    "rafiei, davood", "nascimento, mario", "gingrich, douglas",
    "prus-czarnecki, andrzej", "bowling, michael", "gosgnach, simon",
  )
  private val abbrevs = Vector(
    "d rafiei", "m nascimento", "d gingrich",
    "a prus-czarnecki", "m bowling", "s gosgnach",
  )

  test("Figure-1-style names match their reformatted counterparts") {
    val pairs = matchPairs(names, abbrevs)
    val gold  = names.indices.map(i => (i, i)).toSet
    val prf   = MatchMetrics.score(pairs, gold)
    assert(prf.recall == 1.0, s"pairs=$pairs")
    assert(prf.precision >= 0.8)
  }

  test("a shuffled target column is still matched correctly") {
    val perm  = Vector(3, 0, 5, 1, 4, 2)
    val tgt   = Vector.tabulate(6)(j => abbrevs(perm.indexOf(j)))
    val pairs = matchPairs(names, tgt)
    val gold  = names.indices.map(i => (i, perm(i))).toSet
    assert(MatchMetrics.score(pairs, gold).recall == 1.0)
  }

  test("matching is case-insensitive by default") {
    val pairs = matchPairs(Vector("Bowling, Michael"), Vector("m BOWLING"))
    assert(pairs.contains((0, 0)))
  }

  test("rows with no common n-gram of length >= n0 are not paired") {
    val pairs = matchPairs(Vector("aaaaaa"), Vector("zzzzzz"))
    assert(pairs.isEmpty)
  }

  test("common stop-word-like n-grams do not flood the matching (IRF at work)") {
    // Every source row shares the long prefix "professor "; the
    // representative n-grams must come from the rare name parts.
    val src = Vector("professor rafiei", "professor bowling", "professor gosgnach")
    val tgt = Vector("rafiei x", "bowling x", "gosgnach x")
    val pairs = matchPairs(src, tgt)
    assert(pairs == Set((0, 0), (1, 1), (2, 2)))
  }

  test("many-to-many candidates are all returned") {
    val src = Vector("rafiei, davood")
    val tgt = Vector("d rafiei", "rafiei d", "unrelated")
    val pairs = matchPairs(src, tgt)
    assert(pairs.contains((0, 0)) && pairs.contains((0, 1)))
    assert(!pairs.contains((0, 2)))
  }

  test("n0 floor suppresses short accidental grams") {
    val src = Vector("abcz")
    val tgt = Vector("abXY") // shares only "ab" (length 2 < n0=4)
    assert(matchPairs(src, tgt).isEmpty)
  }

  test("deterministic across runs") {
    val a = matchPairs(names, abbrevs)
    val b = matchPairs(names, abbrevs)
    assert(a == b)
  }

  test("metrics: perfect, empty, and partial predictions") {
    val gold = Set((0, 0), (1, 1))
    assert(MatchMetrics.score(gold, gold) == MatchMetrics.PRF(1.0, 1.0, 1.0))
    val none = MatchMetrics.score(Set.empty, gold)
    assert(none.precision == 0.0 && none.recall == 0.0 && none.f1 == 0.0)
    val part = MatchMetrics.score(Set((0, 0), (5, 5)), gold)
    assert(part.precision == 0.5 && part.recall == 0.5 && part.f1 == 0.5)
  }
}
