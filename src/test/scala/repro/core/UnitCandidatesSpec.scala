package repro.core

import repro.SparkSpec
import UnitCandidates._

/** Candidate-unit enumeration per placeholder (paper §4.1.4). */
class UnitCandidatesSpec extends SparkSpec {

  private def cands(src: String, txt: String, withTwoCharSplitSubstr: Boolean = false) =
    forPlaceholder(src, txt, Placeholders.occurrences(src, txt), withTwoCharSplitSubstr = withTwoCharSplitSubstr)

  test("every candidate actually produces the placeholder text") {
    val src = "bowling, michael"
    for (txt <- Seq("michael", "bowling", "m", "ing"); u <- cands(src, txt))
      assert(u(src).contains(txt), s"${u.render} on '$src' should give '$txt'")
  }

  test("every candidate produces the text even with TwoCharSplitSubstr enabled") {
    val src = "prus-czarnecki, andrzej"
    for (txt <- Seq("andrzej", "prus", "czarnecki"); u <- cands(src, txt, withTwoCharSplitSubstr = true))
      assert(u(src).contains(txt), s"${u.render} on '$src' should give '$txt'")
  }

  test("Substr candidate uses the occurrence offsets") {
    val got = cands("abcdef", "cd")
    assert(got.contains(Substr(2, 4)))
  }

  test("Split candidate appears when a clean delimiter borders the text") {
    // "bowling, michael": ',' right after "bowling" and ',' not in "bowling"
    val got = cands("bowling, michael", "bowling")
    assert(got.contains(Split(',', 1)))
  }

  test("paper §3.2 units are all discovered for their placeholders") {
    val src = "prus-czarnecki, andrzej"
    // Split(',', 1) gives "prus-czarnecki"
    assert(cands(src, "prus-czarnecki").contains(Split(',', 1)))
    // SplitSubstr(' ', 2, 0, 1) gives "a"
    assert(cands(src, "a").contains(SplitSubstr(' ', 2, 0, 1)))
  }

  test("Split candidate not offered when the delimiter occurs inside the text") {
    // ' ' occurs inside "victor r", so Split(' ', _) cannot produce it
    val got = cands("victor robbie kasumba xr", "victor r")
    assert(!got.exists { case Split(' ', _) => true; case _ => false })
  }

  test("Literal is always among the candidates") {
    assert(cands("abcdef", "cd").contains(Literal("cd")))
  }

  test("multiple source occurrences yield candidates for each") {
    val got = cands("ab cd ab", "ab")
    assert(got.contains(Substr(0, 2)))
    assert(got.contains(Substr(6, 8)))
  }

  test("SplitSubstr candidates use piece-relative offsets") {
    // "aa,bbb": "bb" inside piece 2 of ',' split at piece offset 0
    val got = cands("aa,bbb", "bb")
    assert(got.contains(SplitSubstr(',', 2, 0, 2)))
  }

  test("maxCandidates bounds the result") {
    val src = ("abcdefghijklmnopqrstuvwxyz0123456789" * 3)
    val got = forPlaceholder(src, "abc", Placeholders.occurrences(src, "abc"), 5)
    assert(got.size <= 5)
  }

  test("candidate sets contain no duplicates") {
    val src = "ab ab ab"
    val got = cands(src, "ab")
    assert(got.distinct.size == got.size)
  }

  test("TwoCharSplitSubstr candidates produce the text when enabled") {
    val src = "12-34_56"
    val got = cands(src, "34", withTwoCharSplitSubstr = true)
    val two = got.collect { case t: TwoCharSplitSubstr => t }
    assert(two.nonEmpty)
    for (t <- two) assert(t(src).contains("34"))
  }
}
