package repro.core

import repro.SparkSpec
import Skeletons._

/** Skeleton construction (paper §4.1.3), including the Victor Kasumba
  * worked example.
  */
class SkeletonsSpec extends SparkSpec {

  private def render(s: Skeleton): String = s.render

  test("paper example: skeleton set for (Victor Robbie Kasumba, Victor R. Kasumba)") {
    // Lowercased to match the paper's case-insensitive presentation; the
    // structure is what matters.
    val src = "victor robbie kasumba"
    val tgt = "victor r. kasumba"
    val sks = all(src, tgt).map(render)
    assert(sks.contains("<(P: 'victor r'), (L: '. '), (P: 'kasumba')>"))
    assert(sks.contains("<(P: 'victor'), (L: ' '), (P: 'r'), (L: '. '), (P: 'kasumba')>"))
    assert(sks.contains("<(L: 'victor r. kasumba')>"))
  }

  test("maximal skeleton concatenates back to the target") {
    val src = "bowling, michael"
    val tgt = "michael.bowling@ualberta.ca"
    val sk  = maximalSkeleton(src, tgt)
    assert(sk.blocks.map(_.text).mkString == tgt)
  }

  test("every generated skeleton concatenates back to the target") {
    val src = "prus-czarnecki, andrzej"
    val tgt = "a prus-czarnecki"
    for (sk <- all(src, tgt))
      assert(sk.blocks.map(_.text).mkString == tgt)
  }

  test("all-literal skeleton is always present") {
    val sks = all("abc", "xyz abc")
    assert(sks.exists(s => s.blocks == Vector(L("xyz abc"))))
  }

  test("skeletons never exceed the placeholder cap") {
    val src = "a b c d e f g h"
    val tgt = "a-b-c-d-e-f"
    for (sk <- all(src, tgt, maxPlaceholders = 3))
      assert(sk.placeholderCount <= 3)
  }

  test("placeholder blocks in the maximal skeleton occur in the source") {
    val src = "victor robbie kasumba"
    val tgt = "victor r. kasumba"
    for (b <- maximalSkeleton(src, tgt).blocks) b match {
      case P(t, _) => assert(src.contains(t))
      case _       =>
    }
  }

  test("tokenized variant splits at spaces and punctuation, keeping them as literals") {
    val src = "john paul jones"
    val tgt = "john paul"
    val sks = all(src, tgt).map(render)
    assert(sks.contains("<(P: 'john'), (L: ' '), (P: 'paul')>"))
  }

  test("a target with no common text yields only the all-literal skeleton") {
    val sks = all("abc", "xyz")
    assert(sks.map(render) == Vector("<(L: 'xyz')>"))
  }

  test("separator classification covers space and punctuation but not alphanumerics") {
    assert(isSeparator(' ') && isSeparator(',') && isSeparator('.') && isSeparator('-'))
    assert(!isSeparator('a') && !isSeparator('Z') && !isSeparator('6'))
  }

  test("separator classification is 'not a letter or digit', whitespace included, on every Char") {
    // The classification written out as space, punctuation and whitespace.
    def spelledOut(c: Char) = c == ' ' || (!c.isLetterOrDigit && !c.isWhitespace) || c.isWhitespace
    val differ = (Char.MinValue to Char.MaxValue).filter(c => isSeparator(c) != spelledOut(c))
    assert(differ.isEmpty, differ.take(5).map(_.toInt))
    assert(isSeparator('\t') && isSeparator(' ') && !isSeparator('é'))
  }

  test("skeleton list is duplicate-free") {
    val sks = all("victor robbie kasumba", "victor r. kasumba")
    assert(sks.distinct.size == sks.size)
  }
}
