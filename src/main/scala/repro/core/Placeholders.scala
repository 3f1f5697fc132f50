package repro.core

/** Placeholder detection (paper §4.1, Definition 4).
  *
  * A placeholder is a contiguous block of the target that can be produced
  * from the source by a non-constant unit; with copy-style units that is
  * exactly "a substring of the target that is also a substring of the
  * source". Maximal-length placeholders (§4.1.3) — those not contained in a
  * longer one — form the backbone of the skeletons;
  * [[Skeletons.maximalSkeleton]] reads them off the match lengths below.
  */
object Placeholders {

  /** For each start position `j` of `target`, the largest `L` such that
    * `target.substring(j, j+L)` occurs in `source` (0 when even the single
    * character at `j` is absent). Satisfies `m(j+1) >= m(j) - 1`.
    */
  def maxMatchLengths(source: String, target: String): Array[Int] = {
    val m = new Array[Int](target.length)
    var j = 0
    var prev = 0
    while (j < target.length) {
      // A substring of an occurring string occurs, so start the probe from
      // the previous position's match length minus one instead of zero.
      var len = math.max(0, prev - 1)
      while (j + len < target.length && source.contains(target.substring(j, j + len + 1)))
        len += 1
      m(j) = len
      prev = len
      j += 1
    }
    m
  }

  /** All start offsets of `needle` in `haystack` (overlapping included). */
  def occurrences(haystack: String, needle: String): Vector[Int] = {
    if (needle.isEmpty) return Vector.empty
    val out = Vector.newBuilder[Int]
    var i   = haystack.indexOf(needle)
    while (i >= 0) {
      out += i
      i = haystack.indexOf(needle, i + 1)
    }
    out.result()
  }
}
