package repro.core

/** Candidate transformation units for one placeholder (paper §4.1.4).
  *
  * Because the expected output (the placeholder text) and its match positions
  * in the source are known, parameter search is direct rather than blind:
  * each of the five unit families contributes the parameter assignments that
  * provably produce `txt` from `source`.
  */
object UnitCandidates {

  /** 1-based index of the split piece of `input` (split on `c`) that
    * contains character position `pos`, plus that piece's start offset.
    */
  private def pieceAt(input: String, pos: Int, c: Char): (Int, Int) = pieceAt(input, pos, c, c)

  /** As above, splitting on every `c1` and every `c2`. */
  private def pieceAt(input: String, pos: Int, c1: Char, c2: Char): (Int, Int) = {
    var idx   = 1
    var start = 0
    var i     = 0
    while (i < pos) {
      val ch = input.charAt(i)
      if (ch == c1 || ch == c2) { idx += 1; start = i + 1 }
      i += 1
    }
    (idx, start)
  }

  /** All candidate units that map `source` to exactly `txt`, where `txt`
    * occurs in `source` at the given start offsets (§4.1.4 cases 1–5).
    *
    * `maxCandidates` bounds the result for pathological sources (digit-heavy
    * noisy pairs can have many occurrences × many split characters). The
    * enumeration is phased — Substr and the boundary-delimiter Split for
    * every occurrence first, then the SplitSubstr flood, then
    * TwoCharSplitSubstr — so the cap cuts the long tail rather than the
    * high-value candidates; `Literal(txt)` is always included (it is the
    * §5.1 placeholder-as-literal choice).
    *
    * `TwoCharSplitSubstr` is off unless `withTwoCharSplitSubstr` is set: the
    * paper's experiments leave it out for runtime (§6.2), and so does every
    * caller here; the family stays implemented and tested (Lemma 1).
    */
  def forPlaceholder(
      source: String,
      txt: String,
      srcStarts: Vector[Int],
      maxCandidates: Int = 64,
      withTwoCharSplitSubstr: Boolean = false,
  ): Vector[TransformationUnit] = {
    val out = scala.collection.mutable.LinkedHashSet.empty[TransformationUnit]
    def full = out.size >= maxCandidates - 1 // reserve a slot for Literal

    val inTxt: Char => Boolean = txt.toSet

    // Phase 1 — (1) Substr and (2) boundary Split for every occurrence.
    for (s <- srcStarts if !full) {
      val e = s + txt.length
      out += Substr(s, e)
      // c adjacent to the match, absent from txt, and the piece containing
      // the match must equal txt exactly.
      val adjacent =
        (if (s > 0) List(source.charAt(s - 1)) else Nil) ++
          (if (e < source.length) List(source.charAt(e)) else Nil)
      for (c <- adjacent.distinct if !inTxt(c)) {
        val (i, pieceStart) = pieceAt(source, s, c)
        if (TransformationUnit.piece(source, i, c).contains(txt) && pieceStart == s)
          out += Split(c, i)
      }
    }

    // Phase 2 — (3) SplitSubstr(c, i, s', e'): c any source character absent
    // from txt; offsets are relative to the piece containing the match (the
    // match never crosses a piece boundary since c is not in txt). Separator
    // characters go first — they are the natural-language delimiters the
    // paper's real matches split on — and the loop round-robins characters
    // over occurrences so one occurrence cannot crowd out the rest.
    val delims = source.distinct.toSeq
      .filterNot(inTxt)
      .sortBy(c => (if (Skeletons.isSeparator(c)) 0 else 1, c))
    for (c <- delims if !full; s <- srcStarts if !full) {
      val e               = s + txt.length
      val (i, pieceStart) = pieceAt(source, s, c)
      out += SplitSubstr(c, i, s - pieceStart, e - pieceStart)
    }

    // Phase 3 — (4) TwoCharSplitSubstr: unordered pairs of distinct source
    // characters absent from txt.
    if (withTwoCharSplitSubstr) {
      val chars = source.distinct.filterNot(inTxt)
      for {
        s <- srcStarts if !full
        a <- chars.indices
        b <- (a + 1) until chars.length
        if !full
      } {
        val e               = s + txt.length
        val (c1, c2)        = (chars(a), chars(b))
        val (i, pieceStart) = pieceAt(source, s, c1, c2)
        out += TwoCharSplitSubstr(c1, c2, i, s - pieceStart, e - pieceStart)
      }
    }

    // Phase 4 — (5) Literal(txt): always present, even at the cap (the
    // placeholder text may be constant by chance).
    out += Literal(txt)

    out.toVector.take(maxCandidates)
  }
}
