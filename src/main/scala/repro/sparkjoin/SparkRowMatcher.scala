package repro.sparkjoin

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.matching.{NGrams, RowMatcher}

/** Distributed n-gram row matching (paper §4.2.1, Algorithm 1) expressed as
  * DataFrame transformations.
  *
  * The inverted index of the local matcher becomes a grams relation
  * (row id, n, gram); IRF counts are `groupBy(n, gram)` aggregates; the
  * per-(row, n) representative n-gram is a `min` aggregate over the Rscore
  * denominator; and retrieval is a join of representatives against the
  * target grams relation.
  * Semantics match [[repro.matching.RowMatcher.matchPairs]] exactly (tested
  * for equivalence).
  */
object SparkRowMatcher {

  /** Distinct (id, n, gram) triples for one column, lower-cased. */
  private def grams(df: DataFrame, idCol: String, valCol: String): DataFrame = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col(idCol).cast("long"), col(valCol).cast("string"))
      .as[(Long, String)]
      .flatMap { case (id, v) =>
        NGrams.distinctRange(v.toLowerCase, RowMatcher.N0, RowMatcher.NMax).map { case (n, g) => (id, n, g) }
      }
      .toDF("id", "n", "gram")
  }

  /** Candidate joinable pairs as a DataFrame (src_id, tgt_id).
    *
    * @param source DataFrame with columns (`src_id`, `src_val`)
    * @param target DataFrame with columns (`tgt_id`, `tgt_val`)
    */
  def matchPairs(source: DataFrame, target: DataFrame): DataFrame = {
    val srcGrams = grams(source, "src_id", "src_val")
    val tgtGrams = grams(target, "tgt_id", "tgt_val")

    // IRF denominators: number of rows of each column containing the gram.
    val srcCount = srcGrams.groupBy("n", "gram").agg(count(col("id")) as "sc")
    val tgtCount = tgtGrams.groupBy("n", "gram").agg(count(col("id")) as "tc")

    // Representative gram per (source row, n), over grams in both columns:
    // the largest Rscore 1 / (sc · tc) is the smallest integer product, ties
    // broken by the smaller gram (the local matcher's rule).
    val reps = srcGrams
      .join(srcCount, Seq("n", "gram"))
      .join(tgtCount, Seq("n", "gram"))
      .groupBy("id", "n")
      .agg(min(struct(col("sc") * col("tc"), col("gram"))) as "rep")
      .select(col("id") as "src_id_m", col("n"), col("rep.gram") as "gram")

    // Retrieval: every target row containing a representative gram.
    reps
      .join(tgtGrams.select(col("id") as "tgt_id_m", col("n"), col("gram")), Seq("n", "gram"))
      .select(col("src_id_m") as "src_id", col("tgt_id_m") as "tgt_id")
      .distinct()
  }

  /** Convenience wrapper: match two in-memory columns via Spark and return
    * index pairs (for parity tests against the local matcher).
    */
  def matchPairsLocal(
      spark: SparkSession,
      sourceRows: IndexedSeq[String],
      targetRows: IndexedSeq[String],
  ): Set[(Int, Int)] = {
    import spark.implicits._
    val src = sourceRows.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("src_id", "src_val")
    val tgt = targetRows.zipWithIndex.map { case (s, i) => (i.toLong, s) }.toDF("tgt_id", "tgt_val")
    matchPairs(src, tgt)
      .collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
      .toSet
  }
}
