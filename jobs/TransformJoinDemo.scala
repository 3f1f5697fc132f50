package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.WebBenchSim
import repro.sparkjoin.TransformJoin

/** spark-submit demo of the end-to-end distributed transformation join on a
  * simulated web-benchmark table: matching → discovery → UDF equi-join.
  *
  * Usage: spark-submit --class repro.jobs.TransformJoinDemo repro.jar [tableIdx]
  */
object TransformJoinDemo {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("transform-join-demo")
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    val idx  = args.headOption.map(_.toInt).getOrElse(0)
    val ds   = WebBenchSim.dataset(WebBenchSim.specs(idx))
    val res  = TransformJoin.join(spark, ds.sourceDf(spark), ds.targetDf(spark))
    println(s"dataset: ${ds.name}")
    println(s"matched candidate pairs: ${res.matchedPairs}")
    println(s"discovered transformations (${res.transformations.size}):")
    res.transformations.foreach(t => println(s"  ${t.render}"))
    println("sample of the transformed equi-join:")
    res.joined.show(20, truncate = false)
    println(s"joined rows: ${res.joined.count()}")
    spark.stop()
  }
}
