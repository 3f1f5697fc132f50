package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Runs `body` at `n` shuffle partitions with adaptive partition
    * coalescing off (with it on, small shuffles collapse to one partition and
    * a partition-count check sees nothing), then restores both settings.
    */
  def withShufflePartitions[A](n: Int)(body: => A): A = {
    val keys = Seq("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    val prev = keys.map(spark.conf.get)
    try {
      spark.conf.set(keys(0), n.toLong)
      spark.conf.set(keys(1), false)
      body
    } finally keys.zip(prev).foreach { case (k, v) => spark.conf.set(k, v) }
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // The discovery pipeline shuffles millions of small case-class trees
      // (Transformation objects); Kryo cuts that serialization cost ~10x
      // versus Java serialization.
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
