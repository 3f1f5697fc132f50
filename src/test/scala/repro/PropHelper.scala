package repro

import java.util.concurrent.{Callable, ExecutionException, ForkJoinPool}
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

/** Minimal deterministic property-check driver.
  *
  * Only raw scalacheck is available offline (no scalatestplus bridge), so
  * properties are run by sampling a generator at fixed seeds and asserting
  * the body; failures carry the offending sample via ScalaTest's clue.
  */
trait PropHelper {
  def forAllSampled[A](gen: Gen[A], samples: Int = 100)(body: A => Unit): Unit = {
    var produced = 0
    var seedIdx  = 0L
    while (produced < samples && seedIdx < samples * 20L) {
      gen.apply(Gen.Parameters.default, Seed(seedIdx)) match {
        case Some(a) =>
          produced += 1
          try body(a)
          catch {
            case e: Throwable =>
              throw new AssertionError(s"property failed for sample: $a", e)
          }
        case None => // generator filtered this seed out; try the next
      }
      seedIdx += 1
    }
    require(produced > samples / 2, s"generator too restrictive: only $produced samples")
  }

  /** Runs `body` with one fork-join pool of 1 thread and one of 8, and shuts
    * both down afterwards. A parallel stream started from a pool's worker
    * thread runs in that pool, so [[onPool]] pins the thread count of the
    * parallel code it calls without any setting.
    */
  def withOneAndEightThreads[A](body: (ForkJoinPool, ForkJoinPool) => A): A = {
    val one   = new ForkJoinPool(1)
    val eight = new ForkJoinPool(8)
    try body(one, eight)
    finally { one.shutdown(); eight.shutdown() }
  }

  /** Evaluates `body` on a worker thread of `pool`. */
  def onPool[A](pool: ForkJoinPool)(body: => A): A =
    try pool.submit(new Callable[A] { def call(): A = body }).get()
    catch { case e: ExecutionException => throw e.getCause }
}
