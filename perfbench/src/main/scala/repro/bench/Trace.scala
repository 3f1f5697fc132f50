package repro.bench

import scala.collection.mutable

/** In-memory span recorder for the traced run. A span is (name, start, end,
  * parent); spans nest through `span` calls and are written out once, when
  * the run ends. Counters sit beside the spans, keyed by metric name.
  */
final class Tracer {
  import Tracer.Span

  private val spans   = mutable.ArrayBuffer.empty[Span]
  private var current = -1

  def span[A](name: String)(body: => A): A = {
    val id     = spans.size
    val parent = current
    spans += Span(id, name, parent, System.nanoTime(), -1L)
    current = id
    try body
    finally {
      spans(id) = spans(id).copy(endNs = System.nanoTime())
      current = parent
    }
  }

  def all: Vector[Span] = spans.toVector

  /** The id the next span will get. */
  def nextId: Int = spans.size

  /** Summed wall time (ms) of every finished span called `name` whose
    * ancestors include span `under` (or any span when `under` is -1).
    */
  def totalMs(name: String, under: Int = -1): Double =
    spans.iterator
      .filter(s => s.name == name && s.endNs >= 0 && (under < 0 || isUnder(s, under)))
      .map(s => (s.endNs - s.startNs) / 1e6)
      .sum

  private def isUnder(s: Span, ancestor: Int): Boolean = {
    var p = s.parent
    while (p >= 0 && p != ancestor) p = spans(p).parent
    p == ancestor
  }
}

object Tracer {
  final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long)
}

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'          => sb.append("\\\"")
      case '\\'         => sb.append("\\\\")
      case '\n'         => sb.append("\\n")
      case '\r'         => sb.append("\\r")
      case '\t'         => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c            => sb.append(c)
    }
    sb.append('"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else java.lang.Double.toString(d)

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")
}
