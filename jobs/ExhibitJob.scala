package repro.jobs

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.data.NurseryData
import repro.exp.Experiments._

/** The spark-submit entrypoint for every paper exhibit:
  * `ExhibitJob <exhibit> [rowCap] [timeLimitMs]`, `exhibit` a key of [[exhibits]].
  */
object ExhibitJob {

  /** An exhibit's default budgets and its run, which returns the table to print. */
  final case class Exhibit(rowCap: Int, timeLimitMs: Long,
                           run: (SparkSession, Int, Long) => String)

  val exhibits: ListMap[String, Exhibit] = ListMap(
    "table2"   -> Exhibit(20000, 120000L, (s, c, t) => formatTable2(table2(s, c, t))),
    "nursery"  -> Exhibit(NurseryData.nRows.toInt, 120000L,
                          (s, c, t) => formatSchemes(nurseryUseCase(s, c, t))),
    "accuracy" -> Exhibit(5000, 60000L, (s, c, t) => formatAccuracy(accuracy(s, c, t))),
    "rowscale" -> Exhibit(40000, 60000L, (s, c, t) => formatScale(rowScalability(s, c, t))),
    "colscale" -> Exhibit(5000, 30000L, (s, c, t) => formatScale(colScalability(s, c, t))),
    "quality"  -> Exhibit(5000, 60000L, (s, c, t) => formatQuality(quality(s, c, t))),
    "fullmvd"  -> Exhibit(5000, 60000L, (s, c, t) => formatFullMvd(fullMvdCounts(s, c, t))),
  )

  /** `(exhibit, rowCap, timeLimitMs)` from the command line; omitted numbers
    * take the exhibit's defaults.
    */
  def parse(args: Array[String]): (String, Int, Long) = {
    val name = args.headOption.getOrElse("")
    val ex = exhibits.getOrElse(name, throw new IllegalArgumentException(
      s"unknown exhibit '$name'; known: ${exhibits.keys.mkString(", ")}"))
    (name, args.lift(1).fold(ex.rowCap)(_.toInt), args.lift(2).fold(ex.timeLimitMs)(_.toLong))
  }

  /** The one Spark session builder, shared with the test suites. */
  def session(appName: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val (name, rowCap, timeLimitMs) = parse(args)
    val spark = session(name)
    try println(exhibits(name).run(spark, rowCap, timeLimitMs))
    finally spark.stop()
  }
}
