package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic Nursery dataset (paper Sec. 8.1).
  *
  * The real UCI Nursery data is the *full Cartesian product* of 8
  * categorical attributes (domain sizes 3·5·4·4·3·2·3·3 = 12960 rows) plus a
  * class attribute functionally determined by the other 8 via an expert
  * ranking model. We generate exactly that structure: the full product, and
  * a deterministic rule-based class approximating the UCI model
  * (health = not_recom forces not_recom; otherwise a need-score threshold).
  * The properties driving the paper's use case — dense product structure,
  * small domains, the class FD, 12960·9 = 116640 cells — are preserved.
  */
object NurseryData {

  val domains: Vector[(String, Vector[String])] = Vector(
    "parents"  -> Vector("usual", "pretentious", "great_pret"),
    "has_nurs" -> Vector("proper", "less_proper", "improper", "critical", "very_crit"),
    "form"     -> Vector("complete", "completed", "incomplete", "foster"),
    "children" -> Vector("1", "2", "3", "more"),
    "housing"  -> Vector("convenient", "less_conv", "critical"),
    "finance"  -> Vector("convenient", "inconv"),
    "social"   -> Vector("nonprob", "slightly_prob", "problematic"),
    "health"   -> Vector("recommended", "priority", "not_recom"),
  )

  val nRows: Long = domains.map(_._2.size.toLong).product // 12960

  /** The first `min(rowCap, nRows)` rows of the product. */
  def load(spark: SparkSession, rowCap: Long = nRows): DataFrame = {
    // enumerate the full product via mixed-radix decomposition of the row id
    val sizes = domains.map(_._2.size)
    val strides = sizes.scanRight(1)((s, acc) => s * acc).tail // stride of each digit
    var df: DataFrame = spark.range(math.min(rowCap, nRows)).toDF("id")
    val codeCols: Vector[Column] = domains.indices.map { i =>
      ((col("id") / strides(i)) % sizes(i)).cast("int")
    }.toVector
    domains.zipWithIndex.foreach { case ((name, vals), i) =>
      df = df.withColumn(name, element_at(array(vals.map(lit): _*), codeCols(i) + 1))
    }
    df = df.withColumn("class", classExpr(codeCols))
    df.drop("id")
  }

  /** Deterministic class rule over the attribute codes: a function of the
    * other 8 attributes (so `class` is functionally — hence multivalued —
    * determined), with a distribution shaped like UCI Nursery's
    * (not_recom 1/3; recommend/very_recom rare; priority/spec_prior split
    * the rest).
    */
  private def classExpr(codes: Vector[Column]): Column = {
    val Vector(parents, hasNurs, form, children, housing, finance, social, health) = codes
    val need = parents + hasNurs + form + children + housing + finance * 2 + social * 2
    when(health === 2, lit("not_recom"))
      .when(need <= 1 && health === 0, lit("recommend"))
      .when(need <= 3 && health === 0, lit("very_recom"))
      .when(need + health <= 10, lit("priority"))
      .otherwise(lit("spec_prior"))
  }
}
