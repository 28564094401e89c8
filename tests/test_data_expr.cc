// Unit and property tests for the data layer (Value, Tuple) and the
// expression language (evaluation, parsing, wire round trips, best-effort
// semantics).

#include <gtest/gtest.h>

#include <cstdint>

#include "data/tuple.h"
#include "data/tuple_batch.h"
#include "data/value.h"
#include "decoder_fuzz.h"
#include "qp/expr.h"
#include "util/random.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(Value, TypeTagsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(*Value::Bool(true).AsBool(), true);
  EXPECT_EQ(*Value::Int64(-7).AsInt64(), -7);
  EXPECT_DOUBLE_EQ(*Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(*Value::String("hi").AsString(), "hi");
  EXPECT_EQ(*Value::Bytes(std::string("\x00\x01", 2)).AsBytes(),
            std::string_view("\x00\x01", 2));
  // Wrong-type access is an error, not UB.
  EXPECT_FALSE(Value::Int64(1).AsBool().ok());
  EXPECT_FALSE(Value::String("x").AsInt64().ok());
  // Numeric widening only.
  EXPECT_DOUBLE_EQ(*Value::Int64(3).AsDouble(), 3.0);
  EXPECT_FALSE(Value::String("3").AsDouble().ok());
}

TEST(Value, CompareWithinAndAcrossNumericTypes) {
  EXPECT_EQ(*Value::Compare(Value::Int64(1), Value::Int64(2)), -1);
  EXPECT_EQ(*Value::Compare(Value::Int64(2), Value::Int64(2)), 0);
  EXPECT_EQ(*Value::Compare(Value::Double(2.5), Value::Int64(2)), 1);
  EXPECT_EQ(*Value::Compare(Value::Int64(3), Value::Double(3.0)), 0);
  EXPECT_EQ(*Value::Compare(Value::String("a"), Value::String("b")), -1);
  // Cross-family comparison is a type error (best-effort discard upstream).
  EXPECT_FALSE(Value::Compare(Value::Int64(1), Value::String("1")).ok());
  EXPECT_FALSE(Value::Compare(Value::Bool(true), Value::Int64(1)).ok());
  // Strings and bytes are distinct types.
  EXPECT_FALSE(Value::Compare(Value::String("x"), Value::Bytes("x")).ok());
}

TEST(Value, EqualNumericsHashAndCanonicalizeEqually) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Double(42.0).Hash());
  EXPECT_EQ(Value::Int64(42).CanonicalString(),
            Value::Double(42.0).CanonicalString());
  EXPECT_NE(Value::Int64(42).CanonicalString(),
            Value::String("42").CanonicalString());
  EXPECT_NE(Value::Double(42.5).CanonicalString(),
            Value::Int64(42).CanonicalString());
}

TEST(Value, WireRoundTripAllTypes) {
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(false),     Value::Bool(true),
      Value::Int64(0),        Value::Int64(-1234567), Value::Int64(INT64_MAX),
      Value::Double(0.0),     Value::Double(-3.75),   Value::String(""),
      Value::String("hello"), Value::Bytes(std::string("\x00\xff", 2)),
  };
  for (const Value& v : values) {
    WireWriter w;
    v.EncodeTo(&w);
    WireReader r(w.data());
    Result<Value> back = Value::DecodeFrom(&r);
    ASSERT_TRUE(back.ok()) << v.ToString();
    EXPECT_EQ(*back, v) << v.ToString();
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Value, DecodeRejectsGarbage) {
  WireReader r1(std::string_view("\xee", 1));  // bad tag
  EXPECT_FALSE(Value::DecodeFrom(&r1).ok());
  WireReader r2(std::string_view("\x02\x80", 2));  // truncated int64 varint
  EXPECT_FALSE(Value::DecodeFrom(&r2).ok());
}

// ---------------------------------------------------------------------------
// Tuple
// ---------------------------------------------------------------------------

TEST(Tuple, SelfDescribingAccess) {
  Tuple t("fw", {{"src", Value::String("1.2.3.4")}, {"port", Value::Int64(80)}});
  EXPECT_EQ(t.table(), "fw");
  ASSERT_TRUE(t.Has("src"));
  EXPECT_FALSE(t.Has("dst"));
  EXPECT_EQ(t.Get("dst"), nullptr);
  EXPECT_FALSE(t.GetChecked("dst").ok());
  EXPECT_EQ(*t.GetChecked("port")->AsInt64(), 80);
}

TEST(Tuple, SetOverwritesFirstOrAppends) {
  Tuple t("t");
  t.Set("a", Value::Int64(1));
  t.Set("a", Value::Int64(2));
  EXPECT_EQ(t.num_columns(), 1u);
  EXPECT_EQ(*t.Get("a")->AsInt64(), 2);
}

TEST(Tuple, ProjectSkipsMissingColumns) {
  Tuple t("t", {{"a", Value::Int64(1)}, {"b", Value::Int64(2)}});
  Tuple p = t.Project({"b", "nope", "a"});
  ASSERT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "b");
  EXPECT_EQ(p.column(1).name, "a");
}

TEST(Tuple, PartitionKeyIsStablePerValueAndAttrSet) {
  Tuple t1("t", {{"k", Value::Int64(5)}, {"x", Value::String("a")}});
  Tuple t2("other", {{"x", Value::String("b")}, {"k", Value::Int64(5)}});
  EXPECT_EQ(t1.PartitionKey({"k"}), t2.PartitionKey({"k"}));
  EXPECT_NE(t1.PartitionKey({"k"}), t1.PartitionKey({"x"}));
  // Missing attributes still produce a well-defined key.
  EXPECT_EQ(t1.PartitionKey({"zz"}), Tuple("e").PartitionKey({"zz"}));
}

TEST(Tuple, WireRoundTripAndTrailingByteRejection) {
  Tuple t("tbl", {{"a", Value::Int64(1)},
                  {"b", Value::String("two")},
                  {"c", Value::Double(3.0)},
                  {"d", Value::Null()}});
  std::string wire = t.Encode();
  Result<Tuple> back = Tuple::Decode(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
  EXPECT_FALSE(Tuple::Decode(wire + "x").ok()) << "trailing bytes";
  EXPECT_FALSE(Tuple::Decode(wire.substr(0, wire.size() - 2)).ok())
      << "truncation";
}

/// Property sweep: random tuples round-trip bit-exactly.
class TupleRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TupleRoundTrip, RandomTuple) {
  Rng rng(GetParam());
  Tuple t("tbl" + std::to_string(rng.Uniform(10)));
  int cols = static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < cols; ++i) {
    Value v;
    switch (rng.Uniform(5)) {
      case 0: v = Value::Null(); break;
      case 1: v = Value::Bool(rng.Bernoulli(0.5)); break;
      case 2: v = Value::Int64(static_cast<int64_t>(rng.Next())); break;
      case 3: v = Value::Double(rng.NextDouble() * 1e6); break;
      default: {
        std::string s;
        for (uint64_t j = rng.Uniform(20); j > 0; --j)
          s.push_back(static_cast<char>(rng.Uniform(256)));
        v = Value::String(std::move(s));
      }
    }
    t.Append("c" + std::to_string(i), std::move(v));
  }
  Result<Tuple> back = Tuple::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
  EXPECT_EQ(back->Hash(), t.Hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleRoundTrip, ::testing::Range<uint64_t>(1, 26));

// ---------------------------------------------------------------------------
// Wire integers: varints sized by magnitude, zigzag for signed values
// ---------------------------------------------------------------------------

TEST(Wire, ZigzagRoundTripsTheExtremes) {
  for (int64_t v : {INT64_MIN, INT64_MIN + 1, int64_t{-1}, int64_t{0},
                    int64_t{1}, INT64_MAX}) {
    WireWriter w;
    w.PutSVarint(v);
    WireReader r(w.data());
    int64_t back = 7;
    ASSERT_TRUE(r.GetSVarint(&back).ok()) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.AtEnd()) << v;
  }
  // Small magnitudes of either sign take one byte; the extremes take ten.
  WireWriter small;
  for (int64_t v : {-64, -1, 0, 1, 63}) small.PutSVarint(v);
  EXPECT_EQ(small.size(), 5u);
  WireWriter extremes;
  extremes.PutSVarint(INT64_MIN);
  extremes.PutSVarint(INT64_MAX);
  EXPECT_EQ(extremes.size(), 20u);
}

TEST(Wire, VarintRejectsBitsPast64) {
  // Nine full groups and a tenth byte holding bit 63: UINT64_MAX.
  std::string max(9, '\xff');
  max.push_back('\x01');
  WireReader ok(max);
  uint64_t v = 0;
  ASSERT_TRUE(ok.GetVarint(&v).ok());
  EXPECT_EQ(v, UINT64_MAX);
  // A tenth byte carrying more than bit 63 used to lose those bits silently;
  // one with its continuation bit set would need an eleventh.
  for (char tenth : {'\x02', '\x7f', '\x81'}) {
    std::string over(9, '\xff');
    over.push_back(tenth);
    over.push_back('\x00');
    WireReader r(over);
    Status s = r.GetVarint(&v);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << int{tenth};
  }
}

TEST(Wire, Varint32RejectsValuesAboveUint32Max) {
  for (uint64_t v : {uint64_t{0}, uint64_t{300}, uint64_t{UINT32_MAX},
                     uint64_t{UINT32_MAX} + 1, UINT64_MAX}) {
    WireWriter w;
    w.PutVarint(v);
    WireReader r(w.data());
    uint32_t back = 0;
    Status s = r.GetVarint32(&back);
    if (v <= UINT32_MAX) {
      ASSERT_TRUE(s.ok()) << v;
      EXPECT_EQ(back, v);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Decoder robustness: truncations, seeded hostile bodies, over-cap counts
// ---------------------------------------------------------------------------

/// One row holding every value type, with int64s of both signs and of one
/// and ten encoded bytes.
Tuple EveryType(int64_t salt) {
  return Tuple("every", {{"null", Value::Null()},
                         {"bool", Value::Bool(salt % 2 == 0)},
                         {"small", Value::Int64(-salt)},
                         {"min", Value::Int64(INT64_MIN + salt)},
                         {"max", Value::Int64(INT64_MAX - salt)},
                         {"double", Value::Double(salt + 0.5)},
                         {"string", Value::String(std::string(
                                        static_cast<size_t>(salt), 's'))},
                         {"bytes", Value::Bytes(std::string("\0\xff", 2))}});
}

TEST(DecoderFuzz, ValueDecodeFrom) {
  const Tuple row = EveryType(3);
  for (const Column& c : row.columns()) {
    WireWriter w;
    c.value.EncodeTo(&w);
    size_t cuts = FuzzDecoder(w.data(), 1, [](const std::string& body) {
      WireReader r(body);
      return Value::DecodeFrom(&r).ok();
    });
    EXPECT_EQ(cuts, 0u) << c.name;
  }
  // Over-cap: a string length past the end of the frame.
  WireWriter w;
  w.PutU8(static_cast<uint8_t>(ValueType::kString));
  w.PutVarint(uint64_t{1} << 40);
  w.PutRaw("abc");
  WireReader r(w.data());
  EXPECT_EQ(Value::DecodeFrom(&r).status().code(), StatusCode::kCorruption);
}

/// Decodes one TupleBatch frame and reads every cell back, as the answer
/// path does.
bool DecodeAndReadBatch(const std::string& body) {
  WireReader r(body);
  Result<TupleBatch> b = TupleBatch::DecodeFrom(&r, body);
  if (!b.ok()) return false;
  for (size_t i = 0; i < b->num_rows(); ++i) (void)b->RowTuple(i);
  return true;
}

TEST(DecoderFuzz, TupleBatchDecodeFrom) {
  TupleBatch batch = TupleBatch::FromTuples({EveryType(1), EveryType(2)});
  WireWriter w;
  batch.EncodeTo(&w);
  ASSERT_TRUE(DecodeAndReadBatch(w.data()));
  EXPECT_EQ(FuzzDecoder(w.data(), 2, DecodeAndReadBatch), 0u);
  // Over-cap: one column past the cap (the row caps have their own tests).
  WireWriter cols;
  cols.PutBytes("t");
  cols.PutVarint((uint64_t{1} << 20) + 1);
  EXPECT_FALSE(DecodeAndReadBatch(std::move(cols).data()));
}

TEST(DecoderFuzz, BatchAssemblerAddEncoded) {
  const Tuple first = EveryType(1);
  // The assembler already holds `first`'s schema, so each body takes the
  // encoded fast path before any fallback to a full tuple decode.
  auto add = [&first](const std::string& body) {
    BatchAssembler a(64);
    a.Add(first);
    bool ok = a.AddEncoded(body).ok();
    size_t rows = 0;
    for (const TupleBatch& b : a.TakeBatches()) {
      for (size_t i = 0; i < b.num_rows(); ++i) (void)b.RowTuple(i);
      rows += b.num_rows();
    }
    EXPECT_EQ(rows, ok ? 2u : 1u) << "a rejected row leaves nothing behind";
    return ok;
  };
  std::string frame = EveryType(2).Encode();
  ASSERT_TRUE(add(frame));
  EXPECT_EQ(FuzzDecoder(frame, 3, add), 0u);
  EXPECT_FALSE(add(frame + "x")) << "trailing bytes, as Tuple::Decode";
  // Over-cap: a column count past Tuple::Decode's cap.
  WireWriter w;
  w.PutBytes("every");
  w.PutVarint((uint64_t{1} << 20) + 1);
  EXPECT_FALSE(add(std::move(w).data()));
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Tuple Row() {
  return Tuple("r", {{"a", Value::Int64(10)},
                     {"b", Value::Int64(3)},
                     {"s", Value::String("Hello World")},
                     {"f", Value::Double(2.5)}});
}

// --- TupleBatch wire decoding (the answer path's only decoder) --------------

Result<TupleBatch> DecodeFrame(const std::string& frame) {
  WireReader r(frame);
  return TupleBatch::DecodeFrom(&r, frame);
}

TEST(TupleBatch, WireRoundTripOfAMultiRowBatch) {
  std::vector<Tuple> rows;
  for (int i = 0; i < 5; ++i) {
    Tuple t("mixed");
    t.Append("n", i == 2 ? Value::Null() : Value::Int64(i * 1000003));
    t.Append("f", Value::Bool(i % 2 == 0));
    t.Append("d", Value::Double(i + 0.25));
    t.Append("s", Value::String(std::string(static_cast<size_t>(i), 'x')));
    t.Append("y", Value::Bytes(std::string("\0\xff", 2)));
    rows.push_back(std::move(t));
  }
  TupleBatch batch = TupleBatch::FromTuples(rows);
  WireWriter w;
  batch.EncodeTo(&w);
  std::string frame = std::move(w).data();
  WireReader r(frame);
  Result<TupleBatch> back = TupleBatch::DecodeFrom(&r, frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(back->owned()) << "string cells alias the frame";
  ASSERT_EQ(back->num_rows(), rows.size());
  TupleBatch owned = back->EnsureOwned();
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back->RowTuple(i), rows[i]);
    EXPECT_EQ(owned.RowTuple(i), rows[i]);
  }
}

// AppendValue writes each value type into its cell, a null included, so a
// row built value by value reads back as the tuple it came from.
TEST(TupleBatch, AppendValueKeepsEveryValueType) {
  Tuple t("mixed");
  t.Append("n", Value::Null());
  t.Append("f", Value::Bool(true));
  t.Append("i", Value::Int64(-7));
  t.Append("d", Value::Double(0.5));
  t.Append("s", Value::String("str"));
  t.Append("y", Value::Bytes(std::string("\0\xff", 2)));
  auto schema = std::make_shared<BatchSchema>(BatchSchema{"mixed", {}});
  for (const Column& c : t.columns()) schema->columns.push_back(c.name);
  TupleBatchBuilder b(schema);
  for (const Column& c : t.columns()) b.AppendValue(c.value);
  TupleBatch batch = b.Finish();
  ASSERT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.RowTuple(0), t);
}

TEST(TupleBatch, DecodeRejectsMoreCellsThanTheFrameHasBytes) {
  // About 4 KB declaring 4,096 columns x 2^24 rows. Every cell costs at
  // least its tag byte, so the frame is refused before any cell storage is
  // reserved (reserving it would demand a terabyte).
  WireWriter w;
  w.PutBytes("t");
  w.PutVarint(4096);
  for (int c = 0; c < 4096; ++c) w.PutBytes("");
  w.PutVarint(uint64_t{1} << 24);
  std::string frame = std::move(w).data();
  ASSERT_LT(frame.size(), 5000u);
  Result<TupleBatch> b = DecodeFrame(frame);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kCorruption);
}

TEST(TupleBatch, DecodeCapsColumnlessRows) {
  // Column-less rows cost no bytes, so only the row cap bounds them.
  WireWriter huge;
  huge.PutBytes("t");
  huge.PutVarint(0);
  huge.PutVarint(uint64_t{1} << 40);
  Result<TupleBatch> b = DecodeFrame(std::move(huge).data());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kCorruption);

  // A legal column-less batch still decodes with its row count.
  WireWriter ok;
  ok.PutBytes("t");
  ok.PutVarint(0);
  ok.PutVarint(3);
  Result<TupleBatch> small = DecodeFrame(std::move(ok).data());
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small->num_rows(), 3u);
  EXPECT_EQ(small->RowTuple(2), Tuple("t"));
}

TEST(Expr, ParseAndEvalComparisons) {
  struct Case {
    const char* text;
    bool want;
  };
  for (const Case& c : {Case{"a = 10", true}, {"a != 10", false},
                        {"a > 9", true}, {"a >= 11", false}, {"b < 4", true},
                        {"b <= 2", false}, {"a <> 3", true}}) {
    auto e = ParseExpr(c.text);
    ASSERT_TRUE(e.ok()) << c.text;
    auto got = (*e)->EvalPredicate(Row());
    ASSERT_TRUE(got.ok()) << c.text;
    EXPECT_EQ(*got, c.want) << c.text;
  }
}

TEST(Expr, ParseAndEvalBooleanLogic) {
  auto e = ParseExpr("a = 10 and (b = 3 or b = 4) and not (a < 5)");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(*(*e)->EvalPredicate(Row()));
}

TEST(Expr, ArithmeticPrecedenceAndTypes) {
  auto e = ParseExpr("a + b * 2");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*(*e)->Eval(Row())->AsInt64(), 16) << "mul binds tighter";
  auto e2 = ParseExpr("(a + b) * 2");
  EXPECT_EQ(*(*e2)->Eval(Row())->AsInt64(), 26);
  auto e3 = ParseExpr("a / b");
  EXPECT_EQ(*(*e3)->Eval(Row())->AsInt64(), 3) << "integer division";
  auto e4 = ParseExpr("a % b");
  EXPECT_EQ(*(*e4)->Eval(Row())->AsInt64(), 1);
  auto e5 = ParseExpr("f * 2");
  EXPECT_DOUBLE_EQ(*(*e5)->Eval(Row())->AsDouble(), 5.0);
  auto e6 = ParseExpr("-b");
  EXPECT_EQ(*(*e6)->Eval(Row())->AsInt64(), -3);
}

TEST(Expr, DivisionByZeroIsAnErrorNotUB) {
  auto e = ParseExpr("a / (b - 3)");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE((*e)->Eval(Row()).ok());
}

TEST(Expr, StringFunctions) {
  EXPECT_EQ(*(*ParseExpr("length(s)"))->Eval(Row())->AsInt64(), 11);
  EXPECT_EQ(*(*ParseExpr("lower(s)"))->Eval(Row())->AsString(), "hello world");
  EXPECT_TRUE(*(*ParseExpr("contains(s, 'World')"))->EvalPredicate(Row()));
  EXPECT_TRUE(*(*ParseExpr("startswith(s, 'Hel')"))->EvalPredicate(Row()));
  EXPECT_FALSE(*(*ParseExpr("contains(s, 'xyz')"))->EvalPredicate(Row()));
}

TEST(Expr, BestEffortErrors) {
  // Missing column.
  EXPECT_FALSE((*ParseExpr("nope = 1"))->EvalPredicate(Row()).ok());
  // Type mismatch in comparison.
  EXPECT_FALSE((*ParseExpr("s > 3"))->EvalPredicate(Row()).ok());
  // Non-boolean used as predicate.
  EXPECT_FALSE((*ParseExpr("a + 1"))->EvalPredicate(Row()).ok());
}

TEST(Expr, StringLiteralsWithEscapes) {
  auto e = ParseExpr("s = 'it''s'");
  ASSERT_TRUE(e.ok());
  Tuple t("r", {{"s", Value::String("it's")}});
  EXPECT_TRUE(*(*e)->EvalPredicate(t));
}

TEST(Expr, ParseErrors) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("a = ").ok());
  EXPECT_FALSE(ParseExpr("(a = 1").ok());
  EXPECT_FALSE(ParseExpr("a = 'unterminated").ok());
  EXPECT_FALSE(ParseExpr("a = 1 extra").ok());
}

TEST(Expr, WireRoundTripPreservesSemantics) {
  const char* exprs[] = {
      "a = 10 and b < 5",
      "contains(s, 'World') or f >= 2.5",
      "not (a + b * 2 = 16)",
      "length(lower(s)) % 4 = 3",
  };
  for (const char* text : exprs) {
    auto e = ParseExpr(text);
    ASSERT_TRUE(e.ok()) << text;
    auto back = Expr::Decode((*e)->Encode());
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ((*back)->ToString(), (*e)->ToString()) << text;
    auto v1 = (*e)->EvalPredicate(Row());
    auto v2 = (*back)->EvalPredicate(Row());
    ASSERT_EQ(v1.ok(), v2.ok());
    if (v1.ok()) {
      EXPECT_EQ(*v1, *v2);
    }
  }
}

TEST(Expr, ExtractEqualityConstant) {
  auto e = ParseExpr("b > 1 and k = 7 and s = 'x'");
  ASSERT_TRUE(e.ok());
  Value v;
  EXPECT_TRUE((*e)->ExtractEqualityConstant("k", &v));
  EXPECT_EQ(*v.AsInt64(), 7);
  EXPECT_TRUE((*e)->ExtractEqualityConstant("s", &v));
  EXPECT_EQ(*v.AsString(), "x");
  EXPECT_FALSE((*e)->ExtractEqualityConstant("b", &v)) << "> is not equality";
  // Under OR nothing is certain:
  auto e2 = ParseExpr("k = 7 or k = 8");
  EXPECT_FALSE((*e2)->ExtractEqualityConstant("k", &v));
}

}  // namespace
}  // namespace pier
