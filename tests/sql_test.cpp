// Tests for the SQL front-end: tokenizer/parser acceptance and rejection,
// executor semantics (aggregation, HAVING, ORDER BY, LIMIT), and row
// rendering — including the Fig. 7 worked example expressed in SQL.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/sql.h"

namespace coco::query::sql {
namespace {

FlowTable<FiveTuple> Fig7Table() {
  FlowTable<FiveTuple> table;
  auto row = [](uint32_t ip, uint16_t port) {
    return FiveTuple(ip, 0, port, 0, 0);
  };
  const uint32_t ip_a = (19u << 24) | (98u << 16) | (10u << 8) | 26;
  const uint32_t ip_b = (34u << 24) | (52u << 16) | (73u << 8) | 13;
  const uint32_t ip_c = (34u << 24) | (52u << 16) | (73u << 8) | 17;
  table[row(ip_a, 80)] = 521;
  table[row(ip_a, 8080)] = 520;
  table[row(ip_b, 80)] = 305;
  table[row(ip_b, 123)] = 463;
  table[row(ip_c, 118)] = 856;
  return table;
}

TEST(SqlParse, AcceptsMinimalQuery) {
  std::string error;
  const auto stmt = Parse("SELECT SrcIP, SUM(Size) FROM t GROUP BY SrcIP",
                          &error);
  ASSERT_TRUE(stmt.has_value()) << error;
  EXPECT_EQ(stmt->fields.size(), 1u);
  EXPECT_EQ(stmt->fields[0].field, keys::Field::kSrcIp);
  EXPECT_EQ(stmt->fields[0].prefix_bits, 32);
  EXPECT_EQ(stmt->table_name, "T");
  EXPECT_FALSE(stmt->having_at_least.has_value());
}

TEST(SqlParse, AcceptsFullClause) {
  std::string error;
  const auto stmt = Parse(
      "select SrcIP/24, DstPort, sum(size) from flows "
      "group by SrcIP/24, DstPort having sum(size) >= 100 "
      "order by sum(size) desc limit 5",
      &error);
  ASSERT_TRUE(stmt.has_value()) << error;
  EXPECT_EQ(stmt->fields.size(), 2u);
  EXPECT_EQ(stmt->fields[0].prefix_bits, 24);
  EXPECT_EQ(stmt->fields[1].field, keys::Field::kDstPort);
  EXPECT_EQ(stmt->having_at_least, 100u);
  EXPECT_TRUE(stmt->order_by_size_desc);
  EXPECT_EQ(stmt->limit, 5u);
}

TEST(SqlParse, RejectsMismatchedGroupBy) {
  std::string error;
  EXPECT_FALSE(
      Parse("SELECT SrcIP, SUM(Size) FROM t GROUP BY DstIP", &error));
  EXPECT_NE(error.find("must match"), std::string::npos);
}

TEST(SqlParse, RejectsUnknownField) {
  std::string error;
  EXPECT_FALSE(Parse("SELECT Bogus, SUM(Size) FROM t GROUP BY Bogus",
                     &error));
  EXPECT_NE(error.find("unknown field"), std::string::npos);
}

TEST(SqlParse, RejectsPrefixOnPort) {
  std::string error;
  EXPECT_FALSE(Parse(
      "SELECT SrcPort/8, SUM(Size) FROM t GROUP BY SrcPort/8", &error));
  EXPECT_NE(error.find("IP fields"), std::string::npos);
}

TEST(SqlParse, RejectsOversizedPrefix) {
  std::string error;
  EXPECT_FALSE(
      Parse("SELECT SrcIP/40, SUM(Size) FROM t GROUP BY SrcIP/40", &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

TEST(SqlParse, RejectsKeyWiderThanDynKey) {
  // Five full addresses are 160 bits; a DynKey holds 128. Field names are
  // case-insensitive, like keywords.
  const std::string fields = "SrcIP, DstIP, srcip, dstip, SRCIP";
  std::string error;
  EXPECT_FALSE(Parse("SELECT " + fields + ", SUM(Size) FROM t GROUP BY " +
                         fields,
                     &error));
  EXPECT_NE(error.find("128 bits"), std::string::npos) << error;
  EXPECT_TRUE(Parse("SELECT srcip, DstIP, SrcIP, dstip, SUM(Size) FROM t "
                    "GROUP BY SrcIP, DstIP, SrcIP, DstIP",
                    &error))
      << error;  // exactly 128 bits
}

TEST(SqlParse, RejectsMissingSum) {
  std::string error;
  EXPECT_FALSE(Parse("SELECT SrcIP FROM t GROUP BY SrcIP", &error));
}

TEST(SqlParse, RejectsTrailingGarbage) {
  std::string error;
  EXPECT_FALSE(Parse(
      "SELECT SrcIP, SUM(Size) FROM t GROUP BY SrcIP EXTRA", &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(SqlParse, RejectsBadCharacter) {
  std::string error;
  EXPECT_FALSE(Parse("SELECT SrcIP; SUM(Size)", &error));
  EXPECT_NE(error.find("unexpected character"), std::string::npos);
}

TEST(SqlExecute, Figure7InSql) {
  // The paper's Fig. 7: full key (SrcIP, SrcPort), query partial key SrcIP.
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "ORDER BY SUM(Size) DESC",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].field_text[0], "19.98.10.26");
  EXPECT_EQ(result->rows[0].size, 1041u);  // 521 + 520
  EXPECT_EQ(result->rows[1].field_text[0], "34.52.73.17");
  EXPECT_EQ(result->rows[1].size, 856u);
  EXPECT_EQ(result->rows[2].field_text[0], "34.52.73.13");
  EXPECT_EQ(result->rows[2].size, 768u);  // 305 + 463
}

TEST(SqlExecute, HavingFilters) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "HAVING SUM(Size) >= 800",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_EQ(result->rows.size(), 2u);  // 1041 and 856
}

TEST(SqlExecute, LimitTruncates) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "ORDER BY SUM(Size) DESC LIMIT 1",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].size, 1041u);
}

TEST(SqlExecute, OrderedLimitMatchesFullSort) {
  // Random tables with heavy size ties: ORDER BY ... LIMIT n (with and
  // without HAVING) must return exactly the first n rows of the fully
  // std::sort-ed aggregation.
  Rng rng(0x5017);
  const std::vector<keys::FieldSel> fields = {{keys::Field::kSrcIp, 16},
                                              {keys::Field::kProto, 8}};
  const keys::TupleKeySpec spec("sql", fields);
  for (size_t flows : {0, 1, 40, 3000}) {
    FlowTable<FiveTuple> table;
    for (size_t i = 0; i < flows; ++i) {
      // 512 /16 source prefixes x 3 protocols: groups aggregate many flows.
      const FiveTuple key(static_cast<uint32_t>(rng.NextBelow(512) << 16 |
                                                (rng.Next32() & 0xffff)),
                          static_cast<uint32_t>(rng.Next32()),
                          static_cast<uint16_t>(rng.Next32()), 80,
                          static_cast<uint8_t>(rng.NextBelow(3)));
      table[key] = 1 + rng.NextBelow(3);
    }
    for (uint64_t having : {uint64_t{0}, uint64_t{2}}) {
      std::vector<std::pair<DynKey, uint64_t>> expected;
      for (const auto& [key, size] : Aggregate(table, spec)) {
        if (size >= having) expected.emplace_back(key, size);
      }
      std::sort(expected.begin(), expected.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return KeyOrderLess(a.first, b.first);
                });
      const size_t size = expected.size();
      for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size - (size > 0),
                       size, size + 5}) {
        Statement statement;
        statement.fields = fields;
        statement.table_name = "flows";
        if (having > 0) statement.having_at_least = having;
        statement.order_by_size_desc = true;
        statement.limit = n;
        const Result result = Execute(statement, table);
        ASSERT_EQ(result.rows.size(), std::min(n, size))
            << flows << " flows, n = " << n;
        for (size_t i = 0; i < result.rows.size(); ++i) {
          EXPECT_EQ(result.rows[i].key, expected[i].first) << i;
          EXPECT_EQ(result.rows[i].size, expected[i].second) << i;
        }
      }
    }
  }
}

TEST(SqlExecute, UnorderedLimitKeepsFirstQualifyingGroups) {
  // Without ORDER BY, LIMIT keeps the first groups meeting HAVING in the
  // order the GROUP BY first met them: min(limit, qualifying) distinct
  // rows, the same ones on every Execute of the same table.
  Rng rng(0x11a7);
  const std::vector<keys::FieldSel> fields = {{keys::Field::kSrcIp, 16},
                                              {keys::Field::kProto, 8}};
  const keys::TupleKeySpec spec("sql", fields);
  FlowTable<FiveTuple> table;
  for (int i = 0; i < 3000; ++i) {
    const FiveTuple key(static_cast<uint32_t>(rng.NextBelow(512) << 16 |
                                              (rng.Next32() & 0xffff)),
                        static_cast<uint32_t>(rng.Next32()),
                        static_cast<uint16_t>(rng.Next32()), 80,
                        static_cast<uint8_t>(rng.NextBelow(3)));
    table[key] = 1 + rng.NextBelow(3);
  }
  constexpr uint64_t kHaving = 9;
  const auto groups = Aggregate(table, spec);
  std::vector<std::pair<DynKey, uint64_t>> qualifying;
  for (const auto& [key, size] : groups) {
    if (size >= kHaving) qualifying.emplace_back(key, size);
  }
  ASSERT_GT(qualifying.size(), 10u);
  ASSERT_LT(qualifying.size(), groups.size());
  for (size_t limit : {size_t{0}, size_t{1}, size_t{10}, qualifying.size(),
                       qualifying.size() + 5}) {
    Statement statement;
    statement.fields = fields;
    statement.table_name = "flows";
    statement.having_at_least = kHaving;
    statement.limit = limit;
    const Result result = Execute(statement, table);
    const Result again = Execute(statement, table);
    ASSERT_EQ(result.rows.size(), std::min(limit, qualifying.size()))
        << "limit " << limit;
    ASSERT_EQ(again.rows.size(), result.rows.size());
    std::vector<DynKey> keys;
    for (size_t i = 0; i < result.rows.size(); ++i) {
      const ResultRow& row = result.rows[i];
      EXPECT_GE(row.size, kHaving);
      EXPECT_EQ(row.key, qualifying[i].first) << i;
      EXPECT_EQ(row.size, qualifying[i].second) << i;
      EXPECT_EQ(again.rows[i].key, row.key) << i;
      EXPECT_EQ(again.rows[i].size, row.size) << i;
      EXPECT_EQ(again.rows[i].field_text, row.field_text) << i;
      keys.push_back(row.key);
    }
    std::sort(keys.begin(), keys.end(), KeyOrderLess<DynKey>);
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  }
}

TEST(SqlExecute, PrefixAggregation) {
  // Both 34.52.73.x sources share a /24.
  std::string error;
  const auto result = Query(
      "SELECT SrcIP/24, SUM(Size) FROM flows GROUP BY SrcIP/24 "
      "ORDER BY SUM(Size) DESC",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].field_text[0], "34.52.73.0/24");
  EXPECT_EQ(result->rows[0].size, 856u + 768u);
  EXPECT_EQ(result->rows[1].field_text[0], "19.98.10.0/24");
}

TEST(SqlExecute, MultiFieldRendering) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SrcPort, SUM(Size) FROM flows "
      "GROUP BY SrcIP, SrcPort ORDER BY SUM(Size) DESC LIMIT 2",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->column_names.size(), 3u);
  EXPECT_EQ(result->column_names[0], "SrcIP");
  EXPECT_EQ(result->column_names[1], "SrcPort");
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].field_text[0], "34.52.73.17");
  EXPECT_EQ(result->rows[0].field_text[1], "118");
}

TEST(SqlExecute, TotalMassPreserved) {
  std::string error;
  const auto result = Query(
      "SELECT Proto, SUM(Size) FROM flows GROUP BY Proto", Fig7Table(),
      &error);
  ASSERT_TRUE(result.has_value()) << error;
  uint64_t total = 0;
  for (const auto& row : result->rows) total += row.size;
  EXPECT_EQ(total, 521u + 520 + 305 + 463 + 856);
}

TEST(SqlFormat, ProducesAlignedTable) {
  std::string error;
  const auto result = Query(
      "SELECT SrcIP, SUM(Size) FROM flows GROUP BY SrcIP "
      "ORDER BY SUM(Size) DESC",
      Fig7Table(), &error);
  ASSERT_TRUE(result.has_value());
  const std::string text = FormatResult(*result);
  EXPECT_NE(text.find("SrcIP"), std::string::npos);
  EXPECT_NE(text.find("SUM(Size)"), std::string::npos);
  EXPECT_NE(text.find("1041"), std::string::npos);
  // Header + 3 rows = 4 lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

// Every rendered row reads exactly as one of its group's full keys would:
// the address masked to the prefix in dotted decimal (with "/n" when
// trimmed), ports and protocol as numbers.
TEST(SqlExecute, RenderedRowsMatchAMemberFullKey) {
  Rng rng(0x7e47);
  FlowTable<FiveTuple> table;
  for (int i = 0; i < 4000; ++i) {
    const uint32_t src =
        0x0a000000u | static_cast<uint32_t>(rng.NextBelow(1 << 14));
    const FiveTuple key(src, rng.Next32(),
                        static_cast<uint16_t>(rng.NextBelow(40)),
                        static_cast<uint16_t>(rng.Next32()),
                        static_cast<uint8_t>(rng.NextBelow(3) * 6));
    table[key] += 1 + rng.NextBelow(9);
  }
  // The reference reads the full key through its accessors only.
  const auto field_text = [](const FiveTuple& k, const keys::FieldSel& sel) {
    const bool src = sel.field == keys::Field::kSrcIp;
    if (src || sel.field == keys::Field::kDstIp) {
      const uint32_t mask =
          sel.prefix_bits == 0 ? 0u : ~uint32_t{0} << (32 - sel.prefix_bits);
      std::string text = Ipv4ToString((src ? k.src_ip() : k.dst_ip()) & mask);
      if (sel.prefix_bits < 32) text += "/" + std::to_string(sel.prefix_bits);
      return text;
    }
    if (sel.field == keys::Field::kSrcPort) return std::to_string(k.src_port());
    if (sel.field == keys::Field::kDstPort) return std::to_string(k.dst_port());
    return std::to_string(k.proto());
  };
  for (const char* fields :
       {"SrcIP", "SrcIP/24, DstPort", "DstIP/13, SrcPort, Proto",
        "SrcPort, SrcIP/7, DstIP/31", "DstIP/0", "SrcIP, DstIP, SrcPort, "
        "DstPort, Proto", "Proto, SrcIP/1"}) {
    const std::string text = std::string("SELECT ") + fields +
                             ", SUM(Size) FROM flows GROUP BY " + fields +
                             " ORDER BY SUM(Size) DESC LIMIT 25";
    std::string error;
    const auto statement = Parse(text, &error);
    ASSERT_TRUE(statement.has_value()) << error;
    const Result result = Execute(*statement, table);
    ASSERT_FALSE(result.rows.empty()) << text;
    const keys::TupleKeySpec spec("sql", statement->fields);
    for (const ResultRow& row : result.rows) {
      const FiveTuple* member = nullptr;
      for (const auto& [key, size] : table) {
        if (spec.Apply(key) == row.key) {
          member = &key;
          break;
        }
      }
      ASSERT_NE(member, nullptr) << text;
      ASSERT_EQ(row.field_text.size(), statement->fields.size());
      for (size_t c = 0; c < statement->fields.size(); ++c) {
        EXPECT_EQ(row.field_text[c], field_text(*member, statement->fields[c]))
            << text << " column " << result.column_names[c];
      }
    }
  }
}

}  // namespace
}  // namespace coco::query::sql
