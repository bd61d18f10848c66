#include "query/sql.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "common/bytes.h"

namespace coco::query::sql {
namespace {

// ---- Tokenizer -------------------------------------------------------------

enum class TokenKind { kIdent, kNumber, kComma, kSlash, kLParen, kRParen,
                       kGreaterEqual, kEnd };

struct Token {
  TokenKind kind;
  std::string text;  // identifier (upper-cased) or number
  size_t position;
};

class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  // Returns false and sets *error on an unrecognized character.
  bool Tokenize(std::vector<Token>* out, std::string* error) {
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        std::string word = text_.substr(i, j - i);
        std::transform(word.begin(), word.end(), word.begin(),
                       [](unsigned char ch) { return std::toupper(ch); });
        out->push_back({TokenKind::kIdent, word, i});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        size_t j = i;
        while (j < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[j]))) {
          ++j;
        }
        out->push_back({TokenKind::kNumber, text_.substr(i, j - i), i});
        i = j;
        continue;
      }
      switch (c) {
        case ',':
          out->push_back({TokenKind::kComma, ",", i});
          ++i;
          continue;
        case '/':
          out->push_back({TokenKind::kSlash, "/", i});
          ++i;
          continue;
        case '(':
          out->push_back({TokenKind::kLParen, "(", i});
          ++i;
          continue;
        case ')':
          out->push_back({TokenKind::kRParen, ")", i});
          ++i;
          continue;
        case '>':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            out->push_back({TokenKind::kGreaterEqual, ">=", i});
            i += 2;
            continue;
          }
          [[fallthrough]];
        default:
          *error = "unexpected character '" + std::string(1, c) +
                   "' at position " + std::to_string(i);
          return false;
      }
    }
    out->push_back({TokenKind::kEnd, "", text_.size()});
    return true;
  }

 private:
  const std::string& text_;
};

// Overflow-safe digit-string parse: std::stoull throws on absurd inputs,
// which must surface as a parse error rather than an exception.
bool ParseNumber(const std::string& digits, uint64_t* out) {
  uint64_t value = 0;
  for (char c : digits) {
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // would overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

// ---- Parser ----------------------------------------------------------------

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string* error)
      : tokens_(std::move(tokens)), error_(error) {}

  std::optional<Statement> Run() {
    Statement stmt;
    if (!ExpectKeyword("SELECT")) return std::nullopt;
    if (!ParseFieldList(&stmt.fields, /*terminated_by_sum=*/true)) {
      return std::nullopt;
    }
    if (!ExpectKeyword("FROM")) return std::nullopt;
    if (Peek().kind != TokenKind::kIdent) {
      return Fail("expected table name after FROM");
    }
    stmt.table_name = Next().text;
    if (!ExpectKeyword("GROUP") || !ExpectKeyword("BY")) return std::nullopt;
    std::vector<keys::FieldSel> group_fields;
    if (!ParseFieldList(&group_fields, /*terminated_by_sum=*/false)) {
      return std::nullopt;
    }
    if (!SameFields(stmt.fields, group_fields)) {
      return Fail("GROUP BY fields must match the selected fields");
    }
    size_t key_bits = 0;
    for (const keys::FieldSel& sel : stmt.fields) key_bits += sel.prefix_bits;
    if (key_bits > DynKey::kCapacity * 8) {
      return Fail("GROUP BY key exceeds " +
                  std::to_string(DynKey::kCapacity * 8) + " bits");
    }

    if (PeekKeyword("HAVING")) {
      Next();
      if (!ParseSumSize()) return std::nullopt;
      if (Peek().kind != TokenKind::kGreaterEqual) {
        return Fail("expected >= after HAVING SUM(Size)");
      }
      Next();
      if (Peek().kind != TokenKind::kNumber) {
        return Fail("expected number after >=");
      }
      uint64_t having = 0;
      if (!ParseNumber(Next().text, &having)) {
        return Fail("number out of range");
      }
      stmt.having_at_least = having;
    }
    if (PeekKeyword("ORDER")) {
      Next();
      if (!ExpectKeyword("BY")) return std::nullopt;
      if (!ParseSumSize()) return std::nullopt;
      if (!ExpectKeyword("DESC")) return std::nullopt;
      stmt.order_by_size_desc = true;
    }
    if (PeekKeyword("LIMIT")) {
      Next();
      if (Peek().kind != TokenKind::kNumber) {
        return Fail("expected number after LIMIT");
      }
      uint64_t limit = 0;
      if (!ParseNumber(Next().text, &limit)) {
        return Fail("number out of range");
      }
      stmt.limit = static_cast<size_t>(limit);
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Fail("unexpected trailing input '" + Peek().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  bool PeekKeyword(const char* kw) const {
    return Peek().kind == TokenKind::kIdent && Peek().text == kw;
  }

  bool ExpectKeyword(const char* kw) {
    if (!PeekKeyword(kw)) {
      Fail("expected '" + std::string(kw) + "'");
      return false;
    }
    Next();
    return true;
  }

  std::optional<Statement> Fail(const std::string& message) {
    *error_ = message + " (at position " +
              std::to_string(Peek().position) + ")";
    return std::nullopt;
  }

  // SUM ( SIZE )
  bool ParseSumSize() {
    if (!ExpectKeyword("SUM")) return false;
    if (Peek().kind != TokenKind::kLParen) {
      Fail("expected ( after SUM");
      return false;
    }
    Next();
    if (!ExpectKeyword("SIZE")) return false;
    if (Peek().kind != TokenKind::kRParen) {
      Fail("expected ) after SUM(Size");
      return false;
    }
    Next();
    return true;
  }

  // field ("," field)* — in SELECT position the list ends with ", SUM(Size)".
  bool ParseFieldList(std::vector<keys::FieldSel>* fields,
                      bool terminated_by_sum) {
    for (;;) {
      if (terminated_by_sum && PeekKeyword("SUM")) {
        if (fields->empty()) {
          Fail("need at least one key field before SUM(Size)");
          return false;
        }
        return ParseSumSize();
      }
      if (Peek().kind != TokenKind::kIdent) {
        Fail("expected field name");
        return false;
      }
      const std::string name = Next().text;
      const keys::FieldInfo* info = keys::TupleKeySpec::Find(name);
      if (info == nullptr) {
        Fail("unknown field '" + name + "'");
        return false;
      }
      uint8_t bits = info->bits;
      if (Peek().kind == TokenKind::kSlash) {
        Next();
        if (Peek().kind != TokenKind::kNumber) {
          Fail("expected prefix length after /");
          return false;
        }
        uint64_t parsed = 0;
        if (!ParseNumber(Next().text, &parsed)) {
          Fail("number out of range");
          return false;
        }
        if (!info->prefix) {
          Fail("prefix length only valid on IP fields");
          return false;
        }
        if (parsed > info->bits) {
          Fail("prefix length exceeds field width");
          return false;
        }
        bits = static_cast<uint8_t>(parsed);
      }
      fields->push_back(keys::FieldSel(info->field, bits));
      if (Peek().kind != TokenKind::kComma) {
        if (terminated_by_sum) {
          Fail("SELECT list must end with SUM(Size)");
          return false;
        }
        return true;
      }
      Next();
    }
  }

  static bool SameFields(const std::vector<keys::FieldSel>& a,
                         const std::vector<keys::FieldSel>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].field != b[i].field || a[i].prefix_bits != b[i].prefix_bits) {
        return false;
      }
    }
    return true;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::string* error_;
};

// ---- Row rendering ---------------------------------------------------------

// One cell per selected field: an address as dotted decimal (with its
// prefix length when trimmed), any other field as its unsigned value.
std::vector<std::string> RenderFields(const keys::TupleKeySpec& spec,
                                      const DynKey& key) {
  std::vector<std::string> out;
  out.reserve(spec.fields().size());
  for (size_t i = 0; i < spec.fields().size(); ++i) {
    const keys::FieldInfo& info = spec.info(i);
    uint8_t bytes[4] = {};  // the widest FiveTuple field
    spec.UnpackField(key, i, bytes);
    if (info.prefix) {
      const uint8_t bits = spec.fields()[i].prefix_bits;
      std::string text = Ipv4ToString(LoadBE32(bytes));
      if (bits < info.bits) text += "/" + std::to_string(bits);
      out.push_back(std::move(text));
    } else {
      uint64_t value = 0;
      for (size_t b = 0; b < info.bits / 8u; ++b) value = value << 8 | bytes[b];
      out.push_back(std::to_string(value));
    }
  }
  return out;
}

}  // namespace

std::optional<Statement> Parse(const std::string& text, std::string* error) {
  std::vector<Token> tokens;
  Tokenizer tokenizer(text);
  if (!tokenizer.Tokenize(&tokens, error)) return std::nullopt;
  return Parser(std::move(tokens), error).Run();
}

Result Execute(const Statement& statement,
               const FlowTable<FiveTuple>& table) {
  keys::TupleKeySpec spec("sql", statement.fields);
  const FlowTable<DynKey> aggregated = Aggregate(table, spec);

  Result result;
  for (size_t i = 0; i < statement.fields.size(); ++i) {
    result.column_names.push_back(spec.Label(i));
  }
  result.column_names.push_back("SUM(Size)");

  const uint64_t min_size = statement.having_at_least.value_or(0);
  const size_t limit =
      statement.limit.value_or(std::numeric_limits<size_t>::max());
  const auto emit = [&result](const DynKey& key, uint64_t size) {
    ResultRow row;
    row.key = key;
    row.size = size;
    result.rows.push_back(std::move(row));
  };
  if (statement.order_by_size_desc) {
    // Bounded top-k; ties broken by key (query::KeyOrderLess) so output is
    // stable across runs.
    const auto top = TopEntries(aggregated, limit, min_size);
    result.rows.reserve(top.size());
    for (const auto& [size, key] : top) emit(*key, size);
  } else {
    // Unordered: the first `limit` qualifying groups in the order the
    // aggregation first met them (FlowTable insertion order).
    for (const auto& [key, size] : aggregated) {
      if (result.rows.size() == limit) break;
      if (size >= min_size) emit(key, size);
    }
  }
  for (ResultRow& row : result.rows) {
    row.field_text = RenderFields(spec, row.key);
  }
  return result;
}

std::optional<Result> Query(const std::string& text,
                            const FlowTable<FiveTuple>& table,
                            std::string* error) {
  const auto statement = Parse(text, error);
  if (!statement) return std::nullopt;
  return Execute(*statement, table);
}

std::string FormatResult(const Result& result) {
  // Column widths: max of header and cell widths.
  std::vector<size_t> widths;
  for (const std::string& name : result.column_names) {
    widths.push_back(name.size());
  }
  for (const ResultRow& row : result.rows) {
    for (size_t c = 0; c < row.field_text.size(); ++c) {
      widths[c] = std::max(widths[c], row.field_text[c].size());
    }
    widths.back() = std::max(widths.back(), std::to_string(row.size).size());
  }

  std::string out;
  auto append_cell = [&](const std::string& text, size_t width) {
    out += text;
    out.append(width > text.size() ? width - text.size() : 0, ' ');
    out += "  ";
  };
  for (size_t c = 0; c < result.column_names.size(); ++c) {
    append_cell(result.column_names[c], widths[c]);
  }
  out += "\n";
  for (const ResultRow& row : result.rows) {
    for (size_t c = 0; c < row.field_text.size(); ++c) {
      append_cell(row.field_text[c], widths[c]);
    }
    append_cell(std::to_string(row.size), widths.back());
    out += "\n";
  }
  return out;
}

}  // namespace coco::query::sql
