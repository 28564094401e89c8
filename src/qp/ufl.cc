#include "qp/ufl.h"

#include <cctype>
#include <cerrno>
#include <limits>
#include <map>

namespace pier {

namespace {

/// Is this parameter name an expression parameter? (pred, key_expr, expr<i>,
/// mexpr<i>.)
bool IsExprParam(const std::string& name) {
  if (name == "pred" || name == "key_expr") return true;
  if (name.rfind("expr", 0) == 0 && name.size() > 4) return true;
  if (name.rfind("mexpr", 0) == 0 && name.size() > 5) return true;
  return false;
}

Result<OpKind> OpKindFromName(const std::string& name) {
  static const std::map<std::string, OpKind> kMap = {
      {"scan", OpKind::kScan},
      {"newdata", OpKind::kNewData},
      {"source", OpKind::kSource},
      {"selection", OpKind::kSelection},
      {"projection", OpKind::kProjection},
      {"tee", OpKind::kTee},
      {"union", OpKind::kUnion},
      {"dupelim", OpKind::kDupElim},
      {"groupby", OpKind::kGroupBy},
      {"shjoin", OpKind::kSymHashJoin},
      {"fmjoin", OpKind::kFetchMatches},
      {"queue", OpKind::kQueue},
      {"put", OpKind::kPut},
      {"result", OpKind::kResult},
      {"materializer", OpKind::kMaterializer},
      {"limit", OpKind::kLimit},
      {"topk", OpKind::kTopK},
      {"bloomcreate", OpKind::kBloomCreate},
      {"bloomprobe", OpKind::kBloomProbe},
      {"hieragg", OpKind::kHierAgg},
      {"hierjoin", OpKind::kHierJoin},
      {"eddy", OpKind::kEddy},
      {"control", OpKind::kControl},
  };
  auto it = kMap.find(name);
  if (it == kMap.end())
    return Status::InvalidArgument("unknown operator '" + name + "'");
  return it->second;
}

class UflParser {
 public:
  explicit UflParser(std::string_view text) : text_(text) {}

  Result<QueryPlan> Parse() {
    for (;;) {
      SkipWs();
      if (AtEnd()) break;
      std::string word;
      PIER_RETURN_IF_ERROR(Ident(&word));
      if (word == "query") {
        PIER_RETURN_IF_ERROR(ParseQueryBlock());
      } else if (word == "graph") {
        PIER_RETURN_IF_ERROR(ParseGraphBlock());
      } else {
        return Err("expected 'query' or 'graph', got '" + word + "'");
      }
    }
    if (plan_.graphs.empty()) return Err("no graphs");
    PIER_RETURN_IF_ERROR(plan_.Validate());
    return std::move(plan_);
  }

 private:
  Status Err(const std::string& msg) {
    return Status::InvalidArgument("UFL:" + std::to_string(Line()) + ": " + msg);
  }

  int Line() const {
    int line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i)
      line += text_[i] == '\n';
    return line;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipWs() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ < text_.size() && text_[pos_] == '#') {  // comment to EOL
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  Status Expect(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c)
      return Err(std::string("expected '") + c + "'");
    ++pos_;
    return Status::Ok();
  }

  Status Ident(std::string* out) {
    SkipWs();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.' || text_[pos_] == '!')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected identifier");
    *out = std::string(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  /// A parameter value: "quoted", or a bare token up to , ] ; whitespace.
  Status ParamValue(std::string* out) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != '"') s.push_back(text_[pos_++]);
      if (pos_ >= text_.size()) return Err("unterminated string");
      ++pos_;
      *out = std::move(s);
      return Status::Ok();
    }
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != ']' &&
           text_[pos_] != ';' && text_[pos_] != ')' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected parameter value");
    *out = std::string(text_.substr(start, pos_ - start));
    return Status::Ok();
  }

  Result<TimeUs> Duration(const std::string& v) {
    Result<TimeUs> d = ParseDuration(v);
    if (!d.ok()) return Err(d.status().message());
    return d;
  }

  Status ParseAddress(const std::string& v, NetAddress* out) {
    size_t colon = v.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= v.size())
      return Err("successor must be host:port, got '" + v + "'");
    char* end = nullptr;
    unsigned long long host = std::strtoull(v.c_str(), &end, 10);
    if (end != v.c_str() + colon || host > 0xffffffffULL)
      return Err("bad successor host in '" + v + "'");
    unsigned long long port = std::strtoull(v.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || port > 0xffffULL)
      return Err("bad successor port in '" + v + "'");
    out->host = static_cast<uint32_t>(host);
    out->port = static_cast<uint16_t>(port);
    return Status::Ok();
  }

  Status ParseQueryBlock() {
    PIER_RETURN_IF_ERROR(Expect('{'));
    while (!Peek('}')) {
      std::string key;
      PIER_RETURN_IF_ERROR(Ident(&key));
      if (key == "continuous") {
        plan_.continuous = true;
      } else {
        PIER_RETURN_IF_ERROR(Expect('='));
        std::string value;
        PIER_RETURN_IF_ERROR(ParamValue(&value));
        if (key == "timeout") {
          PIER_ASSIGN_OR_RETURN(plan_.timeout, Duration(value));
        } else if (key == "lease") {
          PIER_ASSIGN_OR_RETURN(plan_.lease_period_us, Duration(value));
        } else if (key == "successors") {
          // Comma-separated host:port failover chain, in adoption order.
          for (;;) {
            NetAddress a;
            PIER_RETURN_IF_ERROR(ParseAddress(value, &a));
            plan_.successors.push_back(a);
            if (!Peek(',')) break;
            PIER_RETURN_IF_ERROR(Expect(','));
            PIER_RETURN_IF_ERROR(ParamValue(&value));
          }
          if (plan_.successors.size() > QueryPlan::kMaxSuccessors)
            return Err("too many successors");
        } else if (key == "window") {
          PIER_ASSIGN_OR_RETURN(plan_.window, Duration(value));
        } else if (key == "replicas") {
          // Replication factor for the query's published soft state; the
          // client validates it against the DHT's successor capacity.
          char* end = nullptr;
          long k = std::strtol(value.c_str(), &end, 10);
          if (*end != '\0' || k < 0 || k > 255)
            return Err("replicas must be a small non-negative integer, got '" +
                       value + "'");
          plan_.replicas = static_cast<int32_t>(k);
        } else {
          return Err("unknown query option '" + key + "'");
        }
      }
      PIER_RETURN_IF_ERROR(Expect(';'));
    }
    return Expect('}');
  }

  Status ParseGraphBlock() {
    OpGraph& g = plan_.AddGraph();
    std::string name;
    PIER_RETURN_IF_ERROR(Ident(&name));  // graph label (documentation only)
    std::string dissem;
    PIER_RETURN_IF_ERROR(Ident(&dissem));
    if (dissem == "broadcast") {
      g.dissem = DissemKind::kBroadcast;
    } else if (dissem == "local") {
      g.dissem = DissemKind::kLocal;
    } else if (dissem == "equality") {
      g.dissem = DissemKind::kEquality;
      PIER_RETURN_IF_ERROR(Expect('('));
      PIER_RETURN_IF_ERROR(Ident(&g.dissem_ns));
      PIER_RETURN_IF_ERROR(Expect(','));
      PIER_RETURN_IF_ERROR(ParamValue(&g.dissem_key));
      PIER_RETURN_IF_ERROR(Expect(')'));
    } else if (dissem == "range") {
      g.dissem = DissemKind::kRange;
      PIER_RETURN_IF_ERROR(Expect('('));
      PIER_RETURN_IF_ERROR(Ident(&g.dissem_ns));
      PIER_RETURN_IF_ERROR(Expect(','));
      std::string lo, hi;
      PIER_RETURN_IF_ERROR(ParamValue(&lo));
      PIER_RETURN_IF_ERROR(Expect(','));
      PIER_RETURN_IF_ERROR(ParamValue(&hi));
      g.dissem_lo = std::strtoll(lo.c_str(), nullptr, 10);
      g.dissem_hi = std::strtoll(hi.c_str(), nullptr, 10);
      PIER_RETURN_IF_ERROR(Expect(')'));
    } else if (dissem == "stage") {
      // "graph gN stage(k) { ... }" is broadcast with a flush stage.
      PIER_RETURN_IF_ERROR(Expect('('));
      std::string st;
      PIER_RETURN_IF_ERROR(ParamValue(&st));
      g.flush_stage = static_cast<int32_t>(std::strtol(st.c_str(), nullptr, 10));
      PIER_RETURN_IF_ERROR(Expect(')'));
    } else {
      return Err("unknown dissemination '" + dissem + "'");
    }

    std::map<std::string, uint32_t> labels;
    PIER_RETURN_IF_ERROR(Expect('{'));
    while (!Peek('}')) {
      std::string first;
      PIER_RETURN_IF_ERROR(Ident(&first));
      if (Peek(':')) {
        // Operator declaration: label: kind [params];
        PIER_RETURN_IF_ERROR(Expect(':'));
        std::string kind_name;
        PIER_RETURN_IF_ERROR(Ident(&kind_name));
        PIER_ASSIGN_OR_RETURN(OpKind kind, OpKindFromName(kind_name));
        OpSpec& op = g.AddOp(kind);
        uint32_t op_id = op.id;  // later AddOps invalidate the reference
        if (labels.count(first)) return Err("duplicate label '" + first + "'");
        labels[first] = op_id;
        if (Peek('[')) {
          PIER_RETURN_IF_ERROR(Expect('['));
          while (!Peek(']')) {
            std::string key;
            PIER_RETURN_IF_ERROR(Ident(&key));
            PIER_RETURN_IF_ERROR(Expect('='));
            std::string value;
            PIER_RETURN_IF_ERROR(ParamValue(&value));
            OpSpec* spec = g.FindOp(op_id);
            if (IsExprParam(key)) {
              PIER_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(value));
              spec->SetExpr(key, e);
            } else {
              spec->Set(key, value);
            }
            if (Peek(',')) PIER_RETURN_IF_ERROR(Expect(','));
          }
          PIER_RETURN_IF_ERROR(Expect(']'));
        }
        PIER_RETURN_IF_ERROR(Expect(';'));
      } else {
        // Edge chain: a -> b[:port] -> c[:port];
        auto it = labels.find(first);
        if (it == labels.end()) return Err("unknown label '" + first + "'");
        uint32_t prev = it->second;
        while (Peek('-')) {
          PIER_RETURN_IF_ERROR(Expect('-'));
          PIER_RETURN_IF_ERROR(Expect('>'));
          std::string target;
          PIER_RETURN_IF_ERROR(Ident(&target));
          auto jt = labels.find(target);
          if (jt == labels.end()) return Err("unknown label '" + target + "'");
          uint8_t port = 0;
          if (Peek(':')) {
            PIER_RETURN_IF_ERROR(Expect(':'));
            std::string p;
            PIER_RETURN_IF_ERROR(ParamValue(&p));
            port = static_cast<uint8_t>(std::strtol(p.c_str(), nullptr, 10));
          }
          g.Connect(prev, jt->second, port);
          prev = jt->second;
        }
        PIER_RETURN_IF_ERROR(Expect(';'));
      }
    }
    return Expect('}');
  }

  std::string_view text_;
  size_t pos_ = 0;
  QueryPlan plan_;
};

}  // namespace

Result<QueryPlan> ParseUfl(const std::string& text) {
  return UflParser(text).Parse();
}

Result<TimeUs> ParseDuration(std::string_view text) {
  std::string num(text);
  auto lower_at = [&num](size_t from_end) {
    return std::tolower(static_cast<unsigned char>(num[num.size() - from_end]));
  };
  TimeUs mult = kMillisecond;
  if (num.size() > 2 && lower_at(2) == 'm' && lower_at(1) == 's') {
    num.resize(num.size() - 2);
  } else if (!num.empty() && lower_at(1) == 's') {
    mult = kSecond;
    num.pop_back();
  }
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(num.c_str(), &end, 10);
  if (*end != '\0' || v <= 0 || errno == ERANGE ||
      v > std::numeric_limits<TimeUs>::max() / mult)
    return Status::InvalidArgument("bad duration '" + std::string(text) + "'");
  return v * mult;
}

}  // namespace pier
