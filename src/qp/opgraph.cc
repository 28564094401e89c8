#include "qp/opgraph.h"

#include <set>

namespace pier {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kScan: return "scan";
    case OpKind::kNewData: return "newdata";
    case OpKind::kSource: return "source";
    case OpKind::kSelection: return "selection";
    case OpKind::kProjection: return "projection";
    case OpKind::kTee: return "tee";
    case OpKind::kUnion: return "union";
    case OpKind::kDupElim: return "dupelim";
    case OpKind::kGroupBy: return "groupby";
    case OpKind::kSymHashJoin: return "shjoin";
    case OpKind::kFetchMatches: return "fmjoin";
    case OpKind::kQueue: return "queue";
    case OpKind::kPut: return "put";
    case OpKind::kResult: return "result";
    case OpKind::kMaterializer: return "materializer";
    case OpKind::kLimit: return "limit";
    case OpKind::kTopK: return "topk";
    case OpKind::kBloomCreate: return "bloomcreate";
    case OpKind::kBloomProbe: return "bloomprobe";
    case OpKind::kHierAgg: return "hieragg";
    case OpKind::kHierJoin: return "hierjoin";
    case OpKind::kEddy: return "eddy";
    case OpKind::kControl: return "control";
  }
  return "?";
}

std::string OpSpec::GetString(const std::string& key, std::string def) const {
  auto it = params.find(key);
  return it != params.end() ? it->second : def;
}

int64_t OpSpec::GetInt(const std::string& key, int64_t def) const {
  auto it = params.find(key);
  if (it == params.end()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

void OpSpec::SetExpr(const std::string& key, const ExprPtr& e) {
  params[key] = e->Encode();
}

Result<ExprPtr> OpSpec::GetExpr(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end())
    return Status::NotFound("op has no param '" + key + "'");
  return Expr::Decode(it->second);
}

void OpSpec::SetStrings(const std::string& key,
                        const std::vector<std::string>& v) {
  std::string joined;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) joined.push_back(',');
    joined += v[i];
  }
  params[key] = std::move(joined);
}

std::vector<std::string> OpSpec::GetStrings(const std::string& key) const {
  std::vector<std::string> out;
  auto it = params.find(key);
  if (it == params.end() || it->second.empty()) return out;
  const std::string& s = it->second;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ',') {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

OpSpec* OpGraph::FindOp(uint32_t op_id) {
  for (OpSpec& op : ops) {
    if (op.id == op_id) return &op;
  }
  return nullptr;
}

const OpSpec* OpGraph::FindOp(uint32_t op_id) const {
  for (const OpSpec& op : ops) {
    if (op.id == op_id) return &op;
  }
  return nullptr;
}

OpSpec& OpGraph::AddOp(OpKind kind) {
  uint32_t next = 1;
  for (const OpSpec& op : ops) next = std::max(next, op.id + 1);
  ops.emplace_back(next, kind);
  return ops.back();
}

void OpGraph::Connect(uint32_t from, uint32_t to, uint8_t port) {
  edges.push_back(GraphEdge{from, to, port});
}

Status OpGraph::Validate() const {
  std::set<uint32_t> ids;
  for (const OpSpec& op : ops) {
    if (op.id == 0) return Status::InvalidArgument("op id 0 is reserved");
    if (!ids.insert(op.id).second)
      return Status::InvalidArgument("duplicate op id " + std::to_string(op.id));
  }
  for (const GraphEdge& e : edges) {
    if (!ids.count(e.from) || !ids.count(e.to))
      return Status::InvalidArgument("edge references unknown op");
    if (e.from == e.to)
      return Status::InvalidArgument("self-loop edge on op " +
                                     std::to_string(e.from));
  }
  for (const OpSpec& op : ops) {
    int inputs = 0;
    for (const GraphEdge& e : edges) inputs += (e.to == op.id);
    bool is_access = op.kind == OpKind::kScan || op.kind == OpKind::kNewData ||
                     op.kind == OpKind::kSource;
    if (is_access && inputs != 0)
      return Status::InvalidArgument("access method with inputs");
    // Joins take two ports unless they split one mixed stream by table name.
    bool two_input =
        (op.kind == OpKind::kSymHashJoin || op.kind == OpKind::kHierJoin) &&
        !op.Has("l_table");
    if (two_input && inputs != 2)
      return Status::InvalidArgument(std::string(OpKindName(op.kind)) +
                                     " needs exactly 2 inputs");
  }
  return Status::Ok();
}

OpGraph& QueryPlan::AddGraph() {
  graphs.emplace_back();
  graphs.back().id = static_cast<uint32_t>(graphs.size());
  return graphs.back();
}

Status QueryPlan::Validate() const {
  if (graphs.empty()) return Status::InvalidArgument("plan has no opgraphs");
  std::set<uint32_t> gids;
  for (const OpGraph& g : graphs) {
    if (!gids.insert(g.id).second)
      return Status::InvalidArgument("duplicate graph id");
    PIER_RETURN_IF_ERROR(g.Validate());
  }
  if (timeout <= 0) return Status::InvalidArgument("non-positive timeout");
  if (deadline_us < 0) return Status::InvalidArgument("negative deadline");
  if (window < 0) return Status::InvalidArgument("negative window");
  if (catchup_floor_us < 0)
    return Status::InvalidArgument("negative catch-up floor");
  if (lease_period_us < 0)
    return Status::InvalidArgument("negative lease period");
  if (replicas < 0) return Status::InvalidArgument("negative replicas");
  if (successors.size() > kMaxSuccessors)
    return Status::InvalidArgument("too many proxy successors");
  if (proxy_epoch > successors.size())
    return Status::InvalidArgument("proxy epoch past the successor chain");
  return Status::Ok();
}

void QueryPlan::EncodeTo(WireWriter* w) const {
  w->PutU64(query_id);
  w->PutU32(proxy.host);
  w->PutU16(proxy.port);
  w->PutSVarint(timeout);
  w->PutSVarint(deadline_us);
  w->PutU8(continuous ? 1 : 0);
  w->PutSVarint(window);
  w->PutVarint(generation);
  w->PutVarint(successors.size());
  for (const NetAddress& s : successors) {
    w->PutU32(s.host);
    w->PutU16(s.port);
  }
  w->PutVarint(proxy_epoch);
  w->PutSVarint(catchup_floor_us);
  w->PutSVarint(lease_period_us);
  w->PutU8(cancelled ? 1 : 0);
  w->PutVarint(static_cast<uint32_t>(replicas));
  w->PutVarint(graphs.size());
  for (const OpGraph& g : graphs) {
    w->PutVarint(g.id);
    w->PutU8(static_cast<uint8_t>(g.dissem));
    w->PutBytes(g.dissem_ns);
    w->PutBytes(g.dissem_key);
    w->PutSVarint(g.dissem_lo);
    w->PutSVarint(g.dissem_hi);
    w->PutVarint(static_cast<uint32_t>(g.flush_stage));
    w->PutVarint(g.ops.size());
    for (const OpSpec& op : g.ops) {
      w->PutVarint(op.id);
      w->PutU8(static_cast<uint8_t>(op.kind));
      w->PutVarint(op.params.size());
      for (const auto& [k, v] : op.params) {
        w->PutBytes(k);
        w->PutBytes(v);
      }
    }
    w->PutVarint(g.edges.size());
    for (const GraphEdge& e : g.edges) {
      w->PutVarint(e.from);
      w->PutVarint(e.to);
      w->PutU8(e.port);
    }
  }
}

std::string QueryPlan::Encode() const {
  WireWriter w;
  EncodeTo(&w);
  return std::move(w).data();
}

Result<QueryPlan> QueryPlan::Decode(std::string_view wire) {
  WireReader r(wire);
  QueryPlan plan;
  PIER_RETURN_IF_ERROR(r.GetU64(&plan.query_id));
  PIER_RETURN_IF_ERROR(r.GetU32(&plan.proxy.host));
  PIER_RETURN_IF_ERROR(r.GetU16(&plan.proxy.port));
  PIER_RETURN_IF_ERROR(r.GetSVarint(&plan.timeout));
  PIER_RETURN_IF_ERROR(r.GetSVarint(&plan.deadline_us));
  uint8_t cont;
  PIER_RETURN_IF_ERROR(r.GetU8(&cont));
  plan.continuous = cont != 0;
  PIER_RETURN_IF_ERROR(r.GetSVarint(&plan.window));
  PIER_RETURN_IF_ERROR(r.GetVarint32(&plan.generation));
  uint64_t nsucc;
  PIER_RETURN_IF_ERROR(r.GetVarint(&nsucc));
  if (nsucc > QueryPlan::kMaxSuccessors)
    return Status::Corruption("absurd successor count");
  for (uint64_t si = 0; si < nsucc; ++si) {
    NetAddress a;
    PIER_RETURN_IF_ERROR(r.GetU32(&a.host));
    PIER_RETURN_IF_ERROR(r.GetU16(&a.port));
    plan.successors.push_back(a);
  }
  PIER_RETURN_IF_ERROR(r.GetVarint32(&plan.proxy_epoch));
  PIER_RETURN_IF_ERROR(r.GetSVarint(&plan.catchup_floor_us));
  PIER_RETURN_IF_ERROR(r.GetSVarint(&plan.lease_period_us));
  uint8_t cancelled;
  PIER_RETURN_IF_ERROR(r.GetU8(&cancelled));
  plan.cancelled = cancelled != 0;
  uint32_t replicas;
  PIER_RETURN_IF_ERROR(r.GetVarint32(&replicas));
  plan.replicas = static_cast<int32_t>(replicas);
  uint64_t ngraphs;
  PIER_RETURN_IF_ERROR(r.GetVarint(&ngraphs));
  if (ngraphs > 1000) return Status::Corruption("absurd graph count");
  for (uint64_t gi = 0; gi < ngraphs; ++gi) {
    OpGraph g;
    PIER_RETURN_IF_ERROR(r.GetVarint32(&g.id));
    uint8_t dk;
    PIER_RETURN_IF_ERROR(r.GetU8(&dk));
    g.dissem = static_cast<DissemKind>(dk);
    PIER_RETURN_IF_ERROR(r.GetBytes(&g.dissem_ns));
    PIER_RETURN_IF_ERROR(r.GetBytes(&g.dissem_key));
    PIER_RETURN_IF_ERROR(r.GetSVarint(&g.dissem_lo));
    PIER_RETURN_IF_ERROR(r.GetSVarint(&g.dissem_hi));
    uint32_t stage;
    PIER_RETURN_IF_ERROR(r.GetVarint32(&stage));
    g.flush_stage = static_cast<int32_t>(stage);
    uint64_t nops;
    PIER_RETURN_IF_ERROR(r.GetVarint(&nops));
    if (nops > 10000) return Status::Corruption("absurd op count");
    for (uint64_t oi = 0; oi < nops; ++oi) {
      OpSpec op;
      PIER_RETURN_IF_ERROR(r.GetVarint32(&op.id));
      uint8_t kind;
      PIER_RETURN_IF_ERROR(r.GetU8(&kind));
      op.kind = static_cast<OpKind>(kind);
      uint64_t nparams;
      PIER_RETURN_IF_ERROR(r.GetVarint(&nparams));
      if (nparams > 10000) return Status::Corruption("absurd param count");
      for (uint64_t pi = 0; pi < nparams; ++pi) {
        std::string k, v;
        PIER_RETURN_IF_ERROR(r.GetBytes(&k));
        PIER_RETURN_IF_ERROR(r.GetBytes(&v));
        op.params[std::move(k)] = std::move(v);
      }
      g.ops.push_back(std::move(op));
    }
    uint64_t nedges;
    PIER_RETURN_IF_ERROR(r.GetVarint(&nedges));
    if (nedges > 100000) return Status::Corruption("absurd edge count");
    for (uint64_t ei = 0; ei < nedges; ++ei) {
      GraphEdge e;
      PIER_RETURN_IF_ERROR(r.GetVarint32(&e.from));
      PIER_RETURN_IF_ERROR(r.GetVarint32(&e.to));
      PIER_RETURN_IF_ERROR(r.GetU8(&e.port));
      g.edges.push_back(e);
    }
    plan.graphs.push_back(std::move(g));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after plan");
  return plan;
}

}  // namespace pier
