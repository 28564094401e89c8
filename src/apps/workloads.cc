#include "apps/workloads.h"

#include <algorithm>
#include <map>

namespace pier {

FilesharingCorpus::FilesharingCorpus(const CorpusOptions& options,
                                     uint32_t num_nodes)
    : options_(options),
      num_nodes_(num_nodes),
      kw_freq_(options.vocab_size, 0) {
  Rng rng(options_.seed);
  ZipfGenerator kw_zipf(options_.vocab_size, options_.keyword_zipf);
  files_.reserve(options_.num_files);
  for (uint64_t f = 0; f < options_.num_files; ++f) {
    CorpusFile file;
    file.file_id = f;
    // Keywords: Zipf-popular words appear in many files. File rank == f
    // (rank 0 most popular), so replication decays with f.
    while (file.keywords.size() <
           static_cast<size_t>(options_.keywords_per_file)) {
      uint32_t kw = static_cast<uint32_t>(kw_zipf.Sample(&rng));
      if (std::find(file.keywords.begin(), file.keywords.end(), kw) ==
          file.keywords.end()) {
        file.keywords.push_back(kw);
      }
    }
    for (uint32_t kw : file.keywords) kw_freq_[kw]++;
    // Replicas proportional to file popularity: rank 0 gets max_replicas,
    // decaying harmonically; every file exists somewhere.
    uint64_t replicas = std::max<uint64_t>(
        1, static_cast<uint64_t>(options_.max_replicas / (1.0 + f * 0.05)));
    replicas = std::min<uint64_t>(replicas, num_nodes_);
    while (file.hosts.size() < replicas) {
      uint32_t h = static_cast<uint32_t>(rng.Uniform(num_nodes_));
      if (std::find(file.hosts.begin(), file.hosts.end(), h) ==
          file.hosts.end()) {
        file.hosts.push_back(h);
      }
    }
    files_.push_back(std::move(file));
  }
}

std::vector<FilesharingCorpus::Query> FilesharingCorpus::MakeQueries(
    int n, int keywords_per_query, bool rare_only, uint64_t rare_threshold,
    Rng* rng) const {
  ZipfGenerator file_zipf(options_.num_files, options_.file_zipf);
  std::vector<Query> out;
  int attempts = 0;
  while (out.size() < static_cast<size_t>(n) && attempts < n * 1000) {
    attempts++;
    const CorpusFile& f = files_[file_zipf.Sample(rng)];
    Query q;
    q.target_file = f.file_id;
    q.target_replicas = f.hosts.size();
    int kq = std::min<int>(keywords_per_query,
                           static_cast<int>(f.keywords.size()));
    // Ask for the file's least-common keywords first: users searching for a
    // specific item type its distinctive words.
    std::vector<uint32_t> kws = f.keywords;
    std::sort(kws.begin(), kws.end(), [this](uint32_t a, uint32_t b) {
      return kw_freq_[a] < kw_freq_[b];
    });
    q.keywords.assign(kws.begin(), kws.begin() + kq);
    uint64_t min_freq = UINT64_MAX;
    for (uint32_t kw : q.keywords) min_freq = std::min(min_freq, kw_freq_[kw]);
    q.rare = min_freq <= rare_threshold;
    if (rare_only && !q.rare) continue;
    out.push_back(std::move(q));
  }
  return out;
}

Tuple FilesharingCorpus::IndexTuple(uint32_t kw, uint64_t file_id,
                                    uint32_t host) {
  Tuple t("fidx");
  t.Append("kw", Value::String(KeywordName(kw)));
  t.Append("file_id", Value::Int64(static_cast<int64_t>(file_id)));
  t.Append("host", Value::Int64(host));
  return t;
}

FirewallWorkload::FirewallWorkload(const FirewallOptions& options)
    : options_(options), zipf_(options.num_sources, options.source_zipf) {}

std::string FirewallWorkload::SourceName(uint64_t rank) {
  // A fake dotted quad derived from the rank, stable across nodes.
  uint64_t x = rank * 2654435761u;
  return std::to_string(10 + (x & 63)) + "." + std::to_string((x >> 6) & 255) +
         "." + std::to_string((x >> 14) & 255) + "." +
         std::to_string(rank & 255);
}

std::vector<Tuple> FirewallWorkload::EventsForNode(uint32_t node) const {
  Rng rng(options_.seed * 1315423911u + node);
  std::vector<Tuple> out;
  out.reserve(options_.events_per_node);
  for (int i = 0; i < options_.events_per_node; ++i) {
    uint64_t src_rank = zipf_.Sample(&rng);
    Tuple t("fw");
    t.Append("src", Value::String(SourceName(src_rank)));
    t.Append("dst_port", Value::Int64(static_cast<int64_t>(
                             rng.Bernoulli(0.5) ? 445 : rng.Uniform(65536))));
    t.Append("proto", Value::String(rng.Bernoulli(0.8) ? "tcp" : "udp"));
    t.Append("ts", Value::Int64(static_cast<int64_t>(i)));
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> FirewallWorkload::GroundTruthTopK(
    uint32_t num_nodes, size_t k) const {
  std::map<std::string, uint64_t> counts;
  for (uint32_t node = 0; node < num_nodes; ++node) {
    for (const Tuple& t : EventsForNode(node)) {
      counts[std::string(*t.Get("src")->AsString())]++;
    }
  }
  std::vector<std::pair<std::string, uint64_t>> sorted(counts.begin(),
                                                       counts.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

}  // namespace pier
