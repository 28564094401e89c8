// Experiment E1 — Figure 1: CDF of first-result latency for filesharing
// search. PIER (rare items) vs Gnutella (all queries) vs Gnutella (rare
// items), same transit-stub latency model for both systems.
//
// The paper ran real intercepted Gnutella queries on PlanetLab; here both
// systems run over the synthetic corpus of workloads.h (Zipf keyword
// popularity, replication proportional to file popularity — see DESIGN.md
// §2). The reproduction target is the *shape*: flooding answers popular
// queries fast but leaves much of the rare tail unanswered, while the PIER
// keyword index answers nearly all rare queries within a few routing hops.
//
// Self-checking: FAILS if the corpus publish burst lost any fidx index
// entry (a lookup that timed out under the burst drops its entry).

#include <cstdio>
#include <string>

#include "apps/filesharing.h"
#include "apps/gnutella.h"
#include "apps/workloads.h"
#include "bench/bench_common.h"
#include "qp/sim_pier.h"

namespace pier {
namespace {

// The live Gnutella network dwarfed any flood's TTL horizon; the paper's
// PlanetLab PIER deployment indexed the content the flood could not reach.
// To reproduce that regime in one simulation, the network must be large
// relative to the flood: degree 3 / TTL 3 reaches ~20 of 300 nodes (~7%),
// standing in for the real system's vanishing flood coverage.
constexpr uint32_t kNodes = 300;
constexpr int kQueries = 100;
constexpr int kGnutellaTtl = 3;
constexpr int kGnutellaDegree = 3;
constexpr uint64_t kRareThreshold = 4;  // max doc-frequency of a "rare" kw
constexpr TimeUs kWait = 12 * kSecond;

int Run() {
  bench::Title("Figure 1: first-result latency CDF, PIER vs Gnutella");
  bench::Note("nodes=" + std::to_string(kNodes) +
              " queries=" + std::to_string(kQueries) +
              " gnutella_ttl=" + std::to_string(kGnutellaTtl) +
              " gnutella_degree=" + std::to_string(kGnutellaDegree) +
              " rare=doc_freq<=" + std::to_string(kRareThreshold));

  CorpusOptions copts;
  copts.num_files = 2000;
  copts.vocab_size = 1000;
  copts.keywords_per_file = 3;
  copts.max_replicas = 60;  // the most popular file sits on ~20% of nodes
  copts.seed = 101;
  FilesharingCorpus corpus(copts, kNodes);

  Rng qrng(202);
  auto all_queries = corpus.MakeQueries(kQueries, 1, /*rare_only=*/false,
                                        kRareThreshold, &qrng);
  auto rare_queries = corpus.MakeQueries(kQueries, 1, /*rare_only=*/true,
                                         kRareThreshold, &qrng);

  // --- Gnutella baseline -----------------------------------------------------
  GnutellaSim::Options gopts;
  gopts.sim.seed = 303;
  gopts.degree = kGnutellaDegree;
  GnutellaSim gnutella(kNodes, gopts);
  for (const CorpusFile& f : corpus.files()) {
    for (uint32_t h : f.hosts)
      gnutella.node(h)->AddLocalFile(f.file_id, f.keywords);
  }

  Rng origin_rng(404);
  bench::LatencyCdf g_all, g_rare;
  for (const auto& q : all_queries) {
    g_all.Add(gnutella.RunQuery(
        static_cast<uint32_t>(origin_rng.Uniform(kNodes)), q.keywords,
        kGnutellaTtl, kWait));
  }
  for (const auto& q : rare_queries) {
    g_rare.Add(gnutella.RunQuery(
        static_cast<uint32_t>(origin_rng.Uniform(kNodes)), q.keywords,
        kGnutellaTtl, kWait));
  }

  // --- PIER ------------------------------------------------------------------
  SimPier::Options popts;
  popts.sim.seed = 303;  // same topology family and seed as the baseline
  popts.settle_time = 8 * kSecond;
  SimPier pier(kNodes, popts);
  FilesharingApp app(&pier);
  app.PublishCorpus(corpus);

  bench::LatencyCdf p_rare;
  Rng p_origin_rng(404);
  for (const auto& q : rare_queries) {
    auto r = app.Search(static_cast<uint32_t>(p_origin_rng.Uniform(kNodes)),
                        q.keywords, 10 * kSecond, kWait);
    p_rare.Add(r.found ? r.first_result_latency : -1);
  }

  // --- The figure, as a table ------------------------------------------------
  std::vector<int> w = {22, 16, 16, 16};
  bench::Row(
      {"latency<=", "PIER(rare)%", "Gnutella(all)%", "Gnutella(rare)%"}, w);
  for (TimeUs t :
       {100 * kMillisecond, 250 * kMillisecond, 500 * kMillisecond,
        1 * kSecond, 2 * kSecond, 5 * kSecond, 10 * kSecond, kWait}) {
    bench::Row({bench::Ms(t) + "ms", bench::Fmt(100 * p_rare.At(t)),
                bench::Fmt(100 * g_all.At(t)), bench::Fmt(100 * g_rare.At(t))},
               w);
  }
  bench::Row({"answered(total)", bench::Fmt(100 * p_rare.AnsweredFraction()),
              bench::Fmt(100 * g_all.AnsweredFraction()),
              bench::Fmt(100 * g_rare.AnsweredFraction())},
             w);
  bench::Note("");
  bench::Note("median latency: PIER(rare)=" + bench::Ms(p_rare.Percentile(50)) +
              "ms  Gnutella(all)=" + bench::Ms(g_all.Percentile(50)) +
              "ms  Gnutella(rare)=" + bench::Ms(g_rare.Percentile(50)) + "ms");
  bench::Note(
      "expected shape (paper): PIER answers nearly all rare queries; Gnutella "
      "answers most popular queries fast but misses a large fraction of the "
      "rare subset within its TTL horizon.");

  // Every fidx entry the publish burst failed to store, reported by now
  // (a lookup gives up within OverlayRouter::kLookupTimeout).
  uint64_t lost = 0;
  for (uint32_t i = 0; i < kNodes; ++i)
    lost += pier.client(i)->publish_failures().dropped_items;
  bench::Note("fidx index entries lost by the publish burst: " +
              std::to_string(lost));
  if (lost == 0) return 0;
  std::fprintf(stderr, "FAIL: the corpus lost %llu fidx index entries\n",
               static_cast<unsigned long long>(lost));
  return 1;
}

}  // namespace
}  // namespace pier

int main() { return pier::Run(); }
