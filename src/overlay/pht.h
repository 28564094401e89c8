// Prefix Hash Tree: DHT-based range indexing (§3.3.3, Ratnasamy et al. [59]).
//
// A binary trie over fixed-width integer keys is mapped onto the DHT: each
// trie node's label (a bit-prefix string) hashes to a DHT key, so the trie
// needs no pointers and inherits the DHT's resilience. Data lives only at
// leaves (bucket size B); inserting into a full leaf splits it into two
// children. Point lookups binary-search on prefix length (O(log W) DHT
// gets); range queries recursively descend the sub-trie overlapping the
// range. The trie structure itself is soft state — production deployments
// renew metadata like any other published object.

#ifndef PIER_OVERLAY_PHT_H_
#define PIER_OVERLAY_PHT_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "overlay/dht.h"

namespace pier {

struct PhtItem {
  uint64_t key = 0;
  std::string value;
  /// The publisher's requested lifetime (0: the PHT default). Carried in the
  /// stored encoding so a leaf split re-inserts the item with its original
  /// lease instead of resetting it to the default.
  TimeUs lifetime = 0;
};

class Pht {
 public:
  struct Options {
    std::string table = "pht";
    int key_bits = 32;       // width of the key space
    int bucket_size = 8;     // leaf capacity B before a split
    TimeUs lifetime = 5LL * 60 * kSecond;
  };

  Pht(Dht* dht, Options options);
  Pht(Dht* dht) : Pht(dht, Options{}) {}  // NOLINT

  using DoneCallback = std::function<void(const Status&)>;
  using ItemsCallback =
      std::function<void(const Status&, std::vector<PhtItem> items)>;

  /// Insert (key, value); splits the target leaf if it overflows. The item
  /// is named once, with Dht::NextSuffix, and keeps that name through every
  /// split. `lifetime` overrides Options::lifetime for this item (0 uses
  /// it); the override rides the whole async insert, so concurrent inserts
  /// with different lifetimes on one shared instance do not interfere.
  void Insert(uint64_t key, std::string value, DoneCallback done,
              TimeUs lifetime = 0);

  /// All items with exactly `key`.
  void LookupKey(uint64_t key, ItemsCallback cb);

  /// All items with lo <= key <= hi (inclusive).
  void RangeQuery(uint64_t lo, uint64_t hi, ItemsCallback cb);

  /// Bit-prefix of `key` of length `len` as a '0'/'1' string.
  std::string Label(uint64_t key, int len) const;

  const Options& options() const { return options_; }

 private:
  /// Trie-node markers are stored under two distinct suffixes so they are
  /// monotone: a split writes the interior marker, a (possibly concurrent)
  /// insert writes the leaf marker, and since the suffixes differ neither
  /// replaces the other. A node with an interior marker is interior forever
  /// (PHT splits are irreversible; there is no merge [59]), which makes the
  /// split protocol race-tolerant.
  static constexpr const char* kMetaLeaf = "!metaL";
  static constexpr const char* kMetaInterior = "!metaI";

  static bool IsMetaSuffix(const std::string& suffix) {
    return suffix == kMetaLeaf || suffix == kMetaInterior;
  }

  /// Find the leaf label covering `key` via binary search on prefix length.
  void FindLeaf(uint64_t key,
                std::function<void(const Result<std::string>&)> cb);

  /// Is the trie node `label` (a) absent, (b) a leaf, or (c) interior?
  enum class NodeKind { kAbsent, kLeaf, kInterior };
  void Probe(const std::string& label,
             std::function<void(NodeKind, std::vector<DhtItem>)> cb);

  /// Write (key, value) at trie node `label` under the stable `suffix`.
  /// The suffix is assigned once per logical item in Insert() and is carried
  /// through splits and races so that re-insertions replace (the object
  /// manager overwrites same-suffix puts) instead of duplicating.
  void InsertAtLeaf(const std::string& label, uint64_t key, std::string value,
                    std::string suffix, DoneCallback done, TimeUs lifetime);
  /// FindLeaf, then InsertAtLeaf at the leaf it names.
  void FindLeafAndInsert(uint64_t key, std::string value, std::string suffix,
                         DoneCallback done, TimeUs lifetime);
  void SplitLeaf(const std::string& label, std::vector<DhtItem> items,
                 DoneCallback done);
  void CollectRange(const std::string& label, uint64_t lo, uint64_t hi,
                    std::shared_ptr<std::vector<PhtItem>> acc,
                    std::shared_ptr<int> outstanding,
                    std::shared_ptr<ItemsCallback> cb);
  /// [min, max] key range covered by a trie node label.
  void LabelRange(const std::string& label, uint64_t* lo, uint64_t* hi) const;

  std::string EncodeItem(uint64_t key, std::string_view value,
                         TimeUs lifetime) const;
  static Result<PhtItem> DecodeItem(std::string_view wire);

  Dht* dht_;
  Options options_;
  /// Labels with a split in flight (suppresses concurrent re-splits).
  std::set<std::string> splitting_;
};

}  // namespace pier

#endif  // PIER_OVERLAY_PHT_H_
