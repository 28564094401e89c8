// pier-lint-test: pretend-path=src/qp/option_fixture.h
// Fixture: every options field is assigned somewhere, through `.` or `->`
// (a designated initializer counts). A field whose type is an options struct
// is not judged itself, only its own fields are. Methods, static constants,
// nested types and a struct whose name does not end in Options are not
// settings. (Fixtures are linted, never compiled.)

#include <cstdint>
#include <string>

namespace pier {

class FixtureProcessor {
 public:
  struct Options {
    int replication_factor = 1;
    long coalesce_window_us = 0;
    static constexpr int kMaxHops = 64;
    enum class Kind { kA, kB };
    Kind kind = Kind::kA;
    bool Valid() const { return replication_factor > 0; }
    std::string Describe(int indent = 2) const;
  };
};

struct FixtureHarnessOptions {
  FixtureProcessor::Options processor;
  uint64_t seed = 1;
};

struct FixtureStats {
  uint64_t never_assigned = 0;
};

void Configure(FixtureHarnessOptions* h) {
  h->processor.replication_factor = 3;
  h->seed = 7;
  FixtureProcessor::Options o{.coalesce_window_us = 500};
  o.kind = FixtureProcessor::Options::Kind::kB;
}

}  // namespace pier
