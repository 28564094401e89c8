// pier-lint-test: pretend-path=src/overlay/option_fixture.h
// Fixture: options fields that nothing assigns. A comparison, a read, a
// mention in a comment or a string, and an assignment to another struct's
// differently named field do not set a field. A nested options struct is
// judged through its own fields. (Fixtures are linted, never compiled.)

#include <cstdint>
#include <string>

namespace pier {

class FixtureRouter {
 public:
  struct Options {
    int port = 5000;
    int max_hops = 64;  // expect: unset-option
    uint64_t id_salt{0};  // expect: unset-option
  };
};

struct FixtureOptions {
  FixtureRouter::Options router;
  std::string name = "tree0";  // expect: unset-option
  long timeout = 10 * 1000;  // expect: unset-option
};

void Configure(FixtureOptions* o, const FixtureRouter::Options& r) {
  o->router.port = 4000;
  bool same = r.max_hops == 64;  // a comparison, not an assignment
  int hops = r.max_hops;
  // o->timeout = 5;
  const char* doc = "o.name = x";
  other.salt = 1;
  (void)same;
  (void)hops;
  (void)doc;
}

}  // namespace pier
