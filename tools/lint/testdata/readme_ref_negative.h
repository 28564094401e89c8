// pier-lint-test: readme=readme_ref_negative.md
// Fixture: every class member and path the markdown file cites resolves. The
// fixture is the only header the members are looked up in, and this
// directory stands in for the checkout. (Fixtures are linted, never
// compiled.)

#include <cstdint>
#include <string>

namespace pier {

class FixtureRouter {
 public:
  struct Options {
    uint16_t port = 5000;
  };
  void SendFramed(const std::string& framed);
  static constexpr uint8_t kMsgFixtureRoute = 2;
};

}  // namespace pier
