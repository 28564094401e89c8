// pier-lint-test: pretend-path=src/apps/msg_fixture.h
// pier-lint-test: type-table=msg_type_table.md
// Fixture: application-level message types (src/apps, e.g. the Gnutella
// overlay's) are their own number space: repeated and untabled numbers there
// lint clean. (Fixtures are linted, never compiled.)

#include <cstdint>

namespace pier {

class FixtureApp {
 private:
  static constexpr uint8_t kMsgQuery = 1;
  static constexpr uint8_t kMsgHit = 1;
};

}  // namespace pier
