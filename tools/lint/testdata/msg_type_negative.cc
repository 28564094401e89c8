// pier-lint-test: pretend-path=src/qp/msg_fixture.h
// pier-lint-test: type-table=msg_type_table.md
// Fixture: distinct, tabled type numbers lint clean. A kMsg constant that is
// not a uint8_t type byte, and mentions in comments and strings, are not type
// constants. (Fixtures are linted, never compiled.)

#include <cstddef>
#include <cstdint>

namespace pier {

class FixtureLayer {
 private:
  static constexpr uint8_t kMsgFixtureReq = 40;
  static constexpr uint8_t kMsgFixtureResp = 41;
  static constexpr size_t kMsgFixtureLimit = 40;
  // static constexpr uint8_t kMsgFixtureRetired = 40;
  const char* doc_ = "static constexpr uint8_t kMsgFixtureDoc = 41;";
};

}  // namespace pier
