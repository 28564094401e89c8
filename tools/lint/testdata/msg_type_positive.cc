// pier-lint-test: pretend-path=src/overlay/msg_fixture.h
// pier-lint-test: type-table=msg_type_table.md
// Fixture: a direct-message type number used twice, and a type constant the
// README table does not list. (Fixtures are linted, never compiled.)

#include <cstdint>

namespace pier {

class FixtureLayer {
 private:
  static constexpr uint8_t kMsgFixtureReq = 40;
  static constexpr uint8_t kMsgFixtureResp = 41;
  static constexpr uint8_t kMsgFixtureEcho = 40;  // expect: msg-type
  static constexpr uint8_t kMsgFixtureUntabled = 42;  // expect: msg-type
};

}  // namespace pier
