// Fixture data for readme-ref's test citations: the test file the
// readme_ref_*.md fixtures cite as `test_fixture_cites`. Its suite and test
// names resolve; a name only a comment mentions, GoneScenario, does not.
// (Read by the selftest, never compiled or linted as a fixture.)

#include <gtest/gtest.h>

namespace pier {
namespace {

TEST(FixtureSuite, KeptScenario) {}

}  // namespace
}  // namespace pier
