// pier-lint-test: pretend-path=src/apps/option_fixture.h
// Fixture: unset-option judges src/runtime, src/overlay and src/qp only; an
// application's options struct elsewhere is not checked. (Fixtures are
// linted, never compiled.)

namespace pier {

struct FixtureCorpusOptions {
  int vocab_size = 2000;
};

}  // namespace pier
