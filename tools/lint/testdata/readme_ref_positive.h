// pier-lint-test: readme=readme_ref_positive.md
// Fixture: the markdown file cites a deleted member, a member of a class no
// header defines, a nested member that is gone, and paths that name no file.
// (Fixtures are linted, never compiled.)

#include <string>

namespace pier {

class FixtureRouter {
 public:
  struct Options {
    int port = 5000;
  };
  // SendDirect is gone; a comment naming it does not count.
  void SendFramed(const std::string& framed);
};

}  // namespace pier
