// A robustness sweep for wire decoders: every truncation of a valid frame and
// a fixed set of seeded hostile bodies. The decoders must fail cleanly; the
// sanitizer build (-DPIER_SANITIZE=ON) turns any out-of-bounds read or
// undefined behaviour on these inputs into a test failure.

#ifndef PIER_TESTS_DECODER_FUZZ_H_
#define PIER_TESTS_DECODER_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/random.h"

namespace pier {

/// Calls `decode(body)` (returning true when the body decoded) on `frame` cut
/// at every byte offset, then on 1,000 bodies drawn from `seed`: half random
/// bytes, half `frame` with one to three bytes overwritten. Returns how many
/// of the cuts decoded, which is 0 for a self-delimiting frame.
template <typename Decode>
size_t FuzzDecoder(const std::string& frame, uint64_t seed, Decode decode) {
  size_t cuts_decoded = 0;
  for (size_t len = 0; len < frame.size(); ++len)
    cuts_decoded += decode(frame.substr(0, len)) ? 1 : 0;
  Rng rng(seed);
  for (int i = 0; i < 1000; ++i) {
    std::string body;
    if (i % 2 == 0 || frame.empty()) {
      body.resize(rng.Uniform(2 * frame.size() + 16));
      for (char& c : body) c = static_cast<char>(rng.Uniform(256));
    } else {
      body = frame;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n)
        body[rng.Uniform(body.size())] = static_cast<char>(rng.Uniform(256));
    }
    (void)decode(body);
  }
  return cuts_decoded;
}

}  // namespace pier

#endif  // PIER_TESTS_DECODER_FUZZ_H_
