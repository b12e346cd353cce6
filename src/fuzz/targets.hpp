// The fuzz target registry: one entry per wire decoder in the library, plus
// one for the lane bookkeeping of crypto::MacBatch.
//
// Each target wraps a decoder in its oracle: run(input) feeds the decoder
// attacker-shaped bytes, FUZZ_CHECKs the decoder's contract (never read out
// of bounds -- the sanitizers watch that; never accept a non-canonical
// encoding -- the encode(parse(x)) == x round trip watches that; agree with
// any sibling implementation -- the differential checks watch that), and
// returns whether the decoder *accepted* the input, which the driver uses
// as pool feedback. seeds() produces valid wires via the real encoders, so
// exploration starts from structure instead of noise.
//
// The same table backs the deterministic in-repo driver (ctest -L fuzz),
// the libFuzzer entry points (FBS_FUZZ=ON, Clang), and the checked-in
// regression corpus replay.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace fbs::fuzz {

struct FuzzTarget {
  std::string name;
  /// Feed one input; returns true when the decoder accepted it. Must never
  /// crash or trip a sanitizer on any byte string; FUZZ_CHECK failures
  /// abort with the offending input.
  std::function<bool(util::BytesView)> run;
  /// Structure-aware starting points built with the real encoders.
  std::function<std::vector<util::Bytes>()> seeds;
};

/// Every registered target, in a stable order.
const std::vector<FuzzTarget>& all_targets();

/// Lookup by name; nullptr when unknown.
const FuzzTarget* find_target(std::string_view name);

}  // namespace fbs::fuzz
