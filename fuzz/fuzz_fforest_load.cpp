// Fuzz target: both model-file loaders (`vcaqoe-forest` node-tree text and
// `vcaqoe-forest-flat` columnar text).
//
// A corrupt or hostile model file must produce a std::runtime_error — never
// an out-of-bounds read, an unbounded allocation, or a hang (the corpus
// keeps `cyclic-tree.forest`, a self-referencing node that used to loop
// `DecisionTree::predict` forever). Anything that loads must be safely
// evaluable, and every input must load exactly as under the `istream >>`
// reference loaders (tests/serialize_reference.hpp): same accept/reject
// decision, same arrays bit for bit. Three rejections are stricter than
// the reference, and only those skip the comparison: the count bound below;
// a node-tree file of zero trees, which the reference loads as an unfitted
// forest whose `predict` throws std::logic_error (`trees-zero.forest`); and
// a flat file with a `layout` line after the task, whose `layout quantized`
// form the reference still loads (`quantized.fforest`).
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ml/flattened_forest.hpp"
#include "ml/serialize.hpp"
#include "tests/serialize_reference.hpp"

#define FUZZ_CHECK(cond) \
  do {                   \
    if (!(cond)) __builtin_trap(); \
  } while (0)

namespace {

/// True when the loader rejected a declared count whose payload cannot fit
/// in the bytes left. The reference loader zero-fills such a count's arrays
/// before reading them (up to 512 MiB for 2^24 nodes), so the differential
/// leg skips these inputs; the bound only fires where the reference fails
/// as truncated.
bool rejectedByCountBound(const std::runtime_error& e) {
  return std::string_view(e.what()).find("bytes left") !=
         std::string_view::npos;
}

/// True when the node-tree loader rejected a file declaring zero trees.
bool rejectedAsTreeless(const std::runtime_error& e) {
  return std::string_view(e.what()) == "model load: no trees";
}

/// True when the flat loader rejected a `layout` line.
bool rejectedLayoutLine(const std::runtime_error& e) {
  return std::string_view(e.what()) == "model load: unsupported layout line";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  bool treeBounded = false;
  try {
    std::istringstream in(text);
    const auto forest = vcaqoe::ml::loadForest(in);
    // Whatever loads must predict without hanging or reading out of
    // bounds, and must survive flattening (the lazy-load serving path).
    const std::vector<double> row(forest.featureNames().size(), 0.5);
    (void)forest.predict(row);
    const vcaqoe::ml::FlattenedForest flat(forest);
    FUZZ_CHECK(flat.trained());
    (void)flat.predict(row);
  } catch (const std::runtime_error& e) {
    // "model load: ..." — the documented rejection path.
    treeBounded = rejectedByCountBound(e) || rejectedAsTreeless(e);
  }

  bool flatBounded = false;
  try {
    std::istringstream in(text);
    const auto flat = vcaqoe::ml::loadFlattenedForest(in);
    const std::vector<double> row(flat.featureCount(), 0.5);
    (void)flat.predict(row);
  } catch (const std::runtime_error& e) {
    flatBounded = rejectedByCountBound(e) || rejectedLayoutLine(e);
  }

  // Differential leg: the one-pass parser makes the istream reference's
  // decision and, where both load, the same arrays bit for bit.
  if (!treeBounded) {
    FUZZ_CHECK(vcaqoe::ml::reference::treeDifference(text).empty());
  }
  if (!flatBounded) {
    FUZZ_CHECK(vcaqoe::ml::reference::flatDifference(text).empty());
  }
  return 0;
}
