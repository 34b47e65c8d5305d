#include "ml/serialize.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/parse.hpp"

namespace vcaqoe::ml {

namespace {

std::string escape(const std::string& name) {
  // Feature names may contain spaces; encode them to keep the format
  // whitespace-delimited.
  std::string out;
  for (const char c : name) {
    if (c == ' ') {
      out += "\\s";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape(std::string_view token) {
  std::string out;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] == '\\' && i + 1 < token.size()) {
      out += token[i + 1] == 's' ? ' ' : token[i + 1];
      ++i;
    } else {
      out += token[i];
    }
  }
  return out;
}

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("model load: " + what);
}

/// Whitespace as the "C" locale classifies it: what separates tokens.
constexpr bool isSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

constexpr bool isDigit(char c) { return c >= '0' && c <= '9'; }

/// Tokenizer over a whole model file held in one buffer. Numbers go
/// through `std::from_chars` straight into the caller's arrays, but the
/// reader accepts exactly what `std::istream >>` accepts in the "C" locale
/// and reads the same values, bit for bit (tests/serialize_reference.hpp
/// holds it to that), so no model file that loaded under an istream
/// parser loads differently:
/// - a word ends at whitespace; a number ends where its grammar does, so
///   the next token may follow with no space ("12abc" reads 12, then
///   "abc");
/// - a leading '+' is taken, "inf" and "nan" are not;
/// - an 'e' not followed by exponent digits is taken and fails the number
///   ("5end");
/// - a double that rounds to zero below the smallest denormal reads as
///   +/-0; one past the largest double fails;
/// - an unsigned count read with a '-' wraps modulo 2^64, as num_get does.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  std::size_t bytesLeft() const {
    return static_cast<std::size_t>(end_ - pos_);
  }

  bool word(std::string_view& out) {
    skipSpace();
    const char* first = pos_;
    while (pos_ != end_ && !isSpace(*pos_)) ++pos_;
    out = std::string_view(first, static_cast<std::size_t>(pos_ - first));
    return !out.empty();
  }

  bool number(std::int32_t& out) {
    skipSpace();
    const char* first = pos_;
    if (first != end_ && *first == '+') {
      ++first;
      if (first == end_ || !isDigit(*first)) return false;  // "+-1"
    }
    const auto [ptr, ec] = std::from_chars(first, end_, out);
    if (ec != std::errc()) return false;
    pos_ = ptr;
    return true;
  }

  bool number(std::size_t& out) {
    skipSpace();
    const char* first = pos_;
    const bool negative = first != end_ && *first == '-';
    if (first != end_ && (*first == '+' || negative)) ++first;
    std::size_t magnitude = 0;
    const auto [ptr, ec] = std::from_chars(first, end_, magnitude);
    if (ec != std::errc()) return false;
    out = negative ? 0 - magnitude : magnitude;
    pos_ = ptr;
    return true;
  }

  bool number(double& out) {
    skipSpace();
    const char* first = pos_;
    const char* body =
        first != end_ && (*first == '+' || *first == '-') ? first + 1 : first;
    if (body == end_ || !(isDigit(*body) || *body == '.')) return false;
    if (*first == '+') first = body;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, end_, value);
    if (ec == std::errc::invalid_argument) return false;
    const std::string_view token(first, static_cast<std::size_t>(ptr - first));
    if (ptr != end_ && (*ptr == 'e' || *ptr == 'E') &&
        token.find_first_of("eE") == std::string_view::npos) {
      return false;
    }
    if (ec == std::errc::result_out_of_range) {
      value = common::outOfRangeDouble(token);
      if (std::isinf(value)) return false;
    }
    out = value;
    pos_ = ptr;
    return true;
  }

 private:
  void skipSpace() {
    while (pos_ != end_ && isSpace(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
};

/// Count-vs-payload guard: a file whose declared tree/node counts
/// undershoot the payload would otherwise silently construct a truncated
/// forest and leave the rest of the file on the floor.
void rejectTrailingPayload(TokenReader& in) {
  std::string_view extra;
  if (in.word(extra)) {
    malformed("trailing payload past declared counts ('" + std::string(extra) +
              "')");
  }
}

/// Declared counts size vectors before any payload is read, so a count is
/// bounded before it allocates:
/// - by an absolute cap (2^24), far above any real model;
/// - by the bytes left in the file. Each of an element's `tokensEach`
///   tokens takes at least two bytes (a separator, or the sign or point
///   that starts it, and one character), so an 85-byte file declaring 2^24
///   nodes fails here instead of zero-filling 320 MiB first.
void checkDeclaredCount(std::size_t count, const char* what,
                        std::size_t tokensEach, const TokenReader& in) {
  constexpr std::size_t kMaxDeclaredCount = std::size_t{1} << 24;
  if (count > kMaxDeclaredCount) {
    malformed(std::string("absurd declared ") + what + " count " +
              std::to_string(count));
  }
  if (2 * tokensEach * count > in.bytesLeft()) {
    malformed(std::string("declared ") + what + " count " +
              std::to_string(count) + " exceeds the " +
              std::to_string(in.bytesLeft()) + " bytes left");
  }
}

/// The lines both formats open with: magic and version, then the task.
TreeTask readHeader(TokenReader& in, std::string_view expectedMagic) {
  std::string_view magic;
  std::int32_t version = 0;
  if (!in.word(magic) || !in.number(version)) malformed("missing header");
  if (magic != expectedMagic) {
    malformed("bad magic '" + std::string(magic) + "'");
  }
  if (version != kModelFormatVersion) {
    malformed("unsupported version " + std::to_string(version));
  }
  std::string_view key;
  std::string_view taskName;
  if (!in.word(key) || !in.word(taskName) || key != "task") {
    malformed("missing task");
  }
  if (taskName == "regression") return TreeTask::kRegression;
  if (taskName == "classification") return TreeTask::kClassification;
  malformed("unknown task '" + std::string(taskName) + "'");
}

/// The whole input in one buffer: a file in one read of its size, a stream
/// copied out of its buffer. The parse runs on the buffer, which is freed
/// when the load returns.
std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in;
  in.rdbuf()->pubsetbuf(nullptr, 0);  // the read lands straight in `text`
  in.open(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text(std::filesystem::file_size(path), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

std::string readStream(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

}  // namespace

void saveForest(const RandomForest& forest, std::ostream& out) {
  if (!forest.trained()) {
    throw std::logic_error("saveForest: forest is untrained");
  }
  out << "vcaqoe-forest " << kModelFormatVersion << '\n';
  out << "task " << (forest.task() == TreeTask::kRegression ? "regression"
                                                            : "classification")
      << '\n';
  out << std::setprecision(17);

  const auto& names = forest.featureNames();
  out << "features " << names.size();
  for (const auto& name : names) out << ' ' << escape(name);
  out << '\n';

  const auto importance = forest.featureImportance();
  out << "importance " << importance.size();
  for (const double v : importance) out << ' ' << v;
  out << '\n';

  out << "trees " << forest.treeCount() << '\n';
  for (const auto& tree : forest.trees()) {
    const auto& nodes = tree.nodes();
    out << "tree " << nodes.size() << '\n';
    for (const auto& node : nodes) {
      out << node.featureIndex << ' ' << node.threshold << ' ' << node.left
          << ' ' << node.right << ' ' << node.value << '\n';
    }
  }
  if (!out) throw std::runtime_error("saveForest: stream write failed");
}

void saveForestFile(const RandomForest& forest, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("saveForest: cannot open " + path);
  saveForest(forest, out);
}

namespace {

RandomForest parseForest(std::string_view text) {
  TokenReader in(text);
  const TreeTask task = readHeader(in, "vcaqoe-forest");

  std::string_view key;
  std::size_t nameCount = 0;
  if (!in.word(key) || !in.number(nameCount) || key != "features") {
    malformed("missing features");
  }
  checkDeclaredCount(nameCount, "feature", 1, in);
  std::vector<std::string> names(nameCount);
  for (auto& name : names) {
    std::string_view token;
    if (!in.word(token)) malformed("truncated feature names");
    name = unescape(token);
  }

  std::size_t importanceCount = 0;
  if (!in.word(key) || !in.number(importanceCount) || key != "importance") {
    malformed("missing importance");
  }
  checkDeclaredCount(importanceCount, "importance", 1, in);
  std::vector<double> importance(importanceCount);
  for (auto& v : importance) {
    if (!in.number(v)) malformed("truncated importance");
  }

  std::size_t treeCount = 0;
  if (!in.word(key) || !in.number(treeCount) || key != "trees") {
    malformed("missing trees");
  }
  // A forest without trees predicts nothing (`saveForest` never writes one).
  if (treeCount == 0) malformed("no trees");
  // A tree is at least its `tree` keyword, its count and one node.
  checkDeclaredCount(treeCount, "tree", 7, in);
  std::vector<DecisionTree> trees;
  trees.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t) {
    std::size_t nodeCount = 0;
    if (!in.word(key) || !in.number(nodeCount) || key != "tree") {
      malformed("missing tree");
    }
    checkDeclaredCount(nodeCount, "node", 5, in);
    if (nodeCount == 0) malformed("empty tree");
    std::vector<DecisionTree::Node> nodes(nodeCount);
    for (auto& node : nodes) {
      if (!in.number(node.featureIndex) || !in.number(node.threshold) ||
          !in.number(node.left) || !in.number(node.right) ||
          !in.number(node.value)) {
        malformed("truncated tree nodes");
      }
      const auto limit = static_cast<std::int32_t>(nodeCount);
      if (node.featureIndex >= 0 &&
          (node.left < 0 || node.left >= limit || node.right < 0 ||
           node.right >= limit ||
           node.featureIndex >= static_cast<std::int32_t>(nameCount))) {
        malformed("node references out of range");
      }
    }
    // Children must point strictly forward (training emits parents before
    // children, so every well-formed file satisfies this). Range checks
    // alone admit cycles — e.g. node 0 with left == right == 0 — which
    // would hang `DecisionTree::predict` and the flattening pass forever
    // on a corrupt or hostile model file.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& node = nodes[i];
      const auto self = static_cast<std::int32_t>(i);
      if (node.featureIndex >= 0 && (node.left <= self || node.right <= self)) {
        malformed("node child references do not point forward (cycle)");
      }
    }
    trees.push_back(DecisionTree::fromNodes(std::move(nodes), task, {}));
  }
  rejectTrailingPayload(in);
  return RandomForest::fromParts(task, std::move(names), std::move(trees),
                                 std::move(importance));
}

}  // namespace

RandomForest loadForest(std::istream& in) {
  return parseForest(readStream(in));
}

RandomForest loadForestFile(const std::string& path) {
  const auto text = readFile(path);
  if (!text) throw std::runtime_error("loadForest: cannot open " + path);
  return parseForest(*text);
}

std::optional<RandomForest> tryLoadForestFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  const auto text = readFile(path);
  if (!text) return std::nullopt;
  return parseForest(*text);
}

void saveFlattenedForest(const FlattenedForest& forest, std::ostream& out) {
  if (!forest.trained()) {
    throw std::logic_error("saveFlattenedForest: forest is untrained");
  }
  out << "vcaqoe-forest-flat " << kModelFormatVersion << '\n';
  out << "task "
      << (forest.task() == TreeTask::kRegression ? "regression"
                                                 : "classification")
      << '\n';
  out << std::setprecision(17);
  out << "features " << forest.featureCount() << '\n';

  out << "roots " << forest.treeCount();
  for (const auto root : forest.roots()) out << ' ' << root;
  out << '\n';

  out << "nodes " << forest.internalNodeCount() << '\n';
  for (std::size_t i = 0; i < forest.internalNodeCount(); ++i) {
    out << forest.feature()[i] << ' ' << forest.threshold()[i] << ' '
        << forest.left(i) << ' ' << forest.right(i) << '\n';
  }

  out << "leaves " << forest.leafCount();
  for (const auto value : forest.leafValue()) out << ' ' << value;
  out << "\nend\n";
  if (!out) throw std::runtime_error("saveFlattenedForest: write failed");
}

void saveFlattenedForestFile(const FlattenedForest& forest,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("saveFlattenedForest: cannot open " + path);
  saveFlattenedForest(forest, out);
}

namespace {

FlattenedForest parseFlattenedForest(std::string_view text) {
  TokenReader in(text);
  const TreeTask task = readHeader(in, "vcaqoe-forest-flat");

  // The format has one layout. Files saved with the old opt-in quantized
  // layout carry a `layout` line here; name it in the rejection instead of
  // reporting a missing features line.
  std::string_view key;
  if (!in.word(key)) malformed("missing features");
  if (key == "layout") malformed("unsupported layout line");
  std::size_t featureCount = 0;
  if (!in.number(featureCount) || key != "features") {
    malformed("missing features");
  }
  checkDeclaredCount(featureCount, "feature", 0, in);

  std::size_t treeCount = 0;
  if (!in.word(key) || !in.number(treeCount) || key != "roots") {
    malformed("missing roots");
  }
  checkDeclaredCount(treeCount, "root", 1, in);
  std::vector<std::int32_t> roots(treeCount);
  for (auto& root : roots) {
    if (!in.number(root)) malformed("truncated roots");
  }

  std::size_t nodeCount = 0;
  if (!in.word(key) || !in.number(nodeCount) || key != "nodes") {
    malformed("missing nodes");
  }
  checkDeclaredCount(nodeCount, "node", 4, in);
  std::vector<std::int32_t> feature(nodeCount);
  std::vector<double> threshold(nodeCount);
  std::vector<std::int32_t> left(nodeCount);
  std::vector<std::int32_t> right(nodeCount);
  for (std::size_t i = 0; i < nodeCount; ++i) {
    if (!in.number(feature[i]) || !in.number(threshold[i]) ||
        !in.number(left[i]) || !in.number(right[i])) {
      malformed("truncated nodes");
    }
  }

  std::size_t leafCount = 0;
  if (!in.word(key) || !in.number(leafCount) || key != "leaves") {
    malformed("missing leaves (declared node count disagrees with payload)");
  }
  checkDeclaredCount(leafCount, "leaf", 1, in);
  std::vector<double> leafValue(leafCount);
  for (auto& value : leafValue) {
    if (!in.number(value)) malformed("truncated leaves");
  }

  if (!in.word(key) || key != "end") {
    malformed("missing end (declared leaf count disagrees with payload)");
  }
  rejectTrailingPayload(in);

  try {
    return FlattenedForest::fromParts(
        task, featureCount, std::move(roots), std::move(feature),
        std::move(threshold), std::move(left), std::move(right),
        std::move(leafValue));
  } catch (const std::invalid_argument& e) {
    malformed(e.what());
  }
}

}  // namespace

FlattenedForest loadFlattenedForest(std::istream& in) {
  return parseFlattenedForest(readStream(in));
}

FlattenedForest loadFlattenedForestFile(const std::string& path) {
  const auto text = readFile(path);
  if (!text) {
    throw std::runtime_error("loadFlattenedForest: cannot open " + path);
  }
  return parseFlattenedForest(*text);
}

std::optional<FlattenedForest> tryLoadFlattenedForestFile(
    const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  const auto text = readFile(path);
  if (!text) return std::nullopt;
  return parseFlattenedForest(*text);
}

}  // namespace vcaqoe::ml
