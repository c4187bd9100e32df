// decay_lint coverage: every rule firing and staying quiet on committed
// fixtures, the suppression grammar, and -- the gate that matters -- the real
// src/ tree passing clean.  The fixtures under tools/lint/fixtures/ are
// self-describing: a `decay-lint-path:` directive pins the label the
// path-scoped allowlists see, and `// expect: <rule> @ <line>` comments
// enumerate the exact findings the linter must produce (none for good_*).
#include "decay_lint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path FixtureDir() {
  return fs::path(DECAYLIB_SOURCE_DIR) / "tools" / "lint" / "fixtures";
}

using RuleLine = std::pair<std::string, int>;

std::multiset<RuleLine> ExpectedFindings(const std::string& content) {
  std::multiset<RuleLine> expected;
  static const std::regex kExpectRe(R"(// expect: (\S+) @ (\d+))");
  for (auto it = std::sregex_iterator(content.begin(), content.end(),
                                      kExpectRe);
       it != std::sregex_iterator(); ++it) {
    expected.insert({(*it)[1].str(), std::stoi((*it)[2].str())});
  }
  return expected;
}

std::multiset<RuleLine> ActualFindings(
    const std::vector<decaylint::Finding>& findings) {
  std::multiset<RuleLine> actual;
  for (const decaylint::Finding& f : findings) actual.insert({f.rule, f.line});
  return actual;
}

std::string Render(const std::vector<decaylint::Finding>& findings) {
  std::string out;
  for (const decaylint::Finding& f : findings) {
    out += decaylint::FormatFinding(f) + "\n";
  }
  return out;
}

// Each fixture's findings must match its expect: manifest exactly -- same
// rules, same lines, nothing extra.  This is the per-rule demonstration the
// CI gate relies on: every rule provably fires, and every suppression
// mechanism provably suppresses.
TEST(DecayLint, FixturesMatchTheirManifests) {
  int fixtures = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(FixtureDir())) {
    if (entry.path().extension() != ".cc") continue;
    ++fixtures;
    const std::string content = ReadFile(entry.path());
    const std::vector<decaylint::Finding> findings =
        decaylint::LintContent(entry.path().filename().string(), content);
    EXPECT_EQ(ActualFindings(findings), ExpectedFindings(content))
        << "fixture " << entry.path().filename() << " produced:\n"
        << Render(findings);
    const bool is_good =
        entry.path().filename().string().rfind("good_", 0) == 0;
    if (is_good) {
      EXPECT_TRUE(findings.empty())
          << entry.path().filename() << " is a good_* fixture but fired:\n"
          << Render(findings);
    } else {
      EXPECT_FALSE(findings.empty())
          << entry.path().filename()
          << " is a bad_* fixture but produced no findings";
    }
  }
  // All six rules are covered by at least one bad_* fixture plus the three
  // good_* suppression/allowlist fixtures.
  EXPECT_GE(fixtures, 9);
}

// The real tree is the product: src/ must lint clean, or the ctest/CI gate
// (decay_lint --root src) would be red.
TEST(DecayLint, RealSourceTreePassesClean) {
  std::vector<decaylint::Finding> findings;
  std::string error;
  ASSERT_TRUE(decaylint::LintTree(
      (fs::path(DECAYLIB_SOURCE_DIR) / "src").string(), &findings, &error))
      << error;
  EXPECT_TRUE(findings.empty()) << Render(findings);
}

// Acceptance demo: deliberately inject an unordered-iteration feeding a
// signature accumulator and verify the gate catches it.  This is the exact
// bug class the determinism discipline exists for -- iteration order of an
// unordered container differing across standard libraries (or runs) would
// silently change SweepSignature.
TEST(DecayLint, InjectedUnorderedIterationIntoSignatureFails) {
  const std::string injected = R"cc(
#include <string>
#include <unordered_map>

std::string SweepSignature(const std::unordered_map<int, double>& cells) {
  std::unordered_map<int, double> acc = cells;
  std::string signature;
  for (const auto& [cell, value] : acc) signature += std::to_string(value);
  return signature;
}
)cc";
  const std::vector<decaylint::Finding> findings =
      decaylint::LintContent("src/sweep/sweep.cc", injected);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "unordered-iteration");
}

// The remaining rules, exercised through an injected violation each, at a
// path where the rule is live.
TEST(DecayLint, InjectedViolationsPerRule) {
  struct Case {
    const char* label;
    const char* code;
    const char* rule;
  };
  const Case cases[] = {
      {"src/capacity/algorithm1.cc", "double f(double d) { return std::pow(d, 2.0); }",
       "exactness-pow"},
      {"src/graph/graph.cc", "void f() { std::printf(\"x\"); }", "status-io"},
      {"src/dynamics/queue_system.cc", "void f() { std::thread t([]{}); }",
       "naked-thread"},
      {"src/io/json.cc",
       "auto f() { return std::chrono::steady_clock::now(); }", "clock-read"},
      {"src/sinr/power_control.cc",
       "[[gnu::target(\"avx2,fma\")]] double f(double a, double b) "
       "{ return a * b + a; }",
       "fp-contract-target"},
      {"src/sinr/kernel.cc",
       "double f(double a, double b) { return std::fma(a, b, a); }",
       "fp-contract-target"},
  };
  for (const Case& c : cases) {
    const std::vector<decaylint::Finding> findings =
        decaylint::LintContent(c.label, c.code);
    ASSERT_EQ(findings.size(), 1u) << c.rule << ":\n" << Render(findings);
    EXPECT_EQ(findings[0].rule, c.rule);
  }
}

// The same constructs at their designated homes do not fire.
TEST(DecayLint, DesignatedHomesStayQuiet) {
  EXPECT_TRUE(decaylint::LintContent(
                  "src/sinr/farfield.cc",
                  "double f(double d, double a) { return std::pow(d, a); }")
                  .empty());
  EXPECT_TRUE(decaylint::LintContent(
                  "src/engine/batch_runner.cc",
                  "void f() { std::thread t([]{}); t.join(); }")
                  .empty());
  EXPECT_TRUE(decaylint::LintContent(
                  "src/obs/trace.cc",
                  "auto f() { return std::chrono::steady_clock::now(); }")
                  .empty());
  EXPECT_TRUE(decaylint::LintContent(
                  "src/engine/report.cc", "void f() { std::printf(\"t\"); }")
                  .empty());
}

// Comments and string literals never trigger rules; suppression comments
// only work as comments.
TEST(DecayLint, LexicalStrippingAndSuppressionGrammar) {
  EXPECT_TRUE(decaylint::LintContent("src/capacity/weighted.cc",
                                     "// std::pow is discussed here only\n"
                                     "/* printf(\"x\") */\n"
                                     "const char* s = \"std::abort()\";\n")
                  .empty());
  // Same-line and previous-line allow.
  EXPECT_TRUE(
      decaylint::LintContent(
          "src/capacity/weighted.cc",
          "double f(double d) { return std::pow(d, 2.0); }  "
          "// decay-lint: allow(exactness-pow) -- reason\n")
          .empty());
  EXPECT_TRUE(decaylint::LintContent(
                  "src/capacity/weighted.cc",
                  "// decay-lint: allow(exactness-pow) -- reason\n"
                  "double f(double d) { return std::pow(d, 2.0); }\n")
                  .empty());
  // An allow() for a different rule does not suppress.
  EXPECT_FALSE(decaylint::LintContent(
                   "src/capacity/weighted.cc",
                   "// decay-lint: allow(clock-read)\n"
                   "double f(double d) { return std::pow(d, 2.0); }\n")
                   .empty());
}

TEST(DecayLint, RuleCatalogueListsAllSixRules) {
  const std::vector<decaylint::RuleInfo> rules = decaylint::Rules();
  std::set<std::string> ids;
  for (const decaylint::RuleInfo& r : rules) ids.insert(r.id);
  const std::set<std::string> expected = {
      "exactness-pow", "status-io", "unordered-iteration", "naked-thread",
      "clock-read", "fp-contract-target"};
  EXPECT_EQ(ids, expected);
}

TEST(DecayLint, FormatFindingIsGrepAndEditorFriendly) {
  const decaylint::Finding f{"src/a.cc", 7, "status-io", "msg"};
  EXPECT_EQ(decaylint::FormatFinding(f), "src/a.cc:7: [status-io] msg");
}

}  // namespace
