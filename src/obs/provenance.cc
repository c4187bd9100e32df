#include "obs/provenance.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

namespace decaylib::obs {

namespace {

// First line of a shell command's stdout, trailing whitespace stripped;
// empty when the command cannot run or prints nothing.
std::string CommandLine(const char* command) {
  std::FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) return "";
  char buffer[256];
  std::string out;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) out = buffer;
  ::pclose(pipe);
  while (!out.empty() &&
         (out.back() == '\n' || out.back() == '\r' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Sanitizers the compiler exposes to the preprocessor.  UBSan defines no
// feature macro on either major compiler, so it cannot appear here; the
// address/thread/memory instrumentations (the ones that dominate timings)
// do.
std::string SanitizerList() {
#if defined(__has_feature)
#define DECAYLIB_HAS_FEATURE(x) __has_feature(x)
#else
#define DECAYLIB_HAS_FEATURE(x) 0
#endif
  std::string out;
  [[maybe_unused]] const auto add = [&out](const char* name) {
    if (!out.empty()) out += ",";
    out += name;
  };
#if defined(__SANITIZE_ADDRESS__)
  add("address");
#elif DECAYLIB_HAS_FEATURE(address_sanitizer)
  add("address");
#endif
#if defined(__SANITIZE_THREAD__)
  add("thread");
#elif DECAYLIB_HAS_FEATURE(thread_sanitizer)
  add("thread");
#endif
#if DECAYLIB_HAS_FEATURE(memory_sanitizer)
  add("memory");
#endif
#undef DECAYLIB_HAS_FEATURE
  return out.empty() ? "none" : out;
}

// The record's nine fields in document order: ToJson and FromJson both
// walk this list.  `P` is Provenance or const Provenance.
template <typename P, typename Visit>
void ForEachField(P& p, Visit&& visit) {
  visit("git_sha", p.git_sha);
  visit("git_dirty", p.git_dirty);
  visit("build_type", p.build_type);
  visit("compiler", p.compiler);
  visit("ndebug", p.ndebug);
  visit("sanitizers", p.sanitizers);
  visit("hardware_threads", p.hardware_threads);
  visit("hostname", p.hostname);
  visit("timestamp_utc", p.timestamp_utc);
}

}  // namespace

Provenance Provenance::Collect() {
  Provenance p;
  const std::string sha = CommandLine("git rev-parse HEAD 2>/dev/null");
  if (!sha.empty()) {
    p.git_sha = sha;
    p.git_dirty =
        !CommandLine("git status --porcelain 2>/dev/null | head -1").empty();
  }
#ifdef DECAYLIB_BUILD_TYPE
  p.build_type = DECAYLIB_BUILD_TYPE;
#endif
  p.compiler = CompilerId();
#ifdef NDEBUG
  p.ndebug = true;
#endif
  p.sanitizers = SanitizerList();
  p.hardware_threads = static_cast<int>(std::thread::hardware_concurrency());
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    p.hostname = host;
  }
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    char stamp[32];
    if (std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc) > 0) {
      p.timestamp_utc = stamp;
    }
  }
  return p;
}

io::Json Provenance::ToJson() const {
  io::Json out = io::Json::Object();
  ForEachField(*this, [&out](const char* key, const auto& value) {
    out.Put(key, value);
  });
  return out;
}

core::StatusOr<Provenance> Provenance::FromJson(const io::Json& json) {
  Provenance p;
  core::Status status;
  ForEachField(p, [&](const char* key, auto& value) {
    status.Update(json.Read(key, &value));
  });
  if (!status.ok()) {
    return core::Status::InvalidArgument("provenance: " + status.message());
  }
  return p;
}

}  // namespace decaylib::obs
