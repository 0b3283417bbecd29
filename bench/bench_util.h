// Shared plumbing for the table/figure reproduction binaries.
//
// The paper measured each query five times, dropped the lowest and highest
// readings, and averaged the remaining three (Section 7); Repeated() does
// the same.

#ifndef COLORFUL_XML_BENCH_BENCH_UTIL_H_
#define COLORFUL_XML_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mct::bench {

/// Runs `fn` (which returns elapsed seconds) `total` times, drops the min
/// and max, and returns the mean of the rest — the paper's measurement
/// protocol.
inline double Repeated(const std::function<double()>& fn, int total = 5) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) times.push_back(fn());
  std::sort(times.begin(), times.end());
  double sum = 0;
  int used = 0;
  for (int i = 1; i + 1 < total; ++i) {
    sum += times[static_cast<size_t>(i)];
    ++used;
  }
  return used > 0 ? sum / used : times[0];
}

inline constexpr std::string_view kScaleFlag = "--scale=";

/// A `--scale=` value: a positive finite number, else nullopt.
inline std::optional<double> ParseScale(std::string_view text) {
  std::string buf(text);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (buf.empty() || end != buf.c_str() + buf.size() || !std::isfinite(v) ||
      v <= 0) {
    return std::nullopt;
  }
  return v;
}

/// Rejects arguments the binary does not understand. Each argv entry must
/// match one of `flags`: exactly ("--check"), or by prefix when the flag
/// ends in '=' ("--scale=", "--seed="). A `--scale=` value must be a
/// positive number and a `--seed=` value an unsigned integer. On any
/// violation prints the usage line to stderr and exits 2, before any work
/// starts.
inline void CheckArgs(int argc, char** argv,
                      std::initializer_list<std::string_view> flags) {
  auto reject = [&](const std::string& why) {
    std::fprintf(stderr, "%s: %s\nusage: %s", argv[0], why.c_str(), argv[0]);
    for (std::string_view f : flags) {
      std::fprintf(stderr, " [%.*s%s]", static_cast<int>(f.size()), f.data(),
                   f.ends_with('=') ? "<value>" : "");
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto known = std::find_if(flags.begin(), flags.end(), [&](auto f) {
      return f.ends_with('=') ? arg.starts_with(f) : arg == f;
    });
    if (known == flags.end()) {
      reject("unknown argument '" + std::string(arg) + "'");
    }
    const std::string_view value = arg.substr(arg.find('=') + 1);
    if (arg.starts_with(kScaleFlag) && !ParseScale(value).has_value()) {
      reject("--scale needs a positive number, got '" + std::string(value) +
             "'");
    }
    if (arg.starts_with("--seed=") &&
        (value.empty() ||
         value.find_first_not_of("0123456789") != std::string_view::npos)) {
      reject("--seed needs an unsigned integer, got '" + std::string(value) +
             "'");
    }
  }
}

/// The "--scale=0.25" style factor from argv (default `fallback`): lets
/// the whole suite run quickly on small machines without editing code.
/// Callers validate argv with CheckArgs first.
inline double ScaleFromArgs(int argc, char** argv, double fallback = 1.0) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kScaleFlag)) {
      return ParseScale(arg.substr(kScaleFlag.size())).value_or(fallback);
    }
  }
  return fallback;
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// True when `flag` (e.g. "--trace") appears in argv.
inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

}  // namespace mct::bench

#endif  // COLORFUL_XML_BENCH_BENCH_UTIL_H_
