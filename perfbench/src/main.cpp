// perfbench: runs one named workload of the bufferq benchmark and prints
// its result as one JSON line on stdout.
//
//   perfbench --workload=NAME --seed=N --seconds=S [--trace=0|1]
//             [--smoke] [--inject=counter|digest]
//
// Exit codes: 0 with a result (check "failed" for wrong outputs), 2 for
// bad arguments, 1 when a workload could not run.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Parses a whole unsigned decimal string; throws on anything else.
std::uint64_t parse_seed(const std::string& text) {
  if (text.empty() || text.size() > 19 || text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("--seed must be a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

double parse_seconds(const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || !(value > 0.0) || value > 120.0) {
    throw std::invalid_argument("--seconds must be a number in (0, 120], got '" + text + "'");
  }
  return value;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = parse_seed(value);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = parse_seconds(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (key == "--inject") {
      o.inject = value;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload || !have_seed) throw std::invalid_argument("--workload and --seed are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  std::printf("{\"workload\": \"%s\", \"attempted\": %llu, \"failed\": %llu, \"metrics\": [",
              json_escape(options.workload).c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    std::printf("%s{\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", \"samples\": %llu}",
                i == 0 ? "" : ", ", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("]}\n");
  return 0;
}
