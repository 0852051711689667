// corrmap_perfbench: runs one workload and prints one JSON line with its
// verdict, per-op counts, end-to-end metrics and layer counters.
//
//   corrmap_perfbench --workload cm_select|crud_churn|routed_scatter
//                     [--seed N] [--seconds S] [--setups K]
//                     [--trace-out spans.tsv] [--check-all] [--small]
//                     [--inject wrong_count|drop_row]
//
// perfbench/run.py builds this binary and wraps it in the benchmark's
// command-line contract; the exit code is 0 only for a correct run.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

template <typename Map, typename Fn>
std::string JsonObject(const Map& m, Fn value) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + value(v);
  }
  return out + "}";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "corrmap_perfbench: %s\nusage: corrmap_perfbench --workload "
               "cm_select|crud_churn|routed_scatter [--seed N] [--seconds S] "
               "[--setups K] [--trace-out FILE] [--check-all] [--small] "
               "[--inject wrong_count|drop_row]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value after " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      config.workload = next();
    } else if (a == "--seed") {
      config.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      config.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--setups") {
      config.setups = std::atoi(next().c_str());
    } else if (a == "--trace-out") {
      config.trace_out = next();
    } else if (a == "--check-all") {
      config.check_all = true;
    } else if (a == "--small") {
      config.small = true;
    } else if (a == "--inject") {
      config.inject = next();
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (config.inject != "" && config.inject != "wrong_count" &&
      config.inject != "drop_row") {
    Usage("unknown --inject");
  }

  perfbench::Report report;
  if (config.workload == "cm_select") {
    report = perfbench::RunCmSelect(config);
  } else if (config.workload == "crud_churn") {
    report = perfbench::RunCrudChurn(config);
  } else if (config.workload == "routed_scatter") {
    report = perfbench::RunRoutedScatter(config);
  } else {
    Usage("unknown --workload");
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& [name, n] : report.ops) {
    attempted += n.attempted;
    failed += n.failed;
  }
  const bool correct = report.errors.empty() && failed == 0;
  std::string errors = "[";
  for (const std::string& e : report.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += JsonString(e);
  }
  errors += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"reference_rounds\": %zu, \"ops\": %s, \"metrics\": %s, "
      "\"layer\": %s, \"bases\": %s, \"errors\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), report.reference_rounds,
      JsonObject(report.ops,
                 [](const perfbench::OpCount& n) {
                   return "{\"attempted\": " + std::to_string(n.attempted) +
                          ", \"failed\": " + std::to_string(n.failed) + "}";
                 })
          .c_str(),
      JsonObject(report.metrics, JsonNumber).c_str(),
      JsonObject(report.layer, JsonNumber).c_str(),
      JsonObject(report.bases, JsonString).c_str(), errors.c_str());
  return correct ? 0 : 1;
}
