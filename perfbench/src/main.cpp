// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <paper_run|zoo_sweep|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> --reference-dir <dir>
//             --work-dir <dir> [--write-reference]
//
// Untraced runs print every end-to-end metric; traced runs print every
// per-layer metric. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status: 0 when every output matched its pinned reference, 1 when
// some did not, 2 on bad arguments or a run that could not finish.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::exact;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <paper_run|zoo_sweep|serve_mix> "
               "--seed <n> --seconds <s> --trace <0|1> --reference-dir <dir> "
               "--work-dir <dir> [--write-reference]\n";
  std::exit(2);
}

perfbench::RunConfig parse_args(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      config.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--reference-dir") {
        config.reference_dir = value;
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (config.workload.empty()) usage("--workload is required");
  if (!have_seed && !config.write_reference) usage("--seed is required");
  if (!(config.seconds > 0.0) || config.seconds > 60.0) {
    usage("--seconds must be in (0, 60]");
  }
  if (config.reference_dir.empty() || config.work_dir.empty()) {
    usage("--reference-dir and --work-dir are required");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunConfig config = parse_args(argc, argv);
  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(config.work_dir);
    if (config.workload == "paper_run") {
      perfbench::run_paper(config, &outcome);
    } else if (config.workload == "zoo_sweep") {
      perfbench::run_zoo(config, &outcome);
    } else if (config.workload == "serve_mix") {
      perfbench::run_serve(config, &outcome);
    } else {
      usage("unknown workload " + config.workload);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << config.workload << " failed: " << error.what()
              << "\n";
    return 2;
  }

  const std::uint64_t attempted = outcome.checks.attempted();
  const std::uint64_t failed = outcome.checks.failed();
  for (const std::string& failure : outcome.checks.failures()) {
    std::cerr << "perfbench: output check failed: " << failure << "\n";
  }
  if (config.write_reference) {
    std::cerr << "perfbench: wrote " << config.reference_dir << "/"
              << config.workload << ".ref\n";
    return 0;
  }
  if (attempted == 0) {
    std::cerr << "perfbench: no operation was checked\n";
    return 2;
  }
  const double error_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  outcome.metrics["error_ratio"] = error_ratio;

  std::cout << config.workload << " seed " << config.seed << ", "
            << (config.trace ? "traced" : "untraced") << ", " << attempted
            << " operations checked, " << failed << " failed (error_ratio "
            << exact(error_ratio) << ")\n";
  for (const std::string& note : outcome.notes) std::cout << note << "\n";

  const auto& specs = config.trace ? perfbench::per_layer_metrics()
                                   : perfbench::end_to_end_metrics();
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const perfbench::MetricSpec& spec : specs) {
    const auto it = outcome.metrics.find(spec.name);
    if (it == outcome.metrics.end() && !config.trace) {
      std::cerr << "perfbench: " << config.workload << " did not measure "
                << spec.name << "\n";
      return 2;
    }
    // A per-layer metric of a layer this workload never runs is 0.
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: " << spec.name << " is not finite\n";
      return 2;
    }
    std::cout << "  " << spec.name << " " << exact(value) << " " << spec.unit
              << "\n";
    json << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
         << exact(value) << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failed == 0 ? 0 : 1;
}
