// perfbench: the Mantle benchmark.
//
//   perfbench --workload stat|objchurn|dircommit --seed N --seconds S --trace 0|1
//             [--dirs D --objects O] [--out-dir DIR]
//
// Untraced (--trace 0): sets up the workload's model phase (60% of S) and
// host phase (40% of S) on one fresh instance each, measures their windows in
// alternating slices, prints each phase's figures and the cost model it ran
// under, and ends with one JSON line holding the end-to-end metrics.
// Traced (--trace 1): runs the same untraced pair, then a traced pair with
// per-op span capture and layer probes; the JSON line holds the per-layer
// metrics plus the tracing overhead against the untraced pair, and the
// benchmark's own spans go to <out-dir>/perfbench-spans-<workload>-<seed>.jsonl.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/layers.h"

namespace perfbench {
namespace {

constexpr double kModelShare = 0.6;  // of --seconds; the host phase gets the rest
constexpr double kWarmupSeconds = 0.3;
constexpr int kSlices = 20;  // per phase window

struct PhaseFigures {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double window_seconds = 0;
  // Good-side deciles over the window's slices.
  double ops_per_s = 0;
  double p50_us = 0;
  double cpu_us_per_op = 0;
  // p99 over every measured op (printed; not a gated metric) and the
  // number of samples beyond it.
  double p99_us = 0;
  size_t beyond_p99 = 0;
  std::vector<double> slice_p50_us;
  std::vector<double> slice_p99_us;
};

// The decile of per-slice values on the good side: the lower decile of a
// cost, the upper decile of a rate. A VM shared with other tenants loses CPU
// to them (steal) for seconds to minutes at a time; that inflates whole
// slices of both phases, and this aggregate ignores it while it covers less
// than nine tenths of the run.
double GoodDecile(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double position = (higher_is_better ? 0.9 : 0.1) * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(position);
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[above] - values[below]);
}

// Figures per window slice, aggregated over the slices with GoodDecile. A
// failed op counts as missing every latency limit.
PhaseFigures Summarize(const PhaseOutcome& outcome) {
  PhaseFigures figures;
  const size_t slices = outcome.slices.size();
  std::vector<std::vector<int64_t>> latencies(slices);
  std::vector<uint64_t> completed(slices, 0);
  for (const OpSample& sample : outcome.samples) {
    const size_t slice = static_cast<size_t>(sample.slice);
    latencies[slice].push_back(sample.ok ? sample.latency_nanos
                                         : std::numeric_limits<int64_t>::max());
    completed[slice] += sample.ok ? 1 : 0;
    ++figures.attempted;
    figures.failed += sample.ok ? 0 : 1;
  }
  std::vector<double> ops_per_s, p50, p99, cpu;
  std::vector<int64_t> all;
  for (size_t i = 0; i < slices; ++i) {
    const double seconds =
        static_cast<double>(outcome.slices[i].end_nanos - outcome.slices[i].start_nanos) / 1e9;
    figures.window_seconds += seconds;
    const size_t n = latencies[i].size();
    ops_per_s.push_back(static_cast<double>(completed[i]) / seconds);
    p50.push_back(PercentileNanos(latencies[i], 0.50) / 1e3);
    p99.push_back(PercentileNanos(latencies[i], 0.99) / 1e3);
    cpu.push_back(outcome.slices[i].cpu_seconds * 1e6 /
                  static_cast<double>(std::max<size_t>(n, 1)));
    all.insert(all.end(), latencies[i].begin(), latencies[i].end());
  }
  figures.p99_us = PercentileNanos(all, 0.99) / 1e3;
  figures.beyond_p99 =
      all.size() - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(all.size())));
  figures.slice_p50_us = p50;
  figures.slice_p99_us = p99;
  figures.ops_per_s = GoodDecile(ops_per_s, true);
  figures.p50_us = GoodDecile(p50, false);
  figures.cpu_us_per_op = GoodDecile(cpu, false);
  return figures;
}

void PrintPhase(const std::string& label, const PhaseOutcome& outcome,
                const PhaseFigures& figures) {
  std::cout << std::fixed << std::setprecision(2) << "phase " << label
            << ": ops=" << figures.attempted << " failed=" << figures.failed
            << " window_s=" << figures.window_seconds << " slices=" << outcome.slices.size()
            << " | slice deciles: ops_per_s=" << figures.ops_per_s
            << " p50_us=" << figures.p50_us << " cpu_us_per_op=" << figures.cpu_us_per_op
            << " | all ops: p99_us=" << figures.p99_us << " (" << figures.attempted
            << " samples, " << figures.beyond_p99 << " beyond) | setup_s="
            << outcome.setup_seconds << " (populate " << outcome.populate_seconds
            << ", cache warm " << outcome.cache_warm_seconds
            << ") correct=" << (outcome.correct ? "yes" : "NO: " + outcome.error) << "\n";
  std::cout << std::setprecision(0) << "    slices p50_us/p99_us:";
  for (size_t i = 0; i < figures.slice_p50_us.size(); ++i) {
    std::cout << " " << figures.slice_p50_us[i] << "/" << figures.slice_p99_us[i];
  }
  std::cout << std::setprecision(2) << "\n";
  std::map<std::string, std::vector<int64_t>> by_kind;
  for (const OpSample& sample : outcome.samples) {
    by_kind[OpKindName(sample.kind)].push_back(sample.latency_nanos);
  }
  for (const auto& [kind, latencies] : by_kind) {
    std::cout << "    " << kind << ": ops=" << latencies.size()
              << " p50_us=" << PercentileNanos(latencies, 0.50) / 1e3
              << " p99_us=" << PercentileNanos(latencies, 0.99) / 1e3 << "\n";
  }
  std::cout.unsetf(std::ios::floatfield);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else if (flag == "--dirs") {
        args->dirs = std::stoull(value);
      } else if (flag == "--objects") {
        args->objects = std::stoull(value);
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload != "stat" && args->workload != "objchurn" && args->workload != "dircommit") {
    *error = "--workload must be stat, objchurn or dircommit";
    return false;
  }
  if (!(args->seconds > 0) || args->dirs < 16 || args->objects < 16) {
    *error = "--seconds must be positive; --dirs and --objects at least 16";
    return false;
  }
  return true;
}

struct Run {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;

  void Add(const PhaseOutcome& outcome, const PhaseFigures& figures) {
    attempted += figures.attempted;
    failed += figures.failed;
    if (!outcome.correct && correct) {
      correct = false;
      error = outcome.error;
    }
  }
};

// Sets up every runner, then measures their windows slice by slice in
// alternation, and returns their outcomes in order.
std::vector<PhaseOutcome> RunInterleaved(const std::vector<PhaseRunner*>& runners,
                                         const std::vector<double>& windows) {
  for (PhaseRunner* runner : runners) {
    runner->SetUp(kWarmupSeconds);
  }
  for (int slice = 0; slice < kSlices; ++slice) {
    for (size_t i = 0; i < runners.size(); ++i) {
      runners[i]->MeasureSlice(windows[i] / kSlices);
    }
  }
  std::vector<PhaseOutcome> outcomes;
  for (PhaseRunner* runner : runners) {
    outcomes.push_back(runner->Finish());
  }
  return outcomes;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const CostModel model = CostModel::Model();
  const CostModel host = CostModel::Host();
  const double model_window = args.seconds * kModelShare;
  const double host_window = args.seconds - model_window;
  std::cout << "workload " << args.workload << " seed " << args.seed << ": " << kClients
            << " closed-loop clients, " << args.dirs << " dirs, " << args.objects
            << " objects\n"
            << model.Describe() << "\n"
            << host.Describe() << "\n";

  const Inputs inputs = GenerateInputs(args);
  Run run;
  PhaseOutcome model_run, host_run;
  {
    PhaseRunner model_runner(model, &inputs, nullptr);
    PhaseRunner host_runner(host, &inputs, nullptr);
    std::vector<PhaseOutcome> outcomes =
        RunInterleaved({&model_runner, &host_runner}, {model_window, host_window});
    model_run = std::move(outcomes[0]);
    host_run = std::move(outcomes[1]);
  }
  const PhaseFigures model_figures = Summarize(model_run);
  PrintPhase("model", model_run, model_figures);
  run.Add(model_run, model_figures);
  const PhaseFigures host_figures = Summarize(host_run);
  PrintPhase("host", host_run, host_figures);
  run.Add(host_run, host_figures);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"model.ops_per_s", model_figures.ops_per_s, "op/s"},
        {"model.p50_us", model_figures.p50_us, "us"},
        {"host.p50_us", host_figures.p50_us, "us"},
        {"host.cpu_us_per_op", host_figures.cpu_us_per_op, "us"},
        {"setup_s", model_run.setup_seconds + host_run.setup_seconds, "s"},
        {"rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    PhaseTracer model_tracer("model", &inputs);
    PhaseTracer host_tracer("host", &inputs);
    PhaseRunner model_runner(model, &inputs, &model_tracer);
    PhaseRunner host_runner(host, &inputs, &host_tracer);
    std::vector<PhaseOutcome> outcomes =
        RunInterleaved({&model_runner, &host_runner}, {model_window, host_window});
    model_tracer.RunProbes(model_runner.instance());
    host_tracer.RunProbes(host_runner.instance());
    const PhaseFigures traced_model_figures = Summarize(outcomes[0]);
    PrintPhase("model traced", outcomes[0], traced_model_figures);
    run.Add(outcomes[0], traced_model_figures);
    const PhaseFigures traced_host_figures = Summarize(outcomes[1]);
    PrintPhase("host traced", outcomes[1], traced_host_figures);
    run.Add(outcomes[1], traced_host_figures);

    model_tracer.Report(&metrics);
    host_tracer.Report(&metrics);
    metrics.push_back({"trace.overhead.model_p50",
                       traced_model_figures.p50_us / model_figures.p50_us - 1, "ratio"});
    metrics.push_back({"trace.overhead.host_cpu",
                       traced_host_figures.cpu_us_per_op / host_figures.cpu_us_per_op - 1,
                       "ratio"});

    std::filesystem::create_directories(args.out_dir);
    const std::string span_path = args.out_dir + "/perfbench-spans-" + args.workload + "-" +
                                  std::to_string(args.seed) + ".jsonl";
    std::ofstream spans(span_path);
    model_tracer.WriteSpans(spans);
    host_tracer.WriteSpans(spans);
    std::cout << "benchmark spans written to " << span_path << "\n";
  }

  const uint64_t failed = run.failed;
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(run.attempted, 1));
  std::cout << "fail_ratio=" << FormatNumber(fail_ratio) << " (" << failed << " of "
            << run.attempted << " ops)\n";
  if (!run.correct) {
    std::cout << "correctness check FAILED: " << run.error << "\n";
  }
  for (const Metric& metric : metrics) {
    std::cout << "  " << std::left << std::setw(40) << metric.name << " "
              << FormatNumber(metric.value) << " " << metric.unit << "\n";
  }
  std::cout << "{\"correct\": " << (run.correct ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(run.attempted, 1)
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
              << FormatNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
