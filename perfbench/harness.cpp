// campaign_bench: the timed half of the campaign benchmark.
//
// Every subcommand drives otisnet through its public API only and prints
// exactly one JSON object on stdout; run.py owns workloads, repetition,
// correctness checks and metric arithmetic.
//
//   campaign_bench setup     --spec F --pool P --reps R [--min-ms T]
//       load_campaign_spec + expand_grid + WorkStealingPool(P) +
//       CompiledTopology::build per distinct topology (the table kinds
//       its cells resolve to), R times and for at least T ms; per-build
//       seconds, table bytes,
//       the grid's cell IDs and how the harness was compiled.
//   campaign_bench campaign  --spec F --out D --pool P [--timed-sinks]
//                            [--checkpoint-stop S]
//       one timed CampaignRunner::run. --timed-sinks turns the runner's
//       own file sinks off and attaches JsonlSink/CsvSink behind a timing
//       wrapper with add_sink (same files, same bytes). Reports the peak
//       RSS of this process.
//   campaign_bench phases    --spec F --cell I --slots S [--pool P]
//       cell I of the grid as an open-loop uniform cell of S slots,
//       driven through OpsNetworkSim on the serial phased engine with
//       SimConfig::phase_breakdown set.
//   campaign_bench workloads --spec F
//       times building every cell's packet source: its closed-loop
//       workload (workload/ factories), or its open-loop uniform generator.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "core/work_pool.hpp"
#include "sim/ops_network.hpp"
#include "sim/traffic.hpp"
#include "workload/kernels.hpp"
#include "workload/schedule_workload.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using otis::campaign::CampaignCell;
using otis::campaign::CampaignSpec;
using otis::campaign::CompiledTopology;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] bool has(const std::string& key) const {
    return values.count(key) > 0;
  }
  [[nodiscard]] const std::string& str(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::runtime_error("missing --" + key);
    }
    return it->second;
  }
  [[nodiscard]] long long num(const std::string& key,
                              long long fallback) const {
    return has(key) ? std::stoll(str(key)) : fallback;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument " + key);
    }
    key = key.substr(2);
    if (key == "timed-sinks") {
      args.values[key] = "1";
    } else if (i + 1 < argc) {
      args.values[key] = argv[++i];
    } else {
      throw std::runtime_error("--" + key + " needs a value");
    }
  }
  return args;
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? "," : "") + number(values[i]);
  }
  return out + "]";
}

long long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Which table representations the grid's cells resolve to, per
/// topology index -- the same rule CampaignRunner applies before it
/// compiles.
struct TableNeeds {
  bool dense = false;
  bool compressed = false;
};

std::map<std::size_t, TableNeeds> table_needs(
    const CampaignSpec& spec, const std::vector<CampaignCell>& cells) {
  std::map<std::size_t, TableNeeds> needs;
  for (const CampaignCell& cell : cells) {
    TableNeeds& need = needs[cell.topology];
    const auto resolved = otis::sim::resolve_route_table(
        cell.routes, spec.topologies[cell.topology].processor_count());
    (resolved == otis::sim::RouteTable::kCompressed ? need.compressed
                                                    : need.dense) = true;
  }
  return needs;
}

std::size_t table_bytes(const CompiledTopology& topology) {
  std::size_t bytes = 0;
  if (topology.routes() != nullptr) {
    bytes += topology.routes()->memory_bytes();
  }
  if (topology.compressed_routes() != nullptr) {
    bytes += topology.compressed_routes()->memory_bytes();
  }
  return bytes;
}

int cmd_setup(const Args& args) {
  const std::string path = args.str("spec");
  const int pool_size = static_cast<int>(args.num("pool", 1));
  const long long reps = args.num("reps", 3);
  // Cheap set-ups repeat until this much time has passed, so their median
  // rests on many samples.
  const double min_seconds = static_cast<double>(args.num("min-ms", 0)) / 1e3;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> compile_s;
  std::map<std::string, std::size_t> bytes;
  const Clock::time_point first = Clock::now();
  for (long long rep = 0;
       rep < reps || (seconds_since(first) < min_seconds && rep < 10000);
       ++rep) {
    std::vector<std::shared_ptr<const CompiledTopology>> built;
    const Clock::time_point start = Clock::now();
    const CampaignSpec spec = otis::campaign::load_campaign_spec(path);
    const std::vector<CampaignCell> cells = otis::campaign::expand_grid(spec);
    otis::core::WorkStealingPool pool(pool_size);
    for (const auto& [index, need] : table_needs(spec, cells)) {
      const Clock::time_point build_start = Clock::now();
      built.push_back(CompiledTopology::build(spec.topologies[index],
                                              need.dense, need.compressed,
                                              &pool));
      compile_s[built.back()->label()].push_back(seconds_since(build_start));
      bytes[built.back()->label()] = table_bytes(*built.back());
    }
    setup_s.push_back(seconds_since(start));
  }
  std::string topologies = "[";
  for (const auto& [label, times] : compile_s) {
    topologies += (topologies.size() > 1 ? "," : "");
    topologies += "{\"label\":" + quote(label) + ",\"compile_s\":" +
                  list(times) + ",\"table_bytes\":" +
                  std::to_string(bytes[label]) + "}";
  }
  topologies += "]";
  std::string ids = "[";
  for (const CampaignCell& cell : otis::campaign::expand_grid(
           otis::campaign::load_campaign_spec(path))) {
    ids += (ids.size() > 1 ? "," : "") + quote(cell.id);
  }
  ids += "]";
  std::printf(
      "{\"setup_s\":%s,\"topologies\":%s,\"cell_ids\":%s,"
      "\"compiler\":%s,\"build_type\":%s}\n",
      list(setup_s).c_str(), topologies.c_str(), ids.c_str(),
      quote(PERFBENCH_COMPILER).c_str(), quote(PERFBENCH_BUILD_TYPE).c_str());
  return 0;
}

/// Forwards to a file sink and accumulates the wall time spent in it.
class TimedSink final : public otis::campaign::ResultSink {
 public:
  TimedSink(std::shared_ptr<otis::campaign::ResultSink> inner, double* total)
      : inner_(std::move(inner)), total_(total) {}

  void consume(const otis::campaign::CellResult& result) override {
    const Clock::time_point start = Clock::now();
    inner_->consume(result);
    *total_ += seconds_since(start);
  }
  void flush() override {
    const Clock::time_point start = Clock::now();
    inner_->flush();
    *total_ += seconds_since(start);
  }
  void close() override {
    const Clock::time_point start = Clock::now();
    inner_->close();
    *total_ += seconds_since(start);
  }

 private:
  std::shared_ptr<otis::campaign::ResultSink> inner_;
  double* total_;
};

int cmd_campaign(const Args& args) {
  const CampaignSpec spec =
      otis::campaign::load_campaign_spec(args.str("spec"));
  otis::campaign::CampaignOptions options;
  options.threads = static_cast<int>(args.num("pool", 1));
  options.out_dir = args.str("out");
  options.checkpoint_stop = args.num("checkpoint-stop", -1);
  std::filesystem::create_directories(options.out_dir);

  otis::campaign::CampaignRunner runner(spec);
  double sink_s = 0.0;
  const bool timed_sinks = args.has("timed-sinks");
  if (timed_sinks) {
    // Only the runner's file sinks are replaced; the manifest stays.
    options.write_jsonl = false;
    options.write_csv = false;
    const std::filesystem::path dir(options.out_dir);
    runner.add_sink(std::make_shared<TimedSink>(
        std::make_shared<otis::campaign::JsonlSink>(
            (dir / otis::campaign::CampaignRunner::kJsonlFile).string(),
            false),
        &sink_s));
    runner.add_sink(std::make_shared<TimedSink>(
        std::make_shared<otis::campaign::CsvSink>(
            (dir / otis::campaign::CampaignRunner::kCsvFile).string(), false),
        &sink_s));
  }

  otis::campaign::CampaignReport report;
  std::string error;
  const Clock::time_point start = Clock::now();
  try {
    report = runner.run(options);
  } catch (const std::exception& e) {
    // Not retried: the rows that never reached results.jsonl are
    // counted as failed cells by the caller.
    error = e.what();
  }
  const double campaign_s = seconds_since(start);
  std::printf(
      "{\"campaign_s\":%s,\"total_cells\":%lld,\"completed_cells\":%lld,"
      "\"interrupted_cells\":%lld,\"topologies_compiled\":%lld,"
      "\"runtime_rows\":%lld,\"sink_s\":%s,\"peak_rss_kib\":%lld,"
      "\"error\":%s}\n",
      number(campaign_s).c_str(), static_cast<long long>(report.total_cells),
      static_cast<long long>(report.completed_cells),
      static_cast<long long>(report.interrupted_cells),
      static_cast<long long>(report.topologies_compiled),
      static_cast<long long>(report.runtime_rows),
      timed_sinks ? number(sink_s).c_str() : "null", peak_rss_kib(),
      error.empty() ? "null" : quote(error).c_str());
  return error.empty() ? 0 : 3;
}

int cmd_phases(const Args& args) {
  const CampaignSpec spec =
      otis::campaign::load_campaign_spec(args.str("spec"));
  const std::vector<CampaignCell> cells = otis::campaign::expand_grid(spec);
  const auto index = static_cast<std::size_t>(args.num("cell", 0));
  if (index >= cells.size()) {
    throw std::runtime_error("--cell out of range");
  }
  // The cell's topology, arbitration, load, wavelengths and seed, run
  // open loop on uniform traffic on the serial phased engine -- the one
  // loop PhaseBreakdown instruments.
  const CampaignCell& cell = cells[index];
  const otis::campaign::TopologySpec& topo_spec = spec.topologies[cell.topology];
  const bool compressed =
      otis::sim::resolve_route_table(cell.routes,
                                     topo_spec.processor_count()) ==
      otis::sim::RouteTable::kCompressed;
  otis::core::WorkStealingPool pool(static_cast<int>(args.num("pool", 1)));
  const auto topology =
      CompiledTopology::build(topo_spec, !compressed, compressed, &pool);

  otis::sim::PhaseBreakdown breakdown;
  otis::sim::SimConfig config;
  config.arbitration = cell.arbitration;
  config.warmup_slots = 0;
  config.measure_slots = args.num("slots", spec.measure_slots);
  config.seed = cell.seed;
  config.wavelengths = cell.wavelengths;
  config.engine = otis::sim::Engine::kPhased;
  config.latency_mode = spec.latency_stats;
  config.phase_breakdown = &breakdown;
  auto traffic = std::make_unique<otis::sim::UniformTraffic>(
      topology->processor_count(), cell.load);
  otis::sim::RunMetrics metrics;
  const Clock::time_point start = Clock::now();
  if (compressed) {
    metrics = otis::sim::OpsNetworkSim(topology->stack(),
                                       topology->compressed_routes(),
                                       std::move(traffic), config)
                  .run();
  } else {
    metrics = otis::sim::OpsNetworkSim(topology->stack(), topology->routes(),
                                       std::move(traffic), config)
                  .run();
  }
  const double run_s = seconds_since(start);
  std::printf(
      "{\"cell\":%s,\"run_s\":%s,\"slots\":%lld,\"generate_s\":%s,"
      "\"arbitrate_s\":%s,\"receive_s\":%s,\"delivered\":%lld}\n",
      quote(cell.id).c_str(), number(run_s).c_str(),
      static_cast<long long>(breakdown.slots),
      number(breakdown.generate_seconds).c_str(),
      number(breakdown.arbitrate_seconds).c_str(),
      number(breakdown.receive_seconds).c_str(),
      static_cast<long long>(metrics.delivered_packets));
  return 0;
}

int cmd_workloads(const Args& args) {
  using otis::campaign::WorkloadKind;
  const CampaignSpec spec =
      otis::campaign::load_campaign_spec(args.str("spec"));
  const std::vector<CampaignCell> cells = otis::campaign::expand_grid(spec);
  // Schedule kinds need the built network; the rest need only N.
  std::map<std::size_t, std::shared_ptr<const CompiledTopology>> networks;
  double build_s = 0.0;
  long long packets = 0;
  for (const CampaignCell& cell : cells) {
    const otis::campaign::TopologySpec& topo_spec =
        spec.topologies[cell.topology];
    const std::int64_t nodes = topo_spec.processor_count();
    const otis::campaign::WorkloadSpec& wl = cell.workload;
    const bool schedule = wl.kind == WorkloadKind::kOneToAll ||
                          wl.kind == WorkloadKind::kGossip;
    if (schedule && networks.count(cell.topology) == 0) {
      networks[cell.topology] = CompiledTopology::build(topo_spec);
    }
    if (cell.traffic.kind != otis::campaign::TrafficKind::kUniform) {
      throw std::runtime_error("workloads: only uniform traffic is timed");
    }
    const Clock::time_point start = Clock::now();
    std::unique_ptr<otis::workload::Workload> built;
    std::unique_ptr<otis::sim::TrafficGenerator> source;
    switch (wl.kind) {
      case WorkloadKind::kNone:
        source = std::make_unique<otis::sim::UniformTraffic>(nodes, cell.load);
        break;
      case WorkloadKind::kOneToAll:
      case WorkloadKind::kGossip:
        built = otis::workload::schedule_workload(
            networks[cell.topology]->stack(),
            networks[cell.topology]->collective_schedule(
                wl.kind == WorkloadKind::kGossip, wl.root));
        break;
      case WorkloadKind::kBsp:
        built = otis::workload::bsp_exchange(nodes, wl.phases, wl.shift);
        break;
      case WorkloadKind::kReduce:
        built = otis::workload::reduce_tree(nodes, wl.arity, wl.root);
        break;
      case WorkloadKind::kGather:
        built = otis::workload::gather_incast(nodes, wl.root);
        break;
      case WorkloadKind::kTrace:
        throw std::runtime_error("workloads: trace replay is not timed");
    }
    build_s += seconds_since(start);
    if (built != nullptr) {
      packets += built->packet_count();
    }
  }
  std::printf("{\"build_s\":%s,\"packets\":%lld,\"cells\":%zu}\n",
              number(build_s).c_str(), packets, cells.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: campaign_bench setup|campaign|phases|workloads "
                 "--spec FILE [options]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    if (command == "setup") {
      return cmd_setup(args);
    }
    if (command == "campaign") {
      return cmd_campaign(args);
    }
    if (command == "phases") {
      return cmd_phases(args);
    }
    if (command == "workloads") {
      return cmd_workloads(args);
    }
    std::fprintf(stderr, "campaign_bench: unknown command %s\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench %s: %s\n", command.c_str(),
                 e.what());
    return 2;
  }
}
