// perfbench, the Mantle benchmark: shared types.
//
// One run drives one seeded workload against MantleService in two phases,
// each on a fresh instance: `model` (the paper-scaled cost model: injected
// RTT, storage and index service costs, Raft fsync) and `host` (every modeled
// cost at zero, so the run measures the C++ itself). The workload's inputs -
// namespace, Zipf ranking, per-client op streams - are generated here from
// the seed; the service only ever sees the generated paths.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/mantle_service.h"
#include "src/workload/namespace_gen.h"

namespace perfbench {

using mantle::MantleService;
using mantle::Network;

inline constexpr int kClients = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t dirs = 20'000;
  uint64_t objects = 200'000;
  std::string out_dir = ".bench_build";  // where the traced run writes spans
};

// A phase's cost model, built from NetworkOptions/RaftOptions directly.
struct CostModel {
  std::string name;  // "model" or "host"
  mantle::NetworkOptions net;
  mantle::RaftOptions raft;
  mantle::TafDbOptions tafdb;

  static CostModel Model();
  static CostModel Host();
  std::string Describe() const;
};

// --- generated inputs ----------------------------------------------------------

enum class OpKind : uint8_t { kStatObject, kStatDir, kCreate, kDelete, kMkdir, kRename, kRmdir };
const char* OpKindName(OpKind kind);

// One pre-generated step of a client's stream. `target` indexes the
// namespace (stat ops) or is unused (ops whose path comes from client state).
struct Step {
  OpKind kind;
  uint32_t target;
  uint64_t size;  // object size for creates
};

struct Inputs {
  std::string workload;
  mantle::GeneratedNamespace ns;
  std::vector<int64_t> dir_child_count;  // expected child count per ns.dirs[i]
  std::vector<std::string> extra_dirs;   // workload dirs bulk-loaded after ns
  std::vector<std::string> extra_objects;
  std::vector<uint64_t> extra_object_sizes;
  std::string client_base;  // objchurn: /churn/.../c<i>; dircommit: job base
  std::vector<std::vector<Step>> streams;  // one per client, replayed cyclically
};

Inputs GenerateInputs(const Args& args);

// --- per-op samples and phase results --------------------------------------------

// One measured op, as the end-to-end figures need it.
struct OpSample {
  int64_t latency_nanos;
  int16_t slice;
  OpKind kind;
  bool ok;
};

// One service instance plus the fabric it runs on. The service is declared
// after the network so it is destroyed first (teardown drains executors the
// network owns).
struct Instance {
  std::unique_ptr<Network> network;
  std::unique_ptr<MantleService> service;
};

Instance MakeInstance(const CostModel& cost);

// Bulk-loads the namespace and the workload's own directories and objects.
bool Populate(Instance& instance, const Inputs& inputs, std::string* error);
// Fills every IndexNode replica's path cache with every directory prefix.
void WarmPathCaches(Instance& instance, const Inputs& inputs);

// Correctness state a client keeps while it runs; checked after the window.
struct ClientState {
  // objchurn
  std::vector<std::pair<std::string, uint64_t>> live;  // FIFO of (path, size)
  size_t live_head = 0;
  std::vector<std::string> deleted;
  uint64_t next_object = 0;
  // dircommit
  std::vector<std::string> out_parts;  // renamed parts not yet removed (FIFO)
  size_t out_head = 0;
  uint64_t iteration = 0;
  size_t cursor = 0;  // position in the client's stream
  std::string error;  // first correctness violation seen by this client
};

// A measured slice of a phase's window.
struct Slice {
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  double cpu_seconds = 0;  // process user+sys CPU over the slice
};

struct PhaseOutcome {
  std::vector<OpSample> samples;  // ops started inside a measured slice
  std::vector<Slice> slices;
  double setup_seconds = 0;  // population + cache warm-up + op warm-up
  double populate_seconds = 0;
  double cache_warm_seconds = 0;
  bool correct = true;
  std::string error;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Layer hooks a traced phase attaches to its runner (see layers.h).
class PhaseTracer;

// One phase of a run: a fresh instance under one cost model and its four
// closed-loop clients. The window is measured as slices, and the clients are
// parked between slices, so the runs of two phases can alternate slice by
// slice: a stall of the shared host then hits both phases alike and only a
// few slices of each, and the per-slice medians the run reports hold.
class PhaseRunner {
 public:
  PhaseRunner(CostModel cost, const Inputs* inputs, PhaseTracer* tracer);
  ~PhaseRunner();

  PhaseRunner(const PhaseRunner&) = delete;
  PhaseRunner& operator=(const PhaseRunner&) = delete;

  // Builds the instance, populates it, warms its path caches and runs the
  // clients un-measured for `warmup_seconds`; all of it counts as set-up.
  bool SetUp(double warmup_seconds);
  // Resumes the clients, measures one slice of `seconds`, parks them again.
  void MeasureSlice(double seconds);
  // Stops the clients and checks the workload's outputs. The instance stays
  // up for probes until the runner is destroyed.
  PhaseOutcome Finish();

  Instance& instance() { return instance_; }

 private:
  enum class Gate { kParked, kRunning, kStopped };

  void ClientLoop(int client);
  void SetGate(Gate gate);
  void Park();  // returns once every client is parked
  void StopClients();

  CostModel cost_;
  const Inputs* inputs_;
  PhaseTracer* tracer_;
  Instance instance_;
  PhaseOutcome outcome_;
  std::vector<ClientState> states_;
  std::vector<std::vector<OpSample>> samples_;  // per client

  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::atomic<Gate> gate_{Gate::kParked};
  int parked_ = 0;                      // guarded by gate_mu_
  std::atomic<int> measuring_slice_{-1};  // index of the open slice, -1 = none
  std::vector<std::thread> clients_;    // declared last: joined before the rest
};

// --- helpers ------------------------------------------------------------------------

double PercentileNanos(std::vector<int64_t> values, double p);
int64_t MedianNanos(std::vector<int64_t> values);
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);
double ProcessCpuSeconds();
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
