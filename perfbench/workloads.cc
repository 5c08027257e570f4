// Input generation, instance set-up and the closed-loop clients.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "perfbench/bench.h"
#include "perfbench/layers.h"
#include "src/common/clock.h"
#include "src/common/path.h"
#include "src/common/random.h"
#include "src/obs/trace.h"

namespace perfbench {

using mantle::BulkEntry;
using mantle::OpResult;
using mantle::Rng;
using mantle::StatResult;
using mantle::Stopwatch;

namespace {

constexpr size_t kStreamLength = 1 << 16;
// objchurn: objects pre-loaded into each client's directory, so a delete
// always has a victim at the start of the window.
constexpr uint64_t kPreloadedObjects = 64;
// objchurn: each client's most recent deletes, re-checked as NotFound.
constexpr size_t kDeletedChecked = 64;
// Consumed FIFO entries are dropped once this many pile up.
constexpr size_t kFifoTrim = 4096;
// dircommit: a part is removed from /out k iterations after it was renamed in.
constexpr size_t kCommitLag = 16;
// Levels between the root and the per-client directories (mdtest -e puts
// leaf entries at depth 10).
constexpr int kChainLevels = 7;
// Un-measured time a resumed phase runs before its slice opens.
constexpr int64_t kSliceSettleNanos = 50'000'000;

std::string ChainBase(const std::string& top, int levels, std::vector<std::string>* dirs) {
  std::string base = "/" + top;
  dirs->push_back(base);
  for (int level = 0; level < levels; ++level) {
    base += "/p" + std::to_string(level);
    dirs->push_back(base);
  }
  return base;
}

std::string ClientDir(const Inputs& inputs, int client) {
  return inputs.client_base + "/c" + std::to_string(client);
}

std::string StageDir(const Inputs& inputs, int client) {
  return inputs.client_base + "/stage/c" + std::to_string(client);
}

std::string OutDir(const Inputs& inputs) { return inputs.client_base + "/out"; }

std::vector<uint32_t> ShuffledRanking(size_t n, uint64_t seed) {
  std::vector<uint32_t> ranking(n);
  for (size_t i = 0; i < n; ++i) {
    ranking[i] = static_cast<uint32_t>(i);
  }
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(ranking[i - 1], ranking[rng.Uniform(i)]);
  }
  return ranking;
}

// Zipf(0.99) draws over a seed-shuffled ranking, so hot keys land on
// unrelated directories and TafDB shards.
class ZipfPicker {
 public:
  ZipfPicker(const std::vector<uint32_t>* ranking, uint64_t seed)
      : ranking_(ranking), zipf_(ranking->size(), 0.99, seed) {}
  uint32_t Next() {
    const uint64_t rank = std::min<uint64_t>(zipf_.Next(), ranking_->size() - 1);
    return (*ranking_)[rank];
  }

 private:
  const std::vector<uint32_t>* ranking_;
  mantle::ZipfianGenerator zipf_;
};

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kStatObject:
      return "stat_object";
    case OpKind::kStatDir:
      return "stat_dir";
    case OpKind::kCreate:
      return "create_object";
    case OpKind::kDelete:
      return "delete_object";
    case OpKind::kMkdir:
      return "mkdir";
    case OpKind::kRename:
      return "rename_dir";
    case OpKind::kRmdir:
      return "rmdir";
  }
  return "?";
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return mantle::SplitMix64(state);
}

CostModel CostModel::Model() {
  // The paper-scaled costs of the figure benches (BenchNetworkOptions and
  // BenchRaftOptions), fixed here so no environment variable can change them.
  CostModel cost;
  cost.name = "model";
  cost.net.rtt_nanos = 80'000;
  cost.net.db_row_access_nanos = 100'000;
  cost.net.mem_index_access_nanos = 60'000;
  cost.raft.fsync_nanos = 250'000;
  cost.raft.log_batching = true;
  cost.raft.workers_per_node = 2;
  cost.tafdb.num_shards = 32;
  cost.tafdb.num_servers = 6;
  cost.tafdb.workers_per_server = 1;
  return cost;
}

CostModel CostModel::Host() {
  CostModel cost = Model();
  cost.name = "host";
  cost.net.rtt_nanos = 0;
  cost.net.db_row_access_nanos = 0;
  cost.net.mem_index_access_nanos = 0;
  cost.raft.fsync_nanos = 0;
  return cost;
}

std::string CostModel::Describe() const {
  return "cost model [" + name + "]: rtt_ns=" + std::to_string(net.rtt_nanos) +
         " db_row_access_ns=" + std::to_string(net.db_row_access_nanos) +
         " mem_index_access_ns=" + std::to_string(net.mem_index_access_nanos) +
         " raft_fsync_ns=" + std::to_string(raft.fsync_nanos) +
         " raft_log_batching=" + std::to_string(raft.log_batching ? 1 : 0) +
         " index_workers=" + std::to_string(raft.workers_per_node) +
         " tafdb=" + std::to_string(tafdb.num_servers) + "x" +
         std::to_string(tafdb.workers_per_server) + " shards=" +
         std::to_string(tafdb.num_shards);
}

Inputs GenerateInputs(const Args& args) {
  Inputs inputs;
  inputs.workload = args.workload;
  mantle::NamespaceSpec spec;
  spec.num_dirs = args.dirs;
  spec.num_objects = args.objects;
  spec.mean_depth = 10;
  spec.seed = DeriveSeed(args.seed, 1);
  inputs.ns = mantle::GenerateNamespace(spec);

  // Expected child counts (subdirectories + objects) for StatDir checks.
  std::unordered_map<std::string_view, size_t> dir_index;
  dir_index.reserve(inputs.ns.dirs.size());
  for (size_t i = 0; i < inputs.ns.dirs.size(); ++i) {
    dir_index.emplace(inputs.ns.dirs[i], i);
  }
  inputs.dir_child_count.assign(inputs.ns.dirs.size(), 0);
  auto count_child = [&](const std::string& path) {
    auto it = dir_index.find(std::string_view(path).substr(0, path.rfind('/')));
    if (it != dir_index.end()) {
      ++inputs.dir_child_count[it->second];
    }
  };
  for (const std::string& dir : inputs.ns.dirs) {
    count_child(dir);
  }
  for (const std::string& object : inputs.ns.objects) {
    count_child(object);
  }

  const std::vector<uint32_t> object_ranking =
      ShuffledRanking(inputs.ns.objects.size(), DeriveSeed(args.seed, 2));
  const std::vector<uint32_t> dir_ranking =
      ShuffledRanking(inputs.ns.dirs.size(), DeriveSeed(args.seed, 3));

  inputs.streams.resize(kClients);
  if (args.workload == "stat" || args.workload == "objchurn") {
    const bool churn = args.workload == "objchurn";
    if (churn) {
      inputs.client_base = ChainBase("churn", kChainLevels, &inputs.extra_dirs);
      Rng sizes(DeriveSeed(args.seed, 4));
      for (int c = 0; c < kClients; ++c) {
        inputs.extra_dirs.push_back(ClientDir(inputs, c));
        for (uint64_t k = 0; k < kPreloadedObjects; ++k) {
          inputs.extra_objects.push_back(ClientDir(inputs, c) + "/o" + std::to_string(k));
          inputs.extra_object_sizes.push_back(1 + sizes.Uniform(64 * 1024));
        }
      }
    }
    for (int c = 0; c < kClients; ++c) {
      Rng rng(DeriveSeed(args.seed, 100 + c));
      ZipfPicker objects(&object_ranking, DeriveSeed(args.seed, 200 + c));
      ZipfPicker dirs(&dir_ranking, DeriveSeed(args.seed, 300 + c));
      std::vector<Step>& stream = inputs.streams[c];
      stream.reserve(kStreamLength);
      for (size_t i = 0; i < kStreamLength; ++i) {
        const double u = rng.NextDouble();
        if (!churn) {
          stream.push_back(u < 0.8 ? Step{OpKind::kStatObject, objects.Next(), 0}
                                   : Step{OpKind::kStatDir, dirs.Next(), 0});
        } else if (u < 0.5) {
          stream.push_back(Step{OpKind::kStatObject, objects.Next(), 0});
        } else if (u < 0.75) {
          stream.push_back(Step{OpKind::kCreate, 0, 1 + rng.Uniform(64 * 1024)});
        } else {
          stream.push_back(Step{OpKind::kDelete, 0, 0});
        }
      }
    }
  } else if (args.workload == "dircommit") {
    // The Spark job-commit loop: mkdir a task dir, rename it into the shared
    // /out, and rmdir the part renamed k iterations earlier.
    inputs.client_base = ChainBase("commit", kChainLevels - 1, &inputs.extra_dirs);
    inputs.extra_dirs.push_back(inputs.client_base + "/stage");
    inputs.extra_dirs.push_back(OutDir(inputs));
    for (int c = 0; c < kClients; ++c) {
      inputs.extra_dirs.push_back(StageDir(inputs, c));
      inputs.streams[c] = {Step{OpKind::kMkdir, 0, 0}, Step{OpKind::kRename, 0, 0},
                           Step{OpKind::kRmdir, 0, 0}};
    }
  }
  return inputs;
}

Instance MakeInstance(const CostModel& cost) {
  Instance instance;
  instance.network = std::make_unique<Network>(cost.net);
  mantle::MantleOptions options;
  options.tafdb = cost.tafdb;
  options.index.num_voters = 3;
  options.index.follower_read = true;
  options.index.raft = cost.raft;
  instance.service = std::make_unique<MantleService>(instance.network.get(), std::move(options));
  return instance;
}

bool Populate(Instance& instance, const Inputs& inputs, std::string* error) {
  const mantle::GeneratedNamespace& ns = inputs.ns;
  std::vector<BulkEntry> batch;
  batch.reserve(ns.dirs.size() + ns.objects.size() + inputs.extra_dirs.size() +
                inputs.extra_objects.size());
  for (const std::string& dir : ns.dirs) {
    batch.push_back(BulkEntry::Dir(dir));
  }
  for (size_t i = 0; i < ns.objects.size(); ++i) {
    batch.push_back(BulkEntry::Object(ns.objects[i], ns.object_sizes[i]));
  }
  for (const std::string& dir : inputs.extra_dirs) {
    batch.push_back(BulkEntry::Dir(dir));
  }
  for (size_t i = 0; i < inputs.extra_objects.size(); ++i) {
    batch.push_back(BulkEntry::Object(inputs.extra_objects[i], inputs.extra_object_sizes[i]));
  }
  mantle::Status status = instance.service->BulkLoadMany(batch);
  if (!status.ok()) {
    *error = "bulk load failed: " + status.ToString();
    return false;
  }
  return true;
}

void WarmPathCaches(Instance& instance, const Inputs& inputs) {
  // Resolving the parent of "<dir>/_" fills the cache entry the resolution
  // of any child of <dir> consults (its prefix k levels above the leaf), and
  // the entries StatDir consults are those of its parent. So one resolve per
  // directory per replica fills every entry the workload can hit - the
  // steady state of the unbounded TopDirPathCache.
  std::vector<const std::string*> dirs;
  dirs.reserve(inputs.ns.dirs.size() + inputs.extra_dirs.size());
  for (const std::string& dir : inputs.ns.dirs) {
    dirs.push_back(&dir);
  }
  for (const std::string& dir : inputs.extra_dirs) {
    dirs.push_back(&dir);
  }
  mantle::IndexService* index = instance.service->index();
  const uint32_t replicas = index->num_replicas();
  // Modeled index costs are sleeps: many threads overlap them. At host cost
  // the resolves are pure CPU, so one thread per core is enough.
  const size_t threads =
      instance.network->options().mem_index_access_nanos > 0 ? 48 : static_cast<size_t>(kClients);
  const size_t total = dirs.size() * replicas;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      for (size_t i = t; i < total; i += threads) {
        std::vector<std::string> components = mantle::SplitPath(*dirs[i / replicas]);
        components.push_back("_");
        index->replica(static_cast<uint32_t>(i % replicas))->ResolveParent(components);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

namespace {

void NoteError(ClientState& state, std::string message) {
  if (state.error.empty()) {
    state.error = std::move(message);
  }
}

// Issues the client's next op and checks its result inline.
OpSample RunStep(MantleService& service, const Inputs& inputs, int client, ClientState& state,
                 OpResult* raw) {
  const std::vector<Step>& stream = inputs.streams[client];
  Step step = stream[state.cursor % stream.size()];
  ++state.cursor;
  if (step.kind == OpKind::kDelete && state.live_head == state.live.size()) {
    step.kind = OpKind::kCreate;  // nothing live to delete: create instead
    step.size = 1 + state.next_object % 4096;
  }
  if (step.kind == OpKind::kRmdir && state.out_parts.size() - state.out_head <= kCommitLag) {
    step = stream[0];  // /out is below the lag: start the next iteration
    state.cursor = 1;
  }

  OpSample sample{};
  sample.kind = step.kind;
  Stopwatch timer;
  switch (step.kind) {
    case OpKind::kStatObject: {
      StatResult result = service.StatObject(inputs.ns.objects[step.target]);
      if (result.ok() &&
          (result.info.is_dir || result.info.size != inputs.ns.object_sizes[step.target])) {
        NoteError(state, "StatObject " + inputs.ns.objects[step.target] + " returned size " +
                             std::to_string(result.info.size));
      }
      *raw = std::move(result);
      break;
    }
    case OpKind::kStatDir: {
      StatResult result = service.StatDir(inputs.ns.dirs[step.target]);
      if (result.ok() && (!result.info.is_dir ||
                          result.info.child_count != inputs.dir_child_count[step.target])) {
        NoteError(state, "StatDir " + inputs.ns.dirs[step.target] + " returned child count " +
                             std::to_string(result.info.child_count));
      }
      *raw = std::move(result);
      break;
    }
    case OpKind::kCreate: {
      std::string path = ClientDir(inputs, client) + "/o" + std::to_string(state.next_object++);
      *raw = service.CreateObject(path, step.size);
      if (raw->ok()) {
        state.live.emplace_back(std::move(path), step.size);
      }
      break;
    }
    case OpKind::kDelete: {
      const std::string& victim = state.live[state.live_head].first;
      *raw = service.DeleteObject(victim);
      if (raw->ok()) {
        state.deleted.push_back(victim);
        ++state.live_head;
        // Keep the FIFOs small: memory is a reported metric.
        if (state.live_head >= kFifoTrim) {
          state.live.erase(state.live.begin(),
                           state.live.begin() + static_cast<ptrdiff_t>(state.live_head));
          state.live_head = 0;
        }
        if (state.deleted.size() >= kFifoTrim) {
          state.deleted.erase(state.deleted.begin(),
                              state.deleted.end() - static_cast<ptrdiff_t>(kDeletedChecked));
        }
      }
      break;
    }
    case OpKind::kMkdir:
      *raw = service.Mkdir(StageDir(inputs, client) + "/t" + std::to_string(state.iteration));
      break;
    case OpKind::kRename: {
      const std::string tag = "c" + std::to_string(client) + "_t" + std::to_string(state.iteration);
      *raw = service.RenameDir(StageDir(inputs, client) + "/t" + std::to_string(state.iteration),
                               OutDir(inputs) + "/" + tag);
      ++state.iteration;
      if (raw->ok()) {
        state.out_parts.push_back(tag);
      }
      break;
    }
    case OpKind::kRmdir:
      *raw = service.Rmdir(OutDir(inputs) + "/" + state.out_parts[state.out_head]);
      if (raw->ok() && ++state.out_head >= kFifoTrim) {
        state.out_parts.erase(state.out_parts.begin(),
                              state.out_parts.begin() + static_cast<ptrdiff_t>(state.out_head));
        state.out_head = 0;
      }
      break;
  }
  sample.latency_nanos = timer.ElapsedNanos();
  sample.ok = raw->ok();
  if (!raw->ok()) {
    NoteError(state, std::string(OpKindName(step.kind)) + " failed: " + raw->status.ToString());
  }
  return sample;
}

// Post-window output checks for the write workloads.
std::string CheckOutputs(Instance& instance, const Inputs& inputs,
                         const std::vector<ClientState>& states) {
  MantleService& service = *instance.service;
  if (inputs.workload == "objchurn") {
    for (int c = 0; c < kClients; ++c) {
      const ClientState& state = states[c];
      std::vector<std::string> live;
      for (size_t i = state.live_head; i < state.live.size(); ++i) {
        live.push_back(state.live[i].first);
      }
      mantle::MultiOpResult stats = service.MultiStat(live);
      for (size_t i = 0; i < live.size(); ++i) {
        const StatResult& result = stats.results[i];
        if (!result.ok() || result.info.size != state.live[state.live_head + i].second) {
          return "live object " + live[i] + " does not stat with its size: " +
                 result.status.ToString();
        }
      }
      const size_t first = state.deleted.size() - std::min(state.deleted.size(), kDeletedChecked);
      std::vector<std::string> gone(state.deleted.begin() + static_cast<ptrdiff_t>(first),
                                    state.deleted.end());
      mantle::MultiOpResult missing = service.MultiStat(gone);
      for (size_t i = 0; i < gone.size(); ++i) {
        if (!missing.results[i].status.IsNotFound()) {
          return "deleted object " + gone[i] + " still stats: " +
                 missing.results[i].status.ToString();
        }
      }
      StatResult dir = service.StatDir(ClientDir(inputs, c));
      if (!dir.ok() || dir.info.child_count != static_cast<int64_t>(live.size())) {
        return "client dir " + ClientDir(inputs, c) + " child count " +
               std::to_string(dir.info.child_count) + " != " + std::to_string(live.size());
      }
    }
  } else if (inputs.workload == "dircommit") {
    std::set<std::string> expected;
    for (const ClientState& state : states) {
      expected.insert(state.out_parts.begin() + static_cast<ptrdiff_t>(state.out_head),
                      state.out_parts.end());
    }
    std::vector<std::string> names;
    OpResult listed = service.ReadDir(OutDir(inputs), &names);
    if (!listed.ok() || std::set<std::string>(names.begin(), names.end()) != expected ||
        names.size() != expected.size()) {
      return "/out lists " + std::to_string(names.size()) + " parts, expected " +
             std::to_string(expected.size());
    }
    StatResult out = service.StatDir(OutDir(inputs));
    if (!out.ok() || out.info.child_count != static_cast<int64_t>(expected.size())) {
      return "/out child count " + std::to_string(out.info.child_count) + " != " +
             std::to_string(expected.size());
    }
    Stopwatch drain;
    while (service.tafdb()->PendingCompactions() > 0 && drain.ElapsedNanos() < 10'000'000'000) {
      mantle::PreciseSleep(5'000'000);
    }
    if (service.tafdb()->PendingCompactions() > 0) {
      return "compaction backlog did not drain";
    }
    MantleService::ConsistencyReport fsck = service.Fsck();
    if (!fsck.clean()) {
      return "fsck found divergence after dircommit";
    }
  }
  return "";
}

}  // namespace

PhaseRunner::PhaseRunner(CostModel cost, const Inputs* inputs, PhaseTracer* tracer)
    : cost_(std::move(cost)), inputs_(inputs), tracer_(tracer), states_(kClients),
      samples_(kClients) {
  for (int c = 0; c < kClients; ++c) {
    if (inputs_->workload == "objchurn") {
      for (uint64_t k = 0; k < kPreloadedObjects; ++k) {
        const size_t i = static_cast<size_t>(c) * kPreloadedObjects + k;
        states_[c].live.emplace_back(inputs_->extra_objects[i], inputs_->extra_object_sizes[i]);
      }
      states_[c].next_object = kPreloadedObjects;
    }
  }
}

PhaseRunner::~PhaseRunner() { StopClients(); }

bool PhaseRunner::SetUp(double warmup_seconds) {
  instance_ = MakeInstance(cost_);
  Stopwatch setup;
  if (!Populate(instance_, *inputs_, &outcome_.error)) {
    outcome_.correct = false;
    return false;
  }
  outcome_.populate_seconds = setup.ElapsedSeconds();
  WarmPathCaches(instance_, *inputs_);
  outcome_.cache_warm_seconds = setup.ElapsedSeconds() - outcome_.populate_seconds;
  for (int c = 0; c < kClients; ++c) {
    clients_.emplace_back([this, c]() { ClientLoop(c); });
  }
  SetGate(Gate::kRunning);
  mantle::PreciseSleep(static_cast<int64_t>(warmup_seconds * 1e9));
  Park();
  outcome_.setup_seconds = setup.ElapsedSeconds();
  if (tracer_ != nullptr) {
    tracer_->Start(instance_);
  }
  return true;
}

void PhaseRunner::MeasureSlice(double seconds) {
  if (clients_.empty()) {
    return;  // set-up failed
  }
  // Let the closed loop refill after the park before the slice opens.
  SetGate(Gate::kRunning);
  mantle::PreciseSleep(kSliceSettleNanos);
  if (tracer_ != nullptr) {
    tracer_->OnSliceStart(instance_);
  }
  Slice slice;
  slice.cpu_seconds = ProcessCpuSeconds();
  slice.start_nanos = mantle::MonotonicNanos();
  measuring_slice_.store(static_cast<int>(outcome_.slices.size()), std::memory_order_release);
  mantle::PreciseSleep(static_cast<int64_t>(seconds * 1e9));
  measuring_slice_.store(-1, std::memory_order_release);
  slice.end_nanos = mantle::MonotonicNanos();
  slice.cpu_seconds = ProcessCpuSeconds() - slice.cpu_seconds;
  outcome_.slices.push_back(slice);
  Park();
  if (tracer_ != nullptr) {
    tracer_->OnSliceEnd(instance_);
  }
}

PhaseOutcome PhaseRunner::Finish() {
  StopClients();
  if (tracer_ != nullptr) {
    tracer_->Stop();
  }
  for (auto& client_samples : samples_) {
    outcome_.samples.insert(outcome_.samples.end(), client_samples.begin(), client_samples.end());
    client_samples.clear();
  }
  for (const ClientState& state : states_) {
    if (!state.error.empty() && outcome_.correct) {
      outcome_.correct = false;
      outcome_.error = state.error;
    }
  }
  if (outcome_.correct && instance_.service != nullptr) {
    outcome_.error = CheckOutputs(instance_, *inputs_, states_);
    outcome_.correct = outcome_.error.empty();
  }
  return std::move(outcome_);
}

void PhaseRunner::ClientLoop(int client) {
  samples_[client].reserve(1 << 18);
  while (true) {
    if (gate_.load(std::memory_order_acquire) != Gate::kRunning) {
      std::unique_lock<std::mutex> lock(gate_mu_);
      ++parked_;
      gate_cv_.notify_all();
      gate_cv_.wait(lock, [this] { return gate_.load() != Gate::kParked; });
      --parked_;
      if (gate_.load() == Gate::kStopped) {
        return;
      }
    }
    const int slice = measuring_slice_.load(std::memory_order_acquire);
    OpResult raw;
    OpSample sample;
    if (tracer_ != nullptr && slice >= 0) {
      mantle::obs::ScopedTraceCapture capture;
      const int64_t start = mantle::MonotonicNanos();
      sample = RunStep(*instance_.service, *inputs_, client, states_[client], &raw);
      tracer_->RecordOp(client, sample, start, raw, capture.traces());
    } else {
      sample = RunStep(*instance_.service, *inputs_, client, states_[client], &raw);
    }
    if (slice >= 0) {
      sample.slice = static_cast<int16_t>(slice);
      samples_[client].push_back(sample);
    }
  }
}

void PhaseRunner::SetGate(Gate gate) {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_.store(gate, std::memory_order_release);
  }
  gate_cv_.notify_all();
}

void PhaseRunner::Park() {
  SetGate(Gate::kParked);
  std::unique_lock<std::mutex> lock(gate_mu_);
  gate_cv_.wait(lock, [this] { return parked_ == kClients; });
}

void PhaseRunner::StopClients() {
  SetGate(Gate::kStopped);
  for (std::thread& client : clients_) {
    client.join();
  }
  clients_.clear();
}

// --- helpers ------------------------------------------------------------------------

double PercentileNanos(std::vector<int64_t> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return static_cast<double>(values[index]);
}

int64_t MedianNanos(std::vector<int64_t> values) {
  return static_cast<int64_t>(PercentileNanos(std::move(values), 0.5));
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
