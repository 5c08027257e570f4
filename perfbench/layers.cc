#include "perfbench/layers.h"

#include <future>

#include "src/common/clock.h"
#include "src/common/path.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"

namespace perfbench {

namespace {

constexpr size_t kMaxOpSpansPerClient = 50'000;
constexpr int kIndexProbes = 256;
constexpr int kNetProbes = 512;
constexpr int kProposeProbes = 32;

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

double MedianMicros(const std::vector<int64_t>& nanos) {
  return static_cast<double>(MedianNanos(nanos)) / 1e3;
}

std::vector<mantle::ServerExecutor*> TafDbServers(Network& network) {
  std::vector<mantle::ServerExecutor*> servers;
  for (int i = 0;; ++i) {
    mantle::ServerExecutor* server = network.FindServer("tafdb-" + std::to_string(i));
    if (server == nullptr) {
      return servers;
    }
    servers.push_back(server);
  }
}

uint64_t CounterValue(const char* name) {
  return mantle::obs::Metrics::Instance().CounterValue(name);
}

}  // namespace

PhaseTracer::PhaseTracer(std::string phase, const Inputs* inputs)
    : phase_(std::move(phase)), inputs_(inputs), ops_(kClients), op_spans_(kClients) {}

PhaseTracer::~PhaseTracer() { Stop(); }

PhaseTracer::Counters PhaseTracer::Snapshot(Instance& instance) const {
  Counters counters;
  counters.rpcs = instance.network->total_rpcs();
  mantle::RaftGroup* group = instance.service->index()->group();
  for (uint32_t id = 0; id < group->num_nodes(); ++id) {
    mantle::RaftNode* node = group->node(id);
    if (node == nullptr) {
      continue;
    }
    (id == leader_id_ ? counters.tasks_leader : counters.tasks_follower) +=
        node->server()->completed_tasks();
    counters.tasks_raft += node->raft_server()->completed_tasks();
    counters.read_index_queries += node->stats().read_index_queries.load();
    if (id == leader_id_) {
      counters.fsyncs = node->storage().fsyncs();
      counters.entries_persisted = node->storage().entries_persisted();
      counters.proposals = node->stats().proposals.load();
      counters.batches = node->stats().batches.load();
    }
  }
  for (mantle::ServerExecutor* server : TafDbServers(*instance.network)) {
    counters.tasks_tafdb += server->completed_tasks();
  }
  const mantle::TxnStats& txn = instance.service->tafdb()->txn_stats();
  counters.txn_started = txn.started.load();
  counters.txn_aborted = txn.aborted.load();
  counters.txn_single = txn.single_shard.load();
  counters.txn_multi = txn.multi_shard.load();
  counters.offloads = CounterValue("index.read.offload");
  counters.delta_appends = CounterValue("tafdb.delta.appends");
  return counters;
}

void PhaseTracer::Accumulate(const Counters& from, const Counters& to, Counters* sum) {
  for (uint64_t Counters::*field :
       {&Counters::rpcs, &Counters::tasks_leader, &Counters::tasks_follower,
        &Counters::tasks_raft, &Counters::tasks_tafdb, &Counters::txn_started,
        &Counters::txn_aborted, &Counters::txn_single, &Counters::txn_multi, &Counters::fsyncs,
        &Counters::entries_persisted, &Counters::proposals, &Counters::batches,
        &Counters::read_index_queries, &Counters::offloads, &Counters::delta_appends}) {
    sum->*field += to.*field - from.*field;
  }
}

void PhaseTracer::Start(Instance& instance) {
  mantle::RaftNode* leader = instance.service->index()->group()->leader();
  leader_id_ = leader != nullptr ? leader->id() : 0;
  sampler_ = std::thread([this, &instance]() { SampleLoop(&instance); });
}

void PhaseTracer::OnSliceStart(Instance& instance) { slice_start_ = Snapshot(instance); }

void PhaseTracer::OnSliceEnd(Instance& instance) {
  Accumulate(slice_start_, Snapshot(instance), &totals_);
}

void PhaseTracer::Stop() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) {
    sampler_.join();
  }
}

void PhaseTracer::SampleLoop(Instance* instance) {
  mantle::IndexService* index = instance->service->index();
  std::unique_lock<std::mutex> lock(sampler_mu_);
  while (!sampler_stop_) {
    for (uint32_t id = 0; id < index->num_replicas(); ++id) {
      if (mantle::IndexReplica* replica = index->replica(id)) {
        removal_list_depth_max_ = std::max<int64_t>(
            removal_list_depth_max_, static_cast<int64_t>(replica->removal_list().LiveCount()));
      }
    }
    compaction_backlog_max_ = std::max<int64_t>(
        compaction_backlog_max_,
        static_cast<int64_t>(instance->service->tafdb()->PendingCompactions()));
    sampler_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] { return sampler_stop_; });
  }
}

void PhaseTracer::RecordOp(int client, const OpSample& sample, int64_t start_nanos,
                           const mantle::OpResult& result,
                           const std::deque<mantle::obs::OpTrace>& traces) {
  TracedOp op{sample.kind,
              result.retries,
              0,
              result.breakdown.lookup_nanos,
              result.breakdown.loop_detect_nanos,
              result.breakdown.execute_nanos,
              0,
              0,
              0,
              0,
              0};
  for (const mantle::obs::OpTrace& trace : traces) {
    const auto& spans = trace.spans();
    const mantle::obs::PathAttribution path = mantle::obs::AnalyzeCriticalPath(spans);
    op.queue_nanos += path.queue_nanos;
    op.service_nanos += path.service_nanos;
    op.wire_nanos += path.wire_nanos;
    op.logic_nanos += path.logic_nanos;
    for (const mantle::obs::OpTrace::Span& span : spans) {
      if (span.name.rfind("raft.propose.", 0) == 0 && span.end_nanos != 0) {
        op.propose_nanos += span.DurationNanos();
        ++op.proposes;
      }
    }
  }
  std::vector<TracedOp>& client_ops = ops_[client];
  client_ops.push_back(op);
  if (op_spans_[client].size() < kMaxOpSpansPerClient) {
    const uint64_t id = (static_cast<uint64_t>(client + 1) << 32) | client_ops.size();
    op_spans_[client].push_back(SpanRecord{id, "core", OpKindName(sample.kind), start_nanos,
                                           start_nanos + sample.latency_nanos, -1});
  }
}

template <typename Fn>
int64_t PhaseTracer::TimeProbe(const char* layer, const char* name, Fn&& fn) {
  const int64_t start = mantle::MonotonicNanos();
  fn();
  const int64_t end = mantle::MonotonicNanos();
  const uint64_t op = (static_cast<uint64_t>(kClients + 1) << 32) | next_probe_++;
  probe_spans_.push_back(SpanRecord{op, layer, name, start, end, -1});
  return end - start;
}

void PhaseTracer::RunProbes(Instance& instance) {
  const Inputs& inputs = *inputs_;
  mantle::IndexService* index = instance.service->index();
  mantle::TafDb* tafdb = instance.service->tafdb();

  // Paths the workload resolves: its stat targets, or the dircommit stage
  // dirs; dir-attr reads go to the targets' parents, or to the shared /out.
  std::vector<std::string> paths;
  std::vector<std::string> attr_dirs;
  if (inputs.workload == "dircommit") {
    for (int c = 0; c < kClients; ++c) {
      paths.push_back(inputs.client_base + "/stage/c" + std::to_string(c));
    }
    attr_dirs.push_back(inputs.client_base + "/out");
  } else {
    for (const Step& step : inputs.streams[0]) {
      if (step.kind == OpKind::kStatObject && paths.size() < kIndexProbes) {
        const std::string& object = inputs.ns.objects[step.target];
        paths.push_back(object);
        attr_dirs.push_back(object.substr(0, object.rfind('/')));
      }
    }
  }

  for (int i = 0; i < kIndexProbes; ++i) {
    const std::string& path = paths[static_cast<size_t>(i) % paths.size()];
    const std::vector<std::string> components = mantle::SplitPath(path);
    mantle::Result<mantle::IndexReplica::ResolveOutcome> outcome =
        mantle::Status::Internal("unset");
    lookup_nanos_.push_back(TimeProbe("index", "lookup_parent", [&] {
      outcome = index->LookupParent(components);
    }));
    if (!outcome.ok()) {
      continue;
    }
    ++probe_lookups_;
    probe_cache_hits_ += outcome->cache_hit ? 1 : 0;
    probe_table_probes_ += static_cast<uint64_t>(outcome->table_probes);
    const mantle::MetaKey key = mantle::EntryKey(outcome->dir_id, components.back());
    get_nanos_.push_back(TimeProbe("tafdb", "get", [&] { tafdb->Get(key); }));
  }
  std::vector<mantle::InodeId> attr_ids;
  for (const std::string& dir : attr_dirs) {
    auto outcome = index->LookupDir(mantle::SplitPath(dir));
    if (outcome.ok()) {
      attr_ids.push_back(outcome->dir_id);
    }
  }
  for (int i = 0; !attr_ids.empty() && i < kIndexProbes; ++i) {
    const mantle::InodeId id = attr_ids[static_cast<size_t>(i) % attr_ids.size()];
    dir_attr_nanos_.push_back(TimeProbe("tafdb", "read_dir_attr", [&] { tafdb->ReadDirAttr(id); }));
  }

  // Fabric: one idle round trip, and a fan-out to every TafDB server.
  std::vector<mantle::ServerExecutor*> servers = TafDbServers(*instance.network);
  for (int i = 0; i < kNetProbes; ++i) {
    call_idle_nanos_.push_back(
        TimeProbe("net", "call_idle", [&] { servers[0]->Call([] { return 0; }); }));
  }
  for (int i = 0; i < kNetProbes; ++i) {
    fanout_nanos_.push_back(TimeProbe("net", "fanout", [&] {
      std::vector<std::future<int>> replies;
      for (mantle::ServerExecutor* server : servers) {
        replies.push_back(server->CallAsync([] { return 0; }));
      }
      instance.network->InjectDelay();
      for (std::future<int>& reply : replies) {
        reply.get();
      }
    }));
  }

  // Raft: replicated no-op permission updates on one workload directory.
  // Runs last - each commit invalidates cached prefixes under that dir.
  const std::string dir = inputs.workload == "dircommit" ? paths[0] : inputs.ns.dirs.back();
  const std::vector<std::string> components = mantle::SplitPath(dir);
  auto parent = index->LookupParent(components);
  for (int i = 0; parent.ok() && i < kProposeProbes; ++i) {
    propose_probe_nanos_.push_back(TimeProbe("raft", "propose_set_permission", [&] {
      index->SetPermission(parent->dir_id, components.back(), mantle::kPermAll, dir);
    }));
  }
}

void PhaseTracer::Report(std::vector<Metric>* out) const {
  const std::string prefix = phase_ == "host" ? "host." : "";
  auto emit = [&](const std::string& name, double value, const char* unit) {
    out->push_back(Metric{prefix + name, value, unit});
  };
  std::vector<int64_t> lookup, execute, loop_detect, propose;
  double ops = 0, retries = 0, queue = 0, service = 0, wire = 0, logic = 0, resolving_ops = 0;
  for (const std::vector<TracedOp>& client_ops : ops_) {
    for (const TracedOp& op : client_ops) {
      if (op.lookup_nanos > 0) lookup.push_back(op.lookup_nanos);
      if (op.execute_nanos > 0) execute.push_back(op.execute_nanos);
      if (op.loop_detect_nanos > 0) loop_detect.push_back(op.loop_detect_nanos);
      if (op.proposes > 0) propose.push_back(op.propose_nanos / op.proposes);
      ops += 1;
      retries += op.retries;
      queue += static_cast<double>(op.queue_nanos);
      service += static_cast<double>(op.service_nanos);
      wire += static_cast<double>(op.wire_nanos);
      logic += static_cast<double>(op.logic_nanos);
      // Renames resolve inside RenamePrepare, not through a lookup.
      resolving_ops += op.kind == OpKind::kRename ? 0 : 1;
    }
  }
  auto delta = [&](uint64_t Counters::*field) { return static_cast<double>(totals_.*field); };

  emit("core.lookup_us", MedianMicros(lookup), "us");
  emit("core.execute_us", MedianMicros(execute), "us");
  emit("core.loop_detect_us", MedianMicros(loop_detect), "us");
  emit("core.retries_per_op", Ratio(retries, ops), "count");

  emit("net.rpcs_per_op", Ratio(delta(&Counters::rpcs), ops), "count");
  emit("net.call_idle_us", MedianMicros(call_idle_nanos_), "us");
  emit("net.fanout6_us", MedianMicros(fanout_nanos_), "us");
  emit("net.queue_us", Ratio(queue, ops) / 1e3, "us");
  emit("net.wire_us", Ratio(wire, ops) / 1e3, "us");
  emit("net.service_us", Ratio(service, ops) / 1e3, "us");
  emit("net.logic_us", Ratio(logic, ops) / 1e3, "us");
  emit("net.tasks_per_op.index_leader", Ratio(delta(&Counters::tasks_leader), ops), "count");
  emit("net.tasks_per_op.index_follower", Ratio(delta(&Counters::tasks_follower), ops), "count");
  emit("net.tasks_per_op.index_raft", Ratio(delta(&Counters::tasks_raft), ops), "count");
  emit("net.tasks_per_op.tafdb", Ratio(delta(&Counters::tasks_tafdb), ops), "count");

  emit("index.lookup_us", MedianMicros(lookup_nanos_), "us");
  emit("index.cache_hit_ratio",
       Ratio(static_cast<double>(probe_cache_hits_), static_cast<double>(probe_lookups_)),
       "ratio");
  emit("index.probes_per_lookup",
       Ratio(static_cast<double>(probe_table_probes_), static_cast<double>(probe_lookups_)),
       "count");
  emit("index.offload_share", Ratio(delta(&Counters::offloads), resolving_ops), "ratio");
  emit("index.removal_list_depth_max", static_cast<double>(removal_list_depth_max_), "count");

  // The workload's own propose spans where it proposes; otherwise the probe.
  emit("raft.propose_us", MedianMicros(propose.empty() ? propose_probe_nanos_ : propose), "us");
  emit("raft.entries_per_fsync",
       Ratio(delta(&Counters::entries_persisted), delta(&Counters::fsyncs)), "count");
  emit("raft.proposals_per_batch", Ratio(delta(&Counters::proposals), delta(&Counters::batches)),
       "count");
  emit("raft.read_index_per_follower_read",
       Ratio(delta(&Counters::read_index_queries), delta(&Counters::tasks_follower)), "count");

  emit("tafdb.get_us", MedianMicros(get_nanos_), "us");
  emit("tafdb.dir_attr_us", MedianMicros(dir_attr_nanos_), "us");
  emit("tafdb.delta_appends_per_op", Ratio(delta(&Counters::delta_appends), ops), "count");
  emit("tafdb.compaction_backlog_max", static_cast<double>(compaction_backlog_max_), "count");

  emit("txn.abort_ratio", Ratio(delta(&Counters::txn_aborted), delta(&Counters::txn_started)),
       "ratio");
  emit("txn.multi_shard_share",
       Ratio(delta(&Counters::txn_multi),
             delta(&Counters::txn_single) + delta(&Counters::txn_multi)),
       "ratio");
}

void PhaseTracer::WriteSpans(std::ostream& out) const {
  auto write = [&](const SpanRecord& span) {
    out << "{\"phase\":\"" << phase_ << "\",\"op\":" << span.op << ",\"layer\":\"" << span.layer
        << "\",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_nanos
        << ",\"end_ns\":" << span.end_nanos << ",\"parent\":" << span.parent << "}\n";
  };
  for (const auto& client_spans : op_spans_) {
    for (const SpanRecord& span : client_spans) {
      write(span);
    }
  }
  for (const SpanRecord& span : probe_spans_) {
    write(span);
  }
}

}  // namespace perfbench
