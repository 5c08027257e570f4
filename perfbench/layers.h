// Per-layer measurement for the traced run.
//
// Everything here is measured from the benchmark's side of the program's
// public surface: per-op span trees the program already records (captured
// with ScopedTraceCapture and rolled up with AnalyzeCriticalPath), public
// counters read as before/after deltas around the measured window, gauges
// sampled every 100 ms, and direct timed calls into each layer's public
// functions on the idle instance after the window. The benchmark keeps its
// own spans (one per op and one per probe call) in memory and writes them
// out as JSON lines when the run ends.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <ostream>
#include <thread>

#include "perfbench/bench.h"
#include "src/obs/trace.h"

namespace perfbench {

// One benchmark-side span: a call the benchmark made into a layer.
struct SpanRecord {
  uint64_t op;
  const char* layer;  // core, index, tafdb, net, raft
  const char* name;
  int64_t start_nanos;
  int64_t end_nanos;
  int64_t parent;  // op id of the enclosing span, -1 = none
};

// What a traced op contributes to the per-layer figures.
struct TracedOp {
  OpKind kind;
  int retries;
  int proposes;  // raft.propose spans in the op's trace
  int64_t lookup_nanos;
  int64_t loop_detect_nanos;
  int64_t execute_nanos;
  int64_t queue_nanos;  // critical-path rollup
  int64_t service_nanos;
  int64_t wire_nanos;
  int64_t logic_nanos;
  int64_t propose_nanos;
};

class PhaseTracer {
 public:
  PhaseTracer(std::string phase, const Inputs* inputs);
  ~PhaseTracer();

  PhaseTracer(const PhaseTracer&) = delete;
  PhaseTracer& operator=(const PhaseTracer&) = delete;

  // The gauge sampler runs from Start to Stop; counters are read at each
  // slice's start and end, and only the deltas inside slices are kept.
  void Start(Instance& instance);
  void OnSliceStart(Instance& instance);
  void OnSliceEnd(Instance& instance);
  void Stop();

  // Records one measured op: its phase breakdown, the critical-path rollup
  // and raft.propose time of its span trees, and the benchmark's span for
  // it. Called on client thread `client`.
  void RecordOp(int client, const OpSample& sample, int64_t start_nanos,
                const mantle::OpResult& result, const std::deque<mantle::obs::OpTrace>& traces);

  // Timed direct calls into the index, TafDB, fabric and Raft layers on the
  // idle instance (after the window).
  void RunProbes(Instance& instance);

  // This phase's per-layer metrics; names are prefixed "host." for the host
  // phase.
  void Report(std::vector<Metric>* out) const;

  void WriteSpans(std::ostream& out) const;

 private:
  struct Counters {
    uint64_t rpcs = 0;
    uint64_t tasks_leader = 0;
    uint64_t tasks_follower = 0;
    uint64_t tasks_raft = 0;
    uint64_t tasks_tafdb = 0;
    uint64_t txn_started = 0;
    uint64_t txn_aborted = 0;
    uint64_t txn_single = 0;
    uint64_t txn_multi = 0;
    uint64_t fsyncs = 0;
    uint64_t entries_persisted = 0;
    uint64_t proposals = 0;
    uint64_t batches = 0;
    uint64_t read_index_queries = 0;
    uint64_t offloads = 0;
    uint64_t delta_appends = 0;
  };
  Counters Snapshot(Instance& instance) const;
  static void Accumulate(const Counters& from, const Counters& to, Counters* sum);
  void SampleLoop(Instance* instance);
  template <typename Fn>
  int64_t TimeProbe(const char* layer, const char* name, Fn&& fn);

  std::string phase_;
  const Inputs* inputs_;
  uint32_t leader_id_ = 0;
  Counters slice_start_;
  Counters totals_;  // summed over slices

  std::vector<std::vector<TracedOp>> ops_;         // per client
  std::vector<std::vector<SpanRecord>> op_spans_;  // per client
  std::vector<SpanRecord> probe_spans_;
  uint64_t next_probe_ = 0;

  // Probe results.
  std::vector<int64_t> lookup_nanos_;
  std::vector<int64_t> get_nanos_;
  std::vector<int64_t> dir_attr_nanos_;
  std::vector<int64_t> call_idle_nanos_;
  std::vector<int64_t> fanout_nanos_;
  std::vector<int64_t> propose_probe_nanos_;
  uint64_t probe_cache_hits_ = 0;
  uint64_t probe_table_probes_ = 0;
  uint64_t probe_lookups_ = 0;

  // Gauge sampler (every 100 ms from Start to Stop).
  std::mutex sampler_mu_;
  std::condition_variable sampler_cv_;
  bool sampler_stop_ = false;
  int64_t removal_list_depth_max_ = 0;
  int64_t compaction_backlog_max_ = 0;
  std::thread sampler_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
