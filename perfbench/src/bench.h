#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared state of one benchmark run: the workload's fixed settings, the
// inputs made from the seed, and the serving stack under test.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/trained_deepmvi.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "tensor/data_tensor.h"
#include "tensor/mask.h"
#include "trace.h"

namespace perfbench {

using deepmvi::DataTensor;
using deepmvi::Mask;

// Every thread and connection count is pinned here, never left at hardware
// concurrency. On a 4-core machine the busy threads stay within four:
// training runs alone on kFitThreads; while serving, kServiceThreads fan a
// micro-batch out and the kConnections client threads mostly wait on their
// sockets. The server keeps more HTTP workers than the client has
// connections, so no connection ever waits for a worker.
constexpr int kFitThreads = 2;
constexpr int kServiceThreads = 2;
constexpr int kHttpWorkers = 3;
constexpr int kConnections = 2;
constexpr int kMaxBatch = 8;
constexpr int kSetupRepeats = 5;

struct WorkloadSpec {
  std::string name;
  std::string preset;
  bool http = false;        // Served over loopback HTTP.
  double cache_mb = 0.0;    // Response cache budget (0 = off, the default).
  int epochs = 0;           // Fixed: patience == max_epochs.
  int samples_per_epoch = 128;
  int distinct_queries = 0; // > 0: requests cycle through this many.
  // Open loop (HTTP workloads).
  double reference_rps = 0.0;
  std::vector<double> ladder_rps;
  double limit_ms = 0.0;    // Latency limit on the tail.
  // Batch workload: scenario masks cycled by the closed loop.
  int batch_masks = 0;
  // Traced run: serving probe rate and size.
  double probe_rps = 0.0;
  int probe_count = 0;
};

struct Inputs {
  DataTensor data;  // Complete: the ground truth for every held-out cell.
  std::shared_ptr<const DataTensor> shared;
  Mask base;
  std::vector<deepmvi::serve::WorkloadQuery> queries;
  std::vector<Mask> batch_masks;
};

/// The serving stack of the HTTP workloads, torn down in reverse order.
struct Serving {
  std::unique_ptr<deepmvi::serve::ImputationService> service;
  std::unique_ptr<deepmvi::net::HttpServer> server;
  std::vector<std::unique_ptr<deepmvi::net::Client>> clients;
  ~Serving();
};

/// Builds the service with the workload's settings, loads `checkpoint` as
/// model "default", and starts the HTTP server on a free loopback port
/// with one client per connection. Load is timed as "core.load".
bool StartServing(const WorkloadSpec& spec, const Inputs& inputs,
                  const std::string& checkpoint, SpanRecorder& trace,
                  int parent, Serving* serving);

std::string QueryBody(const deepmvi::serve::WorkloadQuery& query);

/// One POST /v1/impute over `client`; false on a transport error or a
/// status other than 200.
bool PostQuery(deepmvi::net::Client& client,
               const deepmvi::serve::WorkloadQuery& query, std::string* body);

/// Per-layer metrics of the traced run. Runs after the timed phases on the
/// workload's own model and inputs.
struct ProbeContext {
  const WorkloadSpec& spec;
  const Inputs& inputs;
  const std::string& checkpoint;
  Serving* serving;  // Null for the in-process workload.
  bool smoke = false;
};
bool RunLayerProbes(const ProbeContext& ctx, SpanRecorder& trace,
                    std::map<std::string, double>* metrics);

/// Process resource usage (getrusage): CPU seconds and minor faults.
double ProcessCpuSeconds();
int64_t ProcessMinorFaults();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
