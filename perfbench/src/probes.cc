// Per-layer probes of the traced run. Each probe calls one layer's public
// functions directly, under spans recorded here, on the workload's own
// model and inputs; the per-layer metrics are read back from the spans.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "autodiff/ops.h"
#include "autodiff/tape.h"
#include "bench.h"
#include "common/rng.h"
#include "core/deepmvi_modules.h"
#include "net/codec.h"
#include "nn/adam.h"
#include "stats.h"
#include "tensor/matmul_kernel.h"

namespace perfbench {

namespace {

using deepmvi::Matrix;
using deepmvi::TrainedDeepMvi;
using deepmvi::serve::WorkloadQuery;

double MedianMs(const SpanRecorder& trace, const char* name) {
  return Median(trace.Durations(name)) * 1e3;
}

// The serving probe: the same requests on the same open-loop schedule,
// first over HTTP and then through the in-process Submit, so the gap
// between the two medians is the network front-end's cost.
bool ProbeServing(const ProbeContext& ctx, const std::vector<WorkloadQuery>& probe,
                  SpanRecorder& trace, int parent,
                  std::map<std::string, double>* m) {
  Serving own;
  Serving* serving = ctx.serving;
  if (serving == nullptr) {
    if (!StartServing(ctx.spec, ctx.inputs, ctx.checkpoint, trace, parent,
                      &own)) {
      return false;
    }
    serving = &own;
    for (auto& client : serving->clients) {
      std::string body;
      if (!PostQuery(*client, probe[0], &body)) return false;
    }
  }
  const int count = static_cast<int>(probe.size());
  deepmvi::serve::ImputationService& service = *serving->service;
  auto submit = [&](const WorkloadQuery& query) {
    return service
        .Submit(deepmvi::serve::MakeQueryRequest("default", ctx.inputs.shared,
                                                 ctx.inputs.base, query))
        .get();
  };

  // Each query goes once over HTTP and once through the in-process Submit,
  // alternating on one open-loop schedule, so both paths see the same load
  // and the same state of the host.
  std::vector<size_t> body_bytes(count, 0);
  std::vector<double> queue_s(count, 0.0);
  std::vector<double> predict_s(count, 0.0);
  const LoopResult paired = RunOpenLoop(
      ctx.spec.probe_rps, 2 * count, kConnections, [&](int i, int c) {
        const int q = i / 2;
        if (i % 2 == 0) {
          Span span(trace, "net.http", parent, q);
          std::string body;
          const bool ok = PostQuery(*serving->clients[c], probe[q], &body);
          body_bytes[q] = body.size();
          return ok;
        }
        Span span(trace, "serve.submit", parent, q);
        const deepmvi::serve::ImputationResponse response = submit(probe[q]);
        queue_s[q] = response.queue_seconds;
        predict_s[q] = response.predict_seconds;
        return response.status.ok();
      });

  // In process alone, for the service's own counters and CPU time.
  service.ResetTelemetry();
  const double cpu_before = ProcessCpuSeconds();
  const LoopResult local = RunOpenLoop(
      ctx.spec.probe_rps, count, kConnections,
      [&](int i, int) { return submit(probe[i]).status.ok(); });
  const double cpu_s = ProcessCpuSeconds() - cpu_before;
  const deepmvi::serve::TelemetrySnapshot telemetry = service.telemetry();
  if (paired.failed > 0 || local.failed > 0) return false;

  const double submit_ms = MedianMs(trace, "serve.submit");
  (*m)["serve.submit_ms"] = submit_ms;
  (*m)["net.http_overhead_ms"] = MedianMs(trace, "net.http") - submit_ms;
  (*m)["serve.queue_ms"] = Median(queue_s) * 1e3;
  (*m)["serve.predict_ms"] = Median(predict_s) * 1e3;
  const int64_t lookups = telemetry.cache_hits + telemetry.cache_misses;
  (*m)["serve.cache_hits"] = static_cast<double>(telemetry.cache_hits);
  (*m)["serve.cache_misses"] = static_cast<double>(telemetry.cache_misses);
  (*m)["serve.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(telemetry.cache_hits) / lookups : 0.0;
  (*m)["serve.mean_batch"] = telemetry.mean_batch_size;
  (*m)["serve.cpu_ms_per_request"] = cpu_s / count * 1e3;
  double kb = 0.0;
  for (size_t bytes : body_bytes) kb += bytes / 1024.0;
  (*m)["net.response_kb"] = kb / count;

  // Codec: decode each request body, encode each answer.
  const int codec_count = std::min(count, 20);
  for (int i = 0; i < codec_count; ++i) {
    deepmvi::net::HttpMessage request;
    request.method = "POST";
    request.target = "/v1/impute";
    request.body = QueryBody(probe[i]);
    request.SetHeader("content-type", "application/json");
    {
      Span span(trace, "net.decode", parent, i);
      if (!deepmvi::net::DecodeImputeRequest(request).ok()) return false;
    }
    deepmvi::serve::ImputationRequest impute = deepmvi::serve::MakeQueryRequest(
        "default", ctx.inputs.shared, ctx.inputs.base, probe[i]);
    const Mask mask = impute.mask;
    deepmvi::serve::ImputationResponse response = service.Impute(impute);
    if (!response.status.ok()) return false;
    Span span(trace, "net.encode", parent, i);
    if (deepmvi::net::EncodeImputedJson(response, mask).empty()) return false;
  }
  (*m)["net.decode_us"] = MedianMs(trace, "net.decode") * 1e3;
  (*m)["net.encode_us"] = MedianMs(trace, "net.encode") * 1e3;
  return true;
}

// Core, autodiff, nn and tensor probes on one context window.
bool ProbeModel(const ProbeContext& ctx, const TrainedDeepMvi& model,
                const std::vector<WorkloadQuery>& probe, SpanRecorder& trace,
                int parent, std::map<std::string, double>* m) {
  const DataTensor& data = ctx.inputs.data;
  const Mask& base = ctx.inputs.base;
  const int predict_reps = ctx.smoke ? 2 : 5;
  const int reps = ctx.smoke ? 2 : 20;

  // Whole-dataset Predict under query masks, with its minor page faults.
  std::vector<double> faults;
  for (int i = 0; i < predict_reps; ++i) {
    const Mask mask = deepmvi::serve::ApplyQuery(base, probe[i % probe.size()]);
    const int64_t before = ProcessMinorFaults();
    Span span(trace, "core.predict", parent, i);
    const Matrix out = model.Predict(data, mask);
    faults.push_back(static_cast<double>(ProcessMinorFaults() - before));
    if (out.rows() != data.num_series()) return false;
  }
  (*m)["core.predict_ms"] = MedianMs(trace, "core.predict");
  (*m)["core.predict_minflt"] = Median(faults);

  // A fresh model of the same shape: the modules' weights are private to
  // TrainedDeepMvi, and the cost of a forward pass does not depend on them.
  const deepmvi::DeepMviConfig& config = model.config();
  deepmvi::nn::ParameterStore store;
  deepmvi::Rng rng(config.seed);
  const deepmvi::internal::DeepMviModules modules =
      deepmvi::internal::BuildDeepMviModules(&store, config, model.dims(), rng);

  // One context window around a query block, as Predict and Fit cut it.
  const WorkloadQuery& q = probe[0];
  const int t_len = data.num_times();
  const deepmvi::internal::Chunk chunk = deepmvi::internal::MakeChunk(
      t_len, config.window, config.max_context, q.t_start + q.block_len / 2);
  const Mask mask = deepmvi::serve::ApplyQuery(base, q);
  std::vector<int> targets;
  for (int t = chunk.start; t < chunk.start + chunk.len; ++t) {
    if (mask.missing(q.row, t)) targets.push_back(t);
  }
  const Matrix& values = data.values();
  const int windows = chunk.len / config.window;
  Matrix series(1, chunk.len);
  std::vector<double> window_avail(windows, 1.0);
  for (int t = 0; t < chunk.len; ++t) {
    if (mask.available(q.row, chunk.start + t)) {
      series(0, t) = values(q.row, chunk.start + t);
    } else {
      window_avail[t / config.window] = 0.0;
    }
  }
  for (int i = 0; i < reps; ++i) {
    {
      deepmvi::ad::Tape tape;
      Span span(trace, "core.transformer", parent, i);
      modules.transformer.Forward(tape, series, window_avail);
    }
    {
      deepmvi::ad::Tape tape;
      Span span(trace, "core.kernel_regression", parent, i);
      modules.kernel_regression.Forward(tape, data, values, mask, q.row,
                                        targets);
    }
    Span span(trace, "core.fine_grained", parent, i);
    deepmvi::internal::FineGrainedSignal(values, mask, q.row, chunk.start,
                                         config.window, targets);
  }
  (*m)["core.transformer_ms"] = MedianMs(trace, "core.transformer");
  (*m)["core.kernel_regression_ms"] = MedianMs(trace, "core.kernel_regression");
  (*m)["core.fine_grained_ms"] = MedianMs(trace, "core.fine_grained");

  // One training sample: the query block hidden on top of the base mask,
  // forward and loss on a fresh tape, then backward.
  std::vector<int> train_targets;
  for (int t = q.t_start; t < q.t_start + q.block_len && t < t_len; ++t) {
    if (base.available(q.row, t)) train_targets.push_back(t);
  }
  if (train_targets.empty()) train_targets.push_back(q.t_start);
  std::vector<uint8_t> block_rows(data.num_series(), 0);
  block_rows[q.row] = 1;
  const deepmvi::MaskOverlay overlay(base, q.t_start, q.t_start + q.block_len,
                                     block_rows);
  Matrix truth(static_cast<int>(train_targets.size()), 1);
  for (size_t i = 0; i < train_targets.size(); ++i) {
    truth(static_cast<int>(i), 0) = values(q.row, train_targets[i]);
  }
  const Matrix weight(static_cast<int>(train_targets.size()), 1, 1.0);
  std::unique_ptr<deepmvi::ad::Tape> tape;
  for (int i = 0; i < reps; ++i) {
    tape = std::make_unique<deepmvi::ad::Tape>();
    deepmvi::ad::Var loss;
    {
      Span span(trace, "autodiff.forward", parent, i);
      deepmvi::ad::Var pred = deepmvi::internal::PredictPositions(
          *tape, modules, config, data, values, overlay, q.row, chunk,
          train_targets);
      loss = deepmvi::ad::WeightedMseLoss(pred, truth, weight);
    }
    (*m)["autodiff.tape_nodes"] = tape->num_nodes();
    Span span(trace, "autodiff.backward", parent, i);
    tape->Backward(loss);
  }
  (*m)["autodiff.forward_ms"] = MedianMs(trace, "autodiff.forward");
  (*m)["autodiff.backward_ms"] = MedianMs(trace, "autodiff.backward");

  // One Adam step over every parameter, with the sample's gradients.
  std::vector<const Matrix*> grads;
  for (const auto& param : store.params()) {
    const int leaf = tape->LeafIndexFor(param.get());
    grads.push_back(leaf >= 0 ? tape->AllocatedGrad(leaf) : nullptr);
  }
  deepmvi::nn::Adam adam(&store);
  for (int i = 0; i < reps; ++i) {
    Span span(trace, "nn.adam_step", parent, i);
    adam.StepWithGrads(grads);
  }
  (*m)["nn.adam_step_us"] = MedianMs(trace, "nn.adam_step") * 1e3;

  // The blocked kernel at the attention shapes of this window: scores
  // (windows x 2p x windows) and weighted values (windows x windows x p).
  const int p = config.filters;
  const int shapes[2][3] = {{windows, 2 * p, windows}, {windows, windows, p}};
  double flops = 0.0;
  double seconds = 0.0;
  for (const auto& shape : shapes) {
    const int mm = shape[0], kk = shape[1], nn = shape[2];
    Matrix a(mm, kk), b(kk, nn), c(mm, nn);
    for (int i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform(-1.0, 1.0);
    for (int i = 0; i < b.size(); ++i) b.data()[i] = rng.Uniform(-1.0, 1.0);
    const int calls = ctx.smoke ? 50 : 400;
    const int id = trace.Begin("tensor.matmul", parent);
    for (int i = 0; i < calls; ++i) {
      deepmvi::internal::MatMulBlocked(a.data(), b.data(), c.data(), mm, kk, nn);
    }
    trace.End(id);
    flops += 2.0 * mm * kk * nn * calls;
    if (!std::isfinite(c.data()[0])) return false;
  }
  for (double s : trace.Durations("tensor.matmul")) seconds += s;
  (*m)["tensor.matmul_gflops"] = flops / seconds / 1e9;
  return true;
}

}  // namespace

bool RunLayerProbes(const ProbeContext& ctx, SpanRecorder& trace,
                    std::map<std::string, double>* metrics) {
  Span root(trace, "probes");
  deepmvi::StatusOr<TrainedDeepMvi> model = TrainedDeepMvi::Load(ctx.checkpoint);
  if (!model.ok()) return false;
  // The probe replays queries the timed phases did not send (serve-hot
  // cycles its warm set, so there every probe request is a cache hit).
  std::vector<WorkloadQuery> probe;
  for (int i = 0; i < ctx.spec.probe_count; ++i) {
    const int distinct = ctx.spec.distinct_queries;
    probe.push_back(distinct > 0 ? ctx.inputs.queries[i % distinct]
                                 : ctx.inputs.queries[30000 + i]);
  }
  if (!ProbeServing(ctx, probe, trace, root.id(), metrics)) {
    std::fprintf(stderr, "serving probe failed\n");
    return false;
  }
  if (!ProbeModel(ctx, *model, probe, trace, root.id(), metrics)) {
    std::fprintf(stderr, "model probe failed\n");
    return false;
  }
  return true;
}

}  // namespace perfbench
