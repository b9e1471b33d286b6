#include "layers.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "accel/accelerator.h"
#include "engine/evaluator.h"
#include "hdfg/graph.h"
#include "hdfg/translator.h"
#include "ml/algorithms.h"
#include "ml/datasets.h"

namespace dana::e2e {

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

Spans::Spans() : origin_(Clock::now()) {}

Spans::Layer* Spans::layer(const std::string& name) {
  auto& slot = layers_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Layer>();
    slot->name = name;
  }
  return slot.get();
}

Spans::Scope::Scope(Spans* spans, Layer* layer, uint64_t rep, int64_t query)
    : spans_(spans), layer_(layer), rep_(rep), query_(query) {
  if (spans_ == nullptr) return;
  seq_ = spans_->Open();
  start_ = Clock::now();
}

Spans::Scope::Scope(Spans* spans, const char* layer, uint64_t rep,
                    int64_t query)
    : Scope(spans, spans == nullptr ? nullptr : spans->layer(layer), rep,
            query) {}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->Close(layer_, start_, seq_, rep_, query_);
}

uint64_t Spans::Open() {
  const uint64_t seq = next_seq_++;
  open_.push_back(seq);
  return seq;
}

void Spans::Close(Layer* layer, Clock::time_point start, uint64_t seq,
                  uint64_t rep, int64_t query) {
  const Clock::time_point end = Clock::now();
  layer->seconds += std::chrono::duration<double>(end - start).count();
  ++layer->calls;
  open_.pop_back();
  const uint64_t parent = open_.empty() ? 0 : open_.back();
  if (parent != 0 && kept_per_rep_[rep] >= kMaxEventsPerRep) {
    ++dropped_;
    return;
  }
  ++kept_per_rep_[rep];
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  events_.push_back({layer, ns(start), ns(end), seq, parent, rep, query});
}

void Spans::Count(const std::string& name, double n) { counts_[name] += n; }

void CountPool(Spans* spans, const storage::BufferPoolStats& stats) {
  if (spans == nullptr) return;
  spans->Count("storage.hits", static_cast<double>(stats.hits));
  spans->Count("storage.misses", static_cast<double>(stats.misses));
  spans->Count("storage.evictions", static_cast<double>(stats.evictions));
  spans->Count("storage.tier1_hits", static_cast<double>(stats.os_hits));
}

obs::Json Spans::ChromeTrace() const {
  obs::Json events = obs::Json::Array();
  obs::Json meta = obs::Json::Object();
  meta.Set("name", "process_name");
  meta.Set("ph", "M");
  meta.Set("pid", 1);
  obs::Json meta_args = obs::Json::Object();
  meta_args.Set("name", "bench_e2e (host clock)");
  meta.Set("args", std::move(meta_args));
  events.Append(std::move(meta));
  // Recorded at close, so children precede their parents; viewers want
  // start order.
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(&e);
  std::stable_sort(order.begin(), order.end(),
                   [](const Event* a, const Event* b) {
                     return a->start_ns < b->start_ns ||
                            (a->start_ns == b->start_ns && a->seq < b->seq);
                   });
  for (const Event* e : order) {
    obs::Json ev = obs::Json::Object();
    ev.Set("name", e->layer->name);
    ev.Set("cat", e->layer->name.substr(0, e->layer->name.find('.')));
    ev.Set("ph", "X");
    ev.Set("ts", static_cast<double>(e->start_ns) / 1e3);
    ev.Set("dur", static_cast<double>(e->end_ns - e->start_ns) / 1e3);
    ev.Set("pid", 1);
    ev.Set("tid", 1);
    obs::Json args = obs::Json::Object();
    args.Set("span", e->seq);
    args.Set("parent", e->parent);
    args.Set("rep", e->rep);
    if (e->query >= 0) args.Set("query", e->query);
    ev.Set("args", std::move(args));
    events.Append(std::move(ev));
  }
  obs::Json doc = obs::Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  doc.Set("droppedSpans", static_cast<uint64_t>(dropped_));
  return doc;
}

// ---------------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------------

namespace {

/// The split Accelerator::DecodeTuple performs (private there): each input
/// then output variable's fp32 elements, back to back.
dana::Status DecodeTuple(const compiler::ScalarProgram& prog,
                         const std::vector<uint8_t>& payload,
                         engine::TupleData* out) {
  if (payload.size() < 4 * prog.TupleElements()) {
    return Status::Corruption("short tuple payload in replay");
  }
  size_t off = 0;
  auto take = [&](const std::shared_ptr<const dsl::Var>& var,
                  std::vector<float>* dst) {
    const uint64_t n = hdfg::NumElements(var->dims);
    dst->resize(n);
    std::memcpy(dst->data(), payload.data() + off, n * 4);
    off += n * 4;
  };
  out->inputs.resize(prog.input_vars.size());
  out->outputs.resize(prog.output_vars.size());
  for (size_t i = 0; i < prog.input_vars.size(); ++i) {
    take(prog.input_vars[i], &out->inputs[i]);
  }
  for (size_t i = 0; i < prog.output_vars.size(); ++i) {
    take(prog.output_vars[i], &out->outputs[i]);
  }
  return Status::OK();
}

}  // namespace

dana::Status ReplayGenerate(const ml::Workload& workload, Spans* spans,
                            uint64_t rep) {
  ml::Dataset data;
  {
    Spans::Scope s(spans, "ml.generate", rep);
    data = ml::GenerateDataset(workload.dataset_spec());
  }
  storage::PageLayout layout;
  layout.page_size = 32 * 1024;  // WorkloadInstance::Create's default
  Spans::Scope s(spans, "ml.build_table", rep);
  return ml::BuildTable(workload.id, data, layout).status();
}

dana::Result<compiler::CompiledUdf> ReplayCompile(
    const runtime::WorkloadInstance& instance, Spans* spans, uint64_t rep) {
  const ml::Workload& w = instance.workload();
  DANA_ASSIGN_OR_RETURN(auto algo, ml::BuildAlgo(w.kind, w.params));
  hdfg::Graph graph;
  {
    Spans::Scope s(spans, "hdfg.translate", rep);
    DANA_ASSIGN_OR_RETURN(graph, hdfg::Translator::Translate(*algo));
  }
  {
    Spans::Scope s(spans, "compiler.lower", rep);
    DANA_RETURN_NOT_OK(compiler::LowerGraph(graph).status());
  }
  const runtime::DanaSystem system{runtime::CpuCostModel{}};
  auto udf = [&] {
    Spans::Scope s(spans, "compiler.compile", rep);
    return system.Compile(instance);
  }();
  if (udf.ok() && spans != nullptr) {
    spans->Count("compiler.tuple_ops",
                 static_cast<double>(udf->program.tuple_ops.size()));
  }
  return udf;
}

dana::Status ReplayEpoch(const compiler::CompiledUdf& udf,
                         runtime::WorkloadInstance* instance,
                         runtime::CacheState cache, Spans* spans,
                         uint64_t rep, int64_t query,
                         std::map<std::string, double>* sim) {
  const ml::Workload& w = instance->workload();
  const storage::Table& table = instance->table();
  storage::BufferPool* pool = instance->pool();
  const std::vector<float> initial = ml::InitialModel(w.kind, w.params);

  accel::RunOptions run;
  run.initial_models = {initial};
  run.max_epochs_override = 1;
  run.cpu_extract_per_tuple = runtime::CpuCostModel{}.cpu_extract_per_tuple;
  instance->PrepareCache(cache);
  accel::RunReport report;
  {
    Spans::Scope s(spans, "accel.train", rep, query);
    DANA_ASSIGN_OR_RETURN(report,
                          accel::Accelerator(udf).Train(table, pool, run));
  }
  if (report.epochs.size() != 1) {
    return Status::Internal("replayed epoch count mismatch");
  }
  const accel::EpochBreakdown& bd = report.epochs.front();
  const double scale = instance->scale();
  const std::pair<const char*, double> stages[] = {
      {"io", bd.io.seconds() * scale},
      {"axi", bd.axi.seconds() * scale},
      {"strider", bd.strider.seconds() * scale},
      {"engine", bd.engine.seconds() * scale}};
  const auto* bound = &stages[0];
  for (const auto& stage : stages) {
    (*sim)[std::string("accel.sim_") + stage.first + "_s"] += stage.second;
    if (stage.second > bound->second) bound = &stage;
  }
  (*sim)[std::string("accel.bound_") + bound->first] += 1;

  // The same epoch, one public layer call at a time.
  const compiler::ScalarProgram& prog = udf.program;
  instance->PrepareCache(cache);
  engine::ScalarEvaluator evaluator(prog);
  DANA_RETURN_NOT_OK(evaluator.SetModel(0, initial));
  accel::AccessEngineConfig config;
  config.num_page_buffers = udf.design.num_page_buffers;
  accel::AccessEngine access(config, udf.strider_program);
  const size_t batch_size = std::max<uint32_t>(prog.merge_coef, 1);
  std::vector<engine::TupleData> batch;
  batch.reserve(batch_size);
  uint64_t tuples = 0;

  Spans::Layer* fetch = spans->layer("storage.fetch");
  Spans::Layer* walk = spans->layer("strider.walk");
  Spans::Layer* eval = spans->layer("engine.eval");
  auto flush = [&]() -> dana::Status {
    if (batch.empty()) return Status::OK();
    Spans::Scope s(spans, eval, rep, query);
    DANA_RETURN_NOT_OK(evaluator.EvalBatch(batch));
    batch.clear();
    return Status::OK();
  };
  Spans::Scope replay(spans, "accel.replay", rep, query);
  for (uint64_t p = 0; p < table.num_pages(); ++p) {
    const uint8_t* frame = nullptr;
    {
      Spans::Scope s(spans, fetch, rep, query);
      DANA_ASSIGN_OR_RETURN(frame, pool->FetchPage(table, p));
    }
    accel::PageExtraction extraction;
    {
      Spans::Scope s(spans, walk, rep, query);
      DANA_ASSIGN_OR_RETURN(
          extraction,
          access.WalkPage(std::span<const uint8_t>(
              frame, table.layout().page_size)));
    }
    for (const auto& payload : extraction.tuples) {
      engine::TupleData tuple;
      DANA_RETURN_NOT_OK(DecodeTuple(prog, payload, &tuple));
      batch.push_back(std::move(tuple));
      ++tuples;
      if (batch.size() >= batch_size) DANA_RETURN_NOT_OK(flush());
    }
  }
  DANA_RETURN_NOT_OK(flush());
  DANA_RETURN_NOT_OK(evaluator.EvalConvergence().status());
  // The replay did Train's work only if it trained the same model.
  if (tuples != report.tuples_processed ||
      evaluator.Model(0) != report.final_models.front()) {
    return Status::Internal("the replayed epoch of " + w.id +
                            " differs from Accelerator::Train's");
  }
  spans->Count("strider.pages", static_cast<double>(table.num_pages()));
  spans->Count("strider.tuples", static_cast<double>(tuples));
  spans->Count("engine.ops", static_cast<double>(evaluator.ops_executed()));
  return Status::OK();
}

}  // namespace dana::e2e
