// End-to-end benchmark binary. run.py starts one process of it per set-up
// step and per timed job, so each job's peak RSS is its own:
//
//   lockdown_e2e setup <collect|analyze|ingest> --work DIR [config flags]
//   lockdown_e2e job   <collect|analyze|ingest> --work DIR [config flags]
//   lockdown_e2e trace <collect|analyze|ingest> --work DIR --trace-out FILE
//
// config flags: --students N --seed S --threads T [--reference]
//
// Every process prints one JSON object as its last stdout line. Jobs call
// only the library's public entry points and check what they return: each
// checked call is one operation, and it fails when it throws or when its
// output digest disagrees with the reference it is checked against.
//
// `trace` runs the same job with benchmark-side spans around every call into
// a module (kept in memory, written to --trace-out at the end), switches the
// library's own spans on around MeasurementPipeline::Collect and ::Process,
// and then runs the layer probes: calls that time a layer on its own
// (generation with a no-op sink, the DHCP/DNS index builds, a standalone
// census, a 1-thread baseline) or that time a layer this workload's path does
// not call.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/offline.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "core/study_context.h"
#include "dhcp/normalizer.h"
#include "dns/mapper.h"
#include "obs/trace.h"
#include "query/kernels.h"
#include "sim/generator.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "stream/streaming_study.h"
#include "util/memstats.h"
#include "util/thread_pool.h"
#include "util/time.h"
#include "world/catalog.h"

namespace {

namespace fs = std::filesystem;
using namespace lockdown;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// --- Output ------------------------------------------------------------------

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// One JSON object, keys in insertion order; values are pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string value) {
    fields_.emplace_back(std::string(key), std::move(value));
    return *this;
  }
  JsonObject& Number(std::string_view key, double v) { return Raw(key, Num(v)); }
  JsonObject& String(std::string_view key, std::string_view v) {
    return Raw(key, Quote(v));
  }
  [[nodiscard]] std::string Render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- Spans -------------------------------------------------------------------

// Benchmark-side spans. Each records its name, parent, start and end; the
// list stays in memory until the job ends. With tracing off a Span reads no
// clock and records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  class Span {
   public:
    Span(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.on_) return;
      index_ = tracer_.Open(std::move(name));
    }
    ~Span() {
      if (index_ >= 0) tracer_.Close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Summed duration of every span with this name.
  [[nodiscard]] double TotalMs(std::string_view name) const {
    double total = 0.0;
    for (const Record& r : spans_) {
      if (r.name == name) total += r.end_ms - r.start_ms;
    }
    return total;
  }

  /// Summed duration of the root spans opened at or after `since_ms`.
  [[nodiscard]] double RootMsSince(double since_ms) const {
    double total = 0.0;
    for (const Record& r : spans_) {
      if (r.parent < 0 && r.start_ms >= since_ms) total += r.end_ms - r.start_ms;
    }
    return total;
  }

  [[nodiscard]] double NowMs() const { return MsSince(epoch_); }

  /// Writes the spans as a JSON list; self time is a span's duration minus
  /// its direct children's.
  void Write(std::ostream& out) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Record& r : spans_) {
      if (r.parent >= 0) {
        child_ms[static_cast<std::size_t>(r.parent)] += r.end_ms - r.start_ms;
      }
    }
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      const double dur = r.end_ms - r.start_ms;
      out << "  " << JsonObject()
                         .String("name", r.name)
                         .Number("parent", r.parent)
                         .Number("start_ms", r.start_ms)
                         .Number("dur_ms", dur)
                         .Number("self_ms", dur - child_ms[i])
                         .Render()
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  struct Record {
    std::string name;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  int Open(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Record{std::move(name), parent, NowMs(), 0.0});
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
  }
  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ms = NowMs();
    open_.pop_back();
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

// Per-layer metrics of a traced run. The first value set for a name wins, so
// a value from the workload's own path is never replaced by a probe's.
class Layers {
 public:
  void Set(const std::string& name, double value, std::string_view unit) {
    values_.try_emplace(name, value, std::string(unit));
  }
  [[nodiscard]] bool Has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] double Get(const std::string& name) const {
    return values_.at(name).first;
  }
  [[nodiscard]] std::string Render() const {
    JsonObject obj;
    for (const auto& [name, v] : values_) {
      obj.Raw(name,
              JsonObject().Number("value", v.first).String("unit", v.second).Render());
    }
    return obj.Render();
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// The library's own spans (obs/trace.h) recorded so far, summed by name.
std::map<std::string, double> LibrarySpanMs() {
  std::ostringstream doc;
  obs::WriteChromeTrace(doc);
  std::map<std::string, double> ms;
  std::istringstream lines(doc.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto name_at = line.find("\"name\": \"");
    const auto dur_at = line.find("\"dur\": ");
    if (name_at == std::string::npos || dur_at == std::string::npos) continue;
    const auto begin = name_at + 9;
    const std::string name = line.substr(begin, line.find('"', begin) - begin);
    ms[name] += std::stod(line.substr(dur_at + 7)) / 1000.0;
  }
  return ms;
}

// Runs `call` with the library's spans switched on; returns their durations
// summed by name. Traced runs switch them on only around
// MeasurementPipeline::Collect and ::Process.
template <typename F>
std::map<std::string, double> WithLibrarySpans(F&& call) {
  obs::ResetTrace();
  obs::SetTracingEnabled(true);
  call();
  obs::SetTracingEnabled(false);
  std::map<std::string, double> ms = LibrarySpanMs();
  obs::ResetTrace();
  return ms;
}

// --- Operations and digests ----------------------------------------------------

struct Ops {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
  /// One checked public call: counts it, and records a throw as a failure.
  template <typename F>
  void Run(const std::string& name, F&& call) {
    ++attempted;
    try {
      call();
    } catch (const std::exception& e) {
      Fail(name + ": " + e.what());
    }
  }
};

// FNV-1a over the exact bytes of each value, field by field (never over a
// struct's padding).
class Digest {
 public:
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void Add(double v) { Bytes(&v, sizeof v); }
  void Add(std::int64_t v) { Bytes(&v, sizeof v); }
  void Add(std::uint64_t v) { Bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void Feed(Digest& d, double v) { d.Add(v); }
void Feed(Digest& d, int v) { d.Add(static_cast<std::int64_t>(v)); }
void Feed(Digest& d, std::size_t v) { d.Add(static_cast<std::uint64_t>(v)); }
template <typename T, std::size_t N>
void Feed(Digest& d, const std::array<T, N>& a) {
  for (const T& v : a) Feed(d, v);
}
void Feed(Digest& d, std::span<const double> values) {
  Feed(d, values.size());
  for (const double v : values) d.Add(v);
}
template <typename T>
void Feed(Digest& d, const std::vector<T>& rows) {
  Feed(d, rows.size());
  for (const T& row : rows) Feed(d, row);
}
void Feed(Digest& d, const analysis::DailySeries& s) { Feed(d, s.values()); }
void Feed(Digest& d, const analysis::BoxStats& b) {
  for (const double v : {b.p1, b.q1, b.median, b.q3, b.p95, b.p99, b.mean}) d.Add(v);
  Feed(d, b.n);
}
void Feed(Digest& d, const core::LockdownStudy::ActiveDevicesRow& r) {
  Feed(d, r.day);
  Feed(d, r.by_class);
  Feed(d, r.total);
}
void Feed(Digest& d, const stream::StreamingStudy::ActiveDevicesRow& r) {
  Feed(d, r.day);
  Feed(d, r.by_class);
  Feed(d, r.total);
}
void Feed(Digest& d, const core::LockdownStudy::BytesPerDeviceRow& r) {
  Feed(d, r.day);
  Feed(d, r.mean);
  Feed(d, r.median);
}
void Feed(Digest& d, const core::LockdownStudy::HourOfWeekResult& r) {
  for (const auto& week : r.weeks) Feed(d, week.values());
  Feed(d, r.normalization);
}
void Feed(Digest& d, const core::LockdownStudy::Fig4Row& r) {
  Feed(d, r.day);
  for (const double v : {r.intl_mobile_desktop, r.dom_mobile_desktop,
                         r.intl_unclassified, r.dom_unclassified}) {
    d.Add(v);
  }
}
void Feed(Digest& d, const core::LockdownStudy::SocialBox& b) {
  Feed(d, b.domestic);
  Feed(d, b.international);
}
void Feed(Digest& d, const core::LockdownStudy::SteamBox& b) {
  for (const auto* box : {&b.dom_bytes, &b.intl_bytes, &b.dom_conns, &b.intl_conns}) {
    Feed(d, *box);
  }
}
void Feed(Digest& d, const core::LockdownStudy::SwitchCounts& c) {
  Feed(d, c.active_february);
  Feed(d, c.active_post_shutdown);
  Feed(d, c.new_in_april_may);
}
void Feed(Digest& d, const core::LockdownStudy::CategoryVolumeRow& r) {
  Feed(d, r.day);
  for (const double v : {r.education, r.video_conferencing, r.streaming, r.social_media,
                         r.gaming, r.messaging, r.other}) {
    d.Add(v);
  }
}
void Feed(Digest& d, const core::LockdownStudy::DiurnalShapeResult& r) {
  Feed(d, r.weekday);
  Feed(d, r.weekend);
}
void Feed(Digest& d, const core::LockdownStudy::Headline& h) {
  Feed(d, h.peak_active_devices);
  Feed(d, h.trough_active_devices);
  Feed(d, h.post_shutdown_users);
  Feed(d, h.traffic_increase);
  Feed(d, h.distinct_sites_increase);
  Feed(d, h.international_devices);
  Feed(d, h.international_share);
}

// Output digest of every figure call, in call order.
using FigureDigests = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t Combined(const FigureDigests& figures) {
  Digest d;
  for (const auto& [name, digest] : figures) {
    d.Bytes(name.data(), name.size());
    d.Add(digest);
  }
  return d.value();
}

std::string Render(const FigureDigests& figures) {
  JsonObject obj;
  for (const auto& [name, digest] : figures) obj.String(name, Hex(digest));
  return obj.Render();
}

// Calls every figure method of `study` once. With `span_prefix` set, each
// figure's calls get one span named "<prefix>.<figure>".
template <typename Study>
FigureDigests RunFigures(const Study& study, const char* span_prefix, Tracer& tracer,
                         Ops& ops) {
  FigureDigests out;
  auto call = [&](const std::string& name, auto&& query) {
    ops.Run(name, [&] {
      Digest d;
      Feed(d, query());
      out.emplace_back(name, d.value());
    });
  };
  auto figure = [&](const char* group, auto&& body) {
    if (span_prefix == nullptr) {
      body();
      return;
    }
    const Tracer::Span span(tracer, std::string(span_prefix) + "." + group);
    body();
  };
  figure("fig1", [&] { call("fig1", [&] { return study.ActiveDevicesPerDay(); }); });
  figure("fig2", [&] { call("fig2", [&] { return study.BytesPerDevicePerDay(); }); });
  figure("fig3", [&] { call("fig3", [&] { return study.HourOfWeekVolume(); }); });
  figure("fig4",
         [&] { call("fig4", [&] { return study.MedianBytesExcludingZoom(); }); });
  figure("fig5", [&] { call("fig5", [&] { return study.ZoomDailyBytes(); }); });
  figure("fig6", [&] {
    for (int month = 2; month <= 5; ++month) {
      for (const auto app : {apps::SocialApp::kFacebook, apps::SocialApp::kInstagram,
                             apps::SocialApp::kTikTok}) {
        call(std::string("fig6.") + apps::ToString(app) + ".m" + std::to_string(month),
             [&] { return study.SocialDurations(app, month); });
      }
    }
  });
  figure("fig7", [&] {
    for (int month = 2; month <= 5; ++month) {
      call("fig7.m" + std::to_string(month), [&] { return study.SteamUsage(month); });
    }
  });
  figure("fig8", [&] {
    call("fig8.daily", [&] { return study.SwitchGameplayDaily(); });
    call("fig8.counts", [&] { return study.CountSwitches(); });
  });
  figure("categories",
         [&] { call("categories", [&] { return study.CategoryVolumes(); }); });
  figure("diurnal", [&] {
    call("diurnal", [&] {
      return study.DiurnalShape(0, util::StudyCalendar::NumDays() - 1);
    });
  });
  figure("headline", [&] { call("headline", [&] { return study.HeadlineStats(); }); });
  return out;
}

// Figures the streaming engine answers exactly at any budget; they must
// equal the batch study's bit for bit.
constexpr const char* kStreamingExact[] = {"fig5", "fig8.daily", "fig8.counts",
                                           "categories"};

// --- Configuration -------------------------------------------------------------

struct Options {
  std::string command;
  std::string workload;
  int students = 400;
  std::uint64_t seed = 2020;
  int threads = 4;
  bool reference = false;  ///< setup: also print the collect path's figures
  fs::path work;
  fs::path trace_out;
};

core::StudyConfig ConfigOf(const Options& o) {
  core::StudyConfig cfg = core::StudyConfig::Small(o.students, o.seed);
  cfg.threads = o.threads;
  return cfg;
}

store::SnapshotMeta MetaOf(const Options& o) {
  return store::SnapshotMeta{static_cast<std::uint64_t>(o.students), o.seed};
}

fs::path SnapshotPath(const Options& o) { return o.work / "campus.lds"; }
fs::path LogsPath(const Options& o) { return o.work / "logs"; }

// --- Jobs ------------------------------------------------------------------------

struct JobResult {
  double wall_s = 0.0;
  double load_s = 0.0;   ///< input -> in-memory Dataset
  double batch_s = 0.0;
  double stream_s = 0.0;
  double trace_root_ms = 0.0;  ///< root benchmark spans inside the job
  Clock::time_point done;      ///< end of the timed work
  double stage1_ms = 0.0;      ///< traced collect: Collect's sim/generate span
  Ops ops;
  FigureDigests batch;
  std::uint64_t kept_flows = 0;
  std::uint64_t devices = 0;
};

// Dataset-level layer metrics, the same on every workload's path.
void RecordCollection(const core::CollectionResult& r, Layers& layers) {
  const core::CollectionStats& s = r.stats;
  const auto ratio = [](double part, double whole) {
    return whole == 0 ? 0.0 : part / whole;
  };
  const double raw = static_cast<double>(s.raw_flows);
  const double attributed = static_cast<double>(s.raw_flows - s.unattributed);
  std::uint64_t resolved = 0;
  for (const core::Flow& f : r.dataset.flows()) resolved += f.domain != core::kNoDomain;
  const double kept = static_cast<double>(r.dataset.num_flows());
  layers.Set("dhcp.attributed_ratio", ratio(attributed, raw), "ratio");
  layers.Set("dns.resolved_ratio", ratio(static_cast<double>(resolved), kept), "ratio");
  layers.Set("privacy.visitor_flow_ratio",
             ratio(static_cast<double>(s.visitor_flows), attributed), "ratio");
  layers.Set("privacy.devices_retained", static_cast<double>(s.devices_retained),
             "count");
  layers.Set("core.kept_flows", kept, "count");
}

// The process layer's metrics from the library's pipeline/* spans of one
// MeasurementPipeline::Process call.
void RecordProcess(const std::map<std::string, double>& lib, Layers& layers) {
  const auto ms = [&lib](const std::string& name) {
    const auto it = lib.find("pipeline/" + name);
    return it == lib.end() ? 0.0 : it->second;
  };
  double spanned = 0.0;
  for (const char* pass : {"pass1_attribution", "pass2_retention_dns",
                           "pass3_assemble", "ua_sightings"}) {
    spanned += ms(pass);
    layers.Set(std::string("core.") + pass + "_ms", ms(pass), "ms");
  }
  layers.Set("core.process_ms", ms("process"), "ms");
  layers.Set("core.process_unspanned_ms", ms("process") - spanned, "ms");
  layers.Set("core.rss_after_process_mib", Mib(util::CurrentRssBytes()), "MiB");
}

// MeasurementPipeline::Collect under the library's spans. Records the flow,
// world and process layers; returns the time of Collect's stage 1 (its
// sim/generate span: generation, tap exclusion list and flow assembly).
double TracedCollect(const core::StudyConfig& cfg, core::CollectionResult& r,
                     Layers& layers, Ops& ops) {
  const auto lib = WithLibrarySpans([&] {
    ops.Run("Collect", [&] {
      r = core::MeasurementPipeline::Collect(cfg, world::ServiceCatalog::Default());
    });
  });
  layers.Set("flow.flows", static_cast<double>(r.stats.raw_flows), "count");
  layers.Set("world.tap_excluded", static_cast<double>(r.stats.tap_excluded), "count");
  RecordProcess(lib, layers);
  const auto it = lib.find("sim/generate");
  return it == lib.end() ? 0.0 : it->second;
}

// Untraced jobs analyze their Dataset this many times. The first pass is part
// of wall_s; batch_s and stream_s are the medians over all passes, which
// steadies these short, parallel phases.
constexpr int kAnalysisPasses = 3;

struct PassResult {
  double batch_s = 0.0;
  double stream_s = 0.0;
  FigureDigests batch;
};

// One analysis pass: the batch study with every figure, then the streaming
// study (32 MiB, the default budget) with every figure.
PassResult AnalysisPass(const core::Dataset& dataset, const Options& o, Tracer& tracer,
                        Layers* layers, Ops& ops) {
  const world::ServiceCatalog& catalog = world::ServiceCatalog::Default();
  PassResult pass;
  const auto t_batch = Clock::now();
  {
    std::optional<core::LockdownStudy> study;
    {
      const Tracer::Span span(tracer, "core.study_ctor");
      ops.Run("LockdownStudy", [&] { study.emplace(dataset, catalog, o.threads); });
    }
    if (study) pass.batch = RunFigures(*study, "core", tracer, ops);
  }
  pass.batch_s = MsSince(t_batch) / 1000.0;

  const auto t_stream = Clock::now();
  FigureDigests streamed;
  std::optional<stream::StreamingStudy> streaming;
  {
    const Tracer::Span span(tracer, "stream.ctor");
    stream::StreamingOptions options;
    options.threads = o.threads;
    ops.Run("StreamingStudy", [&] { streaming.emplace(dataset, catalog, options); });
  }
  if (streaming) {
    const Tracer::Span span(tracer, "stream.queries");
    streamed = RunFigures(*streaming, nullptr, tracer, ops);
  }
  pass.stream_s = MsSince(t_stream) / 1000.0;

  for (const char* name : kStreamingExact) {
    const auto find = [name](const FigureDigests& f) {
      return std::find_if(f.begin(), f.end(),
                          [name](const auto& e) { return e.first == name; });
    };
    const auto b = find(pass.batch);
    const auto s = find(streamed);
    if (b == pass.batch.end() || s == streamed.end() || b->second != s->second) {
      ops.Fail(std::string("streaming ") + name + " differs from batch");
    }
  }
  if (layers != nullptr && streaming) {
    const auto report = streaming->Accuracy();
    layers->Set("stream.state_mib", Mib(report.state_bytes), "MiB");
    layers->Set("sketch.reservoirs_exact", report.reservoirs_exact ? 1.0 : 0.0, "bool");
  }
  return pass;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// The part every workload shares once it holds the Dataset. Marks the end of
// the job's wall time after the first pass; a traced job makes only that one.
void AnalyzeDataset(const core::Dataset& dataset, const Options& o, Tracer& tracer,
                    Layers* layers, JobResult& job) {
  PassResult first = AnalysisPass(dataset, o, tracer, layers, job.ops);
  job.done = Clock::now();
  std::vector<double> batch_s{first.batch_s};
  std::vector<double> stream_s{first.stream_s};
  for (int i = 1; layers == nullptr && i < kAnalysisPasses; ++i) {
    const PassResult again = AnalysisPass(dataset, o, tracer, nullptr, job.ops);
    if (again.batch != first.batch) {
      job.ops.Fail("figures differ between analysis passes");
    }
    batch_s.push_back(again.batch_s);
    stream_s.push_back(again.stream_s);
  }
  job.batch_s = Median(batch_s);
  job.stream_s = Median(stream_s);
  job.batch = std::move(first.batch);
  job.kept_flows = dataset.num_flows();
  job.devices = dataset.num_devices();
}

// collect: MeasurementPipeline::Collect, then the shared analysis. The traced
// run times Collect's layers by the library's own spans.
void JobCollect(const Options& o, Tracer& tracer, Layers* layers, JobResult& job) {
  const core::StudyConfig cfg = ConfigOf(o);
  const auto t0 = Clock::now();
  core::CollectionResult r;
  {
    const Tracer::Span span(tracer, "core.collect");
    if (layers == nullptr) {
      job.ops.Run("Collect", [&] {
        r = core::MeasurementPipeline::Collect(cfg, world::ServiceCatalog::Default());
      });
    } else {
      job.stage1_ms = TracedCollect(cfg, r, *layers, job.ops);
    }
  }
  job.load_s = MsSince(t0) / 1000.0;
  if (layers != nullptr) RecordCollection(r, *layers);
  AnalyzeDataset(r.dataset, o, tracer, layers, job);
}

// analyze: zero-copy load of the snapshot the set-up wrote, then the shared
// analysis.
void JobAnalyze(const Options& o, Tracer& tracer, Layers* layers, JobResult& job) {
  const auto t0 = Clock::now();
  store::LoadedSnapshot snap;
  {
    const Tracer::Span span(tracer, "store.load");
    job.ops.Run("LoadSnapshot", [&] {
      store::LoadOptions options;
      options.mode = store::LoadMode::kMmap;
      snap = store::LoadSnapshot(SnapshotPath(o), options);
    });
  }
  job.load_s = MsSince(t0) / 1000.0;
  if (layers != nullptr) {
    layers->Set("store.load_ms", job.load_s * 1000.0, "ms");
    layers->Set("store.zero_copy", snap.zero_copy ? 1.0 : 0.0, "bool");
    layers->Set("store.rss_after_load_mib", Mib(util::CurrentRssBytes()), "MiB");
    RecordCollection(snap.collection, *layers);
  }
  AnalyzeDataset(snap.collection.dataset, o, tracer, layers, job);
}

std::uint64_t LogBytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const char* name : {core::LogFiles::kConn, core::LogFiles::kDhcp,
                           core::LogFiles::kDns, core::LogFiles::kUa}) {
    bytes += fs::file_size(dir / name);
  }
  return bytes;
}

// ReadRawInputs (strict), timed as the ingest layer.
core::RawInputs ReadLogs(const fs::path& dir, Tracer& tracer, Layers* layers,
                         Ops& ops) {
  core::RawInputs inputs;
  core::IngestSummary summary;
  const auto t0 = Clock::now();
  {
    const Tracer::Span span(tracer, "ingest.read");
    ops.Run("ReadRawInputs", [&] {
      inputs = core::ReadRawInputs(dir, ingest::IngestOptions{}, &summary);
    });
  }
  if (layers != nullptr) {
    const ingest::IngestReport total = summary.Total();
    layers->Set("ingest.read_ms", MsSince(t0), "ms");
    layers->Set("ingest.bytes_read", static_cast<double>(LogBytes(dir)), "bytes");
    layers->Set("ingest.lines_kept", static_cast<double>(total.kept), "count");
    layers->Set("ingest.lines_rejected", static_cast<double>(total.rejected), "count");
  }
  return inputs;
}

// SaveSnapshot (compressed) then VerifySnapshot, timed as the store layer.
void SaveAndVerify(const core::CollectionResult& r, const fs::path& path,
                   const Options& o, Tracer& tracer, Layers* layers, Ops& ops) {
  const auto t_save = Clock::now();
  {
    const Tracer::Span span(tracer, "store.save");
    ops.Run("SaveSnapshot", [&] {
      store::SaveOptions options;
      options.compress = true;
      store::SaveSnapshot(path, r, MetaOf(o), options);
    });
  }
  const double save_ms = MsSince(t_save);
  const auto t_verify = Clock::now();
  {
    const Tracer::Span span(tracer, "store.verify");
    ops.Run("VerifySnapshot", [&] { store::VerifySnapshot(path); });
  }
  if (layers != nullptr) {
    layers->Set("store.save_ms", save_ms, "ms");
    layers->Set("store.verify_ms", MsSince(t_verify), "ms");
    layers->Set("store.file_mib", Mib(fs::exists(path) ? fs::file_size(path) : 0),
                "MiB");
  }
}

// ingest: the exported TSV logs through ReadRawInputs (strict) and Process,
// a compressed snapshot saved and verified, then the shared analysis.
void JobIngest(const Options& o, Tracer& tracer, Layers* layers, JobResult& job) {
  const core::StudyConfig cfg = ConfigOf(o);
  const auto t0 = Clock::now();
  core::RawInputs inputs = ReadLogs(LogsPath(o), tracer, layers, job.ops);
  core::CollectionResult r;
  {
    const Tracer::Span span(tracer, "core.process");
    const auto process = [&] {
      job.ops.Run("Process", [&] {
        r = core::MeasurementPipeline::Process(
            std::move(inputs), core::MeasurementPipeline::MakeAnonymizer(cfg),
            cfg.visitor_min_days, o.threads);
      });
    };
    if (layers == nullptr) {
      process();
    } else {
      RecordProcess(WithLibrarySpans(process), *layers);
    }
  }
  job.load_s = MsSince(t0) / 1000.0;
  if (layers != nullptr) RecordCollection(r, *layers);
  SaveAndVerify(r, o.work / "ingest.lds", o, tracer, layers, job.ops);
  AnalyzeDataset(r.dataset, o, tracer, layers, job);
}

JobResult RunJob(const Options& o, Tracer& tracer, Layers* layers) {
  JobResult job;
  // Set-up work, kept out of wall_s: the catalog every path builds first.
  (void)world::ServiceCatalog::Default();
  const double since_ms = tracer.NowMs();
  const auto t0 = Clock::now();
  if (o.workload == "collect") {
    JobCollect(o, tracer, layers, job);
  } else if (o.workload == "analyze") {
    JobAnalyze(o, tracer, layers, job);
  } else {
    JobIngest(o, tracer, layers, job);
  }
  job.wall_s = std::chrono::duration<double>(job.done - t0).count();
  job.trace_root_ms = tracer.RootMsSince(since_ms);
  return job;
}

// --- Layer probes (traced runs only) ---------------------------------------------

template <typename F>
double TimeMs(F&& f) {
  const auto t0 = Clock::now();
  f();
  return MsSince(t0);
}

// Times the layers the job could not time by itself, and the 1-thread
// baseline. Values the job already set are kept (Layers::Set). `stage1_ms`
// is the job's own stage 1 time, or 0 where its path has no Collect.
void RunProbes(const Options& o, double stage1_ms, Layers& layers, Ops& ops) {
  const core::StudyConfig cfg = ConfigOf(o);
  const world::ServiceCatalog& catalog = world::ServiceCatalog::Default();
  Tracer off(false);

  // The simulator alone: a no-op sink that only counts events. Its DHCP and
  // DNS logs feed the index builds.
  {
    sim::TrafficGenerator generator(cfg.generator, catalog);
    std::uint64_t events = 0;
    const double ms = TimeMs(
        [&] { generator.Run([&events](const flow::TapEvent&) { ++events; }); });
    layers.Set("sim.generate_ms", ms, "ms");
    layers.Set("sim.tap_events", static_cast<double>(events), "count");
    layers.Set("dhcp.index_ms",
               TimeMs([&] { const dhcp::IpToMacNormalizer n(generator.dhcp_log()); }),
               "ms");
    layers.Set("dns.index_ms",
               TimeMs([&] { const dns::IpToDomainMapper m(generator.dns_log()); }),
               "ms");
  }
  core::CollectionResult r;
  if (stage1_ms == 0.0) stage1_ms = TracedCollect(cfg, r, layers, ops);
  layers.Set("flow.assemble_ms", stage1_ms - layers.Get("sim.generate_ms"), "ms");

  core::StudyConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  Layers one_thread;
  r = core::CollectionResult{};
  (void)TracedCollect(serial_cfg, r, one_thread, ops);
  layers.Set("core.process_speedup",
             one_thread.Get("core.process_ms") / layers.Get("core.process_ms"), "x");

  const core::Dataset& ds = r.dataset;
  {
    util::ThreadPool pool(o.threads);
    layers.Set("core.census_ms",
               TimeMs([&] { const core::StudyContext ctx(ds, catalog, pool); }), "ms");
  }
  const double serial_ctor_ms =
      TimeMs([&] { const core::LockdownStudy s(ds, catalog, 1); });
  layers.Set("core.study_ctor_speedup",
             serial_ctor_ms / layers.Get("core.study_ctor_ms"), "x");
  stream::StreamingOptions serial;
  serial.threads = 1;
  const double serial_stream_ms =
      TimeMs([&] { const stream::StreamingStudy s(ds, catalog, serial); });
  layers.Set("stream.ctor_speedup", serial_stream_ms / layers.Get("stream.ctor_ms"),
             "x");

  if (!layers.Has("store.save_ms")) {
    const fs::path path = o.work / "probe_coded.lds";
    SaveAndVerify(r, path, o, off, &layers, ops);
    fs::remove(path);
  }
  if (!layers.Has("store.load_ms")) {
    const fs::path path = o.work / "probe_raw.lds";
    ops.Run("SaveSnapshot", [&] { store::SaveSnapshot(path, r, MetaOf(o)); });
    r = core::CollectionResult{};
    store::LoadedSnapshot snap;
    store::LoadOptions options;
    options.mode = store::LoadMode::kMmap;
    layers.Set("store.load_ms", TimeMs([&] {
                 ops.Run("LoadSnapshot",
                         [&] { snap = store::LoadSnapshot(path, options); });
               }),
               "ms");
    layers.Set("store.zero_copy", snap.zero_copy ? 1.0 : 0.0, "bool");
    layers.Set("store.rss_after_load_mib", Mib(util::CurrentRssBytes()), "MiB");
    snap = store::LoadedSnapshot{};
    fs::remove(path);
  }
  r = core::CollectionResult{};
  if (!layers.Has("ingest.read_ms")) {
    const fs::path dir = o.work / "probe_logs";
    ops.Run("ExportLogs", [&] { core::ExportLogs(cfg, dir, catalog); });
    (void)ReadLogs(dir, off, &layers, ops);
    fs::remove_all(dir);
  }
}

// --- Commands --------------------------------------------------------------------

std::string Manifest(const Options& o) {
  return JsonObject()
      .Number("students", o.students)
      .Number("seed", static_cast<double>(o.seed))
      .Number("threads", o.threads)
      .String("kernels", query::ToString(query::ActiveKind()))
      .Number("lds_version", store::kFormatVersion)
      .Render();
}

std::string RenderOps(const Ops& ops) {
  std::string list = "[";
  for (std::size_t i = 0; i < ops.failures.size(); ++i) {
    list += (i ? ", " : "") + Quote(ops.failures[i]);
  }
  return JsonObject()
             .Number("attempted", ops.attempted)
             .Number("failed", ops.failed)
             .Raw("failures", list + "]")
             .Render();
}

// A catalog build takes ~0.1 ms and its time differs between processes by up
// to a third, so collect's set-up time is the median of many builds.
constexpr int kCatalogBuilds = 200;

// The collect path's figures of a campus: the reference run.py checks every
// job of its run against.
void AddReference(const core::Dataset& dataset, const Options& o, Ops& ops,
                  JsonObject& out) {
  Tracer off(false);
  const core::LockdownStudy study(dataset, world::ServiceCatalog::Default(), o.threads);
  const FigureDigests figures = RunFigures(study, nullptr, off, ops);
  out.Raw("figures", Render(figures))
      .String("batch_digest", Hex(Combined(figures)))
      .Number("kept_flows", static_cast<double>(dataset.num_flows()))
      .Number("devices", static_cast<double>(dataset.num_devices()));
}

int Setup(const Options& o) {
  const core::StudyConfig cfg = ConfigOf(o);
  const world::ServiceCatalog& catalog = world::ServiceCatalog::Default();
  JsonObject out;
  Ops ops;
  if (o.workload == "collect") {
    // What ServiceCatalog::Default() builds, timed kCatalogBuilds times.
    std::vector<double> ms;
    for (int i = 0; i < kCatalogBuilds; ++i) {
      ms.push_back(
          TimeMs([] { const world::ServiceCatalog c{world::DefaultServiceSpecs()}; }));
    }
    out.Number("setup_s", Median(ms) / 1000.0);
  } else if (o.workload == "analyze") {
    core::CollectionResult r;
    const auto t0 = Clock::now();
    ops.Run("Collect", [&] { r = core::MeasurementPipeline::Collect(cfg, catalog); });
    ops.Run("SaveSnapshot",
            [&] { store::SaveSnapshot(SnapshotPath(o), r, MetaOf(o)); });
    out.Number("setup_s", MsSince(t0) / 1000.0);
    if (o.reference) AddReference(r.dataset, o, ops, out);
  } else {
    const auto t0 = Clock::now();
    ops.Run("ExportLogs", [&] { core::ExportLogs(cfg, LogsPath(o), catalog); });
    out.Number("setup_s", MsSince(t0) / 1000.0);
    if (o.reference) {
      // Untimed: the same campus down the collect path.
      core::CollectionResult r;
      ops.Run("Collect", [&] { r = core::MeasurementPipeline::Collect(cfg, catalog); });
      AddReference(r.dataset, o, ops, out);
    }
  }
  out.Raw("ops", RenderOps(ops));
  std::cout << out.Render() << std::endl;
  return 0;
}

int Job(const Options& o, bool traced) {
  Tracer tracer(traced);
  Layers layers;
  JobResult job = RunJob(o, tracer, traced ? &layers : nullptr);
  JsonObject out;
  out.String("workload", o.workload)
      .Raw("manifest", Manifest(o))
      .Number("wall_s", job.wall_s)
      .Number("load_s", job.load_s)
      .Number("batch_s", job.batch_s)
      .Number("stream_s", job.stream_s)
      .Number("kept_flows", static_cast<double>(job.kept_flows))
      .Number("devices", static_cast<double>(job.devices))
      .String("batch_digest", Hex(Combined(job.batch)))
      .Raw("figures", Render(job.batch));
  if (traced) {
    for (const char* span : {"core.fig1", "core.fig2", "core.fig3", "core.fig4",
                             "core.fig5", "core.fig6", "core.fig7", "core.fig8",
                             "core.categories", "core.diurnal", "core.headline",
                             "core.study_ctor", "stream.ctor", "stream.queries"}) {
      layers.Set(std::string(span) + "_ms", tracer.TotalMs(span), "ms");
    }
    layers.Set("trace.coverage", job.trace_root_ms / (job.wall_s * 1000.0), "ratio");
    {
      const Tracer::Span span(tracer, "probes");
      RunProbes(o, job.stage1_ms, layers, job.ops);
    }
    out.Raw("layers", layers.Render());
    std::ofstream trace_file(o.trace_out);
    tracer.Write(trace_file);
  }
  out.Raw("ops", RenderOps(job.ops));
  std::cout << out.Render() << std::endl;
  return 0;
}

int Usage() {
  std::cerr << "usage: lockdown_e2e <setup|job|trace> <collect|analyze|ingest>\n"
               "       --work DIR\n"
               "       [--students N] [--seed S] [--threads T] [--reference]\n"
               "       [--trace-out FILE]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (argc < 3) return Usage();
  o.command = argv[1];
  o.workload = argv[2];
  if (o.command != "setup" && o.command != "job" && o.command != "trace") {
    return Usage();
  }
  if (o.workload != "collect" && o.workload != "analyze" && o.workload != "ingest") {
    return Usage();
  }
  try {
    for (int i = 3; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--reference") {
        o.reference = true;
        continue;
      }
      if (i + 1 >= argc) return Usage();
      const std::string value = argv[++i];
      if (flag == "--students") {
        o.students = std::stoi(value);
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--threads") {
        o.threads = std::stoi(value);
      } else if (flag == "--work") {
        o.work = value;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        return Usage();
      }
    }
    if (o.work.empty() || (o.command == "trace" && o.trace_out.empty())) return Usage();
    fs::create_directories(o.work);
    if (o.command == "setup") return Setup(o);
    return Job(o, o.command == "trace");
  } catch (const std::exception& e) {
    std::cerr << "lockdown_e2e: " << e.what() << "\n";
    return 2;
  }
}
